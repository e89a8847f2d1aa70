"""Exporters for the forensics layer.

Three output shapes:

* **Chrome trace** — the ``{"traceEvents": [...]}`` JSON that
  ``chrome://tracing`` / Perfetto open directly.  Plain spans go on one
  lane per deployment (span-tree root); component spans go on one lane
  per simulation process (or per callback-machine lane, e.g. one AoE
  serve).  Timestamps are microseconds of *simulated* time.
* **Folded stacks** — ``comp:name;comp:name self_us`` lines, the input
  format of ``flamegraph.pl`` and speedscope.
* **Profile report** — the machine-readable dict behind
  ``repro profile``: total time, per-component wall partition (sums to
  the total by construction), critical-path latency budget, provenance
  source counts.
"""

from __future__ import annotations

import json


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def chrome_trace_document(telemetry, pid: int = 1,
                          process_name: str = "repro") -> dict:
    """Build a Chrome-trace JSON document from one telemetry bundle.

    Works with plain spans alone; component (``proc:``) lanes and the
    causal marks appear when the bundle was built with
    ``forensics=True``.
    """
    events: list[dict] = []
    tids: dict[str, int] = {}

    def tid_for(label: str) -> int:
        tid = tids.get(label)
        if tid is None:
            tid = tids[label] = len(tids) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": label},
            })
        return tid

    events.append({
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": process_name},
    })

    now = telemetry.env.now if telemetry.env is not None else 0.0
    tracer = telemetry.tracer
    root_lanes = {id(root): f"spans:{root.name}#{index}"
                  for index, root in enumerate(tracer.roots)}

    for span in tracer.spans:
        if span.component is not None:
            # A component span: a finished slice on its process lane.
            if span.end is None:
                continue
            events.append({
                "ph": "X", "pid": pid, "tid": tid_for(f"proc:{span.lane}"),
                "name": f"{span.component}:{span.name}",
                "ts": _us(span.start),
                "dur": _us(max(0.0, span.end - span.start)),
                "cat": span.component,
            })
            continue
        # A plain span: on the lane of its deployment (its root).
        root = span
        while root.parent is not None:
            root = root.parent
        end = span.end if span.end is not None else now
        event = {
            "ph": "X", "pid": pid,
            "tid": tid_for(root_lanes.get(id(root), f"spans:{root.name}")),
            "name": span.name,
            "ts": _us(span.start),
            "dur": _us(max(0.0, end - span.start)),
            "cat": "span",
        }
        if span.attrs:
            event["args"] = {key: value for key, value
                             in span.attrs.items()
                             if isinstance(value, (str, int, float,
                                                   bool))}
        events.append(event)

    # Critical-path marks as instant events on their own lane.
    causal = telemetry.causal
    if causal.marks:
        tid = tid_for("marks")
        for name, (_node, at) in sorted(causal.marks.items(),
                                        key=lambda kv: kv[1][1]):
            events.append({
                "ph": "i", "pid": pid, "tid": tid, "name": name,
                "ts": _us(at), "s": "g", "cat": "mark",
            })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated-seconds",
                      "total_sim_seconds": now},
    }


def write_chrome_trace(path, runs: dict) -> dict:
    """Write ``runs`` (telemetry bundles by label) to ``path`` as one
    Chrome trace, one pid per run, named by its label; returns it."""
    events: list[dict] = []
    total = 0.0
    for index, (label, telemetry) in enumerate(runs.items()):
        document = chrome_trace_document(telemetry, pid=index + 1,
                                         process_name=label)
        events.extend(document["traceEvents"])
        total = max(total, document["otherData"]["total_sim_seconds"])
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated-seconds",
                      "total_sim_seconds": total},
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=None,
                  separators=(",", ":"), sort_keys=False)
        handle.write("\n")
    return document


def folded_stacks(telemetry) -> str:
    """Component stacks in ``flamegraph.pl`` folded format (µs weights)."""
    lines = [
        f"{stack} {max(1, round(seconds * 1e6))}"
        for stack, seconds in sorted(telemetry.tracer.folded.items())
        if seconds > 0.0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def profile_report(telemetry, anchor: str | None = None) -> dict:
    """The dict behind ``repro profile``.

    ``components`` partitions total simulated time (the values sum to
    ``total_sim_seconds`` exactly); ``critical_path`` is the per-
    component latency budget of the causal chain ending at ``anchor``
    (default: devirtualize / deploy-complete).
    """
    env = telemetry.env
    total = env.now if env is not None else 0.0
    causal = telemetry.causal
    provenance = telemetry.provenance
    shares = causal.component_times(until=total)
    return {
        "total_sim_seconds": total,
        "components": dict(sorted(shares.items(),
                                  key=lambda kv: (-kv[1], kv[0]))),
        "critical_path": causal.latency_budget(anchor),
        "tracked": dict(sorted(telemetry.tracer.component_self.items(),
                               key=lambda kv: (-kv[1], kv[0]))),
        "provenance_sources": provenance.sources(),
        "causal": causal.to_dict(),
    }


def format_profile(report: dict) -> str:
    """Human-readable rendering of :func:`profile_report`."""
    lines = []
    total = report["total_sim_seconds"]
    lines.append(f"Total simulated time: {total:.3f} s")

    components = report.get("components") or {}
    if components:
        lines.append("")
        lines.append("Component wall partition (sums to total):")
        for component, seconds in components.items():
            share = seconds / total if total > 0 else 0.0
            lines.append(f"  {component:<12} {seconds:>10.3f} s"
                         f"  {share:>6.1%}")

    path = report.get("critical_path") or {}
    budget = path.get("budget") or []
    if budget:
        lines.append("")
        anchor = path.get("anchor")
        anchor_at = path.get("anchor_seconds", 0.0)
        lines.append(f"Critical path to {anchor!r} "
                     f"({anchor_at:.3f} s, {path.get('steps', 0)} hops):")
        for entry in budget:
            lines.append(f"  {entry['component']:<12} "
                         f"{entry['seconds']:>10.3f} s"
                         f"  {entry['share']:>6.1%}")
        covered = sum(entry["share"] for entry in budget)
        lines.append(f"  {'(covered)':<12} {'':>10}   {covered:>6.1%}")

    tracked = report.get("tracked") or {}
    if tracked:
        lines.append("")
        lines.append("Tracked self-time by component:")
        for component, seconds in tracked.items():
            lines.append(f"  {component:<12} {seconds:>10.3f} s")

    sources = report.get("provenance_sources") or {}
    if sources:
        lines.append("")
        lines.append("Sampled block fetch sources:")
        for kind, count in sorted(sources.items(),
                                  key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {kind:<12} {count:>6} fetches")

    return "\n".join(lines)

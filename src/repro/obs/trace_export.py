"""Exporters for the forensics layer.

Three output shapes:

* **Chrome trace** — the ``{"traceEvents": [...]}`` JSON that
  ``chrome://tracing`` / Perfetto open directly.  Span-tree spans
  become one lane per deployment; profiler frames become one lane per
  simulation process (or per callback-machine lane, e.g. one AoE
  request).  Timestamps are microseconds of *simulated* time.
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

    Works with spans alone; profiler/causal lanes appear when the
    bundle was built with ``forensics=True``.
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

    # One lane per span-tree root (the deployments).
    for index, root in enumerate(telemetry.tracer.roots):
        tid = tid_for(f"spans:{root.name}#{index}")
        stack = [root]
        while stack:
            span = stack.pop()
            end = span.end if span.end is not None else now
            event = {
                "ph": "X", "pid": pid, "tid": tid,
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
            stack.extend(reversed(span.children))

    # One lane per simulation process or callback-machine lane, from
    # the profiler's frames.
    profiler = getattr(telemetry, "profiler", None)
    if profiler is not None:
        for (lane, component, name, start, end, depth,
             _self_time) in profiler.frames:
            events.append({
                "ph": "X", "pid": pid, "tid": tid_for(f"proc:{lane}"),
                "name": f"{component}:{name}",
                "ts": _us(start),
                "dur": _us(max(0.0, end - start)),
                "cat": component,
            })

    # Critical-path marks as instant events on their own lane.
    causal = getattr(telemetry, "causal", None)
    if causal is not None and causal.marks:
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


def write_chrome_trace(telemetry, path, pid: int = 1,
                       process_name: str = "repro") -> dict:
    document = chrome_trace_document(telemetry, pid=pid,
                                     process_name=process_name)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=None,
                  separators=(",", ":"), sort_keys=False)
        handle.write("\n")
    return document


def folded_stacks(telemetry) -> str:
    """Profiler stacks in ``flamegraph.pl`` folded format (µs weights)."""
    profiler = getattr(telemetry, "profiler", None)
    if profiler is None:
        return ""
    lines = [
        f"{stack} {max(1, round(seconds * 1e6))}"
        for stack, seconds in sorted(profiler.folded.items())
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
    causal = getattr(telemetry, "causal", None)
    profiler = getattr(telemetry, "profiler", None)
    provenance = getattr(telemetry, "provenance", None)
    report = {
        "total_sim_seconds": total,
        "components": {},
        "critical_path": {"anchor": None, "anchor_seconds": 0.0,
                          "steps": 0, "budget": []},
        "tracked": {},
        "provenance_sources": {},
        "causal": {"nodes": 0, "dropped": 0, "marks": {}},
    }
    if causal is not None:
        shares = causal.component_times(until=total)
        report["components"] = {component: seconds for component, seconds
                                in sorted(shares.items(),
                                          key=lambda kv: (-kv[1], kv[0]))}
        report["critical_path"] = causal.latency_budget(anchor)
        report["causal"] = causal.to_dict()
    if profiler is not None:
        report["tracked"] = dict(sorted(
            profiler.component_self.items(),
            key=lambda kv: (-kv[1], kv[0])))
    if provenance is not None:
        report["provenance_sources"] = provenance.sources()
    return report


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

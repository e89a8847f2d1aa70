"""Exporters: JSON dump, Prometheus text exposition, and a CLI summary.

The JSON document is the machine-readable record a bench or CI run
archives; the Prometheus format is what a scrape endpoint would serve;
the summary is what ``python -m repro metrics`` prints for humans, in
the same :func:`format_table` tables the benches print their figures in.
"""

from __future__ import annotations

import json


def telemetry_to_dict(telemetry) -> dict:
    """The full JSON-serializable telemetry document."""
    env = telemetry.env
    registry = telemetry.registry
    document = {
        "sim": {
            "now": env.now,
            "events_processed": getattr(env, "events_processed", 0),
            "processes_spawned": getattr(env, "processes_spawned", 0),
        },
        "counters": [
            {"name": counter.name, "labels": dict(counter.labels),
             "value": counter.value}
            for counter in registry.collect("counter")
        ],
        "gauges": [
            {"name": gauge.name, "labels": dict(gauge.labels),
             "value": gauge.value, "min": gauge.min, "max": gauge.max}
            for gauge in registry.collect("gauge")
        ],
        "histograms": [
            {"name": histogram.name, "labels": dict(histogram.labels),
             "unit": histogram.unit,
             **histogram.summary(),
             "buckets": [[bound, count] for bound, count
                         in histogram.bucket_bounds()]}
            for histogram in registry.collect("histogram")
        ],
        "series": [_series_to_dict(series)
                   for series in registry.collect("series")],
    }
    document.update(telemetry.tracer.to_dict())
    return document


def _series_to_dict(series) -> dict:
    entry = {"name": series.name, "labels": dict(series.labels),
             "unit": series.unit, "samples": len(series)}
    if len(series):
        ts = series.series
        entry.update({
            "mean": ts.mean(),
            "time_weighted_mean": ts.time_weighted_mean(),
            "min": ts.min(),
            "max": ts.max(),
            "p50": ts.percentile(0.50),
            "p95": ts.percentile(0.95),
            "p99": ts.percentile(0.99),
        })
    return entry


def write_telemetry(path, runs) -> None:
    """Dump to ``path``: Prometheus text for ``.prom``, else JSON.

    ``runs`` is one telemetry bundle, or a dict of bundles by label for
    several runs in one file: one JSON key per label, a ``# run:
    <label>`` line before each run's Prometheus text.
    """
    prometheus = str(path).endswith(".prom")
    if not isinstance(runs, dict):
        text = runs.to_prometheus() if prometheus \
            else json.dumps(runs.to_dict(), indent=2, sort_keys=True) + "\n"
    elif prometheus:
        text = "".join(f"# run: {label}\n{telemetry.to_prometheus()}"
                       for label, telemetry in runs.items())
    else:
        text = json.dumps({label: telemetry.to_dict()
                           for label, telemetry in runs.items()},
                          indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# -- Prometheus text exposition ------------------------------------------------------


def _label_string(labels, extra: dict | None = None) -> str:
    pairs = list(labels) + sorted((extra or {}).items())
    if not pairs:
        return ""
    rendered = ",".join(
        f'{key}="{_escape(str(value))}"' for key, value in pairs)
    return "{" + rendered + "}"


def _escape(value: str) -> str:
    # Label values: backslash first, then quote and newline — the
    # exposition-format escaping rules.
    return value.replace("\\", r"\\").replace('"', r'\"') \
                .replace("\n", r"\n")


def _escape_help(value: str) -> str:
    # HELP text escapes backslash and newline only (quotes are legal).
    return value.replace("\\", r"\\").replace("\n", r"\n")


def telemetry_to_prometheus(telemetry) -> str:
    """Prometheus text-format exposition of the registry."""
    lines: list[str] = []
    seen_types: set = set()
    registry = telemetry.registry

    def declare(name: str, kind: str, help: str) -> None:
        if name in seen_types:
            return
        seen_types.add(name)
        if help:
            lines.append(f"# HELP {name} {_escape_help(help)}")
        lines.append(f"# TYPE {name} {kind}")

    for counter in registry.collect("counter"):
        declare(counter.name, "counter", counter.help)
        lines.append(f"{counter.name}{_label_string(counter.labels)} "
                     f"{_number(counter.value)}")

    for gauge in registry.collect("gauge"):
        declare(gauge.name, "gauge", gauge.help)
        lines.append(f"{gauge.name}{_label_string(gauge.labels)} "
                     f"{_number(gauge.value)}")

    for histogram in registry.collect("histogram"):
        declare(histogram.name, "histogram", histogram.help)
        cumulative = 0
        for bound, count in histogram.bucket_bounds():
            cumulative += count
            lines.append(
                f"{histogram.name}_bucket"
                f"{_label_string(histogram.labels, {'le': _number(bound)})}"
                f" {cumulative}")
        lines.append(
            f"{histogram.name}_bucket"
            f"{_label_string(histogram.labels, {'le': '+Inf'})}"
            f" {histogram.count}")
        lines.append(f"{histogram.name}_sum"
                     f"{_label_string(histogram.labels)} "
                     f"{_number(histogram.sum)}")
        lines.append(f"{histogram.name}_count"
                     f"{_label_string(histogram.labels)} "
                     f"{histogram.count}")

    for series in registry.collect("series"):
        name = series.name
        declare(name, "gauge", series.help)
        if len(series):
            ts = series.series
            last_time, last_value = ts.samples[-1]
            lines.append(f"{name}{_label_string(series.labels)} "
                         f"{_number(last_value)}")

    return "\n".join(lines) + "\n"


def _number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# -- human summary -------------------------------------------------------------------


def format_table(headers: list, rows: list, title: str = "") -> str:
    """Monospace table with right-aligned numeric columns."""
    columns = len(headers)
    rendered_rows = []
    for row in rows:
        if len(row) != columns:
            raise ValueError("row width does not match headers")
        rendered_rows.append([_render(cell) for cell in row])
    widths = [
        max(len(str(headers[index])),
            *(len(row[index]) for row in rendered_rows)) if rendered_rows
        else len(str(headers[index]))
        for index in range(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(
        str(header).ljust(widths[index])
        for index, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(
            cell.rjust(widths[index]) if _is_numeric(cell)
            else cell.ljust(widths[index])
            for index, cell in enumerate(row)))
    return "\n".join(lines)


def _render(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def telemetry_summary(telemetry, span_limit: int = 40) -> str:
    """The ``repro metrics`` report: phases, counters, percentiles.

    The span tree always lists the structural spans (roots and their
    direct children: deploys and their phases); deeper spans fill the
    rows left under ``span_limit`` in tree order.
    """
    sections: list[str] = []
    now = telemetry.env.now

    spans = []
    for span in telemetry.tracer.walk():
        depth = 0
        parent = span.parent
        while parent is not None:
            depth += 1
            parent = parent.parent
        spans.append((span, depth))
    room = span_limit - sum(depth <= 1 for _, depth in spans)
    span_rows = []
    for span, depth in spans:
        if depth > 1:
            if room <= 0:
                continue
            room -= 1
        end = span.end if span.end is not None else now
        span_rows.append(["  " * depth + span.name,
                          round(span.start, 3), round(end, 3),
                          round(end - span.start, 3)])
    if span_rows:
        sections.append(format_table(
            ["span", "start (s)", "end (s)", "duration (s)"], span_rows,
            title="Deployment span tree"))

    counter_rows = [
        [counter.name, _label_suffix(counter.labels),
         _number(counter.value)]
        for counter in telemetry.registry.collect("counter")
        if counter.value]
    if counter_rows:
        sections.append(format_table(["counter", "labels", "value"],
                                     counter_rows, title="Counters"))

    gauge_rows = [
        [gauge.name, _label_suffix(gauge.labels), _number(gauge.value),
         _number(gauge.max if gauge.max is not None else 0.0)]
        for gauge in telemetry.registry.collect("gauge")]
    if gauge_rows:
        sections.append(format_table(["gauge", "labels", "last", "max"],
                                     gauge_rows, title="Gauges"))

    histogram_rows = []
    for histogram in telemetry.registry.collect("histogram"):
        if not histogram.count:
            continue
        summary = histogram.summary()
        histogram_rows.append([
            histogram.name, _label_suffix(histogram.labels),
            summary["count"],
            _round_sig(summary["mean"]), _round_sig(summary["p50"]),
            _round_sig(summary["p95"]), _round_sig(summary["p99"]),
        ])
    if histogram_rows:
        sections.append(format_table(
            ["histogram", "labels", "n", "mean", "p50", "p95", "p99"],
            histogram_rows, title="Latency histograms (seconds)"))

    if not sections:
        return "(no telemetry recorded)"
    return "\n\n".join(sections)


def _label_suffix(labels) -> str:
    return ",".join(f"{key}={value}" for key, value in labels) or "-"


def _round_sig(value: float, digits: int = 4) -> float:
    if value == 0:
        return 0.0
    from math import floor, log10
    return round(value, digits - 1 - floor(log10(abs(value))))

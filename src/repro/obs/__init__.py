"""Deployment telemetry: labeled metrics, phase spans, exporters.

Usage::

    env = Environment()
    telemetry = Telemetry(env)
    testbed = build_testbed(env=env, telemetry=telemetry)
    ...
    telemetry.write("metrics.json")     # or .prom
    print(telemetry.summary())

Everything defaults to :data:`NULL_TELEMETRY` (zero-cost no-ops), so
simulations that don't ask for telemetry are unchanged.
"""

from repro.obs.causal import (
    NULL_CAUSAL,
    CausalTracer,
    NullCausalTracer,
    classify_actor,
)
from repro.obs.export import (
    format_table,
    telemetry_summary,
    telemetry_to_dict,
    telemetry_to_prometheus,
    write_json,
)
from repro.obs.profile import NULL_PROFILER, NullSimProfiler, SimProfiler
from repro.obs.provenance import (
    NULL_PROVENANCE,
    BlockProvenance,
    NullBlockProvenance,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Series,
    TimeSeries,
)
from repro.obs.spans import (
    AMBIENT,
    NULL_TRACER,
    NullSpanTracer,
    Span,
    SpanTracer,
)
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry
from repro.obs.trace_export import (
    chrome_trace_document,
    folded_stacks,
    format_profile,
    profile_report,
    write_chrome_trace,
)

__all__ = [
    "AMBIENT", "BlockProvenance", "CausalTracer", "Counter", "Gauge",
    "Histogram", "MetricsRegistry", "NullBlockProvenance",
    "NullCausalTracer", "NullRegistry", "NullSimProfiler",
    "NullSpanTracer", "NullTelemetry", "NULL_CAUSAL", "NULL_PROFILER",
    "NULL_PROVENANCE", "NULL_REGISTRY", "NULL_TELEMETRY", "NULL_TRACER",
    "Series", "SimProfiler", "Span", "SpanTracer", "Telemetry",
    "TimeSeries", "chrome_trace_document", "classify_actor",
    "folded_stacks", "format_profile", "format_table", "profile_report",
    "telemetry_summary", "telemetry_to_dict", "telemetry_to_prometheus",
    "write_chrome_trace", "write_json",
]

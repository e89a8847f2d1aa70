"""The telemetry bundle every layer receives: registry + span tracer.

One :class:`Telemetry` instance is created per simulation (by the CLI
or a bench) and threaded through the testbed into NICs, the AoE
endpoints, the mediators, and the copier.  Every constructor defaults
to the shared :data:`NULL_TELEMETRY`, which makes all recording a no-op
— the deployment timeline is byte-for-byte identical with telemetry on,
off, or absent, because instruments only *read* the clock.
"""

from __future__ import annotations

from repro.obs.causal import NULL_CAUSAL, CausalTracer
from repro.obs.export import (
    telemetry_summary,
    telemetry_to_dict,
    telemetry_to_prometheus,
    write_telemetry,
)
from repro.obs.provenance import NULL_PROVENANCE, BlockProvenance
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import NULL_TRACER, SpanTracer


class Telemetry:
    """Live telemetry for one simulation environment.

    ``forensics=True`` additionally arms the deployment-forensics
    layer: the tracer's component spans (sim-time profiling), the
    causal event tracer (attached to the environment's
    ``schedule_hook``), and the per-block provenance recorder.  The
    last two stay at their shared Null stand-ins otherwise, and the
    tracer records only its plain span tree, so plain metric/span
    collection pays nothing for them.
    """

    enabled = True

    def __init__(self, env, span_capacity: int = 200_000,
                 forensics: bool = False,
                 provenance_stride: int = 16):
        self.env = env
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(env, capacity=span_capacity,
                                 profiling=forensics)
        self.forensics = forensics
        if forensics:
            self.causal = CausalTracer(env, tracer=self.tracer).attach()
            self.provenance = BlockProvenance(env,
                                              stride=provenance_stride)
        else:
            self.causal = NULL_CAUSAL
            self.provenance = NULL_PROVENANCE

    def to_dict(self) -> dict:
        return telemetry_to_dict(self)

    def to_prometheus(self) -> str:
        return telemetry_to_prometheus(self)

    def summary(self) -> str:
        return telemetry_summary(self)

    def write(self, path) -> None:
        """Dump to ``path``: Prometheus text for ``.prom``, else JSON."""
        write_telemetry(path, self)


class NullTelemetry:
    """Disabled bundle; shared, stateless, and write-proof."""

    enabled = False
    forensics = False
    env = None
    registry = NULL_REGISTRY
    tracer = NULL_TRACER
    causal = NULL_CAUSAL
    provenance = NULL_PROVENANCE

    def to_dict(self) -> dict:
        return {"sim": {}, "counters": [], "gauges": [],
                "histograms": [], "series": [], "spans": [],
                "recorded": 0, "dropped": 0}

    def to_prometheus(self) -> str:
        return ""

    def summary(self) -> str:
        return "(telemetry disabled)"

    def write(self, path) -> None:
        raise RuntimeError(
            "telemetry is disabled; build a Telemetry(env) and pass it "
            "through build_testbed(telemetry=...) to record metrics")


#: Shared disabled instance — the default everywhere.
NULL_TELEMETRY = NullTelemetry()

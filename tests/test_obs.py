"""Tests for the telemetry subsystem (repro.obs)."""

import json

import pytest

from repro.analysis import deployment_scenario
from repro.cli import main
from repro.cloud.provisioner import Provisioner
from repro.cloud.scenario import build_testbed
from repro.guest.osimage import OsImage
from repro.obs import (NULL_REGISTRY, NULL_TELEMETRY, NULL_TRACER,
                       MetricsRegistry, SpanTracer, Telemetry, TimeSeries,
                       telemetry_to_dict, telemetry_to_prometheus)
from repro.sim import Environment


def small_image(size_mb=256):
    return OsImage(size_bytes=size_mb * 2**20,
                   boot_read_bytes=24 * 2**20)


# -- registry ---------------------------------------------------------------


def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    counter = registry.counter("requests_total", op="read")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    gauge = registry.gauge("depth")
    gauge.set(3)
    gauge.add(-1)
    assert gauge.value == 2
    assert gauge.max == 3


def test_registry_identity_is_name_plus_labels():
    registry = MetricsRegistry()
    a = registry.counter("x", op="read")
    b = registry.counter("x", op="read")
    c = registry.counter("x", op="write")
    d = registry.counter("x")
    assert a is b
    assert a is not c and a is not d
    assert len(registry) == 3


def test_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_histogram_bucketing_monotone():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency")
    for value in (1e-6, 2e-6, 1e-3, 0.5, 1.0, 10.0):
        histogram.observe(value)
    assert histogram.count == 6
    bounds = histogram.bucket_bounds()
    assert all(b1 < b2 for b1, b2 in zip(bounds, bounds[1:]))
    # Each observation landed in a bucket whose bound covers it.
    assert sum(histogram.buckets.values()) == 6


def test_histogram_percentiles_bracket_the_data():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency")
    for i in range(1, 101):
        histogram.observe(i / 1000.0)  # 1ms .. 100ms
    summary = histogram.summary()
    assert summary["count"] == 100
    assert summary["min"] == pytest.approx(0.001)
    assert summary["max"] == pytest.approx(0.100)
    # Log-bucketed percentiles are approximate but ordered and in-range.
    assert summary["min"] <= summary["p50"] <= summary["p95"] \
        <= summary["p99"] <= summary["max"]
    # Within one growth factor of the exact median (0.0505).
    assert 0.0505 / 2 <= summary["p50"] <= 0.0505 * 2


def test_histogram_empty_is_well_defined():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency")
    assert histogram.mean == 0.0
    assert histogram.percentile(0.5) == 0.0
    assert histogram.percentile(0.99) == 0.0
    summary = histogram.summary()
    assert summary == {"count": 0, "sum": 0.0, "mean": 0.0,
                       "min": 0.0, "max": 0.0,
                       "p50": 0.0, "p95": 0.0, "p99": 0.0}
    with pytest.raises(ValueError):
        histogram.percentile(1.5)


def test_null_registry_is_inert_and_shared():
    before = len(NULL_REGISTRY)
    counter = NULL_REGISTRY.counter("anything", op="x")
    counter.inc(100)
    histogram = NULL_REGISTRY.histogram("h")
    histogram.observe(1.0)
    assert counter.value == 0
    assert histogram.count == 0
    assert len(NULL_REGISTRY) == before == 0


# -- time series ------------------------------------------------------------


def test_timeseries_percentile_interpolates():
    series = TimeSeries("t")
    for i, value in enumerate([10.0, 20.0, 30.0, 40.0]):
        series.record(float(i), value)
    assert series.percentile(0.0) == 10.0
    assert series.percentile(1.0) == 40.0
    assert series.percentile(0.5) == pytest.approx(25.0)


def test_timeseries_time_weighted_mean():
    series = TimeSeries("t")
    series.record(0.0, 10.0)   # held for 1s
    series.record(1.0, 0.0)    # held for 9s
    series.record(10.0, 5.0)   # no tail by default
    assert series.time_weighted_mean() == pytest.approx(1.0)
    # With an explicit end, the last value is held to it.
    assert series.time_weighted_mean(until=20.0) \
        == pytest.approx((10.0 + 0.0 * 9 + 5.0 * 10) / 20.0)
    # Degenerate: single timestamp falls back to the plain mean.
    flat = TimeSeries("flat")
    flat.record(1.0, 2.0)
    flat.record(1.0, 4.0)
    assert flat.time_weighted_mean() == pytest.approx(3.0)


# -- spans ------------------------------------------------------------------


def test_span_nesting_and_ordering():
    env = Environment()
    tracer = SpanTracer(env)
    with tracer.span("deploy", parent=None) as root:
        child = tracer.start("phase:one")
        grandchild = tracer.start("aoe-read", parent=child)
        tracer.end(grandchild)
        tracer.end(child)
    assert tracer.current() is None
    assert child.parent is root
    assert grandchild in child.children
    assert [span.name for span in tracer.walk()] \
        == ["deploy", "phase:one", "aoe-read"]
    assert grandchild.end <= child.end <= root.end


def test_span_capacity_drops_leaves_keeps_structure():
    env = Environment()
    tracer = SpanTracer(env, capacity=5)
    root = tracer.start("deploy", parent=None)
    phase = tracer.start("phase:one", parent=root)
    for _ in range(10):
        tracer.end(tracer.start("leaf", parent=phase))
    assert tracer.dropped_spans == 7  # 5 recorded, rest dropped
    # A late phase transition still records despite the full buffer.
    late = tracer.start("phase:two", parent=root)
    assert late in root.children
    payload = tracer.to_dict()
    assert payload["dropped"] == 7


def test_component_spans_are_never_structural():
    env = Environment()
    tracer = SpanTracer(env, capacity=1, profiling=True)
    root = tracer.start("deploy", parent=None)
    boot = tracer.start("vmm-netboot", parent=root, component="vmm")
    env.run(until=2.0)
    tracer.end(boot)
    # Dropped from the tree, yet its self time still counts.
    assert root.children == [] and tracer.dropped_spans == 1
    assert tracer.component_self == {"vmm": 2.0}


def test_null_tracer_is_stateless():
    with NULL_TRACER.span("x"):
        assert NULL_TRACER.current() is None
    span = NULL_TRACER.start("x")
    NULL_TRACER.end(span)
    assert len(NULL_TRACER) == 0
    assert NULL_TRACER.to_dict() == {"spans": [], "recorded": 0,
                                     "dropped": 0}


# -- exporters --------------------------------------------------------------


def _telemetry_with_data():
    env = Environment()
    telemetry = Telemetry(env)
    telemetry.registry.counter("reqs_total", op="read").inc(3)
    telemetry.registry.gauge("depth").set(2)
    histogram = telemetry.registry.histogram("lat_seconds")
    for value in (0.001, 0.002, 0.004):
        histogram.observe(value)
    root = telemetry.tracer.start("deploy", parent=None)
    telemetry.tracer.end(root)
    return telemetry


def test_json_export_shape():
    payload = telemetry_to_dict(_telemetry_with_data())
    assert set(payload) >= {"sim", "counters", "gauges", "histograms",
                            "series", "spans"}
    [counter] = payload["counters"]
    assert counter["name"] == "reqs_total"
    assert counter["labels"] == {"op": "read"}
    assert counter["value"] == 3
    [histogram] = payload["histograms"]
    assert histogram["count"] == 3
    assert {"p50", "p95", "p99", "buckets"} <= set(histogram)
    [span] = payload["spans"]
    assert span["name"] == "deploy"
    json.dumps(payload)  # must be serializable as-is


def test_prometheus_export_shape():
    text = telemetry_to_prometheus(_telemetry_with_data())
    assert '# TYPE reqs_total counter' in text
    assert 'reqs_total{op="read"} 3' in text
    assert '# TYPE lat_seconds histogram' in text
    assert 'le="+Inf"' in text
    assert "lat_seconds_count 3" in text
    # Cumulative bucket counts end at the total.
    inf_line = [line for line in text.splitlines()
                if 'le="+Inf"' in line][0]
    assert inf_line.endswith(" 3")


def test_prometheus_export_escapes_labels_and_help():
    env = Environment()
    telemetry = Telemetry(env)
    telemetry.registry.counter(
        "odd_total", help='has "quotes" and \\slashes\\\nand lines',
        path='C:\\tmp\n"x"').inc()
    text = telemetry_to_prometheus(telemetry)
    # HELP escapes backslash + newline; quotes stay literal.
    assert ('# HELP odd_total has "quotes" and '
            '\\\\slashes\\\\\\nand lines') in text
    # Label values additionally escape the quote.
    assert r'path="C:\\tmp\n\"x\""' in text
    # Every line is still single-line exposition format.
    assert all("\n" not in line for line in text.split("\n"))


def test_empty_histogram_exports_cleanly():
    env = Environment()
    telemetry = Telemetry(env)
    telemetry.registry.histogram("never_observed_seconds")
    payload = telemetry_to_dict(telemetry)
    [histogram] = payload["histograms"]
    assert histogram["count"] == 0
    assert histogram["p99"] == 0.0
    json.dumps(payload)
    text = telemetry_to_prometheus(telemetry)
    assert 'never_observed_seconds_bucket{le="+Inf"} 0' in text
    assert "never_observed_seconds_count 0" in text


def test_telemetry_json_round_trip(tmp_path):
    telemetry = _telemetry_with_data()
    out = tmp_path / "telemetry.json"
    telemetry.write(str(out))
    payload = json.loads(out.read_text())
    direct = telemetry_to_dict(telemetry)
    assert payload == json.loads(json.dumps(direct))
    [counter] = payload["counters"]
    assert counter["value"] == 3
    [histogram] = payload["histograms"]
    assert histogram["count"] == 3
    [span] = payload["spans"]
    assert span["name"] == "deploy"


def test_null_telemetry_write_refuses():
    with pytest.raises(RuntimeError):
        NULL_TELEMETRY.write("/tmp/never.json")


# -- determinism ------------------------------------------------------------


def _deploy_bmcast(telemetry):
    env = telemetry.env if telemetry.enabled else Environment()
    testbed = build_testbed(image=small_image(), env=env,
                            telemetry=telemetry)
    provisioner = Provisioner(testbed)
    instance = env.run(until=env.process(
        provisioner.deploy("bmcast", skip_firmware=True)))
    env.run(until=instance.platform.copier.done)
    env.run(until=env.now + 10.0)
    return env, instance


def test_telemetry_does_not_perturb_the_timeline():
    env_off, off = _deploy_bmcast(NULL_TELEMETRY)
    env_on, on = _deploy_bmcast(Telemetry(Environment()))
    assert off.timeline.total == on.timeline.total
    assert off.timeline.segments == on.timeline.segments
    assert env_off.now == env_on.now
    assert env_off.events_processed == env_on.events_processed
    assert off.platform.copier.blocks_filled \
        == on.platform.copier.blocks_filled


def test_deploy_records_phase_tree_and_instruments():
    _, instance = _deploy_bmcast(Telemetry(Environment()))
    telemetry = instance.platform.telemetry
    phases = {span.name for span in telemetry.tracer.walk()
              if span.name.startswith("phase:")}
    assert {"phase:initialization", "phase:deployment",
            "phase:devirtualization", "phase:baremetal"} <= phases
    rtt = telemetry.registry.histogram("aoe_request_seconds", op="read")
    assert rtt.count > 0
    assert rtt.summary()["p50"] > 0


def test_concurrent_deploys_keep_their_spans_apart():
    run = deployment_scenario(
        lambda: OsImage(size_bytes=32 * 2**20,
                        boot_read_bytes=16 * 2**20),
        node_count=3, wait=True, telemetry_factory=Telemetry)()
    tracer = run.telemetry.tracer
    assert sorted(root.attrs["node"] for root in tracer.roots) == [0, 1, 2]
    held = 0
    for root in tracer.roots:
        machine = run.testbed.nodes[root.attrs["node"]].machine
        vmm, = [instance.platform for instance in run.cluster.instances
                if instance.machine is machine]
        names: dict = {}
        stack = [root]
        while stack:
            span = stack.pop()
            stack.extend(span.children)
            names[span.name] = names.get(span.name, 0) + 1
        # Each deployment's root holds its own VMM's exchanges and
        # mediated reads, and no other node's.
        assert names.get("aoe-read") == vmm.initiator.reads_completed > 0
        assert names.get("mediated-read") \
            == vmm.mediator.redirected_reads > 0
        held += sum(names.get(name, 0) for name
                    in ("aoe-read", "mediated-read", "vmm-request"))
    # None of them was left outside a deployment.
    assert held == sum(span.name in ("aoe-read", "mediated-read",
                                     "vmm-request")
                       for span in tracer.spans)


# -- CLI acceptance ---------------------------------------------------------


def test_cli_metrics_out_json(tmp_path, capsys):
    out_file = tmp_path / "m.json"
    assert main(["deploy", "--method", "bmcast", "--image-gb", "0.125",
                 "--wait", "--metrics-out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())

    def names(node):
        yield node["name"]
        for child in node.get("children", []):
            yield from names(child)

    all_names = [name for root in payload["spans"]
                 for name in names(root)]
    phases = {name for name in all_names if name.startswith("phase:")}
    assert len(phases) >= 4
    assert any({"p50", "p95", "p99"} <= set(histogram)
               for histogram in payload["histograms"])
    assert "telemetry written" in capsys.readouterr().out


def test_cli_metrics_out_prometheus(tmp_path, capsys):
    out_file = tmp_path / "m.prom"
    assert main(["deploy", "--method", "baremetal",
                 "--image-gb", "0.125",
                 "--metrics-out", str(out_file)]) == 0
    capsys.readouterr()
    text = out_file.read_text()
    assert "# TYPE" in text
    assert "deploy_span" not in text  # spans are JSON-only


def test_cli_metrics_lists_every_phase(capsys):
    # Thousands of deeper spans must not crowd the late phases out of
    # the span tree's row limit.
    assert main(["metrics", "--image-gb", "0.0625", "--wait"]) == 0
    rows = capsys.readouterr().out.split("Deployment span tree")[1]
    for phase in ("initialization", "deployment", "devirtualization",
                  "baremetal"):
        assert f"  phase:{phase} " in rows


def test_cli_metrics_subcommand(capsys):
    assert main(["metrics", "--image-gb", "0.125"]) == 0
    out = capsys.readouterr().out
    assert "Deployment span tree" in out
    assert "deploy:bmcast" in out
    assert "p50" in out

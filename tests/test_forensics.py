"""Tests for the deployment-forensics layer (causal tracer, component
spans, provenance, trace export) and its CLI surface."""

import json

import pytest

from repro.analysis import check_replay, deployment_scenario
from repro.cli import main
from repro.cloud.provisioner import Provisioner
from repro.cloud.scenario import build_testbed
from repro.guest.osimage import OsImage
from repro.obs import (NULL_CAUSAL, NULL_PROVENANCE, NULL_TELEMETRY,
                       NULL_TRACER, CausalTracer, SpanTracer, Telemetry,
                       chrome_trace_document, classify_actor,
                       folded_stacks, format_profile, profile_report)
from repro.sim import Environment, Timeout


def small_image(size_mb=128):
    return OsImage(size_bytes=size_mb * 2**20,
                   boot_read_bytes=16 * 2**20)


def _forensic_deploy(size_mb=128):
    env = Environment()
    telemetry = Telemetry(env, forensics=True)
    testbed = build_testbed(image=small_image(size_mb), env=env,
                            telemetry=telemetry)
    provisioner = Provisioner(testbed)
    instance = env.run(until=env.process(
        provisioner.deploy("bmcast", skip_firmware=True)))
    env.run(until=instance.platform.copier.done)
    env.run(until=env.now + 10.0)
    return env, telemetry, instance


@pytest.fixture(scope="module")
def forensic_run():
    return _forensic_deploy()


# -- causal tracer ----------------------------------------------------------


def test_causal_chain_follows_cause_edges():
    env = Environment()
    tracer = CausalTracer(env).attach()

    def child():
        yield Timeout(env, 1.0)
        tracer.mark("child-done")

    def parent():
        yield Timeout(env, 1.0)
        yield env.process(child(), name="child")

    env.run(until=env.process(parent(), name="parent"))
    anchor_index, anchor_at = tracer.marks["child-done"]
    assert anchor_at == pytest.approx(2.0)
    chain = tracer.chain_from(anchor_index)
    # Every hop fires no later than the one after it.
    times = [tracer.fire_at[node] for node in chain]
    assert times == sorted(times)
    # The chain reaches back to the start of the run.
    assert times[0] <= 1.0 and times[-1] == pytest.approx(2.0)


def test_latency_budget_partitions_anchor_time():
    env, telemetry, _ = _forensic_deploy()
    budget = telemetry.causal.latency_budget("devirtualize")
    assert budget["anchor"] == "devirtualize"
    assert budget["anchor_seconds"] > 0
    total_share = sum(entry["share"] for entry in budget["budget"])
    # The per-component waits partition the whole interval: the issue's
    # acceptance bar is >= 95%, the construction gives exactly 100%.
    assert total_share >= 0.95
    total_seconds = sum(entry["seconds"] for entry in budget["budget"])
    assert total_seconds == pytest.approx(budget["anchor_seconds"])


def test_component_times_partition_total_sim_time(forensic_run):
    env, telemetry, _ = forensic_run
    shares = telemetry.causal.component_times(until=env.now)
    assert sum(shares.values()) == pytest.approx(env.now, abs=1e-9)
    # The copy dominates a bmcast deployment; the copier must show up.
    assert shares.get("copier", 0.0) > 0.0


def test_classify_actor_table():
    assert classify_actor("copier-node0") == "copier"
    assert classify_actor("nic-mediator-poll") == "mediator"
    assert classify_actor("bmcast-devirt-watcher") == "vmm"
    assert classify_actor("deploy-0") == "provisioner"
    assert classify_actor("node0-eth1-tx") == "nic"
    assert classify_actor("whatever") == "other"


def test_deploy_records_both_marks(forensic_run):
    _, telemetry, _ = forensic_run
    assert "devirtualize" in telemetry.causal.marks
    assert "deploy-complete" in telemetry.causal.marks


# -- component spans --------------------------------------------------------


def test_profiler_nested_tracking_self_time():
    env = Environment()
    tracer = SpanTracer(env, profiling=True)

    def work():
        with tracer.track("outer", "all"):
            yield Timeout(env, 1.0)
            with tracer.track("inner", "sub"):
                yield Timeout(env, 3.0)
            yield Timeout(env, 1.0)

    env.run(until=env.process(work(), name="w"))
    assert tracer.component_self["outer"] == pytest.approx(2.0)
    assert tracer.component_self["inner"] == pytest.approx(3.0)
    assert tracer.folded["outer:all"] == pytest.approx(2.0)
    assert tracer.folded["outer:all;inner:sub"] == pytest.approx(3.0)


def test_plain_spans_between_component_spans_are_skipped():
    env = Environment()
    tracer = SpanTracer(env, profiling=True)

    def work():
        with tracer.track("outer", "all"):
            with tracer.span("plain"):
                with tracer.track("inner", "sub"):
                    yield Timeout(env, 3.0)
            yield Timeout(env, 1.0)

    env.run(until=env.process(work(), name="w"))
    # The plain span nests between them but not in the folded stacks,
    # and the inner span's time still leaves the outer's self time.
    assert [span.name for span in tracer.spans] == ["all", "plain", "sub"]
    assert set(tracer.folded) == {"outer:all", "outer:all;inner:sub"}
    assert tracer.folded["outer:all"] == pytest.approx(1.0)
    assert tracer.component_self == {"outer": pytest.approx(1.0),
                                     "inner": pytest.approx(3.0)}


def test_component_spans_need_profiling():
    env = Environment()
    tracer = SpanTracer(env)

    def work():
        with tracer.track("outer", "all"):
            span = tracer.start("aoe-read", component="aoe-client")
            yield Timeout(env, 1.0)
            tracer.end(span)

    env.run(until=env.process(work(), name="w"))
    # Without profiling ``track`` records nothing and ``component=``
    # leaves a plain span: plain telemetry keeps its span tree.
    assert [(span.name, span.component) for span in tracer.walk()] \
        == [("aoe-read", None)]
    assert tracer.component_self == {} and tracer.folded == {}


def test_profiler_tracks_deploy_components(forensic_run):
    _, telemetry, _ = forensic_run
    tracked = telemetry.tracer.component_self
    for component in ("vmm", "guest", "copier", "mediator",
                      "aoe-client", "aoe-server", "disk"):
        assert tracked.get(component, 0.0) > 0.0, component


# -- provenance -------------------------------------------------------------


def test_provenance_samples_block_lifecycle(forensic_run):
    _, telemetry, _ = forensic_run
    provenance = telemetry.provenance
    assert provenance.timelines, "no blocks sampled"
    assert provenance.sources().get("origin", 0) > 0
    # Every sampled block respects the stride.
    for (node, block) in provenance.timelines:
        assert provenance.sampled(block)
        assert block % provenance.stride == 0
    # A deployed block's timeline ends in a commit or guest fill.
    events = {event for records in provenance.timelines.values()
              for (_, event, _) in records}
    assert "commit" in events or "guest-fill" in events


# -- trace export -----------------------------------------------------------


def test_chrome_trace_document_is_valid(forensic_run, tmp_path):
    _, telemetry, _ = forensic_run
    document = chrome_trace_document(telemetry)
    events = document["traceEvents"]
    assert events
    phases = {event["ph"] for event in events}
    assert phases <= {"X", "M", "i"}
    for event in events:
        assert "pid" in event and "name" in event
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
    # Round-trips through JSON.
    json.loads(json.dumps(document))
    # Mark instants include the devirtualize anchor.
    marks = [event for event in events if event["ph"] == "i"]
    assert any(event["name"] == "devirtualize" for event in marks)


def test_folded_stacks_format(forensic_run):
    _, telemetry, _ = forensic_run
    text = folded_stacks(telemetry)
    assert text
    for line in text.splitlines():
        stack, _, weight = line.rpartition(" ")
        assert stack and int(weight) >= 1


def test_profile_report_attribution(forensic_run):
    env, telemetry, _ = forensic_run
    report = profile_report(telemetry)
    assert report["total_sim_seconds"] == pytest.approx(env.now)
    assert sum(report["components"].values()) \
        == pytest.approx(env.now, abs=1e-9)
    covered = sum(entry["share"] for entry
                  in report["critical_path"]["budget"])
    assert covered >= 0.95
    text = format_profile(report)
    assert "Critical path" in text and "copier" in text
    json.dumps(report)


# -- zero-cost null path ----------------------------------------------------


def test_null_telemetry_exposes_null_forensics():
    assert NULL_TELEMETRY.forensics is False
    assert NULL_TELEMETRY.tracer is NULL_TRACER
    assert NULL_TELEMETRY.causal is NULL_CAUSAL
    assert NULL_TELEMETRY.provenance is NULL_PROVENANCE
    with NULL_TRACER.track("x", "y"):
        pass
    assert NULL_TRACER.component_self == {} and NULL_TRACER.folded == {}
    NULL_CAUSAL.mark("anything")
    NULL_PROVENANCE.note_fetch("n", 0, 8, "server", "origin", 0.0)
    assert NULL_CAUSAL.marks == {}


def test_plain_telemetry_keeps_forensics_off():
    telemetry = Telemetry(Environment())
    assert telemetry.forensics is False
    assert telemetry.tracer.profiling is False
    assert not hasattr(telemetry, "profiler")


# -- non-perturbation (the replay-divergence proof) -------------------------


def test_forensics_do_not_perturb_the_timeline():
    def factory(env):
        return Telemetry(env, forensics=True)

    digests = []
    for telemetry_factory in (None, factory):
        scenario = deployment_scenario(
            lambda: small_image(64), wait=True,
            telemetry_factory=telemetry_factory)
        report = check_replay(scenario, runs=2)
        assert not report.divergent
        digests.append(report.digests[0])
    # Identical digests across traced and untraced runs: arming the
    # full forensics layer changes nothing about the event stream.
    assert digests[0] == digests[1]


# -- CLI --------------------------------------------------------------------


def test_cli_deploy_trace_out(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["deploy", "--image-gb", "0.0625", "--wait",
                 "--trace-out", str(out)]) == 0
    assert "chrome trace written" in capsys.readouterr().out
    document = json.loads(out.read_text())
    assert document["traceEvents"]


#: Folded stacks of the 0.0625 GiB deploy, pinned: folding the
#: profiler into the span tracer renamed three frames to their span's
#: name and must change nothing else.
SMALL_DEPLOY_STACKS = {
    "aoe-server:serve-read",
    "aoe-server:serve-read;nic:tx",
    "copier:fetch-block;origin:origin-fetch",
    "copier:fetch-block;origin:origin-fetch;aoe-client:aoe-read",
    "copier:fetch-block;origin:origin-fetch;aoe-client:aoe-read;nic:tx",
    "copier:moderate-pace",
    "copier:write-back;mediator:vmm-request",
    "copier:write-block;mediator:mediated-read;origin:origin-fetch",
    "copier:write-block;mediator:mediated-read;origin:origin-fetch;"
    "aoe-client:aoe-read",
    "copier:write-block;mediator:mediated-read;origin:origin-fetch;"
    "aoe-client:aoe-read;nic:tx",
    "copier:write-block;mediator:vmm-request",
    "disk:read",
    "disk:write",
    "guest:guest-os-boot",
    "guest:guest-os-boot;mediator:mediated-read",
    "guest:guest-os-boot;mediator:mediated-read;origin:origin-fetch",
    "guest:guest-os-boot;mediator:mediated-read;origin:origin-fetch;"
    "aoe-client:aoe-read",
    "guest:guest-os-boot;mediator:mediated-read;origin:origin-fetch;"
    "aoe-client:aoe-read;nic:tx",
    "vmm:vmm-netboot",
}


def test_cli_trace_subcommand(tmp_path, capsys):
    out = tmp_path / "trace.json"
    folded = tmp_path / "folded.txt"
    assert main(["trace", "--image-gb", "0.0625", "--out", str(out),
                 "--folded-out", str(folded)]) == 0
    output = capsys.readouterr().out
    assert "chrome trace written" in output
    assert "folded stacks written" in output
    events = json.loads(out.read_text())["traceEvents"]
    lanes = {event["args"]["name"].split(":")[0] for event in events
             if event["name"] == "thread_name"}
    assert {"spans", "proc"} <= lanes
    stacks = {line.rpartition(" ")[0]
              for line in folded.read_text().splitlines()}
    assert stacks == SMALL_DEPLOY_STACKS


def _rounded(shares: dict) -> dict:
    return {key: round(value, 6) for key, value in shares.items()}


def test_cli_profile_subcommand(tmp_path, capsys):
    out = tmp_path / "profile.json"
    assert main(["profile", "--image-gb", "0.0625",
                 "--out", str(out)]) == 0
    output = capsys.readouterr().out
    assert "Critical path" in output
    assert "Component wall partition" in output
    report = json.loads(out.read_text())
    # Pinned to the figures of the two-recorder profiler: one span per
    # interval attributes the same time.
    assert _rounded(report["tracked"]) == {
        "aoe-client": 0.776628, "aoe-server": 0.772544, "copier": 0.7,
        "disk": 1.424639, "guest": 23.865438, "mediator": 0.662428,
        "nic": 0.001105, "origin": 0.004, "vmm": 7.0}
    # The partition gives each gap to the event that ends it, so it
    # follows the event set: bulk streams with a re-request hop and an
    # arrival timer each gave 20 us more to "other" (copier 0.410376,
    # mediator 0.437486, other 10.499244), and bulk replies of four
    # events instead of one gave it 77 ms more (copier 0.410396, guest
    # 22.576418, mediator 0.437526, other 10.499184), and AoE commands
    # sent as frames gave it 1.6 ms more and "origin" 1.6 ms less
    # (origin 4.7e-05, other 10.422337).
    assert _rounded(report["components"]) == {
        "copier": 0.480036, "guest": 22.580305, "mediator": 0.440846,
        "origin": 0.001674, "other": 10.42071, "vmm": 7.00024}
    path = report["critical_path"]
    assert path["anchor"] == "devirtualize"
    assert round(path["anchor_seconds"], 6) == 8.372283
    # One event fewer than with the bulk re-request hop (624), 32
    # fewer again since redirected reads' replies run as frame trains
    # (623 with every reply sent frame by frame), 2 fewer since bulk
    # replies are planned (591 with every one stepped), and 16 fewer
    # since AoE commands are planned (589, other 0.067789 and origin
    # 9e-06, with every one sent as a frame).
    assert path["steps"] == 573
    assert [(entry["component"], round(entry["seconds"], 6))
            for entry in path["budget"]] == [
        ("vmm", 7.00024), ("guest", 0.650989), ("mediator", 0.335208),
        ("copier", 0.318047), ("other", 0.067459), ("origin", 0.000339)]


def test_cli_compare_trace_out(tmp_path, capsys):
    out = tmp_path / "compare.json"
    assert main(["compare", "--image-gb", "0.0625",
                 "--trace-out", str(out)]) == 0
    capsys.readouterr()
    document = json.loads(out.read_text())
    pids = {event["pid"] for event in document["traceEvents"]}
    assert len(pids) > 1  # one pid per method

"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "PRIMERGY" in out
    assert "116.6" in out


def test_deploy_bmcast(capsys):
    assert main(["deploy", "--method", "bmcast", "--image-gb", "0.25"]) \
        == 0
    out = capsys.readouterr().out
    assert "instance ready after" in out
    assert "VMM boot" in out


def test_deploy_wait_reaches_baremetal(capsys):
    assert main(["deploy", "--method", "bmcast", "--image-gb", "0.125",
                 "--wait"]) == 0
    out = capsys.readouterr().out
    assert "phase=baremetal" in out
    assert "blocks_filled" in out


def test_deploy_with_prefetch(capsys):
    assert main(["deploy", "--method", "bmcast", "--image-gb", "0.25",
                 "--prefetch"]) == 0
    out = capsys.readouterr().out
    assert "instance ready after" in out


def test_deploy_baremetal_cold(capsys):
    assert main(["deploy", "--method", "baremetal", "--image-gb", "0.125",
                 "--cold"]) == 0
    out = capsys.readouterr().out
    assert "firmware init 133s" in out


def test_deploy_other_controllers(capsys):
    for controller in ("ide", "megaraid"):
        assert main(["deploy", "--method", "bmcast",
                     "--image-gb", "0.125",
                     "--controller", controller]) == 0


def test_compare(capsys):
    assert main(["compare", "--image-gb", "0.25"]) == 0
    out = capsys.readouterr().out
    for method in ("bmcast", "image-copy", "network-boot", "kvm-nfs"):
        assert method in out


def test_compare_surfaces_deploy_crash(monkeypatch):
    from repro.cloud.provisioner import Provisioner

    def crash(self, *args, **kwargs):
        raise RuntimeError("injected deploy crash")

    monkeypatch.setattr(Provisioner, "_deploy_network_boot", crash)
    with pytest.raises(RuntimeError, match="injected deploy crash"):
        main(["compare", "--image-gb", "0.0625"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_unknown_method_rejected():
    with pytest.raises(SystemExit):
        main(["deploy", "--method", "smoke-signals"])


def test_lint_command_clean_tree(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_lint_command_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SIM001" in out and "SIM006" in out


def test_lint_command_flags_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nSTART = time.time()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out


def test_deploy_sanitized(capsys):
    assert main(["deploy", "--method", "bmcast", "--image-gb", "0.125",
                 "--wait", "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "sanitizers: clean" in out


def test_deploy_replay_check(capsys):
    assert main(["deploy", "--method", "bmcast", "--image-gb", "0.0625",
                 "--replay-check"]) == 0
    out = capsys.readouterr().out
    assert "runs identical" in out


def test_deploy_replay_check_replays_the_deploy(capsys):
    # Every deploy option reaches the replayed scenario: a moderated
    # AHCI packet-mode replay would process a different event count.
    assert main(["deploy", "--image-gb", "0.0625", "--controller", "ide",
                 "--fluid", "--full-speed", "--replay-check"]) == 0
    out = capsys.readouterr().out
    assert "fluid mode: active" in out
    deployed = int(re.search(r"simulated events: (\d+)", out).group(1))
    replayed = int(re.search(r"runs identical \((\d+) events",
                             out).group(1))
    assert replayed == deployed


def test_scaleout_sanitized(capsys):
    assert main(["scaleout", "--nodes", "2", "--wave-size", "2",
                 "--image-gb", "0.0625", "--p2p", "--wait",
                 "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "sanitizers: clean" in out


def _events(out):
    printed = int(re.search(r"simulated events: (\d+)", out).group(1))
    replayed = int(re.search(r"runs identical \((\d+) events",
                             out).group(1))
    return printed, replayed


def test_ctl_replay_check_replays_the_printed_run(capsys):
    # --no-preserve reaches the replayed scenario: a preserve-on-reclaim
    # replay would process a different event count.
    assert main(["ctl", "--nodes", "6", "--demand", "flash-crowd",
                 "--duration", "1800", "--image-gb", "0.0625", "--p2p",
                 "--no-preserve", "--replay-check"]) == 0
    printed, replayed = _events(capsys.readouterr().out)
    assert replayed == printed


def test_ctl_replay_check_replays_a_demand_trace(tmp_path, capsys):
    trace = tmp_path / "demand.json"
    common = ["--nodes", "4", "--duration", "1200", "--image-gb",
              "0.0625", "--p2p"]
    assert main(["ctl", "--demand", "step", "--dump-demand", str(trace),
                 *common]) == 0
    capsys.readouterr()
    assert main(["ctl", "--demand-trace", str(trace), "--replay-check",
                 *common]) == 0
    printed, replayed = _events(capsys.readouterr().out)
    assert replayed == printed


def _ready_and_end(out):
    ready = re.search(r"instance ready after ([\d.]+)s", out).group(1)
    end = re.search(r"deployment finished at t=([\d.]+)s", out)
    return ready, end and end.group(1)


def test_metrics_trace_profile_are_modes_of_the_deploy_run(tmp_path,
                                                           capsys):
    image = ["--image-gb", "0.0625"]
    assert main(["deploy", "--wait", *image]) == 0
    deployed = _ready_and_end(capsys.readouterr().out)
    assert deployed[1] is not None
    assert main(["trace", "--out", str(tmp_path / "t.json"), *image]) == 0
    assert _ready_and_end(capsys.readouterr().out) == deployed
    assert main(["profile", *image]) == 0
    assert _ready_and_end(capsys.readouterr().out) == deployed

    assert main(["deploy", *image]) == 0
    deployed = _ready_and_end(capsys.readouterr().out)
    assert main(["metrics", *image]) == 0
    assert _ready_and_end(capsys.readouterr().out) == deployed


#: Each command's parsed defaults, recorded before the flag
#: declarations were shared across commands.
DEFAULTS = {
    "deploy": {
        "cold": False, "command": "deploy", "controller": "ahci",
        "fluid": False, "full_speed": False, "image_gb": 4.0,
        "method": "bmcast", "metrics_out": None, "p2p": False,
        "prefetch": False, "replay_check": False, "replicas": 1,
        "sanitize": False, "select_policy": "round-robin",
        "trace_out": None, "wait": False},
    "scaleout": {
        "command": "scaleout", "fluid": False, "full_speed": False,
        "image_gb": 0.5, "nodes": 8, "p2p": False, "replicas": 2,
        "sanitize": False, "seed_fill": 0.25,
        "select_policy": "least-outstanding", "trace_out": None,
        "wait": False, "wave_size": 4},
    "ctl": {
        "command": "ctl", "demand": "flash-crowd", "demand_trace": None,
        "dump_demand": None, "duration": 3600.0, "fluid": False,
        "image_gb": 0.25, "metrics_out": None, "no_preserve": False,
        "nodes": 8, "p2p": False, "placement": "cache-aware",
        "policy": "reactive", "replay_check": False, "replicas": 1,
        "sanitize": False, "seed": 20150314, "tick": 15.0,
        "trace_out": None, "vmxoff_mode": "resident"},
    "compare": {
        "command": "compare", "image_gb": 4.0, "metrics_out": None,
        "trace_out": None},
    "sweep": {
        "command": "sweep", "demands": "flash-crowd", "duration": 900.0,
        "image_gb": None, "intervals": "1.0,0.1,0.01,0.001,0.0",
        "jobs": 1, "kind": "moderation", "node_counts": "6", "out": None,
        "policies": "reactive,headroom", "seed": 20150314},
    "metrics": {
        "command": "metrics", "controller": "ahci", "image_gb": 1.0,
        "method": "bmcast", "metrics_out": None, "wait": False},
    "trace": {
        "command": "trace", "controller": "ahci", "folded_out": None,
        "image_gb": 1.0, "method": "bmcast", "out": "trace.json",
        "wait": True},
    "profile": {
        "anchor": None, "command": "profile", "controller": "ahci",
        "image_gb": 1.0, "method": "bmcast", "out": None},
}


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_command_defaults_unchanged(command):
    from repro.cli import _build_parser
    assert vars(_build_parser().parse_args([command])) \
        == DEFAULTS[command]


def test_check_forwards_to_simcheck(capsys):
    assert main(["check", "--list-checks"]) == 0
    assert "CHECK050" in capsys.readouterr().out

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

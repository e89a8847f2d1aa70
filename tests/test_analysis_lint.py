"""The SIM rules, run by simcheck: every rule has a positive and a
negative case, and the one entry point fails on each."""

import json
import runpy
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import Finding, module_name_for, parse_suppressions
from repro.analysis.simcheck.engine import CATALOG, run_check

SRC = __file__.rsplit("/tests/", 1)[0] + "/src/repro"
BASELINE = __file__.rsplit("/tests/", 1)[0] + "/simcheck.baseline.json"


def findings(source, module="repro.sim.example"):
    """What simcheck reports on one module, written where its module
    name resolves to ``module``."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root, *module.split(".")).with_suffix(".py")
        path.parent.mkdir(parents=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        report = run_check([str(path)])
    return sorted(report.findings, key=lambda f: (f.line, f.col, f.rule))


def rules_of(results):
    return [finding.rule for finding in results]


def run_entry_point(monkeypatch, capsys, *args):
    """``python -m repro.analysis *args``: (exit status, stdout)."""
    monkeypatch.setattr(sys, "argv", ["repro.analysis", *args])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("repro.analysis", run_name="__main__")
    return exit_.value.code, capsys.readouterr().out


# -- SIM001: wall clock ------------------------------------------------------

def test_wall_clock_detected():
    results = findings("""
        import time
        def now():
            return time.time()
    """)
    assert "SIM001" in rules_of(results)


def test_wall_clock_via_alias_detected():
    results = findings("""
        from time import monotonic as fast_clock
        def now():
            return fast_clock()
    """)
    assert "SIM001" in rules_of(results)


def test_datetime_now_detected():
    results = findings("""
        import datetime
        def today():
            return datetime.datetime.now()
    """)
    assert "SIM001" in rules_of(results)


def test_env_now_is_fine():
    results = findings("""
        def now(env):
            return env.now
    """)
    assert results == []


# -- SIM002/SIM003: randomness ------------------------------------------------

def test_global_random_draw_detected():
    results = findings("""
        import random
        def roll():
            return random.random()
    """)
    assert "SIM002" in rules_of(results)
    assert "SIM003" in rules_of(results)  # the import itself, too


def test_unseeded_random_instance_detected():
    results = findings("""
        import random
        def make():
            return random.Random()
    """)
    assert "SIM002" in rules_of(results)


def test_random_import_allowed_only_in_rng_module():
    source = """
        import random
        def make_rng(seed):
            return random.Random(seed)
    """
    assert "SIM003" in rules_of(findings(source))
    assert rules_of(findings(source, module="repro.util.rng")) == []


def test_seeded_rng_helper_is_fine():
    results = findings("""
        from repro.util.rng import make_rng
        def make():
            return make_rng(42)
    """, module="repro.net.example")
    assert results == []


# -- SIM004: mutable defaults -------------------------------------------------

def test_mutable_default_detected():
    results = findings("""
        def collect(items=[]):
            return items
    """)
    assert rules_of(results) == ["SIM004"]


def test_mutable_default_call_and_kwonly_detected():
    results = findings("""
        def collect(*, cache=dict()):
            return cache
    """)
    assert rules_of(results) == ["SIM004"]


def test_none_default_is_fine():
    results = findings("""
        def collect(items=None, mapping=()):
            return items, mapping
    """)
    assert results == []


# -- SIM005: layering ---------------------------------------------------------

def test_upward_import_detected():
    results = findings("""
        from repro.vmm.bitmap import BlockBitmap
    """, module="repro.sim.engine")
    assert rules_of(results) == ["SIM005"]


def test_downward_import_is_fine():
    results = findings("""
        from repro.sim import Environment
        from repro.net.nic import Nic
    """, module="repro.vmm.bmcast")
    assert results == []


def test_from_repro_import_package_detected():
    results = findings("""
        from repro import cloud
    """, module="repro.net.link")
    assert rules_of(results) == ["SIM005"]


def test_function_level_upward_import_detected():
    # A deferred import is still a dependency: SIM005 checks it too.
    results = findings("""
        def late():
            import repro.ctl.widget
            return repro.ctl.widget
    """, module="repro.sim.clock")
    assert rules_of(results) == ["SIM005"]


# -- SIM006: blocking primitives ---------------------------------------------

def test_time_sleep_detected():
    results = findings("""
        import time
        def wait():
            time.sleep(1.0)
    """)
    assert "SIM006" in rules_of(results)


def test_threading_import_detected():
    results = findings("""
        import threading
    """)
    assert rules_of(results) == ["SIM006"]


# -- suppressions -------------------------------------------------------------

def test_targeted_suppression():
    results = findings("""
        import time
        def now():
            return time.time()  # simcheck: ignore[SIM001] test clock
    """)
    assert results == []


def test_bare_suppression_silences_all_rules():
    results = findings("""
        import threading  # simcheck: ignore
    """)
    assert results == []


def test_suppression_for_other_rule_does_not_apply():
    results = findings("""
        import time
        def now():
            return time.time()  # simcheck: ignore[SIM006]
    """)
    assert "SIM001" in rules_of(results)


def test_multi_rule_suppression():
    results = findings("""
        import time
        import threading  # simcheck: ignore[SIM001,SIM006]
        def now():
            return time.time()
    """)
    # Both ids on the comment line suppress; the uncommented call does
    # not.
    assert rules_of(results) == ["SIM001"]


def test_multi_rule_suppression_with_spaces():
    results = findings("""
        import time
        def now():
            return time.time()  # simcheck: ignore[SIM001, SIM006]
    """)
    assert results == []


def test_ignore_next_line_suppresses_the_next_line():
    results = findings("""
        import time
        def now():
            # simcheck: ignore-next-line[SIM001] -- test clock
            return time.time()
    """)
    assert results == []


def test_ignore_next_line_does_not_suppress_its_own_line():
    results = findings("""
        import time
        def now():
            return time.time()  # simcheck: ignore-next-line[SIM001]
    """)
    assert "SIM001" in rules_of(results)


def test_bare_ignore_next_line():
    results = findings("""
        # simcheck: ignore-next-line
        import threading
    """)
    assert results == []


def test_suppression_table_for_other_tool_prefix():
    source = textwrap.dedent("""
        x = 1  # simcheck: ignore[CHECK001]
        # simcheck: ignore-next-line[CHECK020,SIM005]
        y = 2
        z = 3  # simlint: ignore[SIM001]
    """)
    table = parse_suppressions(source)
    assert table[2] == {"CHECK001"}
    assert table[4] == {"CHECK020", "SIM005"}
    # The retired simlint prefix suppresses nothing.
    assert 5 not in table


def test_simlint_prefix_no_longer_suppresses(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nSTART = time.time()  "
                   "# simlint: ignore[SIM001]\n")
    status, out = run_entry_point(monkeypatch, capsys, "--no-baseline",
                                  str(bad))
    assert status == 1
    assert f"{bad}:2:8: SIM001 error:" in out


def test_one_prefix_suppresses_through_the_entry_point(tmp_path, monkeypatch,
                                                       capsys):
    ok = tmp_path / "ok.py"
    ok.write_text("import time\nSTART = time.time()  "
                  "# simcheck: ignore[SIM001] -- host clock\n")
    status, out = run_entry_point(monkeypatch, capsys, "--no-baseline",
                                  str(ok))
    assert status == 0
    assert "0 error(s)" in out and "1 suppressed" in out


# -- framework ----------------------------------------------------------------

def test_syntax_error_becomes_finding():
    # One CHECK000, and no rule runs on a file that does not parse.
    results = findings("def broken(:\n")
    assert rules_of(results) == ["CHECK000"]


def test_module_name_for_anchors_at_repro():
    assert module_name_for(SRC + "/vmm/bitmap.py") == "repro.vmm.bitmap"
    assert module_name_for(SRC + "/sim/__init__.py") == "repro.sim"


def test_finding_format_is_tool_style():
    finding = Finding("a.py", 3, 7, "SIM001", "error", "boom")
    assert finding.format() == "a.py:3:7: SIM001 error: boom"


def test_rule_catalog_is_complete():
    ids = sorted(code for code in CATALOG if code.startswith("SIM"))
    assert ids == ["SIM001", "SIM002", "SIM003", "SIM004", "SIM005",
                   "SIM006"]
    assert all(CATALOG[code][1] == "error" for code in ids)


def test_sarif_lists_the_sim_rules(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import threading\n")
    out = tmp_path / "findings.sarif"
    status, _ = run_entry_point(monkeypatch, capsys, "--no-baseline",
                                "--sarif", str(out), str(bad))
    assert status == 1
    driver_run = json.loads(out.read_text(encoding="utf-8"))["runs"][0]
    rules = driver_run["tool"]["driver"]["rules"]
    ids = [rule["id"] for rule in rules]
    assert {f"SIM00{n}" for n in range(1, 7)} <= set(ids)
    [result] = driver_run["results"]
    assert result["ruleId"] == "SIM006"
    assert ids[result["ruleIndex"]] == "SIM006"


# -- the real tree ------------------------------------------------------------

def test_repro_tree_is_lint_clean():
    report = run_check([SRC], baseline_path=BASELINE)
    assert [finding for finding in report.findings + report.baselined
            if finding.rule.startswith("SIM")] == []
    assert report.errors == []


def test_injected_violation_fails_the_run(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nSTART = time.time()\n")
    assert run_entry_point(monkeypatch, capsys, str(bad))[0] == 1
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 42\n")
    assert run_entry_point(monkeypatch, capsys, str(clean))[0] == 0


#: One seeded violation per SIM rule: (file under repro/sim, source,
#: the line the finding is on).
SEEDED = {
    "SIM001": ("clock.py", "import time\nSTART = time.time()\n", 2),
    "SIM002": ("draw.py", "import random\n\nVALUE = random.random()\n",
               3),
    "SIM003": ("draw.py", "import random\n", 1),
    "SIM004": ("collect.py",
               "def collect(items=[]):\n    return items\n", 1),
    "SIM005": ("engine.py", "from repro.vmm.bitmap import BlockBitmap\n",
               1),
    "SIM006": ("wait.py", "VALUE = 1\nimport threading\n", 2),
}


@pytest.mark.parametrize("rule", sorted(SEEDED))
def test_seeded_violation_fails_the_entry_point(rule, tmp_path, monkeypatch,
                                                capsys):
    name, source, line = SEEDED[rule]
    path = tmp_path / "repro" / "sim" / name
    path.parent.mkdir(parents=True)
    path.write_text(source, encoding="utf-8")
    status, out = run_entry_point(monkeypatch, capsys, "--no-baseline",
                                  str(tmp_path / "repro"))
    assert status == 1
    assert any(text.startswith(f"{path}:{line}:")
               and f" {rule} error: " in text
               for text in out.splitlines())

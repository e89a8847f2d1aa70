"""simcheck: each pass has a seeded violation and a clean twin.

Fixture trees are written under ``tmp_path/repro/...`` so module
names resolve the same way they do for the real package.
"""

import json
import textwrap

import pytest

from repro.analysis.simcheck.engine import (
    CATALOG,
    main,
    run_check,
)
from repro.analysis.simcheck.model import build_model
from repro.analysis.simcheck.sarif import sarif_document

SRC = __file__.rsplit("/tests/", 1)[0] + "/src/repro"
BASELINE = __file__.rsplit("/tests/", 1)[0] + "/simcheck.baseline.json"


def write_tree(tmp_path, files):
    """Write ``{relative path: source}`` under tmp_path/repro.

    Bare filenames land in the ranked ``sim`` package so fixtures do
    not trip CHECK051 (unranked package) incidentally.
    """
    root = tmp_path / "repro"
    for relative, source in files.items():
        if "/" not in relative:
            relative = "sim/" + relative
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def check_tree(tmp_path, files):
    root = write_tree(tmp_path, files)
    return run_check([str(root)])


def codes_of(report):
    return [finding.rule for finding in report.findings]


# -- CHECK001: determinism taint ---------------------------------------------

SET_ITER_SPAWN = """
    class Fleet:
        def __init__(self, env):
            self.env = env
            self.pending = set()

        def run(self):
            for node in self.pending:
                self.env.process(self.boot(node))
            yield self.env.timeout(1)

        def boot(self, node):
            yield self.env.timeout(node)

    def start(env):
        env.process(Fleet(env).run())
"""


def test_set_iteration_reaching_scheduler_flagged(tmp_path):
    report = check_tree(tmp_path, {"fleet.py": SET_ITER_SPAWN})
    assert "CHECK001" in codes_of(report)


def test_sorted_set_iteration_is_clean(tmp_path):
    report = check_tree(tmp_path, {"fleet.py": SET_ITER_SPAWN.replace(
        "for node in self.pending:",
        "for node in sorted(self.pending):")})
    assert "CHECK001" not in codes_of(report)


SET_ITER_TIMEOUT_AT = """
    class Waker:
        def __init__(self, env):
            self.env = env
            self.pending = set()

        def arm(self):
            for node in self.pending:
                self.env.timeout_at(node).callbacks.append(self.wake)

        def wake(self, timer):
            self.pending.discard(timer.value)
"""


def test_set_iteration_reaching_timeout_at_flagged(tmp_path):
    # The only queue sink is ``timeout_at``: it must count as one.
    report = check_tree(tmp_path, {"waker.py": SET_ITER_TIMEOUT_AT})
    assert "CHECK001" in codes_of(report)


def test_sorted_set_iteration_reaching_timeout_at_is_clean(tmp_path):
    report = check_tree(tmp_path, {"waker.py": SET_ITER_TIMEOUT_AT.replace(
        "for node in self.pending:",
        "for node in sorted(self.pending):")})
    assert codes_of(report) == []


def test_set_iteration_away_from_scheduler_is_clean(tmp_path):
    report = check_tree(tmp_path, {"stats.py": """
        def histogram(values: set):
            counts = {}
            for value in values:
                counts[value] = counts.get(value, 0) + 1
            return counts
    """})
    assert "CHECK001" not in codes_of(report)


def test_membership_reduction_over_set_is_clean(tmp_path):
    report = check_tree(tmp_path, {"pool.py": """
        def busy_count(env, claimed: set):
            env.schedule(None)
            return len(claimed)
    """})
    assert codes_of(report) == []


def test_set_iteration_seen_through_call_graph(tmp_path):
    # The iterating helper does not schedule itself; it is tainted
    # because its caller is a spawned process.
    report = check_tree(tmp_path, {"relay.py": """
        class Relay:
            def __init__(self, env):
                self.env = env
                self.peers = set()

            def fanout(self):
                for peer in self.peers:
                    self.notify(peer)

            def notify(self, peer):
                self.env.schedule(peer)

            def run(self):
                self.fanout()
                yield self.env.timeout(1)

        def start(env):
            env.process(Relay(env).run())
    """})
    assert "CHECK001" in codes_of(report)


def test_cross_class_attr_not_a_set_everywhere_is_clean(tmp_path):
    # ``items`` is a set in one class and a list in another, so the
    # whole-program attribute table leaves it untyped.
    report = check_tree(tmp_path, {"mixed.py": """
        class A:
            def __init__(self):
                self.items = set()

        class B:
            def __init__(self, env):
                self.env = env
                self.items = []

            def run(self):
                for item in self.items:
                    self.env.schedule(item)
                yield self.env.timeout(1)

        def start(env):
            env.process(B(env).run())
    """})
    assert "CHECK001" not in codes_of(report)


# -- CHECK010/011/012: process discipline ------------------------------------

def test_discarded_generator_flagged(tmp_path):
    report = check_tree(tmp_path, {"copier.py": """
        class Copier:
            def __init__(self, env):
                self.env = env

            def run(self):
                self.copy_loop()
                yield self.env.timeout(1)

            def copy_loop(self):
                yield self.env.timeout(2)

        def start(env):
            env.process(Copier(env).run())
    """})
    assert "CHECK010" in codes_of(report)


def test_discarded_timeout_event_flagged(tmp_path):
    report = check_tree(tmp_path, {"waiter.py": """
        def run(env):
            env.timeout(5)
            yield env.timeout(1)

        def start(env):
            env.process(run(env))
    """})
    assert "CHECK010" in codes_of(report)


def test_discarded_timeout_at_event_flagged(tmp_path):
    report = check_tree(tmp_path, {"waiter.py": """
        def run(env):
            env.timeout_at(5)
            yield env.timeout(1)

        def start(env):
            env.process(run(env))
    """})
    assert "CHECK010" in codes_of(report)


def test_yield_from_generator_is_clean(tmp_path):
    report = check_tree(tmp_path, {"copier.py": """
        class Copier:
            def __init__(self, env):
                self.env = env

            def run(self):
                yield from self.copy_loop()

            def copy_loop(self):
                yield self.env.timeout(2)

        def start(env):
            env.process(Copier(env).run())
    """})
    assert "CHECK010" not in codes_of(report)


def test_constant_yield_in_process_flagged(tmp_path):
    report = check_tree(tmp_path, {"bad.py": """
        def run(env):
            yield 5

        def start(env):
            env.process(run(env))
    """})
    assert "CHECK011" in codes_of(report)


def test_constant_yield_outside_processes_is_clean(tmp_path):
    # A plain generator never spawned as a process may yield anything.
    report = check_tree(tmp_path, {"gen.py": """
        def naturals():
            yield 1
            yield 2
    """})
    assert "CHECK011" not in codes_of(report)


def test_swallowed_interrupt_flagged(tmp_path):
    report = check_tree(tmp_path, {"worker.py": """
        def run(env):
            while True:
                try:
                    yield env.timeout(1)
                except Exception:
                    pass

        def start(env):
            env.process(run(env))
    """})
    assert "CHECK012" in codes_of(report)


# -- CHECK020: shared-state race candidates -----------------------------------

SHARED_WRITE = """
    class Node:
        def __init__(self, env):
            self.env = env
            self.state = "idle"

        def deploy(self):
            self.state = "deploying"
            yield self.env.timeout(1)

        def reclaim(self):
            self.state = "scrubbing"
            yield self.env.timeout(1)

    def start(env):
        node = Node(env)
        env.process(node.deploy())
        env.process(node.reclaim())
"""


def test_shared_write_without_claim_flagged(tmp_path):
    report = check_tree(tmp_path, {"node.py": SHARED_WRITE})
    assert "CHECK020" in codes_of(report)


def test_shared_write_with_claim_protocol_is_clean(tmp_path):
    source = SHARED_WRITE.replace(
        'self.state = "deploying"',
        'self.bitmap.try_claim(0)\n            '
        'self.state = "deploying"')
    report = check_tree(tmp_path, {"node.py": source})
    assert "CHECK020" not in codes_of(report)


def test_single_writer_is_clean(tmp_path):
    report = check_tree(tmp_path, {"node.py": """
        class Node:
            def __init__(self, env):
                self.env = env
                self.state = "idle"

            def deploy(self):
                self.state = "deploying"
                yield self.env.timeout(1)

        def start(env):
            env.process(Node(env).deploy())
    """})
    assert "CHECK020" not in codes_of(report)


# -- CHECK030-034: FSM extraction and spec checking ---------------------------

FSM_MODULE = """
    A = "a"
    B = "b"
    C = "c"

    TRANSITIONS = {
        A: (B,),
        B: (C,),
        C: (A,),
    }

    SIMCHECK_FSM = {
        "name": "demo",
        "initial": A,
        "states": (A, B, C),
        "transitions": {
            A: (B,),
            B: (C,),
            C: (A,),
        },
        "extract": {"kind": "transitions-literal",
                    "source": "TRANSITIONS"},
    }
"""


def test_matching_fsm_is_clean_and_fully_covered(tmp_path):
    report = check_tree(tmp_path, {"proto.py": FSM_MODULE})
    assert codes_of(report) == []
    assert report.fsm_reports[0]["covered"] == 3
    assert report.fsm_reports[0]["total"] == 3
    assert report.fsm_fully_covered


def test_missing_implementation_edge_flagged(tmp_path):
    source = FSM_MODULE.replace("B: (C,),\n        C: (A,),\n    }\n\n    SIM",
                                "B: (C,),\n        C: (),\n    }\n\n    SIM",
                                1)
    report = check_tree(tmp_path, {"proto.py": source})
    assert "CHECK030" in codes_of(report)
    assert not report.fsm_fully_covered


def test_undeclared_implementation_edge_flagged(tmp_path):
    source = FSM_MODULE.replace("A: (B,),", "A: (B, C),", 1)
    report = check_tree(tmp_path, {"proto.py": source})
    assert "CHECK031" in codes_of(report)


def test_unreachable_state_flagged(tmp_path):
    report = check_tree(tmp_path, {"proto.py": """
        SIMCHECK_FSM = {
            "name": "demo",
            "initial": "a",
            "states": ("a", "b"),
            "transitions": {"a": ("a",)},
            "extract": {"kind": "transitions-literal",
                        "source": "TRANSITIONS"},
        }

        TRANSITIONS = {"a": ("a",)}
    """})
    assert "CHECK032" in codes_of(report)


def test_dead_end_state_must_be_terminal(tmp_path):
    report = check_tree(tmp_path, {"proto.py": """
        SIMCHECK_FSM = {
            "name": "demo",
            "initial": "a",
            "states": ("a", "b"),
            "transitions": {"a": ("b",), "b": ()},
            "extract": {"kind": "transitions-literal",
                        "source": "TRANSITIONS"},
        }

        TRANSITIONS = {"a": ("b",), "b": ()}
    """})
    assert "CHECK032" in codes_of(report)


def test_missing_recovery_edge_flagged(tmp_path):
    report = check_tree(tmp_path, {"proto.py": """
        SIMCHECK_FSM = {
            "name": "demo",
            "initial": "free",
            "recovery": "failed",
            "states": ("free", "busy", "failed"),
            "transitions": {
                "free": ("busy",),
                "busy": ("free",),
                "failed": ("free",),
            },
            "extract": {"kind": "transitions-literal",
                        "source": "TRANSITIONS"},
        }

        TRANSITIONS = {
            "free": ("busy",),
            "busy": ("free",),
            "failed": ("free",),
        }
    """})
    assert "CHECK033" in codes_of(report)


def test_malformed_spec_flagged(tmp_path):
    report = check_tree(tmp_path, {"proto.py": """
        SIMCHECK_FSM = {
            "name": "demo",
            "initial": "a",
        }
    """})
    assert "CHECK034" in codes_of(report)


def test_claim_methods_extractor(tmp_path):
    report = check_tree(tmp_path, {"bitmap.py": """
        SIMCHECK_FSM = {
            "name": "claim",
            "initial": "empty",
            "states": ("empty", "claimed", "filled"),
            "transitions": {
                "empty": ("claimed", "filled"),
                "claimed": ("filled", "empty"),
                "filled": (),
            },
            "terminal": ("filled",),
            "extract": {
                "kind": "claim-methods",
                "class": "Bitmap",
                "claimed": "_claimed",
                "filled": "_filled",
                "states": ("empty", "claimed", "filled"),
            },
        }

        class Bitmap:
            def try_claim(self, block):
                self._claimed.add(block)

            def release_claim(self, block):
                self._claimed.discard(block)

            def commit_fill(self, block):
                if block not in self._claimed:
                    raise ValueError(block)
                self._claimed.discard(block)
                self._filled.set_range(block, 1, True)

            def record_guest_write(self, block):
                self._claimed.discard(block)
                self._filled.set_range(block, 1, True)
    """})
    assert codes_of(report) == []
    assert report.fsm_reports[0]["covered"] == 4
    assert report.fsm_fully_covered


# -- CHECK050/051/052: import graph -------------------------------------------

def test_import_cycle_flagged(tmp_path):
    report = check_tree(tmp_path, {
        "sim/alpha.py": "import repro.sim.beta\n",
        "sim/beta.py": "import repro.sim.alpha\n",
    })
    assert "CHECK050" in codes_of(report)


def test_deferred_import_breaks_the_cycle(tmp_path):
    report = check_tree(tmp_path, {
        "sim/alpha.py": "import repro.sim.beta\n",
        "sim/beta.py": ("def late():\n"
                        "    import repro.sim.alpha\n"
                        "    return repro.sim.alpha\n"),
    })
    assert "CHECK050" not in codes_of(report)


def test_unranked_package_flagged(tmp_path):
    report = check_tree(tmp_path, {"mystery/thing.py": "VALUE = 1\n"})
    assert "CHECK051" in codes_of(report)


# -- suppressions and baseline ------------------------------------------------

def test_simcheck_suppression_comment(tmp_path):
    report = check_tree(tmp_path, {"bad.py": """
        def run(env):
            yield 5  # simcheck: ignore[CHECK011] -- fixture
        def start(env):
            env.process(run(env))
    """})
    assert "CHECK011" not in codes_of(report)
    assert report.suppressed == 1


def test_simcheck_ignore_next_line(tmp_path):
    report = check_tree(tmp_path, {"bad.py": """
        def run(env):
            # simcheck: ignore-next-line[CHECK011]
            yield 5
        def start(env):
            env.process(run(env))
    """})
    assert "CHECK011" not in codes_of(report)


def test_baseline_round_trip(tmp_path):
    files = {"bad.py": """
        def run(env):
            yield 5

        def start(env):
            env.process(run(env))
    """}
    root = write_tree(tmp_path, files)
    baseline = tmp_path / "baseline.json"

    # 1. Finding is active without a baseline.
    report = run_check([str(root)], baseline_path=str(baseline))
    assert codes_of(report) == ["CHECK011"]

    # 2. --write-baseline grandfathers it.
    report = run_check([str(root)], baseline_path=str(baseline),
                       write_baseline=True)
    assert report.findings == []
    assert [f.rule for f in report.baselined] == ["CHECK011"]

    # 3. A hand-edited justification survives rewrites.
    payload = json.loads(baseline.read_text())
    payload["findings"][0]["justification"] = "known fixture"
    baseline.write_text(json.dumps(payload))
    report = run_check([str(root)], baseline_path=str(baseline),
                       write_baseline=True)
    payload = json.loads(baseline.read_text())
    assert payload["findings"][0]["justification"] == "known fixture"

    # 4. Fixing the source strands the entry; it is reported stale.
    (root / "sim" / "bad.py").write_text(textwrap.dedent("""
        def run(env):
            yield env.timeout(1)

        def start(env):
            env.process(run(env))
    """), encoding="utf-8")
    report = run_check([str(root)], baseline_path=str(baseline))
    assert report.findings == []
    assert [entry.code for entry in report.stale_baseline] \
        == ["CHECK011"]

    # 5. --write-baseline expires it.
    report = run_check([str(root)], baseline_path=str(baseline),
                       write_baseline=True)
    assert json.loads(baseline.read_text())["findings"] == []


def test_baseline_is_line_number_independent(tmp_path):
    files = {"bad.py": "def run(env):\n    yield 5\n\n"
                       "def start(env):\n    env.process(run(env))\n"}
    root = write_tree(tmp_path, files)
    baseline = tmp_path / "baseline.json"
    run_check([str(root)], baseline_path=str(baseline),
              write_baseline=True)
    # Insert lines above the finding; the context line still matches.
    (root / "sim" / "bad.py").write_text(
        "X = 1\nY = 2\n\ndef run(env):\n    yield 5\n\n"
        "def start(env):\n    env.process(run(env))\n",
        encoding="utf-8")
    report = run_check([str(root)], baseline_path=str(baseline))
    assert report.findings == []
    assert len(report.baselined) == 1


# -- incremental cache --------------------------------------------------------

def test_cache_reuses_summaries_and_invalidates_on_edit(tmp_path):
    root = write_tree(tmp_path, {"bad.py": """
        def run(env):
            yield 5

        def start(env):
            env.process(run(env))
    """})
    cache = tmp_path / "cache.json"
    first = run_check([str(root)], cache_path=str(cache))
    assert first.cached_modules == 0
    second = run_check([str(root)], cache_path=str(cache))
    assert second.cached_modules == second.modules == 1
    assert codes_of(first) == codes_of(second) == ["CHECK011"]
    # An edit invalidates exactly that file.
    (root / "sim" / "bad.py").write_text(textwrap.dedent("""
        def run(env):
            yield env.timeout(1)

        def start(env):
            env.process(run(env))
    """), encoding="utf-8")
    third = run_check([str(root)], cache_path=str(cache))
    assert third.cached_modules == 0
    assert codes_of(third) == []


def test_cache_preserves_fsm_constants(tmp_path):
    root = write_tree(tmp_path, {"proto.py": FSM_MODULE})
    cache = tmp_path / "cache.json"
    run_check([str(root)], cache_path=str(cache))
    cached = run_check([str(root)], cache_path=str(cache))
    assert cached.cached_modules == 1
    assert cached.fsm_reports[0]["covered"] == 3


# -- CLI ----------------------------------------------------------------------

def test_cli_exit_zero_on_clean_tree(tmp_path):
    root = write_tree(tmp_path, {"ok.py": "VALUE = 1\n"})
    assert main(["--no-baseline", "--no-cache", str(root)]) == 0


def test_cli_exit_one_on_error_finding(tmp_path):
    root = write_tree(tmp_path, {"bad.py": (
        "def run(env):\n    yield 5\n\n"
        "def start(env):\n    env.process(run(env))\n")})
    assert main(["--no-baseline", "--no-cache", str(root)]) == 1


def test_cli_exit_two_on_missing_path(tmp_path):
    missing = tmp_path / "nope.py"
    assert main(["--no-baseline", "--no-cache", str(missing)]) == 2


def test_cli_warnings_pass_unless_strict(tmp_path):
    root = write_tree(tmp_path, {"node.py": SHARED_WRITE})
    assert main(["--no-baseline", "--no-cache", str(root)]) == 0
    assert main(["--no-baseline", "--no-cache", "--strict",
                 str(root)]) == 1


def test_cli_list_checks(capsys):
    assert main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    for code in CATALOG:
        assert code in out


def test_repro_cli_check_subcommand(tmp_path):
    from repro.cli import main as repro_main

    root = write_tree(tmp_path, {"ok.py": "VALUE = 1\n"})
    assert repro_main(["check", "--no-baseline", "--no-cache",
                       str(root)]) == 0
    bad = write_tree(tmp_path / "b", {"bad.py": (
        "def run(env):\n    yield 5\n\n"
        "def start(env):\n    env.process(run(env))\n")})
    assert repro_main(["check", "--no-baseline", "--no-cache",
                       str(bad)]) == 1


def test_repro_cli_lint_exit_codes(tmp_path):
    from repro.cli import main as repro_main

    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n", encoding="utf-8")
    assert repro_main(["lint", str(clean)]) == 0
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\n\ndef now():\n"
                     "    return time.time()\n", encoding="utf-8")
    assert repro_main(["lint", str(dirty)]) == 1


def test_syntax_error_becomes_check000(tmp_path):
    root = write_tree(tmp_path, {"broken.py": "def oops(:\n"})
    report = run_check([str(root)])
    assert codes_of(report) == ["CHECK000"]


# -- SARIF --------------------------------------------------------------------

def test_sarif_document_structure(tmp_path):
    root = write_tree(tmp_path, {"bad.py": (
        "def run(env):\n    yield 5\n\n"
        "def start(env):\n    env.process(run(env))\n")})
    report = run_check([str(root)])
    document = sarif_document(report.findings, CATALOG, "1.0.0")
    assert document["version"] == "2.1.0"
    assert document["$schema"].endswith("sarif-2.1.0.json")
    run = document["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "simcheck"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert set(rule_ids) == set(CATALOG)
    assert len(run["results"]) == 1
    result = run["results"][0]
    assert result["ruleId"] == "CHECK011"
    assert driver["rules"][result["ruleIndex"]]["id"] == "CHECK011"
    assert result["level"] == "error"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1
    assert region["startColumn"] >= 1


def test_sarif_written_by_cli(tmp_path):
    root = write_tree(tmp_path, {"bad.py": (
        "def run(env):\n    yield 5\n\n"
        "def start(env):\n    env.process(run(env))\n")})
    out = tmp_path / "findings.sarif"
    assert main(["--no-baseline", "--no-cache",
                 "--sarif", str(out), str(root)]) == 1
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["runs"][0]["results"][0]["ruleId"] == "CHECK011"


# -- the real tree ------------------------------------------------------------

def test_real_tree_has_no_errors():
    report = run_check([SRC], baseline_path=BASELINE)
    assert report.errors == []
    # Everything surfaced on the seed tree is either fixed or carries
    # a baseline justification; nothing new may accumulate silently.
    assert report.findings == []
    assert report.stale_baseline == []


def test_real_tree_fsms_fully_covered():
    report = run_check([SRC], baseline_path=BASELINE)
    names = {r["name"]: r for r in report.fsm_reports}
    assert set(names) == {"node-lifecycle", "block-claim"}
    for fsm in names.values():
        assert fsm["covered"] == fsm["total"] > 0
    assert report.fsm_fully_covered


def test_real_tree_process_closure_nonempty():
    model = build_model([SRC])
    assert len(model.process_functions) > 10
    assert all(model.functions[q].is_generator
               for q in model.process_functions)


def test_catalog_covers_every_emitted_code():
    report = run_check([SRC], baseline_path=None)
    for finding in report.findings + report.baselined:
        assert finding.rule in CATALOG


def test_fsm_specs_detect_drift(tmp_path):
    # Editing the real lifecycle TRANSITIONS without updating the spec
    # must fail the check: copy the module, drop an edge.
    source = open(SRC + "/ctl/lifecycle.py", encoding="utf-8").read()
    mutated = source.replace("FAILED: (SCRUBBING,),", "FAILED: (),", 1)
    assert mutated != source
    root = tmp_path / "repro" / "ctl"
    root.mkdir(parents=True)
    (root / "lifecycle.py").write_text(mutated, encoding="utf-8")
    report = run_check([str(tmp_path / "repro")])
    assert "CHECK030" in codes_of(report)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

"""Deterministic parallel parameter sweeps.

A sweep expands a small axes grid into points, runs each point's
scenario in its own worker process, and merges the per-point figures
into one document.  Three properties make the output trustworthy:

* **Per-point seeding is positional-independent.**  Every point's RNG
  seed derives from ``blake2b(parent_seed ":" param_key)`` via
  :func:`derive_seed`, then passes through the sanctioned
  :func:`repro.util.rng.make_rng` choke point.  Adding or removing a
  grid axis value never changes any *other* point's seed.
* **The merge is keyed, not ordered.**  Results are collected with
  ``Pool.map`` (which preserves submission order) and then re-sorted
  by parameter key, so ``--jobs 1`` and ``--jobs N`` produce
  byte-identical JSON.
* **Workers share nothing.**  Each point builds a fresh
  :class:`~repro.sim.Environment` inside its worker; figures are pure
  simulated-time metrics, never wall-clock.

The pool is used even for ``jobs=1`` so the single-job and multi-job
code paths cannot drift apart.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import product
# The sweep runner is host-side orchestration: it spawns whole
# simulations into worker processes and never runs inside an
# Environment itself, so the blocking-primitives ban does not apply.
from multiprocessing import get_context  # simcheck: ignore[SIM006]

from repro.util.rng import make_rng

MB = 2**20

#: Registered sweep kinds -> the worker that runs one grid point.
#: Each worker takes ``(params, fixed, seed)`` and returns a flat
#: ``{figure_name: number}`` dict of simulated-time metrics.
KINDS = ("ctl", "moderation")


def derive_seed(parent_seed: int, key: str) -> int:
    """A stable per-point seed from the parent seed and parameter key.

    Hash-based (not ``parent_seed + index``) so a point's seed never
    depends on its position in the grid — growing an axis leaves every
    existing point's run bit-identical.
    """
    digest = hashlib.blake2b(f"{parent_seed}:{key}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def param_key(params: dict) -> str:
    """Canonical string key for one grid point (sorted by name)."""
    return ",".join(f"{name}={params[name]}" for name in sorted(params))


def expand_grid(axes: dict) -> list:
    """All axis combinations as dicts, in sorted-key lexical order."""
    names = sorted(axes)
    return [dict(zip(names, values))
            for values in product(*(axes[name] for name in names))]


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a kind, its axes grid, and fixed parameters."""

    kind: str
    axes: dict
    parent_seed: int = 20150314
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        for name, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")


# -- per-kind point runners (top level: workers must pickle them) ------------

def _run_ctl_point(params: dict, fixed: dict, seed: int) -> dict:
    """One elastic-control-plane run; returns the numeric report."""
    from repro.ctl import elasticity_scenario
    from repro.guest.osimage import OsImage

    image_mb = int(fixed.get("image_mb", 64))
    scenario = elasticity_scenario(
        lambda: OsImage(size_bytes=image_mb * MB,
                        boot_read_bytes=min(16 * MB, image_mb * MB // 4),
                        boot_think_seconds=3.0),
        node_count=int(params["nodes"]), server_count=1, p2p=True,
        policy_name=params["policy"],
        placement_name=fixed.get("placement", "cache-aware"),
        demand_name=params["demand"], demand_seed=seed,
        duration=float(fixed.get("duration", 900.0)),
        tick=float(fixed.get("tick", 15.0)),
        vmxoff_mode=fixed.get("vmxoff_mode", "resident"))
    report = scenario().controller.report()
    report.pop("fleet", None)
    return {name: value for name, value in sorted(report.items())
            if isinstance(value, (int, float))}


def _run_moderation_point(params: dict, fixed: dict, seed: int) -> dict:
    """One moderated deploy + fio read; returns MB/s figures.

    The scenario is fully deterministic (no stochastic models), so
    ``seed`` is unused — it is accepted so every kind has the same
    worker signature and seed bookkeeping.
    """
    from repro.analysis import deployment_scenario
    from repro.apps.fio import FioBenchmark
    from repro.guest.osimage import OsImage
    from repro.vmm.moderation import interval_sweep_policy

    image_mb = int(fixed.get("image_mb", 2048))
    run = deployment_scenario(
        lambda: OsImage(size_bytes=image_mb * MB,
                        boot_read_bytes=min(16 * MB, image_mb * MB // 4)),
        policy=interval_sweep_policy(float(params["write_interval"])),
        wait=False)()
    env = run.testbed.env
    instance = run.cluster.instances[0]
    vmm = instance.platform
    fio = FioBenchmark(instance)
    fio.TOTAL_BYTES = int(fixed.get("fio_mb", 128)) * MB
    figures = {}

    def measure():
        yield from fio.layout()
        before = vmm.copier.bytes_written + vmm.copier.writeback_bytes
        start = env.now
        guest = yield from fio.read_throughput()
        vmm_bytes = (vmm.copier.bytes_written
                     + vmm.copier.writeback_bytes - before)
        figures["guest_read_mbps"] = round(guest / 1e6, 3)
        figures["vmm_write_mbps"] = round(
            vmm_bytes / (env.now - start) / 1e6, 3)

    env.run(until=env.process(measure()))
    return figures


_POINT_RUNNERS = {
    "ctl": _run_ctl_point,
    "moderation": _run_moderation_point,
}


def _run_point(task: tuple) -> dict:
    """Pool worker: run one grid point and wrap it with its identity."""
    kind, params, fixed, seed = task
    figures = _POINT_RUNNERS[kind](params, fixed, seed)
    return {"key": param_key(params), "params": params, "seed": seed,
            "figures": figures}


# -- the runner --------------------------------------------------------------

def _tasks_for(spec: SweepSpec) -> list:
    tasks = []
    for params in expand_grid(spec.axes):
        key = param_key(params)
        # make_rng is the sanctioned randomness door; routing the
        # derived seed through it keeps sweeps under the same SIM003
        # discipline as the models they drive.
        seed = make_rng(derive_seed(spec.parent_seed, key)) \
            .getrandbits(32)
        tasks.append((spec.kind, params, spec.fixed, seed))
    return tasks


def run_sweep(spec: SweepSpec, jobs: int = 1) -> dict:
    """Run every grid point and merge the figures deterministically.

    ``jobs`` sizes the worker pool; it never affects the output.  The
    merged document lists runs sorted by parameter key and carries the
    spec so a result file is self-describing.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    tasks = _tasks_for(spec)
    context = get_context()
    with context.Pool(processes=min(jobs, len(tasks))) as pool:
        results = pool.map(_run_point, tasks)
    results.sort(key=lambda run: run["key"])
    return {
        "kind": spec.kind,
        "parent_seed": spec.parent_seed,
        "axes": {name: list(values)
                 for name, values in sorted(spec.axes.items())},
        "fixed": dict(sorted(spec.fixed.items())),
        "runs": results,
    }


def sweep_to_json(result: dict) -> str:
    """Canonical serialization — the byte-identity comparison target."""
    return json.dumps(result, indent=2, sort_keys=True) + "\n"

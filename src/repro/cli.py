"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``deploy``    — deploy one instance by any method; print the timeline
  and (for BMcast) the deployment summary.
* ``compare``   — deploy by every method and print a Figure-4-style table.
* ``scaleout``  — deploy a fleet in waves over the distribution fabric
  and print the per-wave table (replicas, p2p, selection policy).
* ``ctl``       — run the elastic control plane: a demand curve drives
  an autoscaler that deploys and reclaims bare-metal nodes
  (see docs/control_plane.md).
* ``sweep``     — parallel parameter sweeps (``repro.perf``): the
  moderation write-interval sweep (Figure 14 shape) or an autoscaler
  policy x demand x node-count grid, fanned across ``--jobs`` worker
  processes with byte-identical merged output.
* ``metrics``   — ``deploy`` with telemetry on; print the summary.
* ``trace``     — ``deploy --wait`` with forensics on; write a
  Chrome-trace JSON (open in ``chrome://tracing`` / Perfetto).
* ``profile``   — ``deploy --wait`` with forensics on; print the
  sim-time profile and critical-path latency budget.
* ``check``     — run simcheck, the static analysis (the SIM
  determinism and layering rules, call-graph determinism taint,
  process discipline, race candidates, FSM spec checking, import
  cycles).
* ``info``      — the calibrated testbed constants.

Every command that simulates builds its run through one of two
replayable scenario callables, :func:`repro.analysis.deployment_scenario`
or :func:`repro.ctl.elasticity_scenario`, so ``--replay-check``
(``deploy``, ``ctl``) compares the printed run with a second run of
the very callable that made it.  ``--sanitize`` attaches every runtime
sanitizer (exit 1 on any violation); ``--metrics-out FILE`` exports
:mod:`repro.obs` telemetry (JSON, or Prometheus text for ``.prom``);
``--trace-out FILE`` also arms the forensics layer (component spans,
causal tracer, provenance) and writes a Chrome-trace JSON.  ``check``
hands its arguments to simcheck's own command line.
"""

from __future__ import annotations

import argparse
import importlib
import json
from functools import partial

from repro import params
from repro.cloud.provisioner import METHODS
from repro.ctl.demand import DEMANDS as CTL_DEMANDS
from repro.ctl.placement import PLACEMENTS as CTL_PLACEMENTS
from repro.ctl.policy import POLICIES as CTL_POLICIES
from repro.dist.selector import POLICIES
from repro.guest.osimage import OsImage
from repro.obs import Telemetry, format_table, write_telemetry

#: Every flag more than one command takes, declared once; a command
#: picks its flags by name and sets its own defaults.
_FLAGS = {
    "method": dict(choices=METHODS, default="bmcast"),
    "image_gb": dict(type=float, help="OS image size in GB (default "
                     "%(default)s; the paper used 32)"),
    "controller": dict(choices=("ahci", "ide", "megaraid"),
                       default="ahci"),
    "wait": dict(action="store_true",
                 help="run until every deployment finishes (BMcast)"),
    "nodes": dict(type=int, help="fleet size (default %(default)s)"),
    "replicas": dict(type=int, default=1, help="origin AoE replica "
                     "count (default %(default)s)"),
    "p2p": dict(action="store_true",
                help="enable peer-to-peer chunk serving"),
    "select_policy": dict(choices=POLICIES, default="round-robin",
                          help="replica selection policy"),
    "seed": dict(type=int, default=20150314,
                 help="demand model RNG seed (sweep: the parent seed "
                 "each grid point derives its own from)"),
    "duration": dict(type=float, help="control-loop run time in sim "
                     "seconds (default %(default)s)"),
    "metrics_out": dict(metavar="FILE", help="export telemetry (JSON, "
                        "or Prometheus text if FILE ends in .prom)"),
    "trace_out": dict(metavar="FILE", help="arm the forensics layer and "
                      "write the run as Chrome-trace JSON"),
    "sanitize": dict(action="store_true",
                     help="attach the runtime sanitizers to every "
                     "deployment (BMcast); exit 1 on any violation"),
    "replay_check": dict(action="store_true",
                         help="record the run's event-stream digest, "
                         "run the scenario again and compare; exit 1 on "
                         "divergence"),
    "fluid": dict(action="store_true",
                  help="opt deployments into the fluid-flow fast path "
                  "(BMcast; auto-demotes per node when fidelity-bearing "
                  "dynamics engage)"),
    "full_speed": dict(action="store_true",
                       help="deploy with the unmoderated FULL_SPEED "
                       "policy (required for --fluid to engage)"),
}

_DEPLOY_FLAGS = ("method", "image_gb", "controller")
#: Commands that hand their arguments to an analyzer's own command
#: line, which owns their flags: name -> (module, help).
_FORWARDED = {
    "check": ("repro.analysis.simcheck.engine",
              "run simcheck static analysis"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BMcast reproduction: deploy bare-metal instances "
        "in a simulated cloud (ASPLOS 2015).")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, *flags, **defaults):
        shared = argparse.ArgumentParser(add_help=False)
        for flag in flags:
            shared.add_argument("--" + flag.replace("_", "-"),
                                **_FLAGS[flag])
        shared.set_defaults(**defaults)
        return sub.add_parser(name, help=help_text, description=help_text,
                              parents=[shared])

    deploy = command(
        "deploy", "deploy one instance", *_DEPLOY_FLAGS, "wait",
        "metrics_out", "trace_out", "replicas", "p2p", "select_policy",
        "sanitize", "replay_check", "fluid", "full_speed", image_gb=4.0)
    deploy.add_argument("--cold", action="store_true",
                        help="include the first firmware initialization")
    deploy.add_argument("--prefetch", action="store_true",
                        help="prefetch the boot working set (BMcast)")

    scaleout = command(
        "scaleout", "deploy a fleet in waves over the fabric", "nodes",
        "replicas", "p2p", "select_policy", "image_gb", "wait",
        "sanitize", "trace_out", "fluid", "full_speed", nodes=8,
        replicas=2, select_policy="least-outstanding", image_gb=0.5)
    scaleout.add_argument("--wave-size", type=int, default=4,
                          help="instances launched per wave (default 4)")
    scaleout.add_argument("--seed-fill", type=float, default=0.25,
                          help="previous-wave mean bitmap fill required "
                          "before the next wave launches (default 0.25)")

    ctl = command(
        "ctl", "run the elastic control plane over a demand curve",
        "nodes", "seed", "duration", "image_gb", "replicas", "p2p",
        "metrics_out", "trace_out", "sanitize", "replay_check", "fluid",
        nodes=8, duration=3600.0, image_gb=0.25)
    ctl.add_argument("--policy", choices=sorted(CTL_POLICIES),
                     default="reactive", help="autoscaler policy")
    ctl.add_argument("--placement", choices=sorted(CTL_PLACEMENTS),
                     default="cache-aware", help="free-node placement")
    ctl.add_argument("--demand", choices=sorted(CTL_DEMANDS),
                     default="flash-crowd", help="demand model")
    ctl.add_argument("--demand-trace", metavar="FILE",
                     help="replay a recorded request trace instead of "
                     "a synthetic demand model")
    ctl.add_argument("--dump-demand", metavar="FILE",
                     help="also write the admitted requests as a "
                     "replayable trace file")
    ctl.add_argument("--tick", type=float, default=15.0,
                     help="control tick in sim seconds (default 15)")
    ctl.add_argument("--vmxoff-mode",
                     choices=("full", "module-assisted", "resident"),
                     default="resident",
                     help="de-virtualization mode; resident keeps the "
                     "dormant VMM, making reclaim a fast re-arm")
    ctl.add_argument("--no-preserve", action="store_true",
                     help="scrub on reclaim instead of preserving "
                     "pristine blocks (disables the warm pool)")

    command("compare", "compare every method", "image_gb", "metrics_out",
            "trace_out", image_gb=4.0)

    sweep = command(
        "sweep", "parallel parameter sweep (repro.perf); --image-gb "
        "defaults to 2 for moderation, 0.0625 for ctl", "seed",
        "image_gb", "duration", duration=900.0)
    sweep.add_argument("--kind", choices=("moderation", "ctl"),
                       default="moderation",
                       help="moderation: write-interval sweep (Figure "
                       "14 shape); ctl: policy x demand x node-count "
                       "autoscaler grid")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1; the output "
                       "is byte-identical for any value)")
    sweep.add_argument("--out", metavar="FILE",
                       help="write the merged sweep document as JSON")
    sweep.add_argument("--intervals", default="1.0,0.1,0.01,0.001,0.0",
                       help="moderation: comma list of VMM write "
                       "intervals in seconds")
    sweep.add_argument("--policies", default="reactive,headroom",
                       help="ctl: comma list of autoscaler policies")
    sweep.add_argument("--demands", default="flash-crowd",
                       help="ctl: comma list of demand models")
    sweep.add_argument("--node-counts", default="6",
                       help="ctl: comma list of fleet sizes")

    command("metrics", "deploy with telemetry on and print the summary",
            *_DEPLOY_FLAGS, "wait", "metrics_out", image_gb=1.0)

    trace = command(
        "trace", "deploy with forensics on; write a Chrome trace",
        *_DEPLOY_FLAGS, "wait", image_gb=1.0, wait=True)
    trace.add_argument("--out", metavar="FILE", default="trace.json",
                       help="Chrome-trace output path "
                       "(default trace.json)")
    trace.add_argument("--folded-out", metavar="FILE",
                       help="also write flamegraph folded stacks")

    profile = command(
        "profile", "deploy with forensics on; print the sim-time "
        "profile and critical-path latency budget", *_DEPLOY_FLAGS,
        image_gb=1.0)
    profile.add_argument("--anchor", default=None,
                         help="critical-path anchor mark (default: "
                         "devirtualize, then deploy-complete)")
    profile.add_argument("--out", metavar="FILE",
                         help="also write the profile report as JSON")

    for name, (_, help_text) in _FORWARDED.items():
        sub.add_parser(name, help=help_text, add_help=False)
    sub.add_parser("info", help="print testbed calibration")
    return parser


def _image(image_gb: float) -> OsImage:
    size = int(image_gb * 2**30)
    boot_bytes = min(params.OS_BOOT_READ_BYTES, size // 4)
    return OsImage(size_bytes=size, boot_read_bytes=boot_bytes)


def _segments(timeline) -> str:
    return "; ".join(f"{label} {seconds:.0f}s"
                     for label, seconds in timeline.segments)


def _telemetry_factory(args):
    """``env -> telemetry`` for the run, or ``None`` for the zero-cost
    null object.  ``trace``, ``profile`` and ``--trace-out`` arm the
    forensics layer too; the timeline is identical either way."""
    if args.command in ("trace", "profile") \
            or getattr(args, "trace_out", None):
        return partial(Telemetry, forensics=True)
    if args.command == "metrics" or getattr(args, "metrics_out", None):
        return Telemetry
    return None


def _policy(args):
    if getattr(args, "full_speed", False):
        from repro.vmm.moderation import FULL_SPEED
        return FULL_SPEED
    return None


def _write_metrics(path, runs) -> None:
    """One telemetry bundle, or a dict of them by label, at ``path``."""
    write_telemetry(path, runs)
    print(f"telemetry written to {path}")


def _write_trace(path, runs: dict) -> None:
    """``runs`` (telemetry by label) as one Chrome trace at ``path``."""
    from repro.obs import write_chrome_trace
    document = write_chrome_trace(path, runs)
    print(f"chrome trace written to {path} "
          f"({len(document['traceEvents'])} events; open in "
          f"chrome://tracing or https://ui.perfetto.dev)")


def _run(scenario, args):
    """Run ``scenario`` once; under ``--replay-check`` its event stream
    is recorded as the first of the two runs compared."""
    from repro.analysis import ReplayRecorder
    recorder = ReplayRecorder() \
        if getattr(args, "replay_check", False) else None
    return scenario(recorder), recorder


def _finish(args, run, scenario, recorder, name: str = "") -> int:
    """Export the run (``name`` labels its Chrome trace), judge its
    sanitizers, finish its replay check; return the exit status."""
    if getattr(args, "metrics_out", None):
        _write_metrics(args.metrics_out, run.telemetry)
    if getattr(args, "trace_out", None):
        _write_trace(args.trace_out, {name or args.command: run.telemetry})
    status = 0
    if run.sanitizers is not None:
        run.sanitizers.finalize()
        print(run.sanitizers.describe())
        status = 1 if run.sanitizers.violations else 0
    if recorder is not None:
        from repro.analysis import check_replay
        report = check_replay(scenario, recorded=(recorder,))
        print(report.describe())
        status = max(status, 1 if report.divergent else 0)
    return status


def _deploy(args):
    """One :func:`~repro.analysis.deployment_scenario` run, printed —
    ``deploy`` and its telemetry modes ``metrics``, ``trace`` and
    ``profile``.  Returns ``(run, exit status)``."""
    from repro.analysis import deployment_scenario
    bmcast = args.method == "bmcast"
    for flag in ("sanitize", "fluid"):
        if getattr(args, flag, False) and not bmcast:
            print(f"--{flag} requires --method bmcast")
            return None, 2
    options = {"skip_firmware": not getattr(args, "cold", False)}
    if getattr(args, "prefetch", False) and bmcast:
        options["prefetch_lbas"] = _image(args.image_gb).boot_lbas()
    if getattr(args, "fluid", False):
        options["fluid"] = True
    # profile always waits; --wait runs to the copy's completion and
    # ten seconds past it.
    wait = getattr(args, "wait", True) and bmcast
    scenario = deployment_scenario(
        lambda: _image(args.image_gb),
        disk_controller=args.controller,
        method=args.method,
        server_count=getattr(args, "replicas", 1),
        p2p=getattr(args, "p2p", False),
        select_policy=getattr(args, "select_policy", "round-robin"),
        policy=_policy(args),
        wait=wait,
        settle_seconds=10.0,
        telemetry_factory=_telemetry_factory(args),
        deploy_options=options,
        sanitize=getattr(args, "sanitize", False))
    run, recorder = _run(scenario, args)
    env = run.testbed.env
    instance = run.cluster.instances[0]
    platform = instance.platform
    print(f"{args.method}: instance ready after "
          f"{instance.timeline.total:.1f}s "
          f"({_segments(instance.timeline)})")
    if getattr(args, "fluid", False):
        print(f"fluid mode: {platform.fluid.describe()}")
    if wait and hasattr(platform, "copier"):
        print(f"deployment finished at t={env.now:.1f}s; "
              f"phase={platform.phase}")
        for key, value in platform.summary().items():
            print(f"  {key}: {value}")
    print(f"simulated events: {env.events_processed}")
    return run, _finish(args, run, scenario, recorder,
                        f"deploy:{args.method}")


def cmd_deploy(args) -> int:
    return _deploy(args)[1]


def cmd_metrics(args) -> int:
    run, status = _deploy(args)
    print()
    print(run.telemetry.summary())
    return status


def cmd_trace(args) -> int:
    run, status = _deploy(args)
    _write_trace(args.out, {f"deploy:{args.method}": run.telemetry})
    if args.folded_out:
        from repro.obs import folded_stacks
        text = folded_stacks(run.telemetry)
        with open(args.folded_out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"folded stacks written to {args.folded_out} "
              f"({len(text.splitlines())} stacks)")
    return status


def cmd_profile(args) -> int:
    from repro.obs import format_profile, profile_report
    run, status = _deploy(args)
    report = profile_report(run.telemetry, anchor=args.anchor)
    print()
    print(format_profile(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"profile report written to {args.out}")
    return status


def cmd_scaleout(args) -> int:
    from repro.analysis import deployment_scenario
    scenario = deployment_scenario(
        lambda: _image(args.image_gb), node_count=args.nodes,
        server_count=args.replicas, p2p=args.p2p,
        select_policy=args.select_policy, wave_size=args.wave_size,
        seed_fill=args.seed_fill, policy=_policy(args), wait=args.wait,
        settle_seconds=10.0, telemetry_factory=_telemetry_factory(args),
        deploy_options={"fluid": True} if args.fluid else None,
        sanitize=args.sanitize)
    run = scenario()
    scheduler = run.scheduler
    rows = [
        [w.index, " ".join(str(i) for i in w.node_indexes),
         round(w.ready_seconds, 1),
         round(w.ready_seconds / len(w.node_indexes), 1),
         w.peer_hits, w.origin_fetches,
         f"{w.live_peer_hit_ratio():.0%}"]
        for w in scheduler.waves
    ]
    print(format_table(
        ["wave", "nodes", "ready (s)", "s/instance",
         "peer hits", "origin fetches", "peer hit ratio"],
        rows,
        title=f"Scale-out: {args.nodes} nodes, "
        f"{args.replicas} replica(s), "
        f"p2p {'on' if args.p2p else 'off'}, "
        f"policy {args.select_policy}"))
    print(f"fleet ready in {scheduler.summary()['total_seconds']:.1f}s; "
          f"peers registered: "
          f"{run.testbed.fabric.describe()['peers_registered']}")
    if args.fluid:
        states: dict = {}
        for instance in run.cluster.instances:
            state = instance.platform.fluid.describe()
            states[state] = states.get(state, 0) + 1
        print("fluid mode: " + ", ".join(
            f"{count}x {state}"
            for state, count in sorted(states.items())))
    return _finish(args, run, scenario, None)


def cmd_ctl(args) -> int:
    """Run the elastic control plane and print the run report."""
    from repro.analysis import SanitizerSuite
    from repro.ctl import dump_trace, elasticity_scenario
    scenario = elasticity_scenario(
        lambda: _image(args.image_gb), node_count=args.nodes,
        server_count=args.replicas, p2p=args.p2p,
        policy_name=args.policy, placement_name=args.placement,
        demand_name=args.demand, demand_trace=args.demand_trace,
        demand_seed=args.seed, duration=args.duration, tick=args.tick,
        vmxoff_mode=args.vmxoff_mode,
        preserve_on_reclaim=not args.no_preserve, fluid=args.fluid,
        telemetry_factory=_telemetry_factory(args),
        sanitizer_factory=SanitizerSuite if args.sanitize else None)
    run, recorder = _run(scenario, args)
    controller = run.controller
    report = controller.report()
    fleet = report.pop("fleet")
    print(format_table(
        ["metric", "value"],
        [[key, value] for key, value in report.items()],
        title=f"Elastic run: {args.nodes} nodes, "
        f"policy {args.policy}, placement {args.placement}, "
        f"demand {args.demand_trace or args.demand}"))
    print("fleet at end: " + ", ".join(
        f"{key}={value}" for key, value in fleet.items()))
    if controller.decisions:
        print("scale decisions:")
        for when, target, provisioned, reason in controller.decisions:
            print(f"  t={when:7.1f}s  {provisioned} -> {target}  "
                  f"({reason})")
    print(f"simulated events: {controller.env.events_processed}")
    if args.dump_demand:
        dump_trace(controller.requests, args.dump_demand)
        print(f"demand trace written to {args.dump_demand}")
    return _finish(args, run, scenario, recorder)


def cmd_compare(args) -> int:
    from repro.analysis import deployment_scenario
    from repro.baselines import OsNotSupportedError
    rows = []
    exports = {}
    for method in METHODS:
        scenario = deployment_scenario(
            lambda: _image(args.image_gb), method=method, wait=False,
            telemetry_factory=_telemetry_factory(args),
            deploy_options={"skip_firmware": True})
        try:
            run = scenario()
        except OsNotSupportedError as error:
            rows.append([method, "-", str(error)])
            continue
        timeline = run.cluster.instances[0].timeline
        rows.append([method, round(timeline.total, 1),
                     _segments(timeline)])
        if run.telemetry.enabled:
            exports[method] = run.telemetry
    print(format_table(["method", "ready (s)", "time spent on"], rows,
                       title=f"Startup comparison "
                       f"({args.image_gb:g}-GB image, warm firmware)"))
    if args.metrics_out and exports:
        _write_metrics(args.metrics_out, exports)
    if args.trace_out and exports:
        _write_trace(args.trace_out, exports)
    return 0


def cmd_sweep(args) -> int:
    """Fan a parameter grid across a worker pool (repro.perf)."""
    from repro.perf import SweepSpec, run_sweep, sweep_to_json

    if args.kind == "moderation":
        image_gb = args.image_gb if args.image_gb is not None else 2.0
        spec = SweepSpec(
            kind="moderation",
            axes={"write_interval":
                  tuple(float(value)
                        for value in args.intervals.split(","))},
            parent_seed=args.seed,
            fixed={"image_mb": int(image_gb * 1024), "fio_mb": 128})
    else:
        image_gb = args.image_gb if args.image_gb is not None else 0.0625
        spec = SweepSpec(
            kind="ctl",
            axes={"policy": tuple(args.policies.split(",")),
                  "demand": tuple(args.demands.split(",")),
                  "nodes": tuple(int(value) for value
                                 in args.node_counts.split(","))},
            parent_seed=args.seed,
            fixed={"image_mb": int(image_gb * 1024),
                   "duration": args.duration})
    result = run_sweep(spec, jobs=args.jobs)

    if args.kind == "moderation":
        rows = [
            ["full-speed" if run["params"]["write_interval"] == 0
             else f"{run['params']['write_interval']:g}s",
             round(run["figures"]["guest_read_mbps"], 1),
             round(run["figures"]["vmm_write_mbps"], 1)]
            for run in result["runs"]
        ]
        print(format_table(
            ["VMM write interval", "guest read MB/s", "VMM write MB/s"],
            rows, title="Moderation sweep (Figure 14 shape)"))
    else:
        rows = [
            [run["params"]["policy"], run["params"]["demand"],
             run["params"]["nodes"], run["figures"]["requests"],
             run["figures"]["served"],
             f"{run['figures']['slo_attainment']:.0%}",
             run["figures"]["ttr_p95_seconds"],
             round(run["figures"]["wasted_node_seconds"], 0)]
            for run in result["runs"]
        ]
        print(format_table(
            ["policy", "demand", "nodes", "requests", "served",
             "SLO met", "p95 ttr (s)", "wasted node-s"],
            rows, title=f"Autoscaler sweep ({len(rows)} runs, "
            f"jobs={args.jobs})"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(sweep_to_json(result))
        print(f"sweep document written to {args.out}")
    return 0


def cmd_info(args) -> int:
    rows = [
        ["CPU", f"{params.CPU_CORES} cores @ {params.CPU_HZ / 1e9:.2f} GHz"],
        ["memory", f"{params.MEMORY_BYTES // 2**30} GB"],
        ["firmware init", f"{params.FIRMWARE_INIT_SECONDS:.0f} s"],
        ["disk", f"{params.DISK_READ_BW / 1e6:.1f} / "
                 f"{params.DISK_WRITE_BW / 1e6:.1f} MB/s r/w"],
        ["management net", f"{params.GBE_BITS_PER_SECOND / 1e9:.0f} GbE, "
                           f"MTU {params.GBE_MTU}"],
        ["InfiniBand", f"{params.IB_BITS_PER_SECOND / 1e9:.0f} Gb/s, "
                       f"{params.IB_BASE_LATENCY_SECONDS * 1e6:.1f} us"],
        ["OS image", f"{params.OS_IMAGE_BYTES // 2**30} GB "
                     f"(boot reads {params.OS_BOOT_READ_BYTES // 2**20} MB)"],
        ["copy block", f"{params.COPY_BLOCK_BYTES // 2**10} KB"],
        ["poll interval", f"{params.POLL_INTERVAL_SECONDS * 1e6:.0f} us"],
        ["VMM memory", f"{params.VMM_RESERVED_BYTES // 2**20} MB"],
    ]
    print(format_table(["parameter", "value"], rows,
                       title="Calibrated testbed "
                       "(FUJITSU PRIMERGY RX200 S6, paper Section 5)"))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command in _FORWARDED:
        module = importlib.import_module(_FORWARDED[args.command][0])
        return module.main(rest)
    if rest:
        parser.error("unrecognized arguments: " + " ".join(rest))
    handler = {
        "deploy": cmd_deploy,
        "scaleout": cmd_scaleout,
        "ctl": cmd_ctl,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
        "metrics": cmd_metrics,
        "trace": cmd_trace,
        "profile": cmd_profile,
        "info": cmd_info,
    }[args.command]
    return handler(args)

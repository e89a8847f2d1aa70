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
* ``metrics``   — deploy once with telemetry on and print the summary.
* ``trace``     — deploy with forensics on and write a Chrome-trace
  JSON (open in ``chrome://tracing`` / Perfetto).
* ``profile``   — deploy with forensics on and print the sim-time
  profile and critical-path latency budget.
* ``lint``      — run simlint (repro.analysis) over the source tree.
* ``check``     — run simcheck, the whole-program static analysis
  (call-graph determinism taint, process discipline, race candidates,
  FSM spec checking, import layering).
* ``info``      — the calibrated testbed constants.

``deploy`` and ``scaleout`` accept ``--sanitize`` to run with every
runtime sanitizer attached (exit 1 on any violation), and ``deploy``
accepts ``--replay-check`` to run the scenario twice and compare the
event-stream digests.

``deploy`` and ``compare`` accept ``--metrics-out FILE`` to record the
run with the :mod:`repro.obs` telemetry subsystem and export it — JSON
by default, Prometheus text exposition when FILE ends in ``.prom``.
``deploy``, ``scaleout`` and ``compare`` accept ``--trace-out FILE``
to additionally arm the forensics layer (causal tracer + profiler +
provenance) and write the run as Chrome-trace JSON.
"""

from __future__ import annotations

import argparse

from repro import params
from repro.cloud.provisioner import METHODS, Provisioner
from repro.cloud.scenario import build_testbed
from repro.ctl.demand import DEMANDS as CTL_DEMANDS
from repro.ctl.placement import PLACEMENTS as CTL_PLACEMENTS
from repro.ctl.policy import POLICIES as CTL_POLICIES
from repro.dist.selector import POLICIES
from repro.guest.osimage import OsImage
from repro.metrics.report import format_table
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.sim import Environment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BMcast reproduction: deploy bare-metal instances "
        "in a simulated cloud (ASPLOS 2015).")
    sub = parser.add_subparsers(dest="command", required=True)

    deploy = sub.add_parser("deploy", help="deploy one instance")
    deploy.add_argument("--method", choices=METHODS, default="bmcast")
    deploy.add_argument("--image-gb", type=float, default=4.0,
                        help="OS image size (default 4; paper used 32)")
    deploy.add_argument("--controller",
                        choices=("ahci", "ide", "megaraid"),
                        default="ahci")
    deploy.add_argument("--cold", action="store_true",
                        help="include the first firmware initialization")
    deploy.add_argument("--prefetch", action="store_true",
                        help="prefetch the boot working set (BMcast)")
    deploy.add_argument("--wait", action="store_true",
                        help="wait for deployment to finish (BMcast)")
    deploy.add_argument("--trace", action="store_true",
                        help="record and print the VMM's event trace")
    deploy.add_argument("--metrics-out", metavar="FILE",
                        help="export telemetry (JSON, or Prometheus "
                        "text if FILE ends in .prom)")
    deploy.add_argument("--trace-out", metavar="FILE",
                        help="arm the forensics layer and write the "
                        "run as Chrome-trace JSON")
    deploy.add_argument("--replicas", type=int, default=1,
                        help="origin AoE replica count (default 1)")
    deploy.add_argument("--p2p", action="store_true",
                        help="enable peer-to-peer chunk serving")
    deploy.add_argument("--select-policy", choices=POLICIES,
                        default="round-robin",
                        help="replica selection policy")
    deploy.add_argument("--sanitize", action="store_true",
                        help="attach the runtime sanitizers (BMcast); "
                        "exit 1 on any violation")
    deploy.add_argument("--replay-check", action="store_true",
                        help="run the scenario twice and compare the "
                        "event-stream digests; exit 1 on divergence")
    deploy.add_argument("--fluid", action="store_true",
                        help="opt this deployment into the fluid-flow "
                        "fast path (BMcast; auto-demotes to packet "
                        "mode under moderation/loss/p2p/sanitizers)")
    deploy.add_argument("--full-speed", action="store_true",
                        help="deploy with the unmoderated FULL_SPEED "
                        "policy (required for --fluid to engage)")

    scaleout = sub.add_parser(
        "scaleout", help="deploy a fleet in waves over the fabric")
    scaleout.add_argument("--nodes", type=int, default=8,
                          help="fleet size (default 8)")
    scaleout.add_argument("--wave-size", type=int, default=4,
                          help="instances launched per wave (default 4)")
    scaleout.add_argument("--replicas", type=int, default=2,
                          help="origin AoE replica count (default 2)")
    scaleout.add_argument("--p2p", action="store_true",
                          help="enable peer-to-peer chunk serving")
    scaleout.add_argument("--select-policy", choices=POLICIES,
                          default="least-outstanding")
    scaleout.add_argument("--seed-fill", type=float, default=0.25,
                          help="previous-wave mean bitmap fill required "
                          "before the next wave launches (default 0.25)")
    scaleout.add_argument("--image-gb", type=float, default=0.5,
                          help="OS image size (default 0.5 for speed)")
    scaleout.add_argument("--wait", action="store_true",
                          help="run until every deployment finishes")
    scaleout.add_argument("--sanitize", action="store_true",
                          help="attach the runtime sanitizers to every "
                          "deployment; exit 1 on any violation")
    scaleout.add_argument("--trace-out", metavar="FILE",
                          help="arm the forensics layer and write the "
                          "run as Chrome-trace JSON")
    scaleout.add_argument("--fluid", action="store_true",
                          help="opt every deployment into the fluid-"
                          "flow fast path (auto-demotes per node when "
                          "fidelity-bearing dynamics engage)")
    scaleout.add_argument("--full-speed", action="store_true",
                          help="deploy waves with the unmoderated "
                          "FULL_SPEED policy (required for --fluid "
                          "to engage)")

    ctl = sub.add_parser(
        "ctl", help="run the elastic control plane over a demand curve")
    ctl.add_argument("--nodes", type=int, default=8,
                     help="fleet size the autoscaler manages (default 8)")
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
    ctl.add_argument("--duration", type=float, default=3600.0,
                     help="control-loop run time in sim seconds "
                     "(default 3600)")
    ctl.add_argument("--tick", type=float, default=15.0,
                     help="control tick in sim seconds (default 15)")
    ctl.add_argument("--seed", type=int, default=20150314,
                     help="demand model RNG seed")
    ctl.add_argument("--image-gb", type=float, default=0.25,
                     help="OS image size (default 0.25 for speed)")
    ctl.add_argument("--replicas", type=int, default=1,
                     help="origin AoE replica count (default 1)")
    ctl.add_argument("--p2p", action="store_true",
                     help="enable peer-to-peer chunk serving")
    ctl.add_argument("--vmxoff-mode",
                     choices=("full", "module-assisted", "resident"),
                     default="resident",
                     help="de-virtualization mode; resident keeps the "
                     "dormant VMM, making reclaim a fast re-arm")
    ctl.add_argument("--no-preserve", action="store_true",
                     help="scrub on reclaim instead of preserving "
                     "pristine blocks (disables the warm pool)")
    ctl.add_argument("--metrics-out", metavar="FILE",
                     help="export telemetry (JSON, or Prometheus "
                     "text if FILE ends in .prom)")
    ctl.add_argument("--trace-out", metavar="FILE",
                     help="arm the forensics layer and write the run "
                     "as Chrome-trace JSON")
    ctl.add_argument("--sanitize", action="store_true",
                     help="attach the runtime sanitizers to every "
                     "deployment; exit 1 on any violation")
    ctl.add_argument("--replay-check", action="store_true",
                     help="run the scenario twice and compare the "
                     "event-stream digests; exit 1 on divergence")
    ctl.add_argument("--fluid", action="store_true",
                     help="opt autoscaler deployments into the fluid-"
                     "flow fast path (auto-demotes per node when "
                     "fidelity-bearing dynamics engage)")

    compare = sub.add_parser("compare", help="compare every method")
    compare.add_argument("--image-gb", type=float, default=4.0)
    compare.add_argument("--metrics-out", metavar="FILE",
                         help="export telemetry for all runs combined")
    compare.add_argument("--trace-out", metavar="FILE",
                         help="arm the forensics layer and write all "
                         "runs into one Chrome-trace JSON")

    sweep = sub.add_parser(
        "sweep", help="parallel parameter sweep (repro.perf)")
    sweep.add_argument("--kind", choices=("moderation", "ctl"),
                       default="moderation",
                       help="moderation: write-interval sweep (Figure "
                       "14 shape); ctl: policy x demand x node-count "
                       "autoscaler grid")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1; the output "
                       "is byte-identical for any value)")
    sweep.add_argument("--seed", type=int, default=20150314,
                       help="parent seed; each grid point derives its "
                       "own from seed + parameter key")
    sweep.add_argument("--out", metavar="FILE",
                       help="write the merged sweep document as JSON")
    sweep.add_argument("--image-gb", type=float, default=None,
                       help="OS image size (default 2 for moderation, "
                       "0.0625 for ctl)")
    sweep.add_argument("--intervals", default="1.0,0.1,0.01,0.001,0.0",
                       help="moderation: comma list of VMM write "
                       "intervals in seconds")
    sweep.add_argument("--policies", default="reactive,headroom",
                       help="ctl: comma list of autoscaler policies")
    sweep.add_argument("--demands", default="flash-crowd",
                       help="ctl: comma list of demand models")
    sweep.add_argument("--node-counts", default="6",
                       help="ctl: comma list of fleet sizes")
    sweep.add_argument("--duration", type=float, default=900.0,
                       help="ctl: control-loop run time in sim seconds")

    metrics = sub.add_parser(
        "metrics", help="deploy with telemetry on and print the summary")
    metrics.add_argument("--method", choices=METHODS, default="bmcast")
    metrics.add_argument("--image-gb", type=float, default=1.0)
    metrics.add_argument("--controller",
                         choices=("ahci", "ide", "megaraid"),
                         default="ahci")
    metrics.add_argument("--wait", action="store_true",
                         help="wait for deployment to finish (BMcast)")
    metrics.add_argument("--metrics-out", metavar="FILE",
                         help="also export the telemetry to FILE")

    trace = sub.add_parser(
        "trace", help="deploy with forensics on; write a Chrome trace")
    trace.add_argument("--method", choices=METHODS, default="bmcast")
    trace.add_argument("--image-gb", type=float, default=1.0)
    trace.add_argument("--controller",
                       choices=("ahci", "ide", "megaraid"),
                       default="ahci")
    trace.add_argument("--wait", action="store_true", default=True,
                       help="wait for deployment to finish (default)")
    trace.add_argument("--out", metavar="FILE", default="trace.json",
                       help="Chrome-trace output path "
                       "(default trace.json)")
    trace.add_argument("--folded-out", metavar="FILE",
                       help="also write flamegraph folded stacks")

    profile = sub.add_parser(
        "profile", help="deploy with forensics on; print the sim-time "
        "profile and critical-path latency budget")
    profile.add_argument("--method", choices=METHODS, default="bmcast")
    profile.add_argument("--image-gb", type=float, default=1.0)
    profile.add_argument("--controller",
                         choices=("ahci", "ide", "megaraid"),
                         default="ahci")
    profile.add_argument("--anchor", default=None,
                         help="critical-path anchor mark (default: "
                         "devirtualize, then deploy-complete)")
    profile.add_argument("--out", metavar="FILE",
                         help="also write the profile report as JSON")

    lint = sub.add_parser(
        "lint", help="run simlint over the source tree")
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories (default: src/repro)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")

    check = sub.add_parser(
        "check", help="run simcheck whole-program analysis")
    check.add_argument("paths", nargs="*", default=["src/repro"],
                       help="files or directories (default: src/repro)")
    check.add_argument("--sarif", metavar="FILE",
                       help="also write findings as SARIF 2.1.0")
    check.add_argument("--baseline", metavar="FILE",
                       help="baseline file (default: "
                       "simcheck.baseline.json)")
    check.add_argument("--no-baseline", action="store_true",
                       help="ignore the baseline file")
    check.add_argument("--write-baseline", action="store_true",
                       help="regenerate the baseline from this run")
    check.add_argument("--no-cache", action="store_true",
                       help="parse everything fresh, write no cache")
    check.add_argument("--strict", action="store_true",
                       help="exit non-zero on warnings too")
    check.add_argument("--list-checks", action="store_true",
                       help="print the CHECK code catalog and exit")

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
    """``env -> telemetry`` when --metrics-out or --trace-out was given
    (the latter arms the forensics layer too), otherwise ``None``: the
    zero-cost null object — the timeline is identical either way."""
    if getattr(args, "trace_out", None):
        return lambda env: Telemetry(env, forensics=True)
    if getattr(args, "metrics_out", None):
        return Telemetry
    return None


def _make_telemetry(args):
    """(env, telemetry) for the commands that build their own run."""
    env = Environment()
    factory = _telemetry_factory(args)
    return env, NULL_TELEMETRY if factory is None else factory(env)


def _write_trace(telemetry, path, pid: int = 1,
                 process_name: str = "repro") -> None:
    from repro.obs import write_chrome_trace
    document = write_chrome_trace(telemetry, path, pid=pid,
                                  process_name=process_name)
    print(f"chrome trace written to {path} "
          f"({len(document['traceEvents'])} events; open in "
          f"chrome://tracing or https://ui.perfetto.dev)")


def cmd_deploy(args, print_summary: bool = False) -> int:
    if args.method != "bmcast":
        for flag in ("sanitize", "fluid"):
            if getattr(args, flag, False):
                print(f"--{flag} requires --method bmcast")
                return 2
    scenario = _deploy_scenario(args)
    run = scenario()
    env = run.testbed.env
    telemetry = run.telemetry
    instance = run.cluster.instances[0]
    print(f"{args.method}: instance ready after "
          f"{instance.timeline.total:.1f}s "
          f"({_segments(instance.timeline)})")
    if getattr(args, "fluid", False):
        print(f"fluid mode: {instance.platform.fluid.describe()}")

    platform = instance.platform
    if args.wait and platform is not None and hasattr(platform, "copier"):
        print(f"deployment finished at t={env.now:.1f}s; "
              f"phase={platform.phase}")
        for key, value in platform.summary().items():
            print(f"  {key}: {value}")
    print(f"simulated events: {env.events_processed}")
    if getattr(args, "trace", False) and platform is not None \
            and hasattr(platform, "tracer"):
        print("\nlast trace events:")
        print(platform.tracer.dump(limit=20))
    if print_summary and telemetry.enabled:
        print()
        print(telemetry.summary())
    if getattr(args, "metrics_out", None):
        telemetry.write(args.metrics_out)
        print(f"telemetry written to {args.metrics_out}")
    if getattr(args, "trace_out", None):
        _write_trace(telemetry, args.trace_out,
                     process_name=f"deploy:{args.method}")
    status = 0
    if run.sanitizers is not None:
        run.sanitizers.finalize()
        print(run.sanitizers.describe())
        if run.sanitizers.violations:
            status = 1
    if getattr(args, "replay_check", False):
        from repro.analysis import check_replay
        report = check_replay(scenario, runs=2)
        print(report.describe())
        status = max(status, 1 if report.divergent else 0)
    return status


def _deploy_scenario(args):
    """The ``deploy`` run as a replayable scenario: ``--replay-check``
    re-runs this same callable, so it checks the run that was made."""
    from repro.analysis import deployment_scenario
    bmcast = args.method == "bmcast"
    options = {"skip_firmware": not getattr(args, "cold", False)}
    if getattr(args, "prefetch", False) and bmcast:
        options["prefetch_lbas"] = _image(args.image_gb).boot_lbas()
    if getattr(args, "trace", False) and bmcast:
        options["trace"] = True
    if getattr(args, "fluid", False):
        options["fluid"] = True
    policy = None
    if getattr(args, "full_speed", False):
        from repro.vmm.moderation import FULL_SPEED
        policy = FULL_SPEED
    # --wait runs to the copy's completion and ten seconds past it.
    return deployment_scenario(
        lambda: _image(args.image_gb),
        disk_controller=args.controller,
        method=args.method,
        server_count=getattr(args, "replicas", 1),
        p2p=getattr(args, "p2p", False),
        select_policy=getattr(args, "select_policy", "round-robin"),
        policy=policy,
        wait=args.wait and bmcast,
        settle_seconds=10.0,
        telemetry_factory=_telemetry_factory(args),
        deploy_options=options,
        sanitize=getattr(args, "sanitize", False))


def cmd_scaleout(args) -> int:
    from repro.cloud import Cluster, WaveScheduler
    env, telemetry = _make_telemetry(args)
    testbed = build_testbed(node_count=args.nodes,
                            server_count=args.replicas,
                            p2p=args.p2p,
                            select_policy=args.select_policy,
                            image=_image(args.image_gb),
                            env=env, telemetry=telemetry)
    cluster = Cluster(testbed)
    scheduler = WaveScheduler(cluster, wave_size=args.wave_size,
                              seed_fill_fraction=args.seed_fill)
    options = {}
    suite = None
    if getattr(args, "sanitize", False):
        from repro.analysis import SanitizerSuite
        suite = SanitizerSuite(env)
        options["sanitizers"] = suite
    if getattr(args, "fluid", False):
        options["fluid"] = True
    if getattr(args, "full_speed", False):
        from repro.vmm.moderation import FULL_SPEED
        options["policy"] = FULL_SPEED
    env.run(until=env.process(scheduler.run("bmcast", **options)))
    if args.wait:
        env.run(until=env.process(
            cluster.wait_deployment_complete()))
    rows = [
        [w.index, " ".join(str(i) for i in w.node_indexes),
         round(w.ready_seconds, 1),
         round(w.ready_seconds / len(w.node_indexes), 1),
         w.peer_hits, w.origin_fetches,
         f"{w.live_peer_hit_ratio():.0%}"]
        for w in scheduler.waves
    ]
    fabric = testbed.fabric.describe()
    print(format_table(
        ["wave", "nodes", "ready (s)", "s/instance",
         "peer hits", "origin fetches", "peer hit ratio"],
        rows,
        title=f"Scale-out: {args.nodes} nodes, "
        f"{args.replicas} replica(s), "
        f"p2p {'on' if args.p2p else 'off'}, "
        f"policy {args.select_policy}"))
    print(f"fleet ready in {scheduler.summary()['total_seconds']:.1f}s; "
          f"peers registered: {fabric['peers_registered']}")
    if getattr(args, "fluid", False):
        states: dict = {}
        for instance in cluster.instances:
            state = instance.platform.fluid.describe()
            states[state] = states.get(state, 0) + 1
        print("fluid mode: " + ", ".join(
            f"{count}x {state}"
            for state, count in sorted(states.items())))
    if getattr(args, "trace_out", None):
        _write_trace(telemetry, args.trace_out, process_name="scaleout")
    if suite is not None:
        suite.finalize()
        print(suite.describe())
        if suite.violations:
            return 1
    return 0


def cmd_ctl(args) -> int:
    """Run the elastic control plane and print the run report."""
    from repro.ctl import (ElasticController, NodePool, TraceDemand,
                           dump_trace, load_trace)
    env, telemetry = _make_telemetry(args)
    testbed = build_testbed(node_count=args.nodes,
                            server_count=args.replicas,
                            p2p=args.p2p,
                            image=_image(args.image_gb),
                            env=env, telemetry=telemetry)
    deploy_options = {}
    suite = None
    if args.sanitize:
        from repro.analysis import SanitizerSuite
        suite = SanitizerSuite(env)
        deploy_options["sanitizers"] = suite
    if getattr(args, "fluid", False):
        deploy_options["fluid"] = True
    pool = NodePool(testbed, vmxoff_mode=args.vmxoff_mode,
                    deploy_options=deploy_options, telemetry=telemetry)
    if args.demand_trace:
        demand = TraceDemand(load_trace(args.demand_trace),
                             seed=args.seed)
    else:
        demand = CTL_DEMANDS[args.demand](seed=args.seed)
    controller = ElasticController(
        pool, demand, CTL_POLICIES[args.policy](),
        CTL_PLACEMENTS[args.placement](), tick=args.tick,
        preserve_on_reclaim=not args.no_preserve, telemetry=telemetry)
    env.run(until=env.process(controller.run(args.duration),
                              name="ctl-loop"))
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
    if args.dump_demand:
        dump_trace(controller.requests, args.dump_demand)
        print(f"demand trace written to {args.dump_demand}")
    if args.metrics_out:
        telemetry.write(args.metrics_out)
        print(f"telemetry written to {args.metrics_out}")
    if args.trace_out:
        _write_trace(telemetry, args.trace_out, process_name="ctl")
    status = 0
    if suite is not None:
        suite.finalize()
        print(suite.describe())
        if suite.violations:
            status = 1
    if args.replay_check:
        from repro.analysis import check_replay
        from repro.ctl import elasticity_scenario
        scenario = elasticity_scenario(
            lambda: _image(args.image_gb), node_count=args.nodes,
            server_count=args.replicas, p2p=args.p2p,
            policy_name=args.policy, placement_name=args.placement,
            demand_name=args.demand, demand_seed=args.seed,
            duration=args.duration, tick=args.tick,
            vmxoff_mode=args.vmxoff_mode)
        replay = check_replay(scenario, runs=2)
        print(replay.describe())
        status = max(status, 1 if replay.divergent else 0)
    return status


def cmd_lint(args) -> int:
    from repro.analysis.lint import main as lint_main
    argv = list(args.paths or ["src/repro"])
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def cmd_check(args) -> int:
    from repro.analysis.simcheck.engine import main as check_main
    argv = list(args.paths or ["src/repro"])
    if args.sarif:
        argv += ["--sarif", args.sarif]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    for flag in ("no_baseline", "write_baseline", "no_cache",
                 "strict", "list_checks"):
        if getattr(args, flag):
            argv.append("--" + flag.replace("_", "-"))
    return check_main(argv)


def cmd_compare(args) -> int:
    rows = []
    exports = []
    for method in METHODS:
        env, telemetry = _make_telemetry(args)
        testbed = build_testbed(image=_image(args.image_gb),
                                env=env, telemetry=telemetry)
        provisioner = Provisioner(testbed)
        try:
            instance = env.run(until=env.process(
                provisioner.deploy(method, skip_firmware=True)))
        except Exception as error:  # e.g. unsupported OS for streaming
            rows.append([method, "-", str(error)])
            continue
        rows.append([method, round(instance.timeline.total, 1),
                     _segments(instance.timeline)])
        if telemetry.enabled:
            exports.append((method, telemetry))
    print(format_table(["method", "ready (s)", "time spent on"], rows,
                       title=f"Startup comparison "
                       f"({args.image_gb:g}-GB image, warm firmware)"))
    if getattr(args, "metrics_out", None) and exports:
        _write_compare_metrics(args.metrics_out, exports)
        print(f"telemetry written to {args.metrics_out}")
    if getattr(args, "trace_out", None) and exports:
        _write_compare_trace(args.trace_out, exports)
    return 0


def _write_compare_trace(path: str, exports) -> None:
    """All compare runs in one Chrome trace, one pid per method."""
    import json

    from repro.obs import chrome_trace_document
    merged = {"traceEvents": [], "displayTimeUnit": "ms"}
    for index, (method, telemetry) in enumerate(exports):
        document = chrome_trace_document(telemetry, pid=index + 1,
                                         process_name=method)
        merged["traceEvents"].extend(document["traceEvents"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"chrome trace written to {path} "
          f"({len(merged['traceEvents'])} events; open in "
          f"chrome://tracing or https://ui.perfetto.dev)")


def _write_compare_metrics(path: str, exports) -> None:
    """One file for all compare runs, keyed by method name."""
    if path.endswith(".prom"):
        text = "".join(
            f"# method: {method}\n{telemetry.to_prometheus()}"
            for method, telemetry in exports)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    import json
    payload = {method: telemetry.to_dict()
               for method, telemetry in exports}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_metrics(args) -> int:
    """Deploy once with telemetry always on and print the summary."""
    env = Environment()
    telemetry = Telemetry(env)
    testbed = build_testbed(disk_controller=args.controller,
                            image=_image(args.image_gb),
                            env=env, telemetry=telemetry)
    provisioner = Provisioner(testbed)
    instance = env.run(until=env.process(provisioner.deploy(
        args.method, skip_firmware=True)))
    platform = instance.platform
    if args.wait and platform is not None and hasattr(platform, "copier"):
        env.run(until=platform.copier.done)
        env.run(until=env.now + 10.0)
    print(telemetry.summary())
    if args.metrics_out:
        telemetry.write(args.metrics_out)
        print(f"telemetry written to {args.metrics_out}")
    return 0


def _forensic_deploy(args, wait: bool = True):
    """Deploy one instance with the forensics layer armed.

    Returns ``(env, telemetry)`` after the deployment (and, for
    methods with a background copier, the copy plus a settle window)
    has run to completion.
    """
    env = Environment()
    telemetry = Telemetry(env, forensics=True)
    testbed = build_testbed(disk_controller=args.controller,
                            image=_image(args.image_gb),
                            env=env, telemetry=telemetry)
    provisioner = Provisioner(testbed)
    instance = env.run(until=env.process(provisioner.deploy(
        args.method, skip_firmware=True)))
    platform = instance.platform
    if wait and platform is not None and hasattr(platform, "copier"):
        env.run(until=platform.copier.done)
        env.run(until=env.now + 10.0)
    print(f"{args.method}: instance ready after "
          f"{instance.timeline.total:.1f}s; run ended at "
          f"t={env.now:.1f}s")
    return env, telemetry


def cmd_trace(args) -> int:
    env, telemetry = _forensic_deploy(args, wait=args.wait)
    _write_trace(telemetry, args.out,
                 process_name=f"deploy:{args.method}")
    if args.folded_out:
        from repro.obs import folded_stacks
        text = folded_stacks(telemetry)
        with open(args.folded_out, "w", encoding="utf-8") as handle:
            handle.write(text)
        stacks = len(text.splitlines())
        print(f"folded stacks written to {args.folded_out} "
              f"({stacks} stacks)")
    return 0


def cmd_profile(args) -> int:
    env, telemetry = _forensic_deploy(args, wait=True)
    from repro.obs import format_profile, profile_report
    report = profile_report(telemetry, anchor=args.anchor)
    print()
    print(format_profile(report))
    if args.out:
        import json
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"profile report written to {args.out}")
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
    args = _build_parser().parse_args(argv)
    handler = {
        "deploy": cmd_deploy,
        "scaleout": cmd_scaleout,
        "ctl": cmd_ctl,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
        "metrics": cmd_metrics,
        "trace": cmd_trace,
        "profile": cmd_profile,
        "lint": cmd_lint,
        "check": cmd_check,
        "info": cmd_info,
    }[args.command]
    return handler(args)

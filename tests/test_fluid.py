"""Tests for the fluid-flow fast path (repro.net.flow).

Three layers: the max-min solver in isolation (exact analytic
completion times), the switch-level byte accounting (fluid transfers
must account identically to the packet path they replace), and the
deployment-level contract — parity with packet mode, demotion under
fidelity-bearing dynamics, and byte-identical packet behavior when
fluid is off (replay digests).
"""

import pytest

from repro.analysis import check_replay, deployment_scenario
from repro.cloud import Cluster, build_testbed
from repro.guest.osimage import OsImage
from repro.net.flow import FlowNetwork, FluidState
from repro.sim import Environment
from repro.vmm.moderation import FULL_SPEED, ModerationPolicy

MB = 2**20

#: A 1 Gb/s link moves 125 bytes per microsecond; one "unit" payload
#: of 125_000_000 wire bytes takes exactly 1.0 simulated seconds.
RATE = 1e9
UNIT = 125_000_000


def _network(env) -> FlowNetwork:
    return FlowNetwork(env, RATE)


def _start(env, network, src, dst, wire_bytes=UNIT):
    """Spawn one fluid transfer; returns a dict updated on completion."""
    result = {}

    def flow():
        yield network.start(src, dst, wire_bytes)
        result["finished_at"] = env.now

    env.process(flow(), name=f"flow-{src}-{dst}")
    return result


# -- solver ------------------------------------------------------------------


def test_single_flow_runs_at_line_rate():
    env = Environment()
    network = _network(env)
    result = _start(env, network, "a", "b")
    env.run()
    assert result["finished_at"] == pytest.approx(1.0)
    assert network.flows_completed == 1
    assert network.active_flows == 0


def test_two_flows_share_a_tx_link_equally():
    env = Environment()
    network = _network(env)
    first = _start(env, network, "s", "c1")
    second = _start(env, network, "s", "c2")
    env.run()
    # Both arrive at t=0, each gets half the tx link: both take 2x solo.
    assert first["finished_at"] == pytest.approx(2.0)
    assert second["finished_at"] == pytest.approx(2.0)


def test_water_filling_gives_unbottlenecked_flow_the_residual():
    env = Environment()
    network = _network(env)
    # Three flows out of s1 (its tx link is the bottleneck at 1/3
    # each); a fourth from s2 shares c3's rx link with the third flow
    # and water-fills to the 2/3 residual.
    shared = [_start(env, network, "s1", f"c{i}") for i in (1, 2, 3)]
    residual = _start(env, network, "s2", "c3")
    env.run()
    # residual runs at 2/3 until done (t=1.5), then flow 3 still holds
    # only 1/3 (s1 stays the bottleneck) so all three finish at 3.0.
    assert residual["finished_at"] == pytest.approx(1.5)
    for entry in shared:
        assert entry["finished_at"] == pytest.approx(3.0)


def test_departure_repricing_speeds_up_survivors():
    env = Environment()
    network = _network(env)
    short = _start(env, network, "s", "c1", wire_bytes=UNIT // 2)
    long = _start(env, network, "s", "c2")
    env.run()
    # Shared at 1/2 rate until the short flow drains (t=1.0), then the
    # survivor gets the whole link: 0.5 units left at full rate.
    assert short["finished_at"] == pytest.approx(1.0)
    assert long["finished_at"] == pytest.approx(1.5)


def test_solver_is_deterministic():
    def completion_times():
        env = Environment()
        network = _network(env)
        results = [
            _start(env, network, "s1", "c1"),
            _start(env, network, "s1", "c2", wire_bytes=UNIT // 4),
            _start(env, network, "s2", "c2", wire_bytes=UNIT // 2),
        ]
        env.run()
        return [entry["finished_at"] for entry in results]

    assert completion_times() == completion_times()


def test_packet_debt_postpones_completion():
    env = Environment()
    network = _network(env)
    result = _start(env, network, "s", "c")
    env.run(until=env.timeout(0.5))
    # Mid-flight, bill half a unit of packet cross-traffic to the tx
    # link: the flow regains those bytes and finishes late by exactly
    # the frame's wire time (the lazy debt reschedule).
    network.note_packet_bytes("s", True, UNIT // 2)
    env.run()
    assert result["finished_at"] == pytest.approx(1.5)


def test_link_occupancy_counts_track_flows():
    env = Environment()
    network = _network(env)
    _start(env, network, "s", "c1")
    _start(env, network, "s", "c2")
    env.run(until=env.timeout(0.1))
    assert network.tx_flows("s") == 2
    assert network.rx_flows("c1") == 1
    assert network.rx_flows("c2") == 1
    assert network.tx_flows("c1") == 0
    env.run()
    assert network.tx_flows("s") == 0


# -- switch accounting -------------------------------------------------------


def test_fluid_transfer_accounts_like_bulk_transfer():
    from repro.net.nic import Nic

    def accounting(fluid: bool):
        from repro.net.link import EthernetSwitch
        env = Environment()
        switch = EthernetSwitch(env)
        sender = Nic(env, switch, "src")
        receiver = Nic(env, switch, "dst")
        payload_bytes = 4 * MB
        start = switch.start_fluid_transfer if fluid \
            else switch.start_bulk_transfer

        def scenario():
            done = env.event()
            start("src", "dst", b"", payload_bytes, 8192, "aoe",
                  done.succeed)
            yield done

        env.run(until=env.process(scenario()))
        delivered = receiver.rx_ring.items
        return (switch.frames_forwarded, switch.bytes_forwarded,
                dict(switch.bytes_by_protocol), len(delivered), env.now)

    packet = accounting(fluid=False)
    fluid = accounting(fluid=True)
    # Identical frame/byte/protocol accounting and one delivered frame.
    assert fluid[:4] == packet[:4]
    # Same wire time, minus the one-chunk slack the packet path spends
    # pipelining its final chunk across the receive port.
    from repro.net.link import BULK_CHUNK_BYTES
    chunk_seconds = BULK_CHUNK_BYTES * 8.0 / 1e9
    assert fluid[4] == pytest.approx(packet[4], abs=1.5 * chunk_seconds)


# -- deployment parity -------------------------------------------------------


def _image(size_mb: int = 64) -> OsImage:
    return OsImage(size_bytes=size_mb * MB, boot_read_bytes=2 * MB,
                   boot_think_seconds=0.5)


def _deploy(fluid: bool, node_count: int = 2, **options):
    env = Environment()
    testbed = build_testbed(node_count=node_count, server_count=2,
                            image=_image(), env=env)
    cluster = Cluster(testbed)

    def scenario():
        yield from cluster.deploy_all("bmcast", policy=FULL_SPEED,
                                      fluid=fluid, initial_rto=2.0,
                                      coalesce_blocks=32,
                                      poll_interval=20e-3, **options)
        yield from cluster.wait_deployment_complete(settle_seconds=1.0)

    env.run(until=env.process(scenario()))
    return env, cluster


def test_fluid_deployment_matches_packet_figures():
    packet_env, packet = _deploy(fluid=False)
    fluid_env, fluid = _deploy(fluid=True)
    assert fluid.verify_all_deployed()
    for before, after in zip(packet.instances, fluid.instances):
        assert after.platform.fluid.describe() == "active"
        ready = (after.timeline.total - before.timeline.total) \
            / before.timeline.total
        assert abs(ready) <= 0.05, f"time-to-ready diverged {ready:+.2%}"
        packet_copy = before.platform.copier.finished_at \
            - before.platform.copier.started_at
        fluid_copy = after.platform.copier.finished_at \
            - after.platform.copier.started_at
        complete = (fluid_copy - packet_copy) / packet_copy
        assert abs(complete) <= 0.05, \
            f"time-to-complete diverged {complete:+.2%}"
    # The entire point: the same deployment in far fewer events.  At
    # this 2-node scale the fixed per-node boot/AHCI/poll events floor
    # both runs, so the ratio is modest; bench_fleet.py asserts the
    # >20x reduction at fleet scale.
    assert fluid_env.events_processed < packet_env.events_processed / 1.5


def test_fluid_metrics_absent_in_packet_mode():
    packet_env, packet = _deploy(fluid=False)
    switch = packet.testbed.switch
    # Packet-only runs never construct the solver (lazy attach).
    assert switch._flow_network is None


# -- demotion ----------------------------------------------------------------


def _deploy_with(node_count=1, deploy_options=None, **testbed_kwargs):
    env = Environment()
    testbed = build_testbed(node_count=node_count, image=_image(32),
                            env=env, **testbed_kwargs)
    cluster = Cluster(testbed)

    def scenario():
        yield from cluster.deploy_all("bmcast", fluid=True,
                                      **(deploy_options or {}))
        yield from cluster.wait_deployment_complete(settle_seconds=1.0)

    env.run(until=env.process(scenario()))
    return cluster


def test_moderation_demotes_fluid():
    paced = ModerationPolicy(guest_io_threshold=float("inf"),
                             write_interval=0.05, suspend_interval=0.0)
    cluster = _deploy_with(deploy_options={"policy": paced,
                                           "initial_rto": 2.0})
    assert cluster.instances[0].platform.fluid.describe() \
        == "demoted(moderation)"


def test_loss_injection_demotes_fluid():
    cluster = _deploy_with(loss_probability=0.01,
                           deploy_options={"policy": FULL_SPEED})
    assert cluster.instances[0].platform.fluid.describe() \
        == "demoted(loss-injection)"


def test_peer_gossip_demotes_fluid():
    cluster = _deploy_with(p2p=True,
                           deploy_options={"policy": FULL_SPEED,
                                           "initial_rto": 2.0})
    assert cluster.instances[0].platform.fluid.describe() \
        == "demoted(peer-gossip)"


def test_sanitizers_demote_fluid():
    from repro.analysis import SanitizerSuite
    env = Environment()
    testbed = build_testbed(node_count=1, image=_image(32), env=env)
    suite = SanitizerSuite(env)
    cluster = Cluster(testbed)

    def scenario():
        yield from cluster.deploy_all("bmcast", policy=FULL_SPEED,
                                      fluid=True, initial_rto=2.0,
                                      sanitizers=suite)
        yield from cluster.wait_deployment_complete(settle_seconds=1.0)

    env.run(until=env.process(scenario()))
    assert cluster.instances[0].platform.fluid.describe() \
        == "demoted(sanitizers)"
    suite.assert_clean()


def test_fluid_fetches_bypass_rto_machinery():
    # A fluid flow routinely outlives the bulk RTO (it is priced
    # analytically and cannot lose frames), so fluid transactions must
    # never retransmit even with the protocol's 50 ms cold-start RTO —
    # while the same deployment in packet mode storms.
    fluid_cluster = _deploy_with(deploy_options={"policy": FULL_SPEED,
                                                 "coalesce_blocks": 32})
    platform = fluid_cluster.instances[0].platform
    assert platform.fluid.describe() == "active"
    assert platform.initiator.retransmissions == 0
    assert fluid_cluster.verify_all_deployed()


def test_runtime_retransmission_demotes_mid_deployment():
    # Runtime demotion: the initiator observer flips the deployment
    # back to packet mode the moment any transaction retransmits, and
    # every subsequent copier fetch takes the exact per-packet path.
    env = Environment()
    testbed = build_testbed(node_count=1, image=_image(), env=env)
    cluster = Cluster(testbed)

    def deploy():
        yield from cluster.deploy_all("bmcast", policy=FULL_SPEED,
                                      fluid=True, initial_rto=2.0,
                                      coalesce_blocks=8)

    env.run(until=env.process(deploy()))
    platform = cluster.instances[0].platform
    assert platform.fluid.describe() == "active"
    flows_before = testbed.switch.flow_network.flows_started
    # What the initiator emits on an RTO-driven re-send.
    platform._fluid_observer("send", retransmit=True, retries=1)
    assert platform.fluid.describe() == "demoted(retransmission)"

    def finish():
        yield from cluster.wait_deployment_complete(settle_seconds=1.0)

    env.run(until=env.process(finish()))
    assert cluster.verify_all_deployed()
    # No new analytic flows started after the demotion.
    assert testbed.switch.flow_network.flows_started == flows_before


def test_fluid_state_first_demotion_wins():
    state = FluidState(requested=True)
    assert state.engage()
    state.demote("nak")
    state.demote("timeout")
    assert state.describe() == "demoted(nak)"
    assert not state.engage()  # demotion is sticky
    unrequested = FluidState(requested=False)
    assert not unrequested.engage()
    assert unrequested.describe() == "off"


# -- replay byte-identity ----------------------------------------------------


def test_fluid_off_is_byte_identical_to_no_kwarg():
    """`fluid=False` must not perturb the packet timeline at all."""
    plain = deployment_scenario(_image)
    explicit = deployment_scenario(_image,
                                   deploy_options={"fluid": False})
    baseline = check_replay(plain)
    toggled = check_replay(explicit)
    assert not baseline.divergent and not toggled.divergent
    assert baseline.digests[0] == toggled.digests[0]


def test_zero_stagger_is_byte_identical_to_no_kwarg():
    plain = deployment_scenario(_image)
    staggered = deployment_scenario(
        _image, deploy_options={"stagger_seconds": 0.0})
    assert check_replay(plain).digests[0] \
        == check_replay(staggered).digests[0]


def test_statically_demoted_fluid_matches_packet_digest():
    """A demoted-at-arm-time fluid run IS the packet run, bit for bit."""
    paced = ModerationPolicy(guest_io_threshold=float("inf"),
                             write_interval=0.05, suspend_interval=0.0)
    packet = deployment_scenario(_image, policy=paced)
    demoted = deployment_scenario(_image, policy=paced,
                                  deploy_options={"fluid": True})
    assert check_replay(packet).digests[0] \
        == check_replay(demoted).digests[0]

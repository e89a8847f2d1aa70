"""Runtime sanitizers detect injected violations; clean runs stay clean.

Each of the four sanitizer families gets at least one ablation-style
test that seeds the race/bug it exists to catch (ISSUE 3 acceptance
criterion), plus a clean-run control proving zero false positives.
"""

import pytest

from repro.analysis import SanitizerSuite
from repro.analysis.aoe_conformance import AoeConformanceValidator
from repro.analysis.consistency import BitmapDiskChecker
from repro.analysis.sanitizers import SanitizerError
from repro.analysis.write_race import WriteRaceDetector
from repro.aoe.client import AoeInitiator, AoeTimeoutError
from repro.cloud.scenario import build_testbed
from repro.dist.fabric import DistFabric
from repro.guest.osimage import OsImage
from repro.sim import Environment
from repro.storage.disk import Disk
from repro.vmm.bitmap import BlockBitmap
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.moderation import FULL_SPEED

MB = 2**20


# -- guest writes racing a full-speed copier (racing_deploy, conftest) ------

def test_clean_racing_deploy_reports_nothing(racing_deploy):
    lost, suite = racing_deploy(sanitize=True)
    assert lost == []
    suite.assert_clean()
    assert len(suite.sanitizers) == 3


def test_write_race_detector_catches_unchecked_copier(racing_deploy):
    lost, suite = racing_deploy(unchecked=True, sanitize=True)
    assert lost, "the ablation should actually lose writes"
    rules = {violation.rule for violation in suite.violations}
    assert "vmm-overwrote-guest" in rules
    # The consistency checker independently sees the same lost updates.
    assert "guest-overwritten" in rules
    with pytest.raises(SanitizerError):
        suite.assert_clean()


# -- claim-protocol violations (unit level) ----------------------------------

def make_detector(image_sectors=4096):
    env = Environment()
    bitmap = BlockBitmap(image_sectors)
    detector = WriteRaceDetector(env, bitmap=bitmap, disk=Disk(env))
    return bitmap, detector


def test_double_claim_detected():
    bitmap, detector = make_detector()
    assert bitmap.try_claim(0)
    assert not bitmap.try_claim(0)
    assert [v.rule for v in detector.violations] == ["double-claim"]
    assert bitmap.double_claims == 1


def test_commit_fill_without_claim_raises_and_reports():
    bitmap, detector = make_detector()
    with pytest.raises(ValueError):
        bitmap.commit_fill_run(1, 1)
    assert [v.rule for v in detector.violations] == ["fill-without-claim"]


def test_release_after_commit_detected():
    bitmap, detector = make_detector()
    bitmap.try_claim(0)
    bitmap.commit_fill_run(0, 1)
    bitmap.release_claim(0)
    assert [v.rule for v in detector.violations] == ["release-after-commit"]


def test_release_without_claim_detected():
    bitmap, detector = make_detector()
    bitmap.release_claim(1)
    assert [v.rule for v in detector.violations] == \
        ["release-without-claim"]


def test_guest_fill_then_release_is_benign():
    bitmap, detector = make_detector()
    bitmap.try_claim(0)
    bitmap.record_guest_write(0, bitmap.block_sectors)  # whole block
    bitmap.release_claim(0)  # copier notices its claim evaporated
    assert detector.violations == []


def test_release_run_after_commit_fill_run_detected():
    """An abandoned run released after the writer committed it (a
    double hand-back on stop) is reported block by block."""
    bitmap, detector = make_detector(image_sectors=4 * 2048)
    assert bitmap.claim_run(0, 3) == 3
    bitmap.commit_fill_run(0, 3)
    bitmap.release_run(0, 3)
    assert [v.rule for v in detector.violations] == \
        ["release-after-commit"] * 3


def test_release_run_over_a_guest_filled_block_is_benign():
    bitmap, detector = make_detector(image_sectors=4 * 2048)
    assert bitmap.claim_run(0, 3) == 3
    bitmap.record_guest_write(bitmap.block_sectors, bitmap.block_sectors)
    bitmap.release_run(0, 3)
    assert detector.violations == []


# -- bitmap<->disk consistency: injected silent corruption -------------------

def test_consistency_checker_catches_silent_corruption():
    image = OsImage(size_bytes=16 * MB, boot_read_bytes=1 * MB,
                    boot_think_seconds=0.2)
    testbed = build_testbed(image=image)
    node = testbed.node
    env = testbed.env
    vmm = BmcastVmm(env, node.machine, node.vmm_nic, testbed.fabric,
                    image_sectors=image.total_sectors, policy=FULL_SPEED)
    suite = SanitizerSuite(env)
    suite.attach_deployment(vmm, image=image)

    def scenario():
        yield from node.machine.power_on()
        yield from node.machine.firmware.network_boot()
        yield from vmm.boot()
        yield vmm.copier.done

    env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    checker = next(s for s in suite.sanitizers
                   if isinstance(s, BitmapDiskChecker))
    assert checker.check(when="pre-corruption") == 0
    # Flip sectors in a FILLED block behind every observer's back —
    # the kind of bug a buggy redirector or DMA error would cause.
    target = image.total_sectors // 2 + 3
    node.disk.contents.set_range(target, 4, ("corrupt",))
    assert checker.check(when="post-corruption") > 0
    rules = {v.rule for v in checker.violations}
    assert rules == {"filled-mismatch"}


# -- AoE conformance: Karn's algorithm ---------------------------------------

class KarnIgnorantInitiator(AoeInitiator):
    """Feeds the estimator from retransmitted replies (the bug)."""

    def _sample_rtt(self, transaction):
        self._record_rtt_sample(transaction)


def run_lossy_reads(initiator_cls, reads=60):
    image = OsImage(size_bytes=8 * MB, boot_read_bytes=1 * MB,
                    boot_think_seconds=0.2)
    testbed = build_testbed(image=image, loss_probability=0.05)
    env = testbed.env
    initiator = initiator_cls(env, testbed.node.vmm_nic,
                              testbed.server_ports[0])
    validator = AoeConformanceValidator(env, initiator=initiator)

    def scenario():
        for index in range(reads):
            lba = (index * 64) % (image.total_sectors - 64)
            try:
                yield from initiator.read_blocks(lba, 64)
            except AoeTimeoutError:
                pass

    env.run(until=env.process(scenario()))
    validator.finalize()
    return initiator, validator


def test_karn_gate_keeps_clean_initiator_clean():
    initiator, validator = run_lossy_reads(AoeInitiator)
    assert initiator.retransmissions > 0, \
        "scenario must actually provoke retransmissions"
    assert validator.samples_seen > 0
    assert validator.violations == []


def test_karn_violation_detected_on_buggy_initiator():
    initiator, validator = run_lossy_reads(KarnIgnorantInitiator)
    assert initiator.retransmissions > 0
    rules = [v.rule for v in validator.violations]
    assert "karn-violation" in rules


# -- AoE conformance: duplicate tags -----------------------------------------

def test_duplicate_tag_detected():
    from itertools import chain, count

    image = OsImage(size_bytes=8 * MB, boot_read_bytes=1 * MB,
                    boot_think_seconds=0.2)
    testbed = build_testbed(image=image)
    env = testbed.env
    initiator = AoeInitiator(env, testbed.node.vmm_nic,
                             testbed.server_ports[0])
    initiator._tags = chain([7, 7], count(100))
    validator = AoeConformanceValidator(env, initiator=initiator)

    def read(lba):
        try:
            yield from initiator.read_blocks(lba, 64)
        except AoeTimeoutError:
            pass

    env.process(read(0))
    env.process(read(1024))
    env.run(until=env.now + 10.0)
    rules = [v.rule for v in validator.violations]
    assert "duplicate-tag" in rules


# -- AoE conformance: NAK must invalidate the directory ----------------------

class _StubInitiator:
    def __init__(self):
        self.observers = []

    def emit(self, kind, **fields):
        for observer in self.observers:
            observer(kind, **fields)


def make_nak_validator():
    env = Environment()
    fabric = DistFabric(["server-0"], p2p=True)
    stub = _StubInitiator()
    validator = AoeConformanceValidator(env, initiator=stub,
                                        fabric=fabric)
    return fabric, stub, validator


def _nak(stub, fabric, target, block):
    stub.emit("nak", tag=3, target=target,
              lba=block * fabric.block_sectors,
              sector_count=fabric.block_sectors, reason="stale")


def test_nak_without_invalidate_reported():
    fabric, stub, validator = make_nak_validator()
    fabric.directory.publish("peer-1", {0, 1, 2})
    _nak(stub, fabric, "peer-1", 0)
    validator.finalize()
    assert [v.rule for v in validator.violations] == \
        ["nak-without-invalidate"]


def test_invalidate_resolves_nak_expectation():
    fabric, stub, validator = make_nak_validator()
    fabric.directory.publish("peer-1", {0, 1, 2})
    _nak(stub, fabric, "peer-1", 0)
    fabric.directory.invalidate("peer-1", 0)
    validator.finalize()
    assert validator.violations == []


def test_republish_dropping_block_resolves_nak_expectation():
    fabric, stub, validator = make_nak_validator()
    fabric.directory.publish("peer-1", {0, 1})
    _nak(stub, fabric, "peer-1", 1)
    fabric.directory.publish("peer-1", {0})
    validator.finalize()
    assert validator.violations == []


def test_nak_from_origin_server_needs_no_invalidation():
    fabric, stub, validator = make_nak_validator()
    _nak(stub, fabric, "server-0", 0)  # origins are not in the directory
    validator.finalize()
    assert validator.violations == []


# -- the sanitized-deploy fixture (cluster-wide attachment) ------------------

def test_sanitized_cluster_fixture_runs_clean(sanitized_cluster):
    testbed, cluster, suite = sanitized_cluster(node_count=2, p2p=True)
    assert len(suite.sanitizers) == 6  # 3 per VMM
    suite.assert_clean()

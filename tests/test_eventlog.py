"""Tests for the event record a traced BMcast deploy leaves in obs."""

from repro.cloud.provisioner import Provisioner
from repro.cloud.scenario import build_testbed
from repro.guest.osimage import OsImage
from repro.obs import Telemetry
from repro.sim import Environment
from repro.vmm.moderation import FULL_SPEED

MB = 2**20


def deploy(telemetry):
    image = OsImage(size_bytes=16 * MB, boot_read_bytes=1 * MB,
                    boot_think_seconds=0.2)
    testbed = build_testbed(image=image, env=telemetry.env,
                            telemetry=telemetry)
    provisioner = Provisioner(testbed)
    env = testbed.env

    def scenario():
        instance = yield from provisioner.deploy(
            "bmcast", skip_firmware=True, policy=FULL_SPEED)
        yield instance.platform.copier.done
        return instance

    instance = env.run(until=env.process(scenario()))
    env.run(until=env.now + 5.0)
    return instance.platform


def test_vmm_trace_captures_lifecycle():
    vmm = deploy(Telemetry(Environment()))
    telemetry = vmm.telemetry
    phases = [span.name for span in telemetry.tracer.walk()
              if span.name.startswith("phase:")]
    assert phases == ["phase:initialization", "phase:deployment",
                      "phase:devirtualization", "phase:baremetal"]
    registry = telemetry.registry
    assert registry.get("mediator_redirected_reads_total",
                        controller="ahci").value > 0
    assert registry.get("copy_progress_ratio").value == 1.0

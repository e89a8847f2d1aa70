"""Quickstart: deploy a bare-metal instance with BMcast.

Builds the paper's testbed (one PRIMERGY-class machine, a gigabit
management network with jumbo frames, an AoE storage server holding a
32-GB Ubuntu image), powers the machine on, network-boots the BMcast
VMM, and boots the unmodified guest while the image streams to the local
disk in the background.  Prints the startup timeline, then waits for
de-virtualization and shows that the VMM is truly gone.

Run:  python examples/quickstart.py
"""

from repro import Provisioner, build_testbed
from repro.hw.cpu import VmxMode
from repro.obs import format_table


def main():
    testbed = build_testbed()
    provisioner = Provisioner(testbed)
    env = testbed.env

    print("Deploying a bare-metal instance with BMcast...")
    instance = env.run(until=env.process(
        provisioner.deploy("bmcast", skip_firmware=True)))

    print()
    print(format_table(
        ["startup segment", "seconds"],
        [[label, round(seconds, 1)]
         for label, seconds in instance.timeline.segments],
        title="Startup timeline (excluding first firmware init)"))
    print(f"\nInstance ready at t={instance.timeline.ready:.1f}s; the "
          f"guest is running while deployment continues underneath.")

    vmm = instance.platform
    print(f"\nCurrent phase: {vmm.phase}")
    print(f"Blocks copied so far: {vmm.copier.blocks_filled} / "
          f"{vmm.bitmap.block_count}")
    print(f"Copy-on-read redirects during boot: "
          f"{vmm.mediator.redirected_reads} "
          f"({vmm.deployment.redirected_bytes / 2**20:.0f} MB)")

    print("\nWaiting for streaming deployment to finish...")
    env.run(until=vmm.copier.done)
    env.run(until=env.now + 10.0)

    print(f"De-virtualization complete at t={env.now:.1f}s "
          f"(phase: {vmm.phase}).")
    machine = instance.machine
    print("\nPost-devirt state:")
    print(f"  CPU VMX mode:            "
          f"{ {cpu.mode for cpu in machine.cpus} }")
    print(f"  nested paging enabled:   "
          f"{any(cpu.npt.enabled for cpu in machine.cpus)}")
    print(f"  I/O intercepts installed: {machine.bus.has_intercepts}")
    print(f"  platform condition:      {machine.condition.label}")
    assert all(cpu.mode is VmxMode.OFF for cpu in machine.cpus)

    verified = testbed.image.verify_deployed(
        testbed.node.disk.contents, instance.guest.written)
    print(f"  local disk == image:     {verified}")

    summary = vmm.summary()
    print("\nDeployment summary:")
    for key, value in summary.items():
        print(f"  {key}: {value}")


if __name__ == "__main__":
    main()

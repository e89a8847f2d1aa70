"""A tour of the device mediator: interpretation, redirection,
multiplexing, and seamless de-virtualization, observed at register level.

Uses the library's low-level API directly (no provisioner) to show what
the VMM actually does underneath an unmodified guest driver.

Run:  python examples/mediator_tour.py
"""

from repro import build_testbed
from repro.guest.kernel import GuestOs
from repro.guest.osimage import OsImage
from repro.storage.blockdev import BlockOp, BlockRequest
from repro.vmm.bmcast import BmcastVmm
from repro.vmm.moderation import ModerationPolicy


def main():
    image = OsImage(size_bytes=256 * 2**20, boot_read_bytes=8 * 2**20,
                    boot_think_seconds=2.0)
    testbed = build_testbed(image=image)
    node = testbed.node
    env = testbed.env

    vmm = BmcastVmm(env, node.machine, node.vmm_nic, testbed.fabric,
                    image_sectors=image.total_sectors,
                    policy=ModerationPolicy(write_interval=20e-3))
    guest = GuestOs(node.machine, image)

    def tour():
        # --- initialization phase -----------------------------------
        yield from node.machine.power_on()
        yield from node.machine.firmware.network_boot()
        yield from vmm.boot()
        mediator = vmm.mediator
        print(f"[{env.now:7.2f}s] VMM booted; phase={vmm.phase}; "
              f"mediator installed on the "
              f"{node.machine.disk_controller.kind.upper()} controller")
        print(f"           reserved memory: "
              f"{node.machine.memory.reserved_bytes // 2**20} MB "
              f"(carved from the BIOS map)")

        # --- I/O interpretation + redirection -----------------------
        print(f"\n[{env.now:7.2f}s] guest reads an empty block "
              f"(copy-on-read):")
        buffer = yield from guest.read(4096, 32)
        print(f"           data returned: {buffer.runs}")
        print(f"           interpreted={mediator.interpreted_commands} "
              f"redirected={mediator.redirected_reads} "
              f"dummy-completions={mediator.dummy_completions}")

        # --- guest write + the consistency bitmap -------------------
        print(f"\n[{env.now:7.2f}s] guest writes; the bitmap protects "
              f"it from the background copy:")
        yield from guest.write(4096 + 8, 8, tag="precious")
        block = vmm.bitmap.block_of(4096)
        print(f"           block {block} state="
              f"{vmm.bitmap.state(block).value}, dirty sectors="
              f"{vmm.bitmap.dirty.covered_length(4096, 64)}")

        # --- I/O multiplexing ----------------------------------------
        before = mediator.multiplexed_requests
        yield env.timeout(1.0)
        print(f"\n[{env.now:7.2f}s] background copy multiplexed "
              f"{mediator.multiplexed_requests - before} writes onto "
              f"the guest's controller in the last second")
        print(f"           guest commands queued during VMM ownership: "
              f"{mediator.queued_guest_commands}")
        line = mediator.irq_line
        print(f"           interrupts suppressed on line {line}: "
              f"{node.machine.interrupts.suppressed[line]}")

        # --- the race: write while a block is in flight --------------
        print(f"\n[{env.now:7.2f}s] racing a guest write against the "
              f"copier...")
        target = vmm.bitmap.first_empty_from(0)
        start, count = vmm.bitmap.block_range(target)
        yield from guest.write(start + 100, 16, tag="race-winner")
        yield vmm.copier.done
        token = node.disk.contents.get(start + 100)
        print(f"           after full deployment, sector {start + 100} "
              f"holds: {token}")
        assert token[0] == guest.name, "guest data must win"

        # --- de-virtualization ----------------------------------------
        yield env.timeout(5.0)
        print(f"\n[{env.now:7.2f}s] phase={vmm.phase}")
        exits_before = node.machine.total_vm_exits()
        yield from guest.read(4096, 32)
        exits_after = node.machine.total_vm_exits()
        print(f"           guest I/O after devirt caused "
              f"{exits_after - exits_before} VM exits (zero overhead)")
        verified = image.verify_deployed(node.disk.contents,
                                         guest.written)
        print(f"           disk contents verified against image: "
              f"{verified}")

    env.run(until=env.process(tour()))
    print("\nFinal mediator statistics:")
    for key, value in vmm.summary().items():
        print(f"  {key}: {value}")


if __name__ == "__main__":
    main()

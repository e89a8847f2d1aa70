"""Compare every deployment method the paper evaluates, side by side.

Deploys the same image onto identical machines via all seven supported
methods and prints a Figure-4-style table: time to a ready instance,
what the time was spent on, whether the local disk ends up populated,
and whether the method is OS-transparent.

Run:  python examples/deployment_comparison.py
"""

from repro import Provisioner, build_testbed
from repro.baselines.os_streaming import OsNotSupportedError
from repro.cloud.provisioner import METHODS
from repro.guest.osimage import OsImage
from repro.obs import format_table

#: 4-GB image keeps the example fast; switch to OsImage() for the
#: paper's full 32-GB run.
IMAGE = dict(size_bytes=4 * 2**30, boot_read_bytes=24 * 2**20,
             boot_think_seconds=6.0)

OS_TRANSPARENT = {
    "baremetal": "yes",
    "bmcast": "yes (device mediators)",
    "image-copy": "yes",
    "network-boot": "no (needs netroot OS)",
    "kvm-nfs": "yes (but stays virtualized)",
    "kvm-iscsi": "yes (but stays virtualized)",
    "kvm-local": "yes (but stays virtualized)",
    "os-streaming": "no (per-OS driver)",
}


def main():
    rows = []
    for method in METHODS:
        testbed = build_testbed(image=OsImage(**IMAGE))
        provisioner = Provisioner(testbed)
        env = testbed.env
        try:
            instance = env.run(until=env.process(
                provisioner.deploy(method, skip_firmware=True)))
        except OsNotSupportedError as error:
            rows.append([method, "-", str(error), "-", "-"])
            continue

        # Let any background deployment finish to check the disk state.
        platform = instance.platform
        if platform is not None and hasattr(platform, "copier"):
            env.run(until=platform.copier.done)
            env.run(until=env.now + 10.0)
        elif platform is not None and hasattr(platform, "done") \
                and not platform.done.triggered:
            env.run(until=platform.done)

        disk_bytes = testbed.node.disk.contents.total_covered() * 512
        segments = "; ".join(f"{label} {seconds:.0f}s"
                             for label, seconds in
                             instance.timeline.segments)
        rows.append([
            method,
            round(instance.timeline.total, 1),
            segments,
            f"{disk_bytes / 2**30:.1f} GB",
            OS_TRANSPARENT[method],
        ])

    print(format_table(
        ["method", "ready (s)", "time spent on", "local disk",
         "OS-transparent"],
        rows,
        title=f"Deployment method comparison "
        f"({IMAGE['size_bytes'] / 2**30:.0f}-GB image, firmware "
        f"already initialized)"))
    print("\n'ready' = seconds until the customer's OS serves; BMcast "
          "and network-boot are quick,\nbut only BMcast also ends with "
          "a fully populated local disk and zero residual overhead.")


if __name__ == "__main__":
    main()

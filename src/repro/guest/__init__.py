"""Guest OS substrate: images, kernel model, stock block drivers."""

from repro.guest.driver_ahci import AhciDriver
from repro.guest.driver_e1000 import E1000Driver
from repro.guest.driver_ide import IdeDriver, IdeDriverError
from repro.guest.kernel import GuestOs
from repro.guest.osimage import (
    BootStep,
    OsImage,
    centos_image,
    ubuntu_image,
    windows_image,
)
from repro.guest.workload import (
    DiskWorkload,
    MixedWorkload,
    RandomReader,
    SequentialReader,
    SequentialWriter,
)

__all__ = [
    "AhciDriver",
    "BootStep",
    "E1000Driver",
    "GuestOs",
    "DiskWorkload",
    "IdeDriver",
    "IdeDriverError",
    "MixedWorkload",
    "OsImage",
    "RandomReader",
    "SequentialReader",
    "SequentialWriter",
    "centos_image",
    "ubuntu_image",
    "windows_image",
]

"""Up-front memory check for allocations sized by a truncation.

Large allocations are granted lazily, so an array that cannot fit in memory
is usually not refused with ``MemoryError``: the process is killed when it
first writes to the pages instead.  Callers size such allocations from
their arguments and check them here first.
"""

from __future__ import annotations

import os


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def require_fit(n_bytes: int, what: str) -> None:
    """Raise ``MemoryError`` when ``n_bytes`` exceed physical memory."""
    total = physical_memory()
    if total is None or n_bytes <= total:
        return
    try:
        need = f"{n_bytes / 2**30:.1f} GiB"
    except OverflowError:   # a GiB count beyond float64
        need = f"a {n_bytes.bit_length()}-bit number of bytes"
    raise MemoryError(f"{what} needs {need}, more than "
                      f"the {total / 2**30:.1f} GiB of physical memory")

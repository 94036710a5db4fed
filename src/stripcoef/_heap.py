"""Keep freed heap mapped between calls (glibc only).

The hot arrays of the package hold 138 KB (the 8 640 points of a
convexity probe) to 230 KB (a transform of 14 400 points).  glibc serves
blocks above its mmap threshold with fresh pages, and returns the top of
the heap to the system once more than its trim threshold is free there
(twice the largest freed mapped block, about 460 KB here).  Each call
then faults its whole working set in again, at about 1 us a page: a
quarter to a third of a membership or convexity item.

:func:`keep_freed_heap` raises both thresholds to fixed values, so the
pages a call frees stay mapped for the next one.  The setting is
process-wide and changes no arithmetic.
"""

from __future__ import annotations

import ctypes

# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# The ceiling of glibc's own adaptive mmap threshold on 64-bit
# (DEFAULT_MMAP_THRESHOLD_MAX), and twice it for trimming, as glibc's
# adaptive rule sets it.  A 1 MiB threshold still left hundreds of faults
# per item, and doubled them at order 2^18, whose arrays exceed 1 MiB.
MMAP_THRESHOLD = 32 * 2**20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def keep_freed_heap() -> bool:
    """Raise glibc's mmap and trim thresholds; True when both took effect.

    Does nothing, and returns False, where glibc is not the C library
    (no ``libc.so.6``, as on macOS, Windows and musl) or ``mallopt``
    refuses a value.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the trim threshold only matters once the mmap threshold holds
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )

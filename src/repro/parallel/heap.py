"""glibc heap policy: keep a round's large temporaries resident.

A 256-worker round builds and frees several ``(N, D)`` float64 matrices
of a few MB each. glibc serves those through ``mmap`` and, once its
dynamic threshold has risen past them, from the main heap — whose top is
trimmed back to the OS whenever more than twice the last freed mmapped
block sits free. Every round then returns its temporaries and faults
them back in as fresh zero pages next round. :func:`retain_heap` pins
both thresholds so the heap stays resident (see DESIGN.md, "Resident
heap"). It is process-wide, one-way, glibc-only, and a no-op elsewhere.
"""

from __future__ import annotations

import ctypes

__all__ = ["retain_heap"]

#: glibc's own 64-bit ceiling for the dynamic mmap threshold
MMAP_THRESHOLD = 32 * 1024 * 1024
#: twice the mmap threshold, the ratio glibc's dynamic rule keeps
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
#: ``mallopt`` parameter numbers from glibc's ``malloc.h``
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_applied: bool | None = None


def _libc():
    return ctypes.CDLL(None)


def retain_heap() -> bool:
    """Pin glibc's mmap and trim thresholds once per process.

    Returns whether the policy is in force. Where the C library is not
    glibc (no ``gnu_get_libc_version``/``mallopt``) nothing is changed
    and the result is ``False``. Allocation placement never changes a
    computed value, so no numeric result depends on this call.
    """
    global _applied
    if _applied is None:
        try:
            libc = _libc()
            libc.gnu_get_libc_version  # AttributeError off glibc
            mallopt = libc.mallopt
        except (AttributeError, OSError):
            _applied = False
        else:
            mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
            mallopt.restype = ctypes.c_int
            _applied = bool(
                mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
            )
    return _applied

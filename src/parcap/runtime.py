"""Process-level settings: the worker count, and the allocator setting that
keeps freed numpy pages mapped.

Every loop runs serially: a thread pool over the pairwise kernel fill gained
about 1.0x on two cores and was removed. ``get_threads()`` always returns 1;
the benchmark harness records it in its machine block.

Importing parcap imports this module, which on glibc fixes two ``mallopt``
thresholds for the whole process. By default glibc serves a block of 128 KB
or more with a fresh ``mmap`` and gives the top of the heap back to the OS
once 128 KB or more of it is free (both move up after large frees). Numpy
temporaries of that size are made and freed by the thousand in every solve,
probe and simulation, so their pages were unmapped and faulted in again, at
about 1.5 us a page: a ``verification_report(trials=50)`` pass took 66,000
to 91,000 minor faults. With MMAP_THRESHOLD at 32 MB (glibc's ceiling on
64-bit systems) such blocks come from the heap, and with TRIM_THRESHOLD at
256 MB the freed top of the heap stays mapped for the next one. Both must be
set: a fixed mmap threshold alone keeps the 128 KB trim threshold, so the
heap top is given back after nearly every free. Only arrays of 32 MB or more
are mapped and unmapped as before.

On other C libraries nothing is set. The setting changes no result, only
time; peak resident memory can differ slightly, as freed heap pages count
until they are reused. No option or environment variable reads it.
"""

import ctypes
import os

MMAP_THRESHOLD = 32 << 20   # bytes; blocks this large still get their own mmap
TRIM_THRESHOLD = 256 << 20  # bytes of free heap top kept before trimming
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def get_threads():
    return 1


def _on_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (ValueError, OSError):  # the name is unknown off glibc
        return False


def keep_freed_pages():
    """Apply MMAP_THRESHOLD and TRIM_THRESHOLD through glibc's ``mallopt``;
    True if both were set, False off glibc, where nothing is done."""
    if not _on_glibc():
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1,
                mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1])


keep_freed_pages()

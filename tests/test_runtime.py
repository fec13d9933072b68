"""The allocator setting applied when parcap is imported: freed numpy pages
stay mapped on glibc, and nothing is done elsewhere."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from parcap import runtime

SRC = str(Path(__file__).resolve().parent.parent / "src")

# 50 cycles of eight 256 KB temporaries, freed together, after one warm-up
# cycle; prints the minor page faults the 50 cycles take
_CYCLES = textwrap.dedent("""
    import resource
    import numpy as np
    import parcap

    def cycle():
        blocks = [np.ones(32768) for _ in range(8)]
        del blocks

    cycle()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        cycle()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(not runtime._on_glibc(), reason="the setting applies on glibc only")
def test_freed_temporaries_are_not_faulted_in_again():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _CYCLES],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    # 0 with the setting; about 24,000 (one fault per page) without it
    assert int(out.stdout) < 500


def test_setting_is_skipped_off_glibc(monkeypatch):
    def no_libc(*args):
        raise AssertionError("libc was loaded off glibc")

    monkeypatch.setattr(runtime, "_on_glibc", lambda: False)
    monkeypatch.setattr(runtime.ctypes, "CDLL", no_libc)
    assert runtime.keep_freed_pages() is False


@pytest.mark.skipif(not runtime._on_glibc(), reason="the setting applies on glibc only")
def test_setting_is_applied_on_glibc():
    assert runtime.keep_freed_pages() is True

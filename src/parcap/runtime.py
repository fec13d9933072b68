"""Process-wide worker-count setting.

Every loop runs serially: a thread pool over the pairwise kernel fill gained
about 1.0x on two cores and was removed. The setting is kept for the CLI
``--threads`` flag and for benchmark provenance.
"""

from __future__ import annotations

import os

_threads = 1


def set_threads(n):
    global _threads
    n = int(n)
    if n < 1:
        raise ValueError("thread count must be >= 1")
    _threads = n


def get_threads():
    env = os.environ.get("PARCAP_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return _threads

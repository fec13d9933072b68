"""Worker count, for benchmark provenance.

Every loop runs serially: a thread pool over the pairwise kernel fill gained
about 1.0x on two cores and was removed. ``get_threads()`` always returns 1;
the benchmark harness records it in its machine block.
"""


def get_threads():
    return 1

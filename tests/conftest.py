"""Collects the acceptance PASS/FAIL lines and replays them in the terminal
summary, so they are visible even when pytest captures stdout; and measures
the traced peak of a call."""

import tracemalloc

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def traced_peak(fn):
    """``(fn(), peak)``: the call's result and the peak of the allocations
    traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

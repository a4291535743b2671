"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(call):
    """(``call()``, its tracemalloc peak in bytes above the level it started from)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

"""Traced peak memory of one call, for the memory-bound tests."""

import tracemalloc

# numpy imports numpy.random on first use (about 0.7 MiB traced); importing
# it here keeps that one-off import out of every traced peak
import numpy.random  # noqa: F401


def traced_peak_mib(fn, *args, **kwargs) -> float:
    """Peak memory traced by `tracemalloc` while `fn(*args, **kwargs)` runs,
    in MiB.  numpy reports its array buffers to tracemalloc, so the peak
    counts them; memory allocated before the call is not counted."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

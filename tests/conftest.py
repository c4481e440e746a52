import tracemalloc

import pytest


@pytest.fixture()
def traced_peak():
    """``peak(fn, *args)``: the most bytes traced as allocated while ``fn(*args)`` ran, over
    what was allocated when it started. numpy reports its array buffers to tracemalloc."""

    def peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return peak

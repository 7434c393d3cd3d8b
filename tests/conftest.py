import tracemalloc

import pytest


@pytest.fixture
def peak_allocation():
    """fn(*args) -> the peak bytes traced while fn(*args) runs, over what
    was held before the call."""

    def measure(fn, *args) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return measure

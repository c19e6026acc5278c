"""Shared test helpers."""

from __future__ import annotations

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """peak(fn): the largest number of bytes that fn's Python and numpy
    allocations held at once, by tracemalloc."""

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak

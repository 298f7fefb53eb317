"""Shared test hooks."""
import tracemalloc

import numpy as np
import pytest

from dslab import spectral_core

# every 2D transform the laboratory makes goes through one of these names:
# the spectral_core in-place transforms or numpy's own 2D functions
TRANSFORMS = (
    (np.fft, ("fft2", "ifft2", "rfft2", "irfft2")),
    (spectral_core, ("fft2_into", "ifft2_into", "rfft2_into", "irfft2_into")),
)


@pytest.fixture
def count_transforms(monkeypatch):
    """count_transforms(fn) -> the number of 2D transforms fn makes."""

    def count(fn) -> int:
        calls = [0]

        def counted(original):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return original(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            for module, names in TRANSFORMS:
                for name in names:
                    patch.setattr(module, name, counted(getattr(module, name)))
            fn()
        return calls[0]

    return count


@pytest.fixture
def traced_peak():
    """traced_peak(fn) -> (current, peak, result): the bytes tracemalloc
    counts live, and at their peak, while fn() runs, and fn's result."""

    def trace(fn):
        tracemalloc.start()
        try:
            result = fn()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return current, peak, result

    return trace

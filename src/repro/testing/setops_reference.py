"""The seed's set-operation kernels, kept as the tests' reference.

Plain ``np.intersect1d`` / ``np.setdiff1d`` / ``np.isin`` — what
:mod:`repro.engines.setops` ran before its size-adaptive dispatch. No
production path calls these; ``tests/test_setops_adaptive.py`` compares
the adaptive kernels against them on every input shape.
"""

from __future__ import annotations

import numpy as np


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted intersection ``a ∩ b`` (both inputs sorted and unique)."""
    return np.intersect1d(a, b, assume_unique=True)


def difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted difference ``a \\ b`` (both inputs sorted and unique)."""
    return np.setdiff1d(a, b, assume_unique=True)


def exclude(arr: np.ndarray, values: list[int]) -> np.ndarray:
    """``arr`` without a handful of specific values."""
    return arr[~np.isin(arr, values)]

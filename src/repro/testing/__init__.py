"""Deterministic test harnesses: fault injection and oracle comparison.

Nothing in here runs in production paths unless explicitly injected;
:mod:`repro.testing.faults` is the shard-level fault injector the
``tests/test_fault_tolerance.py`` differential matrix drives,
:mod:`repro.testing.oracle` is the shared serial-oracle comparison the
differential suites assert with, and
:mod:`repro.testing.setops_reference` holds the seed's set-op kernels
the adaptive ones are compared against.
"""

from repro.testing.faults import FaultPlan, FaultSpec
from repro.testing.oracle import assert_matches_oracle, canonical, results_equal

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "assert_matches_oracle",
    "canonical",
    "results_equal",
]

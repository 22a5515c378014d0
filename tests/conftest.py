"""Shared fixtures: small deterministic graphs sized for the brute-force
oracle (the oracle enumerates vertex permutations, so ~30 vertices max)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.datagraph import DataGraph
from repro.graph.generators import assign_labels, erdos_renyi, power_law_cluster


def pytest_addoption(parser):
    parser.addoption(
        "--frontier-budget",
        type=int,
        default=None,
        metavar="N",
        help="pin repro.engines.frontier.FRONTIER_ELEMENT_BUDGET to N for "
        "the whole session (CI re-runs the frontier matrix at 1)",
    )


@pytest.fixture(autouse=True, scope="session")
def _frontier_budget(request):
    budget = request.config.getoption("--frontier-budget")
    if budget is None:
        yield
        return
    from unittest import mock

    from repro.engines import frontier

    with mock.patch.object(frontier, "FRONTIER_ELEMENT_BUDGET", budget):
        yield


@pytest.fixture(scope="session")
def tiny_graph() -> DataGraph:
    """8 vertices, hand-built, with triangles / cycles / a near-clique."""
    edges = [
        (0, 1), (0, 2), (1, 2),          # triangle
        (2, 3), (3, 4), (4, 5), (2, 5),  # 4-cycle hanging off it
        (3, 5),                          # chord
        (5, 6), (6, 7), (5, 7), (4, 6),  # extra tangle
    ]
    return DataGraph(8, edges, name="tiny")


@pytest.fixture(scope="session")
def small_graph() -> DataGraph:
    """~25-vertex clustered random graph for oracle comparisons."""
    return power_law_cluster(25, 3, 0.5, seed=5, name="small")


@pytest.fixture(scope="session")
def small_labeled_graph() -> DataGraph:
    """Small labeled graph (3 labels) for FSM / labeled-pattern tests."""
    g = power_law_cluster(22, 3, 0.5, seed=9, name="small-labeled")
    return assign_labels(g, 3, skew=0.8, seed=10)


@pytest.fixture(scope="session")
def sparse_graph() -> DataGraph:
    """Sparser ER graph — exercises low-clustering paths."""
    return erdos_renyi(30, 0.12, seed=3, name="sparse")


@pytest.fixture(scope="session")
def medium_graph() -> DataGraph:
    """A few hundred vertices — too big for the oracle, fine for engines."""
    return power_law_cluster(150, 4, 0.4, seed=21, name="medium")


@pytest.fixture(scope="session")
def vertex_weights(small_graph) -> np.ndarray:
    rng = np.random.default_rng(13)
    return rng.normal(size=small_graph.num_vertices)

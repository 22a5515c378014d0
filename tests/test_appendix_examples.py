"""Walkthroughs of Appendix A: FSM (A.1) and Subgraph Counting (A.2).

The appendix figures use a specific example data graph whose exact edge
list is not recoverable from the paper text, so these tests reproduce the
*mechanics* exactly — the S-DAG shapes, the selection decisions under the
printed cost tables, and the printed conversion arithmetic — and validate
the same pipeline end-to-end on a concrete graph of our own against the
brute-force oracle.
"""

from __future__ import annotations

from repro import select_alternative_patterns
from repro.core import atlas
from repro.core.aggregation import MNIAggregation
from repro.core.costmodel import CostModel, EngineCostProfile, GraphModel
from repro.core.equations import evaluate, item_of, normalize_item, solve_query
from repro.core.pattern import Pattern
from repro.core.sdag import EDGE_INDUCED, VERTEX_INDUCED, SDag
from repro.engines.peregrine.engine import PeregrineEngine
from repro.graph.datagraph import DataGraph
from repro.morph.session import MorphingSession

from .oracle import brute_force_count, brute_force_mni


class _TableModel(CostModel):
    """Cost model driven by an explicit (pattern name, variant) table."""

    def __init__(self, table: dict[tuple[str, str], float]):
        super().__init__(
            GraphModel(
                num_vertices=100, edge_prob=0.05, avg_degree=5,
                biased_degree=10, closure_prob=0.2, high_degree_threshold=10,
            )
        )
        self.table = table

    def pattern_cost(self, skel: Pattern, variant: str) -> float:
        if skel.is_clique:
            variant = EDGE_INDUCED
        return self.table[(atlas.pattern_name(skel), variant)]


class TestAppendixA1FSM:
    """A.1: 4-star FSM query morphs into the all-V closure."""

    # Figure 16c's cost table: pa..pf are the 4-star's superpatterns.
    # pa = 4-star, pb/pc = tailed triangles (labeled distinctly in the
    # paper; unlabeled here they collapse), pd/pe = chordal variants,
    # pf = 4-clique. We mirror the *relations*: E costly, V cheap.
    COSTS = {
        ("4S", "E"): 25.0, ("4S", "V"): 4.0,
        ("TT", "E"): 15.0, ("TT", "V"): 3.0,
        ("C4C", "E"): 5.0, ("C4C", "V"): 2.0,
        ("4CL", "E"): 5.0,
    }

    def test_sdag_shape(self):
        dag = SDag.build([atlas.FOUR_STAR])
        names = {atlas.pattern_name(n.skel) for n in dag}
        assert names == {"4S", "TT", "C4C", "4CL"}

    def test_selection_picks_vertex_induced_closure(self):
        agg = MNIAggregation()
        result = select_alternative_patterns(
            [atlas.FOUR_STAR], _TableModel(self.COSTS), agg, margin=1.0
        )
        assert result.morphed[atlas.FOUR_STAR]
        assert result.measured == frozenset(
            {
                normalize_item(atlas.FOUR_STAR, VERTEX_INDUCED),
                normalize_item(atlas.TAILED_TRIANGLE, VERTEX_INDUCED),
                normalize_item(atlas.CHORDAL_FOUR_CYCLE, VERTEX_INDUCED),
                normalize_item(atlas.FOUR_CLIQUE, EDGE_INDUCED),
            }
        )

    def test_mni_conversion_end_to_end(self):
        """Run the whole A.1 pipeline on a concrete labeled graph."""
        edges = [
            (0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
            (4, 5), (4, 6), (4, 7), (6, 7), (2, 5),
        ]
        graph = DataGraph(8, edges, labels=[0] * 8, name="a1")
        query = Pattern.star(4, labels=[0, 0, 0, 0])
        session = MorphingSession(
            PeregrineEngine(), aggregation=MNIAggregation(), enabled=True
        )
        result = session.run(graph, [query])
        assert result.results[query] == brute_force_mni(graph, query)


class TestAppendixA2Counting:
    """A.2: three vertex-induced queries morph to the all-E closure."""

    # Figure 17c's cost table (pa = 4-star, pb = 4-path, pc = 4-cycle,
    # pd = tailed triangle, pe = chordal 4-cycle, pf = 4-clique).
    COSTS = {
        ("4S", "E"): 1.0, ("4S", "V"): 20.0,
        ("4P", "E"): 3.0, ("4P", "V"): 30.0,
        ("C4", "E"): 10.0, ("C4", "V"): 12.0,
        ("TT", "E"): 5.0, ("TT", "V"): 10.0,
        ("C4C", "E"): 5.0, ("C4C", "V"): 9.0,
        ("4CL", "E"): 7.0,
    }

    QUERIES = [
        atlas.FOUR_STAR.vertex_induced(),
        atlas.FOUR_CYCLE.vertex_induced(),
        atlas.FOUR_PATH.vertex_induced(),
    ]

    def test_selection_matches_appendix(self):
        """The appendix's final alternative set: all six E variants."""
        result = select_alternative_patterns(
            self.QUERIES, _TableModel(self.COSTS), margin=1.0
        )
        expected = {
            normalize_item(atlas.FOUR_STAR, EDGE_INDUCED),
            normalize_item(atlas.FOUR_PATH, EDGE_INDUCED),
            normalize_item(atlas.FOUR_CYCLE, EDGE_INDUCED),
            normalize_item(atlas.TAILED_TRIANGLE, EDGE_INDUCED),
            normalize_item(atlas.CHORDAL_FOUR_CYCLE, EDGE_INDUCED),
            normalize_item(atlas.FOUR_CLIQUE, EDGE_INDUCED),
        }
        assert result.measured == expected
        assert all(result.morphed.values())

    def test_printed_conversion_arithmetic(self):
        """Figure 17e: countV(pc) = 7 - (9 - 6*1) - 3*1 = 1."""
        measured_values = {
            normalize_item(atlas.FOUR_CYCLE, EDGE_INDUCED): 7,
            normalize_item(atlas.CHORDAL_FOUR_CYCLE, EDGE_INDUCED): 9,
            normalize_item(atlas.FOUR_CLIQUE, EDGE_INDUCED): 1,
        }
        expr = solve_query(
            item_of(atlas.FOUR_CYCLE.vertex_induced()), set(measured_values)
        )
        assert evaluate(expr, measured_values) == 1

    def test_end_to_end_on_concrete_graph(self):
        graph = DataGraph(
            8,
            [
                (0, 1), (1, 2), (2, 3), (0, 3),      # 4-cycle
                (3, 4), (4, 5), (5, 6), (6, 4),      # triangle + tail
                (6, 7), (7, 0), (2, 5), (1, 4),
            ],
            name="a2",
        )
        session = MorphingSession(PeregrineEngine(), enabled=True)
        result = session.run(graph, self.QUERIES)
        for q in self.QUERIES:
            assert result.results[q] == brute_force_count(graph, q)

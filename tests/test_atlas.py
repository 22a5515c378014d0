"""Tests for the named-pattern atlas and motif enumeration."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.core import atlas
from repro.core.canonical import are_isomorphic, canonical_form, pattern_id
from repro.core.pattern import Pattern


class TestMotifEnumeration:
    @pytest.mark.parametrize(
        "k,expected", [(2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]
    )
    def test_connected_pattern_counts(self, k, expected):
        """The motif-set sizes the paper quotes (2 size-3, 6 size-4)."""
        assert len(atlas.all_connected_patterns(k)) == expected

    def test_all_connected(self):
        assert all(p.is_connected for p in atlas.all_connected_patterns(5))

    def test_all_distinct(self):
        pats = atlas.all_connected_patterns(5)
        assert len({canonical_form(p) for p in pats}) == len(pats)

    def test_sorted_sparse_first(self):
        pats = atlas.all_connected_patterns(4)
        assert [p.num_edges for p in pats] == sorted(p.num_edges for p in pats)
        assert pats[0].num_edges == 3  # trees first
        assert pats[-1].is_clique

    def test_motif_patterns_are_vertex_induced(self):
        for p in atlas.motif_patterns(4):
            assert p.is_vertex_induced

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            atlas.all_connected_patterns(1)


class TestNamedPatterns:
    def test_figure1_shapes(self):
        assert atlas.TRIANGLE.is_clique and atlas.TRIANGLE.n == 3
        assert atlas.FOUR_STAR.degree(0) == 3
        assert atlas.TAILED_TRIANGLE.num_edges == 4
        assert atlas.FOUR_CYCLE.num_edges == 4
        assert atlas.CHORDAL_FOUR_CYCLE.num_edges == 5
        assert atlas.FOUR_CLIQUE.num_edges == 6

    def test_chordal_four_cycle_is_not_cycle_plus_anything_else(self):
        assert not are_isomorphic(atlas.CHORDAL_FOUR_CYCLE, atlas.TAILED_TRIANGLE)

    def test_evaluation_pattern_sizes(self):
        """Section 7: p1-p5 have 5 vertices, p6-p8 six, p9-p10 seven."""
        sizes = {name: p.n for name, p in atlas.EVALUATION_PATTERNS.items()}
        assert sizes == {
            "p1": 5, "p2": 5, "p3": 5, "p4": 5, "p5": 5,
            "p6": 6, "p7": 6, "p8": 6, "p9": 7, "p10": 7,
        }

    def test_evaluation_patterns_connected_and_distinct(self):
        pats = list(atlas.EVALUATION_PATTERNS.values())
        assert all(p.is_connected for p in pats)
        assert len({canonical_form(p) for p in pats}) == len(pats)

    def test_p8_is_dense(self):
        """p8 stresses the systems: a dense 6-vertex pattern."""
        assert atlas.P8.num_edges == 12


class TestPatternName:
    def test_known_names(self):
        assert atlas.pattern_name(atlas.TAILED_TRIANGLE) == "TT"
        assert atlas.pattern_name(atlas.FOUR_CLIQUE) == "4CL"
        assert atlas.pattern_name(atlas.P5) == "p5"

    def test_vertex_induced_suffix(self):
        assert atlas.pattern_name(atlas.FOUR_CYCLE.vertex_induced()) == "C4-V"

    def test_unknown_pattern_gets_summary(self):
        from repro.core.pattern import Pattern

        weird = Pattern(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 2)])
        name = atlas.pattern_name(weird)
        assert "6v7e" in name

    def test_name_ignores_numbering(self):
        relabeled = atlas.TAILED_TRIANGLE.relabel([3, 2, 1, 0])
        assert atlas.pattern_name(relabeled) == "TT"

    def test_table_matches_the_scan(self):
        """The shape → name table names what the scan over both tables
        named: every atlas pattern, both variants, and seeded random
        labeled patterns of at most 6 vertices."""
        rng = random.Random(46)
        samples = [
            *atlas.NAMED_PATTERNS.values(),
            *atlas.EVALUATION_PATTERNS.values(),
            *(p for k in (2, 3, 4, 5) for p in atlas.all_connected_patterns(k)),
        ]
        for _ in range(300):
            n = rng.randint(2, 6)
            pairs = list(combinations(range(n), 2))
            edges = [e for e in pairs if rng.random() < 0.5] or pairs[:1]
            labels = [rng.randrange(3) for _ in range(n)]
            samples.append(Pattern(n, edges, labels=labels))
        for p in samples:
            for variant in (p.edge_induced(), p.vertex_induced()):
                assert atlas.pattern_name(variant) == scanned_name(variant)


def scanned_name(p: Pattern) -> str:
    """``pattern_name`` as a scan over the named tables: the reference."""
    canon = canonical_form(p.edge_induced().unlabeled())
    for name, known in {**atlas.NAMED_PATTERNS, **atlas.EVALUATION_PATTERNS}.items():
        if canonical_form(known) == canon:
            return name + ("" if p.is_edge_induced else "-V")
    kind = "V" if p.is_vertex_induced and not p.is_clique else "E"
    return f"<{p.n}v{p.num_edges}e:{kind}:{pattern_id(p) & 0xFFFF:04x}>"

"""The morphing equations (Section 4.3, Figure 7).

For a pattern ``p`` on ``n`` vertices, the matches of the edge-induced
variant partition disjointly over the vertex-induced variants of its
superpattern closure (Eq. 1):

    M(pᴱ) = ⨆_{q ⊇ₙ p} M(qⱽ) ∘ φ(p, q)

so for any aggregation the edge-induced result is the combination of the
vertex-induced superpattern results. For *counting*, where the combine
operator has an inverse, the system is triangular and can be solved in
either direction, which is what lets alternative sets mix edge- and
vertex-induced measurements ([SM-E3], [SM-V1]). This module implements:

* :func:`closure_coefficients` — the row of the triangular matrix ``A``
  with ``countᴱ = A · countⱽ``;
* :func:`solve_query` — symbolic triangular solve expressing a query's
  count as an integer combination of an arbitrary measured set;
* :func:`morph_equation` — human-readable equations like [SM-E1].

Items are ``(skeleton, variant)`` pairs; skeletons are canonical
edge-induced patterns and variants are ``"E"``/``"V"``. Cliques are both
at once and normalize to ``"E"``.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.atlas import pattern_name
from repro.core.generation import skeleton, superpattern_closure
from repro.core.isomorphism import occurrence_count
from repro.core.pattern import MEMO_SIZE, Pattern
from repro.core.sdag import EDGE_INDUCED, VERTEX_INDUCED

Item = tuple[Pattern, str]


class UnderivableError(ValueError):
    """A query's result cannot be reconstructed from the measured set."""


@lru_cache(maxsize=MEMO_SIZE)
def normalize_item(skel: Pattern, variant: str) -> Item:
    """Canonicalize an item; cliques are E- and V-induced simultaneously."""
    if variant not in (EDGE_INDUCED, VERTEX_INDUCED):
        raise ValueError(f"unknown variant {variant!r}")
    skel = skeleton(skel)
    if skel.is_clique:
        return (skel, EDGE_INDUCED)
    return (skel, variant)


def item_of(pattern: Pattern) -> Item:
    """The (skeleton, variant) item describing a concrete query pattern.

    Patterns that are neither pure edge-induced nor pure vertex-induced
    (a partial sprinkling of anti-edges) are outside the morphing algebra
    and rejected.
    """
    if pattern.is_edge_induced:
        return normalize_item(pattern, EDGE_INDUCED)
    if pattern.is_vertex_induced:
        return normalize_item(pattern, VERTEX_INDUCED)
    raise ValueError(
        "morphing requires a fully edge-induced or fully vertex-induced "
        f"pattern, got mixed anti-edges: {pattern!r}"
    )


def materialize(item: Item) -> Pattern:
    """Concrete pattern (with anti-edges when vertex-induced) for an item."""
    skel, variant = item
    return skel if variant == EDGE_INDUCED else skel.vertex_induced()


def closure_coefficients(skel: Pattern) -> list[tuple[Pattern, int]]:
    """Pairs ``(q, c(p, q))`` with ``countᴱ(p) = Σ c(p, q) · countⱽ(q)``.

    ``q`` ranges over the superpattern closure of ``p`` (including ``p``
    itself, coefficient 1); ``c(p, q)`` counts the distinct occurrences of
    ``p`` inside ``q`` (Figure 7's coefficients).
    """
    skel = skeleton(skel)
    out = []
    for q in superpattern_closure(skel):
        coeff = occurrence_count(skel, q)
        if coeff:
            out.append((q, coeff))
    return out


def solve_query(
    query: Item,
    measured: frozenset[Item] | set[Item],
) -> dict[Item, int]:
    """Express a query count as an integer combination of measured items.

    Returns ``{measured_item: coefficient}`` such that

        count(query) = Σ coefficient · count(measured_item).

    The solve runs densest-first over the query's superpattern closure:
    every node's vertex-induced count is either measured directly or
    rearranged from the node's measured edge-induced count minus its
    already-solved strict superpatterns ([SM-V1] direction). Raises
    :class:`UnderivableError` when the measured set does not determine the
    query — Algorithm 1 never produces such sets, but user-supplied ones
    might.
    """
    measured = {normalize_item(*m) for m in measured}
    query = normalize_item(*query)
    q_skel, q_variant = query

    if query in measured:
        return {query: 1}

    # cv_expr[skeleton] = {measured_item: coefficient} for countV(skeleton),
    # or None when the measured set does not determine that node.
    closure = sorted(superpattern_closure(q_skel), key=lambda p: -p.num_edges)
    cv_expr: dict[Pattern, dict[Item, int] | None] = {}
    for node in closure:
        v_item = normalize_item(node, VERTEX_INDUCED)
        e_item = normalize_item(node, EDGE_INDUCED)
        if v_item in measured:
            cv_expr[node] = {v_item: 1}
        elif e_item in measured:
            # Rearranged Eq. 1: countV(p) = countE(p) - Σ c(p,q)·countV(q).
            expr: dict[Item, int] | None = {e_item: 1}
            for sup, coeff in closure_coefficients(node):
                if sup == node:
                    continue
                sup_expr = cv_expr[sup]  # densest-first: already processed
                if sup_expr is None:
                    expr = None
                    break
                _accumulate(expr, sup_expr, -coeff)
            cv_expr[node] = expr
        else:
            cv_expr[node] = None

    def require(node: Pattern) -> dict[Item, int]:
        expr = cv_expr[node]
        if expr is None:
            raise UnderivableError(
                f"countV({pattern_name(node)}) is not derivable from the "
                "measured set"
            )
        return expr

    result: dict[Item, int] = {}
    if q_variant == VERTEX_INDUCED:
        _accumulate(result, require(q_skel), 1)
    else:
        for sup, coeff in closure_coefficients(q_skel):
            _accumulate(result, require(sup), coeff)
    return {item: c for item, c in result.items() if c}


def _accumulate(into: dict[Item, int], expr: dict[Item, int], scale: int) -> None:
    for item, coeff in expr.items():
        into[item] = into.get(item, 0) + scale * coeff
        if into[item] == 0:
            del into[item]


def evaluate(
    expression: dict[Item, int], measured_values: dict[Item, int]
) -> int:
    """Evaluate a solved expression against measured counts."""
    return sum(
        coeff * measured_values[normalize_item(*item)]
        for item, coeff in expression.items()
    )


def morph_equation(pattern: Pattern) -> str:
    """Render the Eq. 1 instance for a pattern, like Figure 7's [SM-E1]."""
    item = item_of(pattern)
    skel, variant = item
    terms = []
    if variant == EDGE_INDUCED:
        for q, coeff in closure_coefficients(skel):
            name = pattern_name(normalize_item(q, VERTEX_INDUCED)[0])
            variant_tag = "" if q.is_clique else "V"
            prefix = "" if coeff == 1 else f"{coeff}*"
            terms.append(f"{prefix}{name}{variant_tag and '^' + variant_tag}")
        return f"{pattern_name(skel)}^E = " + " + ".join(terms)
    # Vertex-induced: rearrange countV(p) = countE(p) - Σ extra terms.
    terms.append(f"{pattern_name(skel)}^E")
    for q, coeff in closure_coefficients(skel):
        if q == skel:
            continue
        name = pattern_name(q)
        variant_tag = "" if q.is_clique else "^V"
        prefix = "" if coeff == 1 else f"{coeff}*"
        terms.append(f"- {prefix}{name}{variant_tag}")
    return f"{pattern_name(skel)}^V = " + " ".join(terms)

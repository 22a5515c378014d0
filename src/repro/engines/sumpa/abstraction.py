"""Pattern abstraction: maximum common subpatterns (SumPA-style).

SumPA [19] eliminates redundancy across a pattern *set* by combining the
input patterns into an abstract pattern, matching the abstraction once,
and completing each concrete pattern from the shared partial matches.
The abstraction machinery here:

* :func:`connected_subpatterns` — all connected subpatterns of a pattern
  up to a vertex budget;
* :func:`maximum_common_subpattern` — the largest connected pattern that
  embeds into every pattern of a set (ties broken toward more edges,
  then more vertices);
* :func:`embedding_of` — one designated injection of the abstraction
  into a concrete pattern, fixing how shared partial matches extend.

The counting identity the engine builds on: fixing one designated
embedding ``φ: abstract → concrete``, every *embedding* (assignment, not
occurrence) of the concrete pattern restricts through ``φ`` to exactly
one abstract embedding, and conversely decomposes uniquely into (abstract
embedding, residual extension). Occurrences follow by dividing embedding
counts by ``|Aut(concrete)|``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from repro.core.canonical import canonical_form, canonical_permutation
from repro.core.isomorphism import subgraph_isomorphisms
from repro.core.pattern import MEMO_SIZE, Pattern


@lru_cache(maxsize=MEMO_SIZE)
def connected_subpatterns(pattern: Pattern, max_vertices: int) -> tuple[Pattern, ...]:
    """Connected subpatterns (canonical, deduplicated) up to a size cap.

    A subpattern is induced by a vertex subset and any subset of the edges
    among it; only connected, spanning-its-vertex-set shapes are kept.
    """
    seen: set[Pattern] = set()
    out: list[Pattern] = []
    vertices = range(pattern.n)
    for k in range(1, min(max_vertices, pattern.n) + 1):
        for subset in combinations(vertices, k):
            inside = [
                (u, v)
                for u, v in pattern.edges
                if u in subset and v in subset
            ]
            index = {v: i for i, v in enumerate(subset)}
            for r in range(len(inside) + 1):
                for edge_subset in combinations(inside, r):
                    labels = (
                        [pattern.label(v) for v in subset]
                        if pattern.labels is not None
                        else None
                    )
                    candidate = Pattern(
                        k,
                        [(index[u], index[v]) for u, v in edge_subset],
                        labels=labels,
                    )
                    if k > 1 and not candidate.is_connected:
                        continue
                    canon = canonical_form(candidate)
                    if canon not in seen:
                        seen.add(canon)
                        out.append(canon)
    return tuple(out)


def maximum_common_subpattern(
    patterns: list[Pattern], max_vertices: int = 5
) -> Pattern:
    """Largest connected pattern embedding into every input pattern."""
    if not patterns:
        raise ValueError("need at least one pattern")
    skeletons = [canonical_form(p.edge_induced()) for p in patterns]
    smallest = min(skeletons, key=lambda p: (p.n, p.num_edges))
    best: Pattern | None = None
    for candidate in connected_subpatterns(smallest, max_vertices):
        if best is not None and (
            (candidate.num_edges, candidate.n)
            <= (best.num_edges, best.n)
        ):
            continue
        if all(subgraph_isomorphisms(candidate, skel) for skel in skeletons):
            best = candidate
    assert best is not None, "the single vertex embeds everywhere"
    return best


def embedding_of(abstract: Pattern, concrete: Pattern) -> tuple[int, ...]:
    """One designated injection ``φ: V(abstract) -> V(concrete)``.

    ``concrete`` is taken as given (any numbering); the embedding is
    computed against its canonical form and mapped back, so the result
    indexes ``concrete``'s own vertices. Deterministic (first in sorted
    order).
    """
    skel = canonical_form(concrete.edge_induced())
    maps = subgraph_isomorphisms(canonical_form(abstract), skel)
    if not maps:
        raise ValueError("abstract pattern does not embed into the concrete one")
    chosen = maps[0]
    # ``chosen`` maps canonical-abstract -> canonical-concrete vertices;
    # compose with both canonicalizing permutations so the result maps the
    # GIVEN abstract's numbering to the GIVEN concrete's numbering.
    abstract_perm = canonical_permutation(abstract.edge_induced())
    concrete_perm = canonical_permutation(concrete.edge_induced())
    inverse = [0] * concrete.n
    for original, canon in enumerate(concrete_perm):
        inverse[canon] = original
    return tuple(inverse[chosen[abstract_perm[u]]] for u in range(abstract.n))

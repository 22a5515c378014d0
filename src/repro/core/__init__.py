"""The paper's core contribution: the Subgraph Morphing algebra.

Modules: ``pattern`` (pattern graphs with anti-edges), ``canonical``
(canonical forms + 64-bit pattern IDs), ``isomorphism`` (phi(p, q),
automorphisms, symmetry breaking), ``atlas`` (named patterns, motif
sets), ``generation``/``sdag`` (superpattern closure, the S-DAG),
``equations`` (Eq. 1/2 and triangular solves), ``costmodel`` (Section 5.2),
``conversion`` (Algorithms 2-3), ``aggregation`` (the (lambda, +)
abstraction). Algorithm 1 (selection) lives in :mod:`repro.plan.search`.
"""

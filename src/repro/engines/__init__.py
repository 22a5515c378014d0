"""The four graph-mining system substrates the paper integrates with.

``peregrine`` (pattern-aware, native anti-edges), ``autozero``
(AutoMine/GraphZero-style merged schedules), ``graphpi``
(performance-model order selection + IEP, edge-induced only), ``bigjoin``
(worst-case-optimal joins, Filter UDF for anti-edges), plus ``sumpa``
(pattern-abstraction matching for pattern sets). All share two match
kernels: the per-root DFS in ``base`` and the batched one in
``frontier``.
"""

from repro.engines.base import EngineStats, MiningEngine

__all__ = ["EngineStats", "MiningEngine"]

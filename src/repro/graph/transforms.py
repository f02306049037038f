"""Graph transforms with a historical call signature.

The rewrite passes themselves (BatchNorm folding, dead-node pruning, CSE,
pointwise fusion, rebatching) live in :mod:`repro.rewrite` as validated
rules; this module keeps the :func:`rebatch_graph` entry point the engine's
``for_batch`` and the serving layer call.
"""

from __future__ import annotations

from repro.graph.ir import Graph

__all__ = ["rebatch_graph"]


def rebatch_graph(graph: Graph, batch: int) -> Graph:
    """Rebuild ``graph`` with every input's batch dimension set to ``batch``.

    The first production rule on the :mod:`repro.rewrite` interface: this
    wrapper keeps the historical call signature (engine ``for_batch``, the
    serving layer) while the match/apply logic and its proof obligations --
    interface preserved up to batch, weight arrays *shared* so batched
    clones stay bit-identical to the single-shot graph -- live on
    :class:`repro.rewrite.rules.RebatchRule`.  Returns ``graph`` itself when
    every input already has ``batch`` samples.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    from repro.rewrite.rules import RebatchRule

    rewrite = RebatchRule(batch).apply(graph)
    return graph if rewrite is None else rewrite.graph

"""Inference rewrites on small graphs: BN folding, dead-code elimination,
CSE and the default pipeline, through the validated rules of
:mod:`repro.rewrite`.  Every rule is exact, so outputs are compared
bit-for-bit; merged execution of a rewritten graph is held to the usual
merged-vs-reference tolerance."""

import numpy as np
import pytest

from repro.core.engine import BrickDLEngine
from repro.core.reference import ReferenceExecutor
from repro.graph.builder import GraphBuilder
from repro.graph.ops import BatchNorm, Conv, FusedOp
from repro.graph.tensorspec import TensorSpec
from repro.rewrite import (
    FoldConvBatchNorm,
    LayoutAwareCSE,
    PruneDeadNodes,
    RuleRunner,
    default_batches,
)

from testlib import input_for, residual_graph, small_chain_graph


def run_outputs(graph, x):
    return ReferenceExecutor(graph).run(x)


def assert_same_outputs(before, after):
    assert before.keys() == after.keys()
    for k in before:
        assert np.array_equal(after[k], before[k]), k


def fold(graph):
    rewrite = FoldConvBatchNorm().apply(graph)
    return graph if rewrite is None else rewrite.graph


class TestFoldBatchnorm:
    def test_bn_removed_and_values_preserved(self):
        g = small_chain_graph(size=32)
        g.init_weights()
        x = input_for(g)
        before = run_outputs(g, x)
        folded = fold(g)
        assert not any(isinstance(n.op, BatchNorm) for n in folded.nodes)
        assert_same_outputs(before, run_outputs(folded, x))

    def test_residual_graph_preserved(self):
        g = residual_graph()
        g.init_weights()
        x = input_for(g)
        before = run_outputs(g, x)
        folded = fold(g)
        assert_same_outputs(before, run_outputs(folded, x))
        assert len(folded) < len(g)

    def test_bn_with_two_consumers_kept(self):
        b = GraphBuilder("t", TensorSpec(1, 3, (16, 16)))
        c = b.conv(4, 3, padding=1, bias=False, name="conv")
        left = b.relu(src=c, name="left")
        right = b.batchnorm(src=c, name="right")  # conv has 2 consumers
        b.add(left, right, name="join")
        g = b.finish()
        assert FoldConvBatchNorm().apply(g) is None
        assert any(isinstance(n.op, BatchNorm) for n in fold(g).nodes)

    def test_noop_when_nothing_to_fold(self):
        b = GraphBuilder("t", TensorSpec(1, 3, (8, 8)))
        b.conv(4, 3, padding=1, name="conv")
        g = b.finish()
        assert fold(g) is g

    def test_merged_execution_on_folded_graph(self):
        g = small_chain_graph(size=48)
        g.init_weights()
        x = input_for(g)
        before = run_outputs(g, x)
        folded = fold(g)
        assert any(isinstance(n.op, FusedOp) and isinstance(n.op.primary, Conv)
                   for n in folded.nodes)
        res = BrickDLEngine(folded).run(x)
        for k in before:
            np.testing.assert_allclose(res.outputs[k], before[k], atol=1e-3, rtol=1e-3)


class TestDeadCode:
    def test_unused_branch_removed(self):
        b = GraphBuilder("t", TensorSpec(1, 3, (8, 8)))
        used = b.conv(4, 3, padding=1, name="used")
        b.conv(4, 3, padding=1, src=b.graph.node("input"), name="dead")
        b.relu(src=used, name="out")
        g = b.finish(output=b.graph.node("out"))
        rewrite = PruneDeadNodes().apply(g)
        names = [n.name for n in rewrite.graph.nodes]
        assert "dead" not in names and "used" in names

    def test_all_live_is_noop(self):
        assert PruneDeadNodes().apply(small_chain_graph()) is None


def _twin_convs(weight_a, weight_c):
    """Two same-op convs on one input with explicitly set weights, summed;
    the input conv's weights stay unmaterialized."""
    b = GraphBuilder("t", TensorSpec(1, 3, (8, 8)))
    root = b.conv(3, 1, name="stem")
    op = Conv(out_channels=4, kernel=(3, 3), padding=1, bias=False)
    a = b.graph.add(op, [root], name="a")
    c = b.graph.add(op, [root], name="c")
    a.weights = {"weight": weight_a}
    c.weights = {"weight": weight_c}
    out = b.add(a, c, name="sum")
    return b.finish(output=out)


class TestCse:
    def test_identical_convs_merged(self):
        # Value-equal but distinct arrays merge; the unmaterialized stem
        # keeps its provenance and resolves to the source's values.
        g = _twin_convs(np.ones((4, 3, 3, 3), np.float32),
                        np.ones((4, 3, 3, 3), np.float32))
        rewrite = LayoutAwareCSE().apply(g)
        assert rewrite is not None and len(rewrite.graph) < len(g)
        x = input_for(g)
        assert_same_outputs(run_outputs(g, x), run_outputs(rewrite.graph, x))

    def test_different_weights_not_merged(self):
        g = _twin_convs(np.ones((4, 3, 3, 3), np.float32),
                        np.zeros((4, 3, 3, 3), np.float32))
        assert LayoutAwareCSE().apply(g) is None


class TestPipeline:
    @pytest.mark.parametrize("make", [small_chain_graph, residual_graph])
    def test_optimize_preserves_outputs(self, make):
        g = make()
        g.init_weights()
        x = input_for(g)
        before = run_outputs(g, x)
        report = RuleRunner(default_batches(), validate="full").run(g)
        assert report.ok, report.summary()
        assert_same_outputs(before, run_outputs(report.graph, x))

    def test_optimize_shrinks_models(self):
        from repro.models import build

        g = build("resnet50", reduced=True)
        report = RuleRunner(default_batches()).run(g)
        assert report.ok and len(report.graph) < len(g)

    def test_optimized_model_runs_merged(self):
        from repro.models import build

        g = build("deepcam", reduced=True)
        x = input_for(g)
        engine = BrickDLEngine(g)
        engine.compile(optimize=True)
        res = engine.run(x)
        before = run_outputs(g, x)
        for k in before:
            np.testing.assert_allclose(res.outputs[k], before[k], atol=2e-3, rtol=1e-2)

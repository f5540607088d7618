"""Engine tests: op semantics, finite-difference gradient checks,
accumulation, and determinism."""

import contextlib
import math
import multiprocessing
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import erf

from flip import autodiff as ad
from flip import trainer
from flip.autodiff import Graph, OpCheck, Tensor
from flip.data import generate_dataset
from flip.errors import DimensionError
from flip.tokenizer import tokenize_batch


def backward_of(build):
    """Run build() under a graph, backward from its scalar output."""
    with Graph() as g:
        loss = build()
        g.backward(loss)
    return loss


def softmax_rows(x: Tensor) -> Tensor:
    """Unfused softmax over the last axis: the primitive reference for the
    fused ``attention`` op, built from the same kernels."""
    s = ad._softmax_forward(x.data)

    def backward(g):
        if x.requires_grad:
            ad._accum(x, ad._softmax_backward(g, s))

    return ad._record(Tensor(s), (x,), backward)


def permute(x: Tensor, perm) -> Tensor:
    """Axis permutation: with ``softmax_rows``, the primitive head split
    and merge of the fused ``attention`` reference."""
    inv = tuple(np.argsort(perm))

    def backward(g):
        if x.requires_grad:
            ad._accum(x, g.transpose(inv))

    return ad._record(Tensor(x.data.transpose(perm)), (x,), backward)


def hand_over(y: Tensor, g: np.ndarray) -> Tensor:
    """A scalar node whose backward hands exactly the array ``g`` to ``y``."""

    def backward(_):
        ad._accum(y, g)

    return ad._record(Tensor(0.0), (y,), backward)


class TestForwardValues:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(ad.matmul(a, b).data, b.data)

    def test_matmul_hand(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.allclose(out.data, [[11.0]])

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_layer_norm_constant_input(self):
        out = ad.layer_norm(Tensor([[1.0, 1.0, 1.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0, atol=1e-3)

    def test_layer_norm_hand_values(self):
        # mean 2, population std sqrt(2/3)
        out = ad.layer_norm(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, [[-1.2247, 0.0, 1.2247]], atol=1e-4)

    def test_layer_norm_empty_axis(self):
        with pytest.raises(DimensionError, match="empty"):
            ad.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))

    def test_softmax_symmetry(self):
        assert np.allclose(softmax_rows(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 7)))
        assert np.allclose(softmax_rows(x).data.sum(axis=-1), 1.0, atol=1e-6)

    def test_gelu_fixed_point(self):
        assert ad.gelu(Tensor([0.0])).data[0] == 0.0

    def test_mean_over_axis_hand(self):
        out = ad.mean_over_axis(Tensor([[2.0, 4.0], [6.0, 8.0]]), axis=0)
        assert np.allclose(out.data, [4.0, 6.0])

    def test_take_rows_permutation_subset(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        out = ad.take_rows(x, [2, 0])
        assert np.array_equal(out.data, x.data[[2, 0]])

    def test_take_rows_identity(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        assert np.array_equal(ad.take_rows(x, range(4)).data, x.data)

    def test_take_rows_keeps_index_shape(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        idx = np.array([[3, 0, 3], [1, 1, 2]])
        out = ad.take_rows(x, idx)
        assert out.shape == (2, 3, 2)
        assert np.array_equal(out.data, x.data[idx])

    def test_take_rows_rejects_bad_indices(self):
        x = Tensor(np.zeros((4, 2)))
        with pytest.raises(IndexError):
            ad.take_rows(x, [0, 4])
        with pytest.raises(IndexError):
            ad.take_rows(x, [-1])

    def test_concat_and_slice_round_trip(self):
        parts = [Tensor(np.arange(2.0 * w * 3).reshape(2, w, 3)) for w in (1, 3, 2)]
        whole = ad.concat(parts, axis=1)
        assert np.array_equal(whole.data, np.concatenate([p.data for p in parts], axis=1))
        for part, (lo, hi) in zip(parts, [(0, 1), (1, 4), (4, 6)]):
            assert np.array_equal(ad.slice_axis(whole, lo, hi, axis=1).data, part.data)
        assert np.array_equal(ad.concat(parts[:1], axis=0).data, parts[0].data)
        assert ad.slice_axis(whole, 2, 2, axis=1).shape == (2, 0, 3)

    def test_concat_and_slice_reject_bad_shapes(self):
        a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))
        with pytest.raises(DimensionError, match="concat"):
            ad.concat([a, b], axis=1)
        with pytest.raises(DimensionError, match="concat"):
            ad.concat([a, Tensor(np.zeros((2, 3, 1)))], axis=1)
        for axis in (-1, 2):
            with pytest.raises(DimensionError, match=f"axis {axis} out of range"):
                ad.concat([a, a], axis=axis)
        with pytest.raises(DimensionError, match="concat"):
            ad.concat([], axis=0)
        for start, stop in ((-1, 2), (2, 1), (0, 4)):
            with pytest.raises(DimensionError, match="slice_axis"):
                ad.slice_axis(a, start, stop, axis=1)

    @staticmethod
    def _naive_info_nce(img, txt, scale):
        logits = scale * img @ txt.T
        i2t = np.log(np.exp(logits).sum(axis=1)) - np.diag(logits)
        t2i = np.log(np.exp(logits).sum(axis=0)) - np.diag(logits)
        return 0.5 * (i2t.mean() + t2i.mean())

    def test_logsumexp_matches_naive(self):
        rng = np.random.default_rng(1)
        img, txt = rng.standard_normal((2, 4, 3))
        with ad.verification_mode():
            out = ad.symmetric_info_nce(Tensor(img), Tensor(txt), Tensor([0.3]), 1.0)
        assert np.allclose(out.data, self._naive_info_nce(img, txt, math.exp(0.3)))

    def test_clamp_max(self):
        # the log-scale is capped at max_log_scale before the exp
        rng = np.random.default_rng(2)
        img, txt = rng.standard_normal((2, 4, 3))
        with ad.verification_mode():
            for log_scale, scale in ((0.2, math.exp(0.2)), (0.9, math.exp(0.5))):
                out = ad.symmetric_info_nce(Tensor(img), Tensor(txt), Tensor([log_scale]), 0.5)
                assert np.allclose(out.data, self._naive_info_nce(img, txt, scale))

    def test_l2_normalize_rows(self):
        out = ad.l2_normalize_rows(Tensor([[3.0, 4.0]]))
        assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-6)

    def test_l2_normalize_zero_row_guarded(self):
        out = ad.l2_normalize_rows(Tensor([[0.0, 0.0]]))
        assert np.isfinite(out.data).all()


class TestGradients:
    def test_matmul_gradient_tight(self):
        report = ad.check_gradients("matmul", tolerance=1e-6)
        assert report.passed, str(report)

    def test_layer_norm_gradient(self):
        report = ad.check_gradients("layer_norm", tolerance=1e-5)
        assert report.passed, str(report)

    @pytest.mark.parametrize("op", sorted(ad.REGISTERED_OPS))
    def test_registered_op_gradients(self, op):
        report = ad.check_gradients(op, tolerance=1e-4, n_seeds=3)
        assert report.passed, str(report)

    def test_softmax_rows_gradient(self):
        check = OpCheck("softmax_rows", softmax_rows, lambda rng: ([Tensor(
            rng.standard_normal((3, 5)), requires_grad=True)], {}))
        report = ad.check_gradients(check, tolerance=1e-4, n_seeds=10)
        assert report.passed, str(report)

    def test_take_rows_grad_structure(self):
        x = Tensor(np.random.default_rng(0).standard_normal((5, 3)), requires_grad=True)
        backward_of(lambda: ad.sum_all(ad.take_rows(x, [1])))
        expected = np.zeros((5, 3))
        expected[1] = 1.0
        assert np.array_equal(x.grad, expected)

    def test_two_consumers_accumulate(self):
        # x used twice must match the fused 2*x expression
        rng = np.random.default_rng(0)
        data = rng.standard_normal((3, 3))
        x1 = Tensor(data, requires_grad=True)
        backward_of(lambda: ad.sum_all(ad.add(x1, x1)))
        x2 = Tensor(data, requires_grad=True)
        backward_of(lambda: ad.sum_all(ad.scale(x2, 2.0)))
        assert np.allclose(x1.grad, x2.grad)
        assert np.allclose(x1.grad, 2.0)

    def test_scalar_loss_required(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Graph() as g:
            y = ad.scale(x, 2.0)
            with pytest.raises(DimensionError):
                g.backward(y)


class TestFloat32Kernels:
    """The float32 GELU and LayerNorm kernels, which the float64 gradient
    checks never run. Tolerances are set from float32's epsilon."""

    EPS = float(np.finfo(np.float32).eps)

    @staticmethod
    def erf32(z):
        z = np.array(z, dtype=np.float32)  # the kernel overwrites its input
        out = np.empty_like(z)
        ad._erf32(z, out, np.empty_like(z))
        return out

    @staticmethod
    def run(build, arrays, weights, float64):
        """Outputs and input gradients of ``sum(build(*inputs) * weights)``."""
        mode = ad.verification_mode() if float64 else contextlib.nullcontext()
        with mode:
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            with Graph() as g:
                out = build(*inputs)
                g.backward(ad.sum_all(ad.mul(out, Tensor(weights))))
            return out.data, [t.grad for t in inputs]

    def test_erf_within_8_ulp(self):
        powers = 10.0 ** -np.arange(31)
        z = np.concatenate([np.linspace(-9, 9, 400_001), powers, -powers]).astype(np.float32)
        ref = erf(z.astype(np.float64)).astype(np.float32)
        ulps = np.abs(self.erf32(z).astype(np.float64) - ref) / np.spacing(np.abs(ref))
        assert ulps.max() <= 8

    def test_erf_saturates_past_clamp(self):
        z = np.array([4.0, 4.5, 9.0, 1e30, np.finfo(np.float32).max], dtype=np.float32)
        assert np.array_equal(self.erf32(z), np.ones_like(z))
        assert np.array_equal(self.erf32(-z), -np.ones_like(z))

    def test_gelu_zero_and_non_finite_match_scipy_path(self):
        x = [0.0, -0.0, np.nan, -np.inf, np.inf]
        with np.errstate(invalid="ignore"):
            fast = ad.gelu(Tensor(x)).data
            with ad.verification_mode():
                exact = ad.gelu(Tensor(x)).data
        assert fast.dtype == np.float32 and exact.dtype == np.float64
        assert fast[0] == 0.0 and fast[1] == 0.0
        assert np.isnan(fast[2]) and np.isnan(fast[3]) and fast[4] == np.inf
        assert np.array_equal(fast, exact.astype(np.float32), equal_nan=True)

    def test_gelu_matches_float64_rule(self):
        # 70001 elements: more than one block, and a ragged last one
        rng = np.random.default_rng(5)
        x = (rng.standard_normal(70_001) * 3).astype(np.float32)
        w = rng.standard_normal(x.shape).astype(np.float32)
        y32, (g32,) = self.run(ad.gelu, [x], w, float64=False)
        y64, (g64,) = self.run(ad.gelu, [x.astype(np.float64)], w.astype(np.float64),
                               float64=True)
        assert y32.dtype == g32.dtype == np.float32
        scale = np.maximum(1.0, np.abs(x))
        assert np.all(np.abs(y32 - y64) <= 16 * self.EPS * scale)
        assert np.all(np.abs(g32 - g64) <= 16 * self.EPS * np.abs(w) * scale)

    # 1/96 is not exact in binary; 96 is the small preset's width
    @pytest.mark.parametrize("d", [64, 96])
    def test_layer_norm_matches_float64_rule(self, d):
        rng = np.random.default_rng(d)
        arrays = [rng.standard_normal((4, 33, d)) * 2 + 0.5, 1 + 0.1 * rng.standard_normal(d),
                  rng.standard_normal(d)]
        w = rng.standard_normal((4, 33, d))
        out32, grads32 = self.run(ad.layer_norm, [a.astype(np.float32) for a in arrays],
                                  w.astype(np.float32), float64=False)
        out64, grads64 = self.run(ad.layer_norm, arrays, w, float64=True)
        for got, want in zip([out32] + grads32, [out64] + grads64):
            assert got.dtype == np.float32 and got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 16 * self.EPS * np.max(np.abs(want))
        xhat = (out32 - arrays[2]) / arrays[1]
        assert np.allclose(xhat.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(xhat.var(axis=-1), 1.0, atol=1e-5)


class TestGradientLifecycle:
    def test_tracked_tensor_starts_without_grad(self):
        assert Tensor(np.ones((2, 2)), requires_grad=True).grad is None
        assert ad.parameter(np.ones(3)).grad is None

    def test_backward_drops_node_grads_and_keeps_leaf_grads(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        table = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        with Graph() as g:
            h = ad.add(ad.gelu(ad.matmul(x, w)), ad.take_rows(table, [0, 2, 2, 4]))
            g.backward(ad.sum_all(ad.slice_axis(ad.matmul(h, ad.reshape(h, (3, 4))), 1, 3, axis=1)))
        assert len(g.nodes) == 8
        assert all(node.output.grad is None for node in g.nodes)
        for leaf in (x, w, table):
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape
        assert np.array_equal(table.grad[[1, 3]], np.zeros((2, 3)))

    @staticmethod
    def handed(build, shape):
        """Inputs' gradients after ``hand_over`` gives ``build``'s output a
        known array, with a copy of that array's values."""
        g = np.random.default_rng(1).standard_normal(shape).astype(np.float32)
        want = g.copy()
        with Graph() as graph:
            graph.backward(hand_over(build(), g))
        return g, want

    def test_linear_hands_its_gradient_to_the_residual(self):
        rng = np.random.default_rng(0)
        x, r = (Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True) for _ in range(2))
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        g, want = self.handed(lambda: ad.linear(x, w, b, residual=r), (2, 3, 4))
        assert np.shares_memory(r.grad, g) and np.array_equal(r.grad, want)
        assert np.array_equal(b.grad, want.reshape(-1, 4).sum(axis=0))
        assert not any(np.shares_memory(t.grad, g) for t in (x, w, b))

    def test_reshape_and_concat_hand_over_views(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        g, want = self.handed(lambda: ad.reshape(x, (2, 6)), (2, 6))
        assert np.shares_memory(x.grad, g) and np.array_equal(x.grad, want.reshape(3, 4))
        parts = [Tensor(np.ones((2, w, 3)), requires_grad=True) for w in (1, 3)]
        g, want = self.handed(lambda: ad.concat(parts, axis=1), (2, 4, 3))
        for part, (lo, hi) in zip(parts, [(0, 1), (1, 4)]):
            assert np.shares_memory(part.grad, g)
            assert np.array_equal(part.grad, want[:, lo:hi])

    def test_add_gives_each_input_its_own_buffer(self):
        a, b = (Tensor(np.ones((2, 3)), requires_grad=True) for _ in range(2))
        g, want = self.handed(lambda: ad.add(a, b), (2, 3))
        assert a.grad is g and not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        assert np.array_equal(b.grad, want)
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        _, want = self.handed(lambda: ad.add(x, x), (2, 3))
        assert np.array_equal(x.grad, 2 * want)

    def test_zero_grad_clears(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        backward_of(lambda: ad.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 2)))
        x.zero_grad()
        assert x.grad is None


class TestFusedOps:
    """``linear`` and ``attention`` against the primitive chains they
    replace: bit-identical outputs and input gradients in float32."""

    B, T, HEADS = 4, 6, 2

    def _inputs(self, d, with_bias):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((self.B, self.T, d)), requires_grad=True)
        params = {
            name: Tensor(rng.standard_normal(shape) * 0.3, requires_grad=True)
            for proj in ("q", "k", "v", "o")
            for name, shape in ((f"{proj}/w", (d, d)), (f"{proj}/b", (d,)))
        }
        bias = None
        if with_bias:
            hidden = rng.random((self.B, self.T)) < 0.4
            hidden[:, 0] = False
            bias = Tensor(np.where(hidden, -1e9, 0.0)[:, None, None, :])
        weights = Tensor(rng.standard_normal((self.B, self.T, d)))
        return x, params, bias, weights

    def _primitive(self, x, p, bias):
        b, t, d = x.shape
        heads = self.HEADS
        dh = d // heads
        h2 = ad.reshape(x, (b * t, d))

        def project(name):
            rows = ad.add(ad.matmul(h2, p[f"{name}/w"]), p[f"{name}/b"])
            return permute(ad.reshape(rows, (b, t, heads, dh)), (0, 2, 1, 3))

        q, k, v = project("q"), project("k"), project("v")
        scores = ad.scale(ad.matmul(q, permute(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
        if bias is not None:
            scores = ad.add(scores, bias)
        ctx = ad.matmul(softmax_rows(scores), v)
        ctx = ad.reshape(permute(ctx, (0, 2, 1, 3)), (b * t, d))
        out = ad.add(ad.matmul(ctx, p["o/w"]), p["o/b"])
        return ad.reshape(out, (b, t, d))

    def _fused(self, x, p, bias, residual=None):
        def linear(h, name, residual=None):
            return ad.linear(h, p[f"{name}/w"], p[f"{name}/b"], residual)

        ctx = ad.attention(linear(x, "q"), linear(x, "k"), linear(x, "v"), self.HEADS, bias)
        return linear(ctx, "o", residual)

    def _run(self, build, d, with_bias):
        x, params, bias, weights = self._inputs(d, with_bias)
        with Graph() as g:
            out = build(x, params, bias)
            g.backward(ad.sum_all(ad.mul(out, weights)))
        grads = {name: t.grad for name, t in params.items()}
        grads["x"] = x.grad
        return out.data, grads, len(g.nodes)

    # width 12 gives a head size of 6, whose 1/sqrt(6) scale is inexact
    @pytest.mark.parametrize("d", [8, 12])
    @pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "padding-bias"])
    def test_bit_identical_to_primitive_chain(self, d, with_bias):
        ref_out, ref_grads, ref_nodes = self._run(self._primitive, d, with_bias)
        out, grads, nodes = self._run(self._fused, d, with_bias)
        assert out.dtype == np.float32
        assert np.array_equal(out, ref_out)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name
        assert nodes == 5 + 2 < ref_nodes  # 5 fused ops + the loss's mul and sum_all

    @pytest.mark.parametrize("d", [8, 12])
    @pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "padding-bias"])
    def test_residual_bit_identical_to_add(self, d, with_bias):
        # x also feeds q/k/v, so its gradient must arrive in the same order
        ref_out, ref_grads, ref_nodes = self._run(
            lambda x, p, bias: ad.add(x, self._fused(x, p, bias)), d, with_bias)
        out, grads, nodes = self._run(
            lambda x, p, bias: self._fused(x, p, bias, residual=x), d, with_bias)
        assert np.array_equal(out, ref_out)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name
        assert nodes == ref_nodes - 1 == 7

    def test_residual_may_be_the_input(self):
        # x's own gradient lands in g's buffer; w must read g before that
        def run(build):
            rng = np.random.default_rng(4)
            x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True)
                       for s in ((2, 3, 4), (4, 4), (4,)))
            weights = Tensor(rng.standard_normal((2, 3, 4)))
            backward_of(lambda: ad.sum_all(ad.mul(build(x, w, b), weights)))
            return [t.grad for t in (x, w, b)]

        fused = run(lambda x, w, b: ad.linear(x, w, b, residual=x))
        ref = run(lambda x, w, b: ad.add(x, ad.linear(x, w, b)))
        for got, want in zip(fused, ref):
            assert np.array_equal(got, want)

    @staticmethod
    def _mlp_inputs(residual):
        rng = np.random.default_rng(8)
        x, w1, b1, w2, b2, r = (Tensor(rng.standard_normal(s) * 0.5, requires_grad=True)
                                for s in ((3, 5, 4), (4, 16), (16,), (16, 4), (4,), (3, 5, 4)))
        weights = Tensor(rng.standard_normal((3, 5, 4)))
        return (x, w1, b1, w2, b2, {"separate": r, "input": x, "none": None}[residual]), weights

    @pytest.mark.parametrize("residual", ["separate", "input", "none"])
    def test_mlp_bit_identical_to_linear_gelu_linear(self, residual):
        def run(build):
            inputs, weights = self._mlp_inputs(residual)
            with Graph() as g:
                out = build(*inputs)
                n_nodes = len(g.nodes)
                g.backward(ad.sum_all(ad.mul(out, weights)))
            leaves = dict(zip(("x", "w1", "b1", "w2", "b2", "r"), inputs))
            return out.data, {k: t.grad for k, t in leaves.items() if t is not None}, n_nodes

        def chain(x, w1, b1, w2, b2, r):
            return ad.linear(ad.gelu(ad.linear(x, w1, b1)), w2, b2, residual=r)

        ref_out, ref_grads, ref_nodes = run(chain)
        out, grads, nodes = run(ad.mlp)
        assert out.dtype == np.float32 and np.array_equal(out, ref_out)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name
        assert (ref_nodes, nodes) == (3, 1)

    def test_mlp_without_tape_matches_and_keeps_its_inputs(self):
        inputs, _ = self._mlp_inputs("separate")
        before = [t.data.copy() for t in inputs]
        with Graph() as g:
            recorded = ad.mlp(*inputs)
        free = ad.mlp(*inputs)
        assert len(g.nodes) == 1 and not free.requires_grad
        assert free.data.tobytes() == recorded.data.tobytes()
        for t, data in zip(inputs, before):
            assert t.data.tobytes() == data.tobytes()

    def test_mlp_without_tape_holds_one_hidden_array(self):
        # rows x width 256 is the 1 MiB hidden array of a 64-image chunk;
        # with a tape the GELU output and its erf term are kept as well
        rng = np.random.default_rng(9)
        x, w1, b1, w2, b2 = (Tensor(rng.standard_normal(s), requires_grad=True)
                             for s in ((1024, 64), (64, 256), (256,), (256, 64), (64,)))
        hidden_bytes = 1024 * 256 * 4
        peaks = []
        for tape in (Graph, contextlib.nullcontext):
            tracemalloc.start()
            with tape():
                out = ad.mlp(x, w1, b1, w2, b2, residual=x)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            del out
        assert peaks[1] < 2 * hidden_bytes
        assert peaks[0] - peaks[1] > hidden_bytes

    def test_mlp_backward_frees_the_gelu_output_gradient(self, monkeypatch):
        # the chain's walk drops it before the first linear's rule runs
        seen, alive = [], []
        gelu_backward, accum = ad._gelu_backward, ad._accum

        def spying_gelu_backward(x, e, g):
            seen.append(weakref.ref(g))
            return gelu_backward(x, e, g)

        def spying_accum(t, g):
            if seen:
                alive.append(seen[0]() is not None)
            accum(t, g)

        monkeypatch.setattr(ad, "_gelu_backward", spying_gelu_backward)
        monkeypatch.setattr(ad, "_accum", spying_accum)
        inputs, weights = self._mlp_inputs("separate")
        backward_of(lambda: ad.sum_all(ad.mul(ad.mlp(*inputs), weights)))
        assert len(seen) == 1 and alive == [False] * 3  # b1, x, w1

    def test_symmetric_info_nce_is_one_tape_node(self):
        rng = np.random.default_rng(3)
        img, txt = (Tensor(rng.standard_normal((4, 3)), requires_grad=True) for _ in range(2))
        scale = Tensor([0.7], requires_grad=True)
        with Graph() as g:
            loss = ad.symmetric_info_nce(img, txt, scale, 4.0)
        assert loss.shape == () and len(g.nodes) == 1

    def test_symmetric_info_nce_rejects_bad_shapes(self):
        e, scale = Tensor(np.ones((3, 2))), Tensor([0.0])
        with pytest.raises(DimensionError, match="symmetric_info_nce"):
            ad.symmetric_info_nce(e, Tensor(np.ones((3, 4))), scale, 1.0)
        with pytest.raises(DimensionError, match="symmetric_info_nce"):
            ad.symmetric_info_nce(e, e, Tensor([0.0, 1.0]), 1.0)

    def test_linear_keeps_leading_axes(self):
        x = Tensor(np.ones((2, 3, 4)))
        out = ad.linear(x, Tensor(np.ones((4, 5))), Tensor(np.arange(5.0)))
        assert out.shape == (2, 3, 5)
        assert np.array_equal(out.data[1, 2], 4.0 + np.arange(5.0))

    def test_linear_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionError, match="linear"):
            ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.zeros(5)))
        with pytest.raises(DimensionError, match="linear"):
            ad.linear(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 5))), Tensor(np.zeros(4)))
        for shape in ((2, 4), (5,), (1, 5)):  # the residual must not broadcast
            with pytest.raises(DimensionError, match="residual"):
                ad.linear(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 5))), Tensor(np.zeros(5)),
                          residual=Tensor(np.ones(shape)))

    def test_mean_squared_error_closed_form(self):
        rng = np.random.default_rng(5)
        p, t = rng.standard_normal((2, 3, 4, 5))
        with ad.verification_mode():
            pred = Tensor(p, requires_grad=True)
            with Graph() as g:
                loss = ad.mean_squared_error(pred, t)
                g.backward(loss)
        assert len(g.nodes) == 1
        assert np.allclose(loss.data, np.mean((p - t) ** 2), rtol=1e-14, atol=0)
        assert np.allclose(pred.grad, 2 * (p - t) / p.size, rtol=1e-14, atol=0)

    def test_mean_squared_error_rejects_misshapen_target(self):
        pred = Tensor(np.ones((2, 3)))
        for shape in ((3,), (2, 1), (3, 2)):
            with pytest.raises(DimensionError, match="mean_squared_error"):
                ad.mean_squared_error(pred, np.ones(shape))
        with pytest.raises(DimensionError, match="mean_squared_error"):
            ad.mean_squared_error(Tensor(np.ones((2, 0))), np.ones((2, 0)))

    def test_attention_rejects_bad_heads_and_shapes(self):
        q = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(DimensionError, match="heads"):
            ad.attention(q, q, q, heads=3)
        with pytest.raises(DimensionError, match="attention"):
            ad.attention(q, Tensor(np.ones((2, 5, 4))), q, heads=2)

    def test_attention_masked_key_gets_no_weight(self):
        # values differ only at the hidden key: the output must not see it
        rng = np.random.default_rng(0)
        q, k = Tensor(rng.standard_normal((1, 3, 4))), Tensor(rng.standard_normal((1, 3, 4)))
        v1 = rng.standard_normal((1, 3, 4))
        v2 = v1.copy()
        v2[0, 2] += 5.0
        bias = Tensor(np.array([0.0, 0.0, -1e9])[None, None, None, :])
        a = ad.attention(q, k, Tensor(v1), heads=2, bias=bias)
        b = ad.attention(q, k, Tensor(v2), heads=2, bias=bias)
        assert np.array_equal(a.data, b.data)


class TestDeterminism:
    def _run(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
        with Graph() as g:
            out = ad.sum_all(ad.gelu(ad.matmul(softmax_rows(x), w)))
            g.backward(out)
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    def test_bit_identical_across_runs(self):
        a = self._run(7)
        b = self._run(7)
        for u, v in zip(a, b):
            assert u.tobytes() == v.tobytes()

    def test_check_gradients_reports_not_raises(self):
        # deliberately impossible tolerance: must report failure, not throw
        report = ad.check_gradients("matmul", tolerance=1e-18, n_seeds=1)
        assert not report.passed


def on_thread(fn):
    """``fn()``'s result, computed on a new thread; its exception re-raised."""
    out = {}

    def run():
        try:
            out["result"] = fn()
        except BaseException as e:  # handed to the calling thread
            out["error"] = e

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    if "error" in out:
        raise out["error"]
    return out["result"]


def leaves(n, seed=0, shape=(3, 3)):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.standard_normal(shape), requires_grad=True) for _ in range(n)]


def walked_on(x: Tensor, threads: list) -> Tensor:
    """Identity node whose backward notes the thread that runs it."""

    def backward(g):
        threads.append(threading.current_thread())
        ad._accum(x, g)

    return ad._record(Tensor(x.data), (x,), backward)


class Boom(Exception):
    pass


class TestThreads:
    def test_an_open_graph_records_no_other_threads_ops(self):
        a, b = leaves(2)
        with Graph() as g:
            out = on_thread(lambda: ad.matmul(a, b))
            assert g.nodes == []
            assert not out.requires_grad

    def test_each_thread_opens_its_own_graph(self):
        a, b = leaves(2)

        def elsewhere():
            with Graph() as inner:
                ad.matmul(a, b)
                with pytest.raises(RuntimeError, match="nested"):
                    Graph().__enter__()
            return len(inner.nodes)

        with Graph() as g:
            assert on_thread(elsewhere) == 1
            ad.matmul(a, b)
            with pytest.raises(RuntimeError, match="nested"):
                Graph().__enter__()
        assert len(g.nodes) == 1


class TestBranch:
    @staticmethod
    def run(x, w, y, v, branched):
        """``sum(gelu(x @ w) + y @ v)`` with ``y @ v`` in a branch or
        inline; the tape order is the same either way."""
        with Graph() as g:
            side = g.branch(ad.matmul, y, v) if branched else None
            h = ad.gelu(ad.matmul(x, w))
            other = side() if branched else ad.matmul(y, v)
            loss = ad.sum_all(ad.add(h, other))
            g.backward(loss)
        return g, loss

    def test_branch_is_bit_identical_to_inline(self):
        inline = leaves(4, seed=1)
        branched = [Tensor(t.data.copy(), requires_grad=True) for t in inline]
        g, loss = self.run(*branched, branched=True)
        _, want = self.run(*inline, branched=False)
        assert loss.data.tobytes() == want.data.tobytes()
        for got, ref in zip(branched, inline):
            assert got.grad.tobytes() == ref.grad.tobytes()
        # the branch's node sits after the two recorded before its result was taken
        assert len(g.nodes) == 5
        assert g.nodes[2].inputs == tuple(branched[2:])

    def test_disjoint_segment_walks_on_the_worker(self):
        x, y = leaves(2)
        main_threads, side_threads = [], []
        with Graph() as g:
            side = g.branch(walked_on, y, side_threads)
            main = walked_on(x, main_threads)
            g.backward(ad.sum_all(ad.add(main, side())))
        assert main_threads == [threading.current_thread()]
        assert len(side_threads) == 1 and side_threads[0] is not threading.current_thread()
        assert np.array_equal(x.grad, np.ones((3, 3))) and np.array_equal(y.grad, np.ones((3, 3)))

    def test_segment_sharing_a_tensor_with_earlier_nodes_walks_inline(self):
        x, = leaves(1)
        threads = []
        with Graph() as g:
            main = walked_on(x, threads)
            side = g.branch(walked_on, x, threads)  # x also feeds the earlier node
            g.backward(ad.sum_all(ad.add(main, side())))
        assert threads == [threading.current_thread()] * 2
        assert np.array_equal(x.grad, np.full((3, 3), 2.0))

    def test_untaken_branch_is_waited_for_and_adds_no_node(self):
        x, = leaves(1)
        done = []

        def slow():
            time.sleep(0.2)
            out = ad.gelu(x)
            done.append(out)
            return out

        with Graph() as g:
            g.branch(slow)
        assert len(done) == 1 and done[0].requires_grad
        assert g.nodes == []

    def test_forward_error_reraises_when_the_result_is_taken(self):
        x, = leaves(1)

        def fail():
            ad.gelu(x)
            raise Boom("forward")

        with Graph() as g:
            side = g.branch(fail)
            with pytest.raises(Boom, match="forward"):
                side()
            with pytest.raises(Boom, match="forward"):
                side()
        assert g.nodes == []

    def test_backward_error_reraises_from_backward(self):
        x, y = leaves(2)

        def fail_later(t):
            def backward(g):
                raise Boom("backward")

            return ad._record(Tensor(t.data), (t,), backward)

        with Graph() as g:
            side = g.branch(fail_later, y)
            loss = ad.sum_all(ad.add(ad.gelu(x), side()))
            with pytest.raises(Boom, match="backward"):
                g.backward(loss)
        assert x.grad is not None  # the calling thread finished its own walk
        assert y.grad is None

    def test_branch_on_the_worker_is_refused(self):
        with Graph() as g:
            with pytest.raises(RuntimeError, match="another branch"):
                g.branch(lambda: g.branch(lambda: None)())()

    def test_work_goes_on_after_a_failed_branch(self, tmp_path, monkeypatch):
        ds = generate_dataset(64, 0, tmp_path / "d.flipds")
        config = trainer.TrainConfig(batch_size=32, warmup_samples=32, total_samples=64)
        tokens = tokenize_batch(ds.captions[:32], seq_len=32)

        def step(state):
            return trainer.train_step(state, ds.images[:32], tokens, epoch=0,
                                      sample_indices=np.arange(32), lr=1e-3, mask_ratio=0.5)

        def fail(*args):
            raise Boom("text tower")

        state = trainer.init_train_state(config)
        monkeypatch.setattr(trainer, "encode_text", fail)
        with pytest.raises(Boom):
            step(state)
        monkeypatch.undo()
        with Graph() as g:  # the thread's tape was released and the worker still serves
            x, = leaves(1)
            g.backward(ad.sum_all(g.branch(ad.gelu, x)()))
        assert x.grad is not None
        fresh = trainer.init_train_state(config)
        assert step(state) == step(fresh)
        assert np.array_equal(state._arena, fresh._arena)

    def test_forked_child_starts_its_own_worker(self):
        x, = leaves(1)
        with Graph() as g:  # make sure this process's worker is running
            g.branch(ad.gelu, x)()

        def child(queue):
            with Graph() as g:
                queue.put(float(g.branch(ad.sum_all, x)().data))

        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=child, args=(queue,))
        proc.start()
        try:
            assert queue.get(timeout=30) == float(x.data.sum(dtype=np.float32))
        finally:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
        assert proc.exitcode == 0

    def test_on_worker_runs_beside_the_caller_and_raises_its_error(self):
        threads = []
        with ad.on_worker(lambda: threads.append(threading.current_thread())) as job:
            pass
        assert job.wait() is None
        assert len(threads) == 1 and threads[0] is not threading.current_thread()

        def fail():
            raise Boom("worker")

        with pytest.raises(Boom, match="worker"):
            with ad.on_worker(fail):
                pass

    def test_on_worker_joins_when_the_caller_raises(self):
        started, finished = threading.Event(), []

        def work():
            started.set()
            finished.append(np.ones(4).sum())

        with pytest.raises(Boom, match="caller"):
            with ad.on_worker(work):
                started.wait(timeout=30)
                raise Boom("caller")
        assert finished == [4.0]  # joined before the caller's error left the block

    def test_on_worker_called_on_the_worker_runs_inline(self):
        # a queued job would wait behind this one: its result is not set yet
        def outer():
            return threading.current_thread(), ad.on_worker(threading.current_thread).result

        here, inner = ad.on_worker(outer).wait()
        assert inner is here and here is not threading.current_thread()

    def test_callers_on_many_threads_share_the_worker(self):
        # more callers than cores, each with its own graph, all branching
        # onto the one worker; a short switch interval interleaves them
        # often, and gradients that accumulate over the runs would show a
        # lost or misplaced update
        def run(seed, branched):
            tensors = leaves(4, seed=seed, shape=(8, 8))
            for _ in range(20):
                self.run(*tensors, branched=branched)
            return [t.grad for t in tensors]

        results = {}
        threads = [threading.Thread(target=lambda s=s: results.update({s: run(s, True)}))
                   for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for seed in range(4):
            for got, want in zip(results[seed], run(seed, False)):
                assert np.array_equal(got, want)

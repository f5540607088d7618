"""Engine tests: op semantics, finite-difference gradient checks,
accumulation, and determinism."""

import numpy as np
import pytest

from flip import autodiff as ad
from flip.autodiff import Graph, Tensor
from flip.errors import DimensionError


def backward_of(build):
    """Run build() under a graph, backward from its scalar output."""
    with Graph() as g:
        loss = build()
        g.backward(loss)
    return loss


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
        out = ad.layer_norm(
            Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=0.0
        )
        assert np.allclose(out.data, [[-1.2247, 0.0, 1.2247]], atol=1e-4)

    def test_layer_norm_empty_axis(self):
        with pytest.raises(DimensionError, match="empty"):
            ad.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))

    def test_softmax_symmetry(self):
        assert np.allclose(ad.softmax_rows(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 7)))
        assert np.allclose(ad.softmax_rows(x).data.sum(axis=-1), 1.0, atol=1e-6)

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

    def test_take_rows_rejects_bad_indices(self):
        x = Tensor(np.zeros((4, 2)))
        with pytest.raises(IndexError):
            ad.take_rows(x, [0, 4])
        with pytest.raises(IndexError):
            ad.take_rows(x, [-1])

    def test_logsumexp_matches_naive(self):
        x = np.random.default_rng(1).standard_normal((3, 5))
        out = ad.logsumexp_rows(Tensor(x, dtype=np.float64))
        assert np.allclose(out.data, np.log(np.exp(x).sum(axis=1)))

    def test_clamp_max(self):
        out = ad.clamp_max(Tensor([0.2, 0.9]), 0.5)
        assert np.allclose(out.data, [0.2, 0.5])

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
        backward_of(lambda: ad.mean_all(ad.add(x1, x1)))
        x2 = Tensor(data, requires_grad=True)
        backward_of(lambda: ad.mean_all(ad.scale(x2, 2.0)))
        assert np.allclose(x1.grad, x2.grad)
        assert np.allclose(x1.grad, 2.0 / 9.0)

    def test_scalar_loss_required(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Graph() as g:
            y = ad.scale(x, 2.0)
            with pytest.raises(DimensionError):
                g.backward(y)


class TestDeterminism:
    def _run(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
        with Graph() as g:
            out = ad.mean_all(ad.gelu(ad.matmul(ad.softmax_rows(x), w)))
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

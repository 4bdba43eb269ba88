"""Tensor/autodiff engine tests: worked examples, finite-difference oracles,
and engine-wide gradient sweeps."""

import math

import numpy as np
import pytest

from apex import numerics as nm
from apex.errors import (DegenerateInputError, NumericDomainError, ShapeError,
                         TrainingDivergedError)
from apex.numerics import Tensor


def test_tensor_contract():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert list(t.data) == [1.0, 2.0, 3.0, 4.0]
    assert t.data.shape == (4,)
    with pytest.raises(ValueError):
        Tensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        Tensor([float("inf")])


def test_tensor_immutable():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.array[0] = 5.0


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = nm.matmul(nm.as_node(np.eye(2)), nm.as_node(a))
        assert np.array_equal(out.array, a)

    def test_projector_row_selection(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = nm.matmul(nm.as_node(p), nm.as_node(b))
        assert np.array_equal(out.array, [[5.0, 6.0], [0.0, 0.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = nm.matmul(nm.as_node(a), nm.as_node(b))
        assert np.max(np.abs(out.array - expected)) < 1e-12

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            nm.matmul(nm.as_node(np.ones((2, 3))), nm.as_node(np.ones((2, 3))))


class TestElementwise:
    def test_mul_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 3))
        out = nm.mul(nm.as_node(x), nm.as_node(np.ones((3, 3))))
        assert np.array_equal(out.array, x)

    def test_exp_of_zero(self):
        assert np.array_equal(nm.exp(nm.as_node(np.zeros(4))).array, np.ones(4))

    def test_sigmoid_at_zero(self):
        assert np.all(nm.sigmoid(nm.as_node(np.zeros((2, 2)))).array == 0.5)

    def test_log_domain_error(self):
        with pytest.raises(NumericDomainError):
            nm.log(nm.as_node(np.array([1.0, 0.0])))

    def test_binary_shape_error(self):
        with pytest.raises(ShapeError):
            nm.add(nm.as_node(np.ones(3)), nm.as_node(np.ones(4)))


class TestReduce:
    def test_sum(self):
        assert nm.reduce_sum(nm.as_node([1.0, 2.0, 3.0])).item() == 6.0

    def test_mean_of_ones(self):
        assert nm.reduce_mean(nm.as_node(np.ones((4, 4)))).item() == 1.0

    def test_sum_axis0(self):
        out = nm.reduce_sum(nm.as_node([[1.0, 2.0], [3.0, 4.0]]), axis=0)
        assert np.array_equal(out.array, [4.0, 6.0])

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            nm.reduce_sum(nm.as_node(np.ones((2, 2))), axis=5)


class TestCosine:
    def test_parallel(self):
        assert nm.cosine_similarity(nm.as_node([1.0, 0.0]), nm.as_node([1.0, 0.0])).item() == 1.0

    def test_orthogonal(self):
        assert nm.cosine_similarity(nm.as_node([1.0, 0.0]), nm.as_node([0.0, 1.0])).item() == 0.0

    def test_worked_value(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        c = nm.cosine_similarity(nm.as_node([1.0, 0.0]), nm.as_node(v))
        assert abs(c.item() - 1.0 / math.sqrt(2.0)) < 1e-9

    def test_zero_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            nm.cosine_similarity(nm.as_node([0.0, 0.0]), nm.as_node([1.0, 0.0]))

    def test_near_zero_guarded(self):
        c = nm.cosine_similarity(nm.as_node([1e-300, 0.0]), nm.as_node([1.0, 0.0]))
        assert np.isfinite(c.item())

    def test_range_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            u = rng.standard_normal(4) * 10.0 ** rng.integers(-6, 6)
            v = rng.standard_normal(4) * 10.0 ** rng.integers(-6, 6)
            c = nm.cosine_similarity(nm.as_node(u), nm.as_node(v)).item()
            assert -1.0 <= c <= 1.0


class TestMlp:
    def _zero_mlp_with_bias(self, bias):
        layers = [
            (nm.parameter(np.zeros((3, 2))), nm.parameter(np.zeros(3))),
            (nm.parameter(np.zeros((2, 3))), nm.parameter(np.asarray(bias, dtype=float))),
        ]
        return nm.MlpParams(layers=layers, activations=["relu", "linear"])

    def test_zero_weights_give_bias(self):
        mlp = self._zero_mlp_with_bias([0.7, -0.2])
        for x in (np.zeros(2), np.ones(2), np.array([3.0, -4.0])):
            out = nm.mlp_forward(mlp, nm.as_node(x[None]))
            assert np.allclose(out.array[0], [0.7, -0.2])

    def test_identity_layer(self):
        mlp = nm.MlpParams(layers=[(nm.parameter(np.eye(3)), nm.parameter(np.zeros(3)))],
                           activations=["linear"])
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(nm.mlp_forward(mlp, nm.as_node(x[None])).array[0], x)

    def test_four_layer_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        sizes = [5, 6, 6, 6, 3]
        proto = nm.init_mlp(sizes, rng)
        x = rng.standard_normal((2, 5))
        inputs = [p.array for p in proto.parameters()]

        def build(leaves):
            layers = [(leaves[2 * i], leaves[2 * i + 1]) for i in range(len(sizes) - 1)]
            mlp = nm.MlpParams(layers=layers, activations=proto.activations)
            out = nm.mlp_forward(mlp, nm.as_node(x))
            return nm.reduce_sum(nm.mul(out, out))

        assert nm.gradcheck(build, inputs) < 1e-4

    def test_unbatched_input_rejected(self):
        mlp = self._zero_mlp_with_bias([0.7, -0.2])
        with pytest.raises(ShapeError):
            nm.mlp_forward(mlp, nm.as_node(np.ones(2)))

    def test_dimension_chain_validated(self):
        with pytest.raises(ShapeError):
            nm.MlpParams(layers=[(nm.parameter(np.zeros((3, 2))), nm.parameter(np.zeros(3))),
                                 (nm.parameter(np.zeros((2, 4))), nm.parameter(np.zeros(2)))],
                         activations=["relu", "linear"])


def _linear_chain(x, w, b, relu):
    h = nm.add(nm.matmul(x, nm.transpose(w)), b)
    return nm.relu(h) if relu else h


def _row_norm_chain(v):
    sq = nm.reduce_sum(nm.mul(v, v), axis=1, keepdims=True)
    return nm.clip_min(nm.sqrt(sq), nm.NORM_EPS)


def _cosine_rows_chain(a, b):
    ahat = nm.div(a, _row_norm_chain(a))
    bhat = nm.div(b, _row_norm_chain(b))
    return nm.clip(nm.matmul(ahat, nm.transpose(bhat)), -1.0, 1.0)


def _value_and_grads(build, arrays):
    """Value of ``build(leaves)`` and every leaf's gradient of a fixed random
    weighting of it."""
    leaves = [nm.parameter(a) for a in arrays]
    out, loss = build(leaves)
    nm.backward(loss)
    return out.array, [leaf.grad for leaf in leaves]


def _weighted(out, seed):
    weights = np.random.default_rng(seed).standard_normal(out.shape)
    return out, nm.reduce_sum(nm.mul(out, weights))


class TestFusedOps:
    """``linear`` and ``cosine_rows`` are single nodes that must reproduce
    the primitive chains they replace bit for bit, in value and gradient."""

    def _assert_bit_identical(self, fused, chain, arrays):
        v_fused, g_fused = _value_and_grads(fused, arrays)
        v_chain, g_chain = _value_and_grads(chain, arrays)
        assert np.array_equal(v_fused, v_chain)
        for gf, gc in zip(g_fused, g_chain):
            assert np.array_equal(gf, gc)
            assert gf.flags.c_contiguous

    @pytest.mark.parametrize("relu", [True, False])
    def test_linear_matches_chain(self, relu):
        rng = np.random.default_rng(31)
        for trial in range(20):
            n, k, m = (int(d) for d in rng.integers(1, 7, size=3))
            arrays = [rng.standard_normal((n, k)), rng.standard_normal((m, k)),
                      rng.standard_normal(m)]
            self._assert_bit_identical(
                lambda ls: _weighted(nm.linear(ls[0], ls[1], ls[2], relu=relu), trial),
                lambda ls: _weighted(_linear_chain(ls[0], ls[1], ls[2], relu), trial),
                arrays)

    def test_cosine_rows_matches_chain(self):
        rng = np.random.default_rng(32)
        for trial in range(20):
            m, n, k = (int(d) for d in rng.integers(1, 7, size=3))
            arrays = [rng.standard_normal((m, k)), rng.standard_normal((n, k))]
            if trial == 0:
                arrays[0][0] *= 1e-14  # a row below NORM_EPS takes the guarded branch
            self._assert_bit_identical(
                lambda ls: _weighted(nm.cosine_rows(ls[0], ls[1]), trial),
                lambda ls: _weighted(_cosine_rows_chain(ls[0], ls[1]), trial),
                arrays)

    def test_cosine_rows_of_one_matrix_matches_chain(self):
        rng = np.random.default_rng(33)
        for trial in range(20):
            m, k = (int(d) for d in rng.integers(1, 7, size=2))
            arrays = [rng.standard_normal((m, k))]
            self._assert_bit_identical(
                lambda ls: _weighted(nm.cosine_rows(ls[0], ls[0]), trial),
                lambda ls: _weighted(_cosine_rows_chain(ls[0], ls[0]), trial),
                arrays)

    def test_input_with_a_second_consumer_matches_chain(self):
        """The gradient of an input that also feeds other ops sums several
        contributions; the fused ops add theirs in the chain's order."""
        rng = np.random.default_rng(34)
        for trial in range(10):
            # a positive bias keeps every row of relu(h) away from zero
            x, w, b = rng.standard_normal((4, 5)), rng.standard_normal((3, 5)), \
                rng.random(3) + 2.0
            mem = rng.standard_normal((6, 3))

            def build(ls, lin, cos):
                h = lin(ls[0], ls[1], ls[2], True)
                sims = cos(h, ls[3])
                other = nm.mul(h, nm.exp(h))  # second and third consumers of h
                self_sims = cos(ls[0], ls[0])
                loss = nm.add(nm.add(_weighted(sims, trial)[1], _weighted(other, trial + 1)[1]),
                              _weighted(self_sims, trial + 2)[1])
                return sims, nm.add(loss, nm.reduce_sum(nm.mul(ls[0], ls[0])))

            self._assert_bit_identical(
                lambda ls: build(ls, lambda x_, w_, b_, r: nm.linear(x_, w_, b_, relu=r),
                                 nm.cosine_rows),
                lambda ls: build(ls, _linear_chain, _cosine_rows_chain),
                [x, w, b, mem])

    @pytest.mark.parametrize("relu", [True, False])
    def test_linear_gradcheck(self, relu):
        rng = np.random.default_rng(35)
        for trial in range(20):
            n, k, m = (int(d) for d in rng.integers(1, 6, size=3))
            inputs = [rng.standard_normal((n, k)), rng.standard_normal((m, k)),
                      rng.standard_normal(m)]
            weights = rng.standard_normal((n, m))

            def build(ls):
                return nm.reduce_sum(nm.mul(nm.linear(ls[0], ls[1], ls[2], relu=relu), weights))

            assert nm.gradcheck(build, inputs) < 1e-4, f"trial {trial}"

    @pytest.mark.parametrize("same", [False, True])
    def test_cosine_rows_gradcheck(self, same):
        rng = np.random.default_rng(36)
        for trial in range(20):
            # one row against itself is the constant 1, whose zero gradient
            # finite differences only see as noise
            m, n, k = (int(d) for d in rng.integers(2, 6, size=3))
            inputs = [rng.standard_normal((m, k))]
            if not same:
                inputs.append(rng.standard_normal((n, k)))
            weights = rng.standard_normal((m, m if same else n))

            def build(ls):
                sims = nm.cosine_rows(ls[0], ls[0] if same else ls[1])
                return nm.reduce_sum(nm.mul(sims, weights))

            assert nm.gradcheck(build, inputs) < 1e-4, f"trial {trial}"

    def test_linear_shape_checked(self):
        with pytest.raises(ShapeError):
            nm.linear(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ShapeError):
            nm.linear(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros(3))


class TestScalarOperands:
    def test_scalar_is_no_node(self):
        x = nm.parameter(np.array([1.0, -2.0]))
        for out in (nm.div(x, 4.0), nm.mul(3, x), nm.sub(1.0, x)):
            assert out._parents == (x,)
        assert np.array_equal(nm.sub(1.0, x).array, [0.0, 3.0])

    def test_nonfinite_scalar_rejected(self):
        x = nm.parameter(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            nm.add(x, float("nan"))
        with pytest.raises(ValueError):
            nm.div(x, float("inf"))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = nm.parameter(np.array([1.0, 2.0, 3.0]))
        nm.backward(nm.reduce_sum(x))
        assert np.array_equal(x.grad, np.ones(3))

    def test_stop_gradient_blocks(self):
        x = nm.parameter(np.array([1.0, 2.0, 3.0]))
        nm.backward(nm.reduce_sum(nm.stop_gradient(x)))
        assert np.array_equal(x.grad, np.zeros(3))

    def test_stop_gradient_preserves_value(self):
        x = nm.parameter(np.array([1.0, -2.0]))
        assert np.array_equal(nm.stop_gradient(x).array, x.array)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            nm.backward(nm.as_node(np.ones(3)))

    def test_accumulation_and_zeroing(self):
        x = nm.parameter(np.ones(2))
        nm.backward(nm.reduce_sum(x))
        nm.backward(nm.reduce_sum(x))  # fresh graph, same leaf: grads add
        assert np.array_equal(x.grad, 2.0 * np.ones(2))
        x.zero_grad()
        assert np.array_equal(x.grad, np.zeros(2))

    def test_unreached_node_reads_zero_grad(self):
        x = nm.parameter(np.ones(3))
        y = nm.parameter(np.ones(2))
        nm.backward(nm.reduce_sum(x))
        assert np.array_equal(y.grad, np.zeros(2))

    def test_gradients_are_row_major(self):
        """Reductions over a gradient (such as the trainer's clip norm) must
        sum in the same order however the gradient was produced."""
        w = nm.parameter(np.arange(6.0).reshape(2, 3))
        nm.backward(nm.reduce_sum(nm.matmul(nm.as_node(np.ones((4, 3))), nm.transpose(w))))
        assert w.grad.flags.c_contiguous
        assert np.array_equal(w.grad, np.full((2, 3), 4.0))

    def test_composite_graph_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))

        def build(leaves):
            x, y = leaves
            h = nm.sigmoid(nm.matmul(x, y))
            g = nm.softplus(nm.sub(h, 0.3))
            return nm.reduce_mean(nm.mul(g, g))

        assert nm.gradcheck(build, [a, b]) < 1e-4

    def test_chain_rule_composition(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.standard_normal(4)

            def build(leaves):
                inner = nm.exp(nm.mul(leaves[0], 0.5))   # g(x)
                return nm.reduce_sum(nm.mul(inner, inner))  # f(g(x))

            leaf = nm.parameter(x)
            nm.backward(build([leaf]))
            expected = 2.0 * np.exp(0.5 * x) * np.exp(0.5 * x) * 0.5
            assert np.max(np.abs(leaf.grad - expected)) < 1e-12


class TestOrthogonalRows:
    def test_one_by_one(self):
        b = nm.orthogonal_rows(1, 1, seed=0)
        assert abs(abs(b.array[0, 0]) - 1.0) < 1e-12

    def test_two_by_two_rotation(self):
        b = nm.orthogonal_rows(2, 2, seed=1).array
        assert abs(b[0] @ b[1]) < 1e-10
        assert abs(np.linalg.norm(b[0]) - 1.0) < 1e-10
        assert abs(np.linalg.norm(b[1]) - 1.0) < 1e-10

    def test_default_size_gram(self):
        b = nm.orthogonal_rows(150, 256, seed=42).array
        gram = b @ b.T
        assert np.max(np.abs(gram - np.eye(150))) < 1e-10

    def test_j_greater_than_k_needs_flag(self):
        with pytest.raises(ShapeError):
            nm.orthogonal_rows(5, 3, seed=0)
        b = nm.orthogonal_rows(5, 3, seed=0, allow_blocks=True).array
        assert b.shape == (5, 3)
        assert np.max(np.abs(b[:3] @ b[:3].T - np.eye(3))) < 1e-10
        assert np.max(np.abs(b[3:] @ b[3:].T - np.eye(2))) < 1e-10

    def test_seed_determinism(self):
        a = nm.orthogonal_rows(8, 16, seed=3).array
        b = nm.orthogonal_rows(8, 16, seed=3).array
        assert np.array_equal(a, b)


class TestSgd:
    def test_zero_rate_is_identity(self):
        p = Tensor([1.0, 2.0])
        out = nm.sgd_step(p, Tensor([5.0, -5.0]), 0.0)
        assert np.array_equal(out.array, p.array)

    def test_basic_arithmetic(self):
        out = nm.sgd_step(Tensor([1.0]), Tensor([2.0]), 0.5)
        assert out.array[0] == 0.0

    def test_quadratic_decay(self):
        p = Tensor([1.0])
        for _ in range(10):
            p = nm.sgd_step(p, Tensor(p.array.copy()), 0.1)  # gradient of p^2/2 is p
        assert abs(p.array[0] - 0.9 ** 10) < 1e-12

    def test_nonfinite_gradient_rejected(self):
        g = np.array([1.0])
        bad = np.array([np.inf])
        with pytest.raises(TrainingDivergedError):
            nm.sgd_step([Tensor([1.0])], [bad], 0.1)

    def test_nonfinite_gradient_rejected_at_zero_rate(self):
        """Only the updated value is checked; 0 * inf is NaN, so an infinite
        gradient still raises when the step does not move the parameter."""
        with pytest.raises(TrainingDivergedError):
            nm.sgd_step(Tensor([1.0]), np.array([np.inf]), 0.0)
        with pytest.raises(TrainingDivergedError):
            nm.sgd_step(Tensor([1.0]), np.array([np.nan]), 0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nm.sgd_step(Tensor([1.0, 2.0]), Tensor([1.0]), 0.1)


class TestAdam:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gradient_rejected(self, bad):
        params = [Tensor([1.0, 2.0]), Tensor([3.0])]
        grads = [np.array([0.5, bad]), np.array([1.0])]
        with pytest.raises(TrainingDivergedError):
            nm.adam_step(params, grads, 0.01, nm.AdamState())

    def test_one_finiteness_check_per_parameter(self, monkeypatch):
        """Only each updated value is checked, as in ``sgd_step``."""
        calls = []
        isfinite = np.isfinite

        def counting_isfinite(*args, **kwargs):
            calls.append(1)
            return isfinite(*args, **kwargs)

        params = [Tensor(np.ones((2, 3))), Tensor(np.ones(3)), Tensor([1.0])]
        grads = [np.full(p.shape, 0.5) for p in params]
        monkeypatch.setattr(np, "isfinite", counting_isfinite)
        nm.adam_step(params, grads, 0.01, nm.AdamState())
        assert len(calls) == len(params)


def _random_shape(rng):
    return tuple(int(s) for s in rng.integers(2, 5, size=int(rng.integers(1, 3))))


OP_CASES = {
    "add": lambda ls: nm.add(ls[0], ls[1]),
    "sub": lambda ls: nm.sub(ls[0], ls[1]),
    "mul": lambda ls: nm.mul(ls[0], ls[1]),
    "div": lambda ls: nm.div(ls[0], ls[1]),
    "exp": lambda ls: nm.exp(ls[0]),
    "log": lambda ls: nm.log(ls[0]),
    "sqrt": lambda ls: nm.sqrt(ls[0]),
    "sigmoid": lambda ls: nm.sigmoid(ls[0]),
    "relu": lambda ls: nm.relu(ls[0]),
    "softplus": lambda ls: nm.softplus(ls[0]),
    "sum": lambda ls: nm.reduce_sum(ls[0]),
    "mean": lambda ls: nm.reduce_mean(ls[0]),
    "max": lambda ls: nm.reduce_max(ls[0]),
    "reshape": lambda ls: nm.reshape(ls[0], (-1,)),
    "matmul": lambda ls: nm.matmul(ls[0], ls[1]),
    "transpose": lambda ls: nm.transpose(ls[0]),
    "getitem": lambda ls: nm.getitem(ls[0], 0),
    "cosine": lambda ls: nm.cosine_similarity(ls[0], ls[1]),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_gradients_match_finite_differences(name):
    """Central-difference oracle, >= 100 randomized cases per op."""
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    build_op = OP_CASES[name]
    for trial in range(100):
        if name == "matmul":
            m, k, n = rng.integers(2, 5, size=3)
            inputs = [rng.standard_normal((m, k)), rng.standard_normal((k, n))]
        elif name in ("transpose",):
            inputs = [rng.standard_normal((3, 4))]
        elif name == "cosine":
            inputs = [rng.standard_normal(4) + 0.1, rng.standard_normal(4) + 0.1]
        elif name in ("log", "sqrt"):
            inputs = [rng.random(_random_shape(rng)) + 0.5]
        elif name == "div":
            shape = _random_shape(rng)
            inputs = [rng.standard_normal(shape),
                      rng.random(shape) + 0.5]
        elif name in ("add", "sub", "mul"):
            shape = _random_shape(rng)
            inputs = [rng.standard_normal(shape), rng.standard_normal(shape)]
        elif name == "max":
            # spread values so the maximum is unique (subgradient choice)
            inputs = [np.linspace(0.0, 1.0, 6) + rng.standard_normal(6) * 0.01]
        else:
            inputs = [rng.standard_normal(_random_shape(rng))]

        def build(leaves):
            out = build_op(leaves)
            return nm.reduce_sum(nm.mul(out, out)) if out.array.ndim else out

        assert nm.gradcheck(build, inputs) < 1e-4, f"{name} trial {trial}"


def test_scale_invariance_pow2_bit_exact():
    rng = np.random.default_rng(21)
    u, v = rng.standard_normal(8), rng.standard_normal(8)
    base = nm.cosine_similarity(nm.as_node(u), nm.as_node(v)).item()
    for c in (2.0, 0.25, 1024.0):
        scaled = nm.cosine_similarity(nm.as_node(c * u), nm.as_node(v)).item()
        assert scaled == base

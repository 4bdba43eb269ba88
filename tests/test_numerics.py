"""Node/autodiff engine tests: worked examples, finite-difference oracles,
and engine-wide gradient sweeps."""

import contextvars
import math
import threading
import time
import zlib

import numpy as np
import pytest

import apex
from apex import numerics as nm
from apex import spectral as sp
from apex.errors import (DegenerateInputError, NonFiniteError, NumericDomainError, ShapeError,
                         TrainingDivergedError)

import oracles


class TestNodeContract:
    def test_array_is_frozen_row_major_float64(self):
        n = nm.as_node([[1.0, 2.0], [3.0, 4.0]])
        assert n.shape == (2, 2) and n.array.dtype == np.float64
        assert n.array.flags.c_contiguous
        with pytest.raises(ValueError):
            n.array[0, 0] = 5.0

    def test_as_node_copies_the_callers_array(self):
        a = np.array([1.0, 2.0])
        n = nm.as_node(a)
        assert a.flags.writeable
        a[0] = 7.0
        assert list(n.array) == [1.0, 2.0]

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteError):
                nm.as_node([1.0, bad])
            with pytest.raises(NonFiniteError):
                nm.parameter([bad])
            with pytest.raises(NonFiniteError):
                nm.as_node([1.0]).set(np.array([bad]))

    def test_nonfinite_read_only_outside_array_rejected(self):
        arr = np.frombuffer(np.array([np.nan]).tobytes())
        assert not arr.flags.writeable
        with pytest.raises(NonFiniteError):
            nm.Node(arr)

    def test_reshape_and_stop_gradient_share_the_checked_array(self):
        a = nm.parameter(np.arange(6.0))
        assert oracles.reshape(a, (2, 3)).array.base is a.array
        assert nm.stop_gradient(a).array is a.array

    def test_strided_view_of_a_parent_is_made_row_major(self):
        a = nm.as_node(np.arange(6.0).reshape(2, 3))
        t = nm.Node(a.array.T, parents=(a,))
        assert t.array.flags.c_contiguous and np.array_equal(t.array, a.array.T)

    def test_set_replaces_the_array(self):
        p = nm.parameter([1.0, 2.0])
        new = np.array([3.0, 4.0])
        p.set(new)
        assert list(p.array) == [3.0, 4.0] and not p.array.flags.writeable


class TestNoGrad:
    """Inside ``no_grad`` an op returns a value-only node: no parents, no
    backward rule, no gradient and no finiteness check."""

    @staticmethod
    def ops(x, w, b, mem):
        h = nm.linear(x, w, b, relu=True)
        return [h, nm.exp(nm.clip(h, -2.0, 2.0)), nm.cosine_rows(h, mem),
                nm.matmul(oracles.transpose(h), x), nm.add(h, 1.0), nm.reduce_sum(h, axis=1),
                nm.stop_gradient(h), oracles.reshape(h, (-1,))]

    @staticmethod
    def leaves():
        rng = np.random.default_rng(4)
        return (nm.parameter(rng.standard_normal((5, 3))),
                nm.parameter(rng.standard_normal((4, 3))), nm.parameter(rng.standard_normal(4)),
                nm.parameter(rng.standard_normal((6, 4))))

    def test_values_equal_the_graphs_and_no_graph_is_kept(self):
        leaves = self.leaves()
        graph = self.ops(*leaves)
        with nm.no_grad():
            plain = self.ops(*leaves)
        for g, v in zip(graph, plain):
            assert v.array.tobytes() == g.array.tobytes() and v.shape == g.shape
            assert v._parents == () and v._backward is None and not v._needs_grad
            assert v.array.flags.c_contiguous
        loss = nm.reduce_sum(oracles.mul(plain[0], plain[0]))  # graph mode again
        nm.backward(loss)
        assert all(leaf._grad is None for leaf in leaves)  # no parameter is reached

    def test_nodes_are_not_checked(self, monkeypatch):
        calls = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda *a, **k: calls.append(1) or isfinite(*a, **k))
        with nm.no_grad():
            out = nm.exp(nm.as_node(np.array([0.0, np.nan, np.inf])))
            nm.linear(nm.as_node(np.ones((2, 3))), *self.leaves()[1:3])
        assert calls == []
        assert np.isnan(out.array[1]) and out.array[2] == np.inf
        with pytest.raises(NonFiniteError, match="tensor values must all be finite"):
            nm.check_finite(out.array)
        with pytest.raises(NonFiniteError):
            nm.exp(nm.as_node(np.array([0.0, np.nan])))  # graph mode checks

    def test_as_node_neither_copies_nor_freezes(self):
        arr = np.arange(6.0).reshape(2, 3)
        with nm.no_grad():
            node = nm.as_node(arr)
            strided = nm.as_node(arr.T)
        assert node.array is arr and arr.flags.writeable
        assert strided.array.flags.c_contiguous and np.array_equal(strided.array, arr.T)
        assert nm.as_node(arr).array is not arr

    def test_checks_of_other_errors_stay(self):
        with nm.no_grad():
            with pytest.raises(DegenerateInputError):
                nm.cosine_rows(nm.as_node(np.zeros((1, 3))), nm.as_node(np.ones((2, 3))))
            with pytest.raises(NumericDomainError):
                nm.log(nm.as_node(np.array([1.0, 0.0])))
            with pytest.raises(ShapeError):
                nm.matmul(nm.as_node(np.ones((2, 3))), nm.as_node(np.ones((2, 3))))
            with pytest.raises(NonFiniteError):
                nm.add(nm.as_node(np.ones(2)), math.nan)  # a number operand is checked

    def test_mode_is_scoped_to_the_block_and_its_copied_contexts(self):
        assert nm.grad_enabled()
        with pytest.raises(RuntimeError):
            with nm.no_grad():
                with nm.no_grad():
                    pass
                assert not nm.grad_enabled()
                inside = contextvars.copy_context()
                raise RuntimeError
        assert nm.grad_enabled()
        assert inside.run(nm.grad_enabled) is False
        assert contextvars.copy_context().run(nm.grad_enabled) is True


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
        out = oracles.mul(nm.as_node(x), nm.as_node(np.ones((3, 3))))
        assert np.array_equal(out.array, x)

    def test_exp_of_zero(self):
        assert np.array_equal(nm.exp(nm.as_node(np.zeros(4))).array, np.ones(4))

    def test_sigmoid_at_zero(self):
        assert np.all(oracles.sigmoid(nm.as_node(np.zeros((2, 2)))).array == 0.5)

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
        e0 = [1.0, 0.0]
        assert oracles.cosine_similarity(nm.as_node(e0), nm.as_node(e0)).item() == 1.0

    def test_orthogonal(self):
        e0, e1 = nm.as_node([1.0, 0.0]), nm.as_node([0.0, 1.0])
        assert oracles.cosine_similarity(e0, e1).item() == 0.0

    def test_worked_value(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        c = oracles.cosine_similarity(nm.as_node([1.0, 0.0]), nm.as_node(v))
        assert abs(c.item() - 1.0 / math.sqrt(2.0)) < 1e-9

    def test_zero_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            oracles.cosine_similarity(nm.as_node([0.0, 0.0]), nm.as_node([1.0, 0.0]))

    def test_near_zero_guarded(self):
        c = oracles.cosine_similarity(nm.as_node([1e-300, 0.0]), nm.as_node([1.0, 0.0]))
        assert np.isfinite(c.item())

    def test_range_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            u = rng.standard_normal(4) * 10.0 ** rng.integers(-6, 6)
            v = rng.standard_normal(4) * 10.0 ** rng.integers(-6, 6)
            c = oracles.cosine_similarity(nm.as_node(u), nm.as_node(v)).item()
            assert -1.0 <= c <= 1.0


class TestMlp:
    def _zero_mlp_with_bias(self, bias):
        layers = [
            (nm.parameter(np.zeros((3, 2))), nm.parameter(np.zeros(3))),
            (nm.parameter(np.zeros((2, 3))), nm.parameter(np.asarray(bias, dtype=float))),
        ]
        return nm.MlpParams(layers=layers)

    def test_zero_weights_give_bias(self):
        mlp = self._zero_mlp_with_bias([0.7, -0.2])
        for x in (np.zeros(2), np.ones(2), np.array([3.0, -4.0])):
            out = nm.mlp_forward(mlp, nm.as_node(x[None]))
            assert np.allclose(out.array[0], [0.7, -0.2])

    def test_identity_layer(self):
        mlp = nm.MlpParams(layers=[(nm.parameter(np.eye(3)), nm.parameter(np.zeros(3)))])
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(nm.mlp_forward(mlp, nm.as_node(x[None])).array[0], x)

    def test_four_layer_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        sizes = [5, 6, 6, 6, 3]
        proto = nm.init_mlp(sizes, rng)
        x = rng.standard_normal((2, 5))
        inputs = [p.array for layer in proto.layers for p in layer]

        def build(leaves):
            layers = [(leaves[2 * i], leaves[2 * i + 1]) for i in range(len(sizes) - 1)]
            mlp = nm.MlpParams(layers=layers)
            out = nm.mlp_forward(mlp, nm.as_node(x))
            return nm.reduce_sum(oracles.mul(out, out))

        assert oracles.gradcheck(build, inputs) < 1e-4

    def test_unbatched_input_rejected(self):
        mlp = self._zero_mlp_with_bias([0.7, -0.2])
        with pytest.raises(ShapeError):
            nm.mlp_forward(mlp, nm.as_node(np.ones(2)))

    def test_dimension_chain_validated(self):
        with pytest.raises(ShapeError):
            nm.MlpParams(layers=[(nm.parameter(np.zeros((3, 2))), nm.parameter(np.zeros(3))),
                                 (nm.parameter(np.zeros((2, 4))), nm.parameter(np.zeros(2)))])


def _linear_chain(x, w, b, relu):
    h = nm.add(nm.matmul(x, oracles.transpose(w)), b)
    return oracles.relu(h) if relu else h


def _row_norm_chain(v):
    sq = nm.reduce_sum(oracles.mul(v, v), axis=1, keepdims=True)
    return oracles.clip_min(oracles.sqrt(sq), nm.NORM_EPS)


def _cosine_rows_chain(a, b):
    ahat = nm.div(a, _row_norm_chain(a))
    bhat = nm.div(b, _row_norm_chain(b))
    return nm.clip(nm.matmul(ahat, oracles.transpose(bhat)), -1.0, 1.0)


def _value_and_grads(build, arrays):
    """Value of ``build(leaves)`` and every leaf's gradient of a fixed random
    weighting of it."""
    leaves = [nm.parameter(a) for a in arrays]
    out, loss = build(leaves)
    nm.backward(loss)
    return out.array, [leaf.grad for leaf in leaves]


def _weighted(out, seed):
    weights = np.random.default_rng(seed).standard_normal(out.shape)
    return out, nm.reduce_sum(oracles.mul(out, weights))


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

    def test_cosine_rows_of_one_matrix_equals_a_copy(self, monkeypatch):
        """``cosine_rows(x, x)`` has the values of ``cosine_rows(x, x.copy())``
        and adds into ``x`` the copy case's gradient contributions, the first
        input's, then the second's, each byte-equal and in the same order."""
        added = []
        accumulate = nm.Node.accumulate

        def recording(node, g):
            added.append((node, np.array(g)))
            accumulate(node, g)

        monkeypatch.setattr(nm.Node, "accumulate", recording)
        rng = np.random.default_rng(37)
        for trial in range(10):
            m, k = (int(d) for d in rng.integers(1, 7, size=2))
            x = rng.standard_normal((m, k))
            results = []
            for leaves in ([nm.parameter(x)] * 2, [nm.parameter(x), nm.parameter(x.copy())]):
                added.clear()
                out, loss = _weighted(nm.cosine_rows(*leaves), trial)
                nm.backward(loss)
                results.append((out.array.tobytes(), [
                    g.tobytes() for node, g in added if any(node is leaf for leaf in leaves)]))
            assert len(results[1][1]) == 6  # three per input
            assert results[0] == results[1]

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
                other = oracles.mul(h, nm.exp(h))  # second and third consumers of h
                self_sims = cos(ls[0], ls[0])
                loss = nm.add(nm.add(_weighted(sims, trial)[1], _weighted(other, trial + 1)[1]),
                              _weighted(self_sims, trial + 2)[1])
                return sims, nm.add(loss, nm.reduce_sum(oracles.mul(ls[0], ls[0])))

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
                out = nm.linear(ls[0], ls[1], ls[2], relu=relu)
                return nm.reduce_sum(oracles.mul(out, weights))

            assert oracles.gradcheck(build, inputs) < 1e-4, f"trial {trial}"

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
                return nm.reduce_sum(oracles.mul(sims, weights))

            assert oracles.gradcheck(build, inputs) < 1e-4, f"trial {trial}"

    def test_linear_shape_checked(self):
        with pytest.raises(ShapeError):
            nm.linear(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ShapeError):
            nm.linear(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros(3))


class TestDerivedArrays:
    """A frozen array keeps what ``Node.derived`` makes from it until
    ``Node.set`` replaces it: ``linear``'s weight transpose and
    ``cosine_rows``'s norms and unit-row transpose of its second input."""

    @staticmethod
    def arrays(seed):
        rng = np.random.default_rng(seed)
        # a positive bias keeps every row of the ReLU output away from zero
        return (rng.standard_normal((4, 5)), rng.standard_normal((3, 5)),
                rng.random(3) + 2.0, rng.standard_normal((6, 3)))

    @staticmethod
    def value_and_grads(x, w, b, mem) -> list[bytes]:
        out = nm.cosine_rows(nm.linear(x, w, b, relu=True), mem)
        nm.zero_grads([x, w, b, mem])
        nm.backward(_weighted(out, 7)[1])
        return [out.array.tobytes()] + [n.grad.tobytes() for n in (x, w, b, mem)]

    @staticmethod
    def no_grad_value(x, w, b, mem) -> bytes:
        with nm.no_grad():
            return nm.cosine_rows(nm.linear(x, w, b, relu=True), nm.stop_gradient(mem)) \
                .array.tobytes()

    def fresh(self, nodes) -> tuple[list[bytes], bytes]:
        copies = [nm.parameter(n.array) for n in nodes]
        return self.value_and_grads(*copies), self.no_grad_value(*copies)

    def test_made_once_read_only_and_shared_until_set(self):
        x, w, b, mem = (nm.parameter(a) for a in self.arrays(1))
        made = []

        def make(arr):
            made.append(arr)
            return nm._transposed(arr)

        wt = w.derived(make)
        assert w.derived(make) is wt and nm.stop_gradient(w).derived(make) is wt
        with nm.no_grad():
            assert nm.stop_gradient(w).derived(make) is wt
        assert len(made) == 1 and made[0] is w.array
        nm.cosine_rows(nm.linear(x, w, b), mem)
        for arr in (wt, w.derived(nm._transposed), *mem.derived(nm._unit_rows_transposed)):
            assert not arr.flags.writeable and arr.flags.c_contiguous
            with pytest.raises(ValueError):
                arr[0] = 1.0
        w.set(w.array * 2.0)
        assert w.derived(make) is not wt and len(made) == 2 and made[1] is w.array

    def test_after_sgd_step_equal_to_fresh_nodes(self):
        nodes = [nm.parameter(a) for a in self.arrays(2)]
        x, w, b, mem = nodes
        before = self.value_and_grads(*nodes), self.no_grad_value(*nodes)  # fills the caches
        nm.sgd_step([w, b, mem], [w.grad, b.grad, mem.grad], 0.5)
        after = self.value_and_grads(*nodes), self.no_grad_value(*nodes)
        assert after == self.fresh(nodes)
        assert after[0][0] != before[0][0] and after[1] != before[1]  # the step moved the value

    def test_after_set_in_no_grad_equal_to_fresh_nodes(self):
        nodes = [nm.parameter(a) for a in self.arrays(3)]
        self.no_grad_value(*nodes)
        rng = np.random.default_rng(4)
        for n in nodes[1:]:
            n.set(rng.standard_normal(n.shape) + 1.0)
        assert (self.value_and_grads(*nodes), self.no_grad_value(*nodes)) == self.fresh(nodes)

    def test_unfrozen_no_grad_array_changed_in_place_is_not_served_stale(self):
        x_arr, w_arr, b_arr, mem_arr = self.arrays(5)
        with nm.no_grad():
            x, w, b, mem = (nm.as_node(a) for a in (x_arr, w_arr, b_arr, mem_arr))
            assert w.array is w_arr and w_arr.flags.writeable
            first = nm.cosine_rows(nm.linear(x, w, b, relu=True), nm.stop_gradient(mem)).array
            w_arr *= -1.5
            mem_arr[::2] *= -3.0
            second = nm.cosine_rows(nm.linear(x, w, b, relu=True), nm.stop_gradient(mem)).array
        expected = self.no_grad_value(*(nm.parameter(a) for a in (x_arr, w_arr, b_arr, mem_arr)))
        assert second.tobytes() == expected and not np.array_equal(first, second)

    def test_zero_row_of_a_frozen_second_input_raises_every_time(self):
        a, b = nm.parameter(np.ones((2, 3))), nm.parameter([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        for _ in range(2):
            with pytest.raises(DegenerateInputError):
                nm.cosine_rows(a, b)


class TestScalarOperands:
    def test_scalar_is_no_node(self):
        x = nm.parameter(np.array([1.0, -2.0]))
        for out in (nm.div(x, 4.0), oracles.mul(3, x), nm.sub(1.0, x)):
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

    def test_constants_into_one_input_ops_take_no_gradient(self):
        """One-input backward rules do not check their input: ``backward``
        runs a rule only for a node that needs a gradient, which a one-input
        node does exactly when its input does. Each op here takes a constant,
        and the graph reaches a parameter through each op's output."""
        rng = np.random.default_rng(13)
        region = sp.LowFreqRegion.plan(8, 8, 1, 0.375)
        imgs = rng.random((1, 8, 8, 1))
        ops = [
            (nm.exp, rng.standard_normal(3)),
            (lambda c: nm.clip(c, 0.2, 0.8), rng.random(4)),
            (lambda c: oracles.reshape(c, (2, 3)), rng.standard_normal(6)),
            (oracles.transpose, rng.standard_normal((2, 3))),
            (lambda c: nm.getitem(c, [0, 2, 2]), rng.standard_normal(5)),
            (lambda c: nm.reduce_sum(c, axis=1), rng.standard_normal((2, 3))),
            (oracles.reduce_max, rng.standard_normal(4)),
            (lambda c: sp.symmetrize_multiplier(c, region), rng.random(region.flat_size) + 0.5),
            (lambda c: sp.prompted_image_node(c, region, np.fft.fft2(imgs, axes=(1, 2))),
             rng.random((1, region.flat_size)) + 0.5),
        ]
        consts = [nm.as_node(arr) for _, arr in ops]
        outs = [op(c) for (op, _), c in zip(ops, consts)]
        values = np.concatenate([out.array.reshape(-1) for out in outs])
        param = nm.parameter(np.ones(values.size))
        loss, start = None, 0
        for out in outs:
            size = out.array.size
            # each output meets its own slice of the parameter
            term = nm.reduce_sum(oracles.mul(oracles.reshape(out, (size,)),
                                             nm.getitem(param, slice(start, start + size))))
            loss = term if loss is None else nm.add(loss, term)
            start += size
        nm.backward(loss)
        assert all(node._grad is None for node in consts + outs)
        # every slice received exactly its op's output, times one, added to zeros
        assert param.grad.tobytes() == values.tobytes()

    def test_gradients_are_row_major(self):
        """Reductions over a gradient (such as the trainer's clip norm) must
        sum in the same order however the gradient was produced."""
        w = nm.parameter(np.arange(6.0).reshape(2, 3))
        nm.backward(nm.reduce_sum(nm.matmul(nm.as_node(np.ones((4, 3))), oracles.transpose(w))))
        assert w.grad.flags.c_contiguous
        assert np.array_equal(w.grad, np.full((2, 3), 4.0))

    def test_composite_graph_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))

        def build(leaves):
            x, y = leaves
            h = oracles.sigmoid(nm.matmul(x, y))
            g = nm.exp(nm.sub(h, 0.3))
            return nm.reduce_mean(oracles.mul(g, g))

        assert oracles.gradcheck(build, [a, b]) < 1e-4

    def test_chain_rule_composition(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.standard_normal(4)

            def build(leaves):
                inner = nm.exp(oracles.mul(leaves[0], 0.5))   # g(x)
                return nm.reduce_sum(oracles.mul(inner, inner))  # f(g(x))

            leaf = nm.parameter(x)
            nm.backward(build([leaf]))
            expected = 2.0 * np.exp(0.5 * x) * np.exp(0.5 * x) * 0.5
            assert np.max(np.abs(leaf.grad - expected)) < 1e-12


class TestOrthogonalRows:
    def test_one_by_one(self):
        b = nm.orthogonal_rows(1, 1, seed=0)
        assert abs(abs(b[0, 0]) - 1.0) < 1e-12

    def test_two_by_two_rotation(self):
        b = nm.orthogonal_rows(2, 2, seed=1)
        assert abs(b[0] @ b[1]) < 1e-10
        assert abs(np.linalg.norm(b[0]) - 1.0) < 1e-10
        assert abs(np.linalg.norm(b[1]) - 1.0) < 1e-10

    def test_default_size_gram(self):
        b = nm.orthogonal_rows(150, 256, seed=42)
        gram = b @ b.T
        assert np.max(np.abs(gram - np.eye(150))) < 1e-10

    def test_j_greater_than_k_stacks_blocks(self):
        b = nm.orthogonal_rows(5, 3, seed=0)
        assert b.shape == (5, 3)
        assert np.max(np.abs(b[:3] @ b[:3].T - np.eye(3))) < 1e-10
        assert np.max(np.abs(b[3:] @ b[3:].T - np.eye(2))) < 1e-10

    def test_seed_determinism(self):
        a = nm.orthogonal_rows(8, 16, seed=3)
        b = nm.orthogonal_rows(8, 16, seed=3)
        assert np.array_equal(a, b)


class TestMapOrdered:
    """``map_ordered`` returns ``[fn(item) for item in items]``; with several
    shares, share 0 runs on the caller and the others on a pool."""

    @staticmethod
    def fake_cpus(monkeypatch, n: int) -> None:
        monkeypatch.setattr(nm, "_usable_cpus", lambda: n)

    @staticmethod
    def count_thread_starts(monkeypatch) -> list:
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        return started

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("count", [0, 1, 3, 40])
    def test_results_in_item_order(self, monkeypatch, cpus, count):
        self.fake_cpus(monkeypatch, cpus)
        items = [f"item{i}" for i in range(count)]

        def fn(item):
            if item == "item0":
                time.sleep(0.05)  # the caller's first item ends after the pool's
            return item.upper(), threading.get_ident()

        before = threading.active_count()
        results = nm.map_ordered(fn, items)
        assert [name for name, _ in results] == [item.upper() for item in items]
        threads = {ident for _, ident in results}
        assert len(threads) <= min(count, cpus)
        assert threading.active_count() == before

    def test_share_zero_runs_on_the_caller(self, monkeypatch):
        self.fake_cpus(monkeypatch, 4)
        ran = nm.map_ordered(lambda k: threading.get_ident(), range(4))
        assert ran[0] == threading.get_ident()
        assert threading.get_ident() not in ran[1:]

    def test_items_share_out_round_robin(self, monkeypatch):
        self.fake_cpus(monkeypatch, 3)
        ran = nm.map_ordered(lambda k: threading.get_ident(), range(9))
        assert ran[0::3] == [threading.get_ident()] * 3
        for k in (1, 2):
            assert len(set(ran[k::3])) == 1 and ran[k] != threading.get_ident()

    def test_one_share_runs_inline_without_a_thread(self, monkeypatch):
        started = self.count_thread_starts(monkeypatch)
        caller = threading.get_ident()
        self.fake_cpus(monkeypatch, 4)
        assert nm.map_ordered(lambda k: (k, threading.get_ident()), [7]) == [(7, caller)]
        assert nm.map_ordered(lambda k: threading.get_ident(), range(5),
                              threaded=False) == [caller] * 5
        self.fake_cpus(monkeypatch, 1)
        assert nm.map_ordered(lambda k: threading.get_ident(), range(5)) == [caller] * 5
        assert not started

    @pytest.mark.parametrize("failing", [0, 2], ids=["caller", "pool"])
    def test_worker_exception_reaches_caller_after_every_share(self, monkeypatch, failing):
        # item 0 runs on the caller and item 2 on the pool; the others are
        # slow, so each failure comes before they end
        self.fake_cpus(monkeypatch, 4)
        finished = []

        def work(k):
            if k == failing:
                raise ValueError(f"item {k} failed")
            time.sleep(0.05)
            finished.append(k)

        before = threading.active_count()
        with pytest.raises(ValueError, match=f"item {failing} failed"):
            nm.map_ordered(work, range(4))
        assert sorted(finished) == sorted({0, 1, 2, 3} - {failing})
        assert threading.active_count() == before

    def test_no_grad_and_errstate_hold_in_pool_shares(self, monkeypatch):
        self.fake_cpus(monkeypatch, 3)

        def fn(k):
            time.sleep(0.01)
            return threading.get_ident(), nm.grad_enabled(), np.geterr()

        with nm.no_grad(), np.errstate(over="raise", divide="ignore", invalid="warn",
                                       under="raise"):
            expected = np.geterr()
            seen = nm.map_ordered(fn, range(6))
        assert len({ident for ident, _, _ in seen}) == 3
        assert all(not enabled and err == expected for _, enabled, err in seen)
        assert nm.grad_enabled()
        assert nm.map_ordered(lambda k: nm.grad_enabled(), range(6)) == [True] * 6

    @pytest.mark.skipif(apex._openblas() is None, reason="NumPy's bundled OpenBLAS not found")
    def test_pool_shares_and_qr_see_a_single_blas_thread(self, monkeypatch):
        # ``import apex`` set the count; nothing sets it again
        self.fake_cpus(monkeypatch, 3)
        get, _ = apex._openblas()
        qr, seen = np.linalg.qr, []

        def recording(g):
            seen.append(get())
            return qr(g)

        monkeypatch.setattr(np.linalg, "qr", recording)
        shares = nm.map_ordered(lambda k: (threading.get_ident(), get()), range(6))
        assert len({ident for ident, _ in shares}) > 1  # pool shares ran
        assert {count for _, count in shares} == {1}
        nm.orthogonal_rows(5, 3, seed=0)
        assert seen == [1, 1] and get() == 1


class TestSgd:
    def test_zero_rate_is_identity(self):
        p = nm.parameter([1.0, 2.0])
        nm.sgd_step([p], [np.array([5.0, -5.0])], 0.0)
        assert list(p.array) == [1.0, 2.0]

    def test_basic_arithmetic(self):
        p = nm.parameter([1.0])
        nm.sgd_step([p], [np.array([2.0])], 0.5)
        assert p.array[0] == 0.0

    def test_updates_every_node_in_place(self):
        p, q = nm.parameter([1.0]), nm.parameter([[2.0, 4.0]])
        nodes = [p, q]
        nm.sgd_step(nodes, [np.array([1.0]), np.array([[1.0, -1.0]])], 1.0)
        assert nodes[0] is p and nodes[1] is q
        assert list(p.array) == [0.0] and q.array.tolist() == [[1.0, 5.0]]
        assert not q.array.flags.writeable

    def test_quadratic_decay(self):
        p = nm.parameter([1.0])
        for _ in range(10):
            nm.sgd_step([p], [p.array.copy()], 0.1)  # gradient of p^2/2 is p
        assert abs(p.array[0] - 0.9 ** 10) < 1e-12

    def test_nonfinite_gradient_rejected(self):
        bad = np.array([np.inf])
        with pytest.raises(TrainingDivergedError):
            nm.sgd_step([nm.parameter([1.0])], [bad], 0.1)

    def test_nonfinite_gradient_rejected_at_zero_rate(self):
        """Only the updated value is checked; 0 * inf is NaN, so an infinite
        gradient still raises when the step does not move the parameter."""
        with pytest.raises(TrainingDivergedError):
            nm.sgd_step([nm.parameter([1.0])], [np.array([np.inf])], 0.0)
        with pytest.raises(TrainingDivergedError):
            nm.sgd_step([nm.parameter([1.0])], [np.array([np.nan])], 0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nm.sgd_step([nm.parameter([1.0, 2.0])], [np.array([1.0])], 0.1)
        with pytest.raises(ShapeError):
            nm.sgd_step([nm.parameter([1.0])], [], 0.1)


def _random_shape(rng):
    return tuple(int(s) for s in rng.integers(2, 5, size=int(rng.integers(1, 3))))


OP_CASES = {
    "add": lambda ls: nm.add(ls[0], ls[1]),
    "sub": lambda ls: nm.sub(ls[0], ls[1]),
    "mul": lambda ls: oracles.mul(ls[0], ls[1]),
    "div": lambda ls: nm.div(ls[0], ls[1]),
    "exp": lambda ls: nm.exp(ls[0]),
    "log": lambda ls: nm.log(ls[0]),
    "sqrt": lambda ls: oracles.sqrt(ls[0]),
    "sigmoid": lambda ls: oracles.sigmoid(ls[0]),
    "relu": lambda ls: oracles.relu(ls[0]),
    "sum": lambda ls: nm.reduce_sum(ls[0]),
    "mean": lambda ls: nm.reduce_mean(ls[0]),
    "max": lambda ls: oracles.reduce_max(ls[0]),
    "reshape": lambda ls: oracles.reshape(ls[0], (-1,)),
    "matmul": lambda ls: nm.matmul(ls[0], ls[1]),
    "transpose": lambda ls: oracles.transpose(ls[0]),
    "getitem": lambda ls: nm.getitem(ls[0], 0),
    "cosine": lambda ls: oracles.cosine_similarity(ls[0], ls[1]),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_gradients_match_finite_differences(name):
    """Central-difference oracle, >= 100 randomized cases per op, seeded per
    op name alike in every process (``hash`` of a str is not)."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
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
            return nm.reduce_sum(oracles.mul(out, out)) if out.array.ndim else out

        assert oracles.gradcheck(build, inputs) < 1e-4, f"{name} trial {trial}"


def test_scale_invariance_pow2_bit_exact():
    rng = np.random.default_rng(21)
    u, v = rng.standard_normal(8), rng.standard_normal(8)
    base = oracles.cosine_similarity(nm.as_node(u), nm.as_node(v)).item()
    for c in (2.0, 0.25, 1024.0):
        scaled = oracles.cosine_similarity(nm.as_node(c * u), nm.as_node(v)).item()
        assert scaled == base

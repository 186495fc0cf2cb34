"""Autodiff core: every op's gradient against central differences, tape
mechanics, parameter store contracts, and initializer ranges."""

import weakref

import numpy as np
import pytest

from decaprop.errors import ConfigError, ContractError
from decaprop.numerics import (Dense, ParamStore, Tape, Tensor, _acc, _record, add, backward,
                               concat, gather_rows, glorot, grad_check, log_softmax,
                               matmul, mul, narrow, pick,
                               relu, reshape, sigmoid, softmax, sub, sum_, tanh,
                               transpose_last)


def check_op(build, shapes, seed=0, scale=0.8, tol=1e-6):
    """Register random inputs as parameters and finite-difference the op."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    xs = [store.register(f"x{i}", scale * rng.normal(size=s)) for i, s in enumerate(shapes)]
    err = grad_check(lambda: build(*xs), store)
    assert err < tol, f"max rel err {err:.3e}"


# ---------------------------------------------------------------------------
# elementwise and arithmetic


def test_add_broadcast_grad():
    check_op(lambda a, b: sum_(mul(add(a, b), add(a, b))), [(3, 4), (4,)])


def test_sub_grad():
    check_op(lambda a, b: sum_(mul(sub(a, b), sub(a, b))), [(2, 3), (2, 3)])


def test_mul_broadcast_grad():
    check_op(lambda a, b: sum_(mul(a, b)), [(2, 3, 4), (1, 3, 1)])


def test_relu_grad_away_from_kink():
    check_op(lambda a: sum_(mul(relu(a), relu(a))), [(4, 5)], scale=1.0)


def test_relu_values():
    x = Tensor([[-1.0, 0.0, 2.0]])
    np.testing.assert_allclose(relu(x).data, [[0.0, 0.0, 2.0]])


def test_sigmoid_tanh_exp_log_grads():
    check_op(lambda a: sum_(sigmoid(a)), [(3, 4)])
    check_op(lambda a: sum_(tanh(a)), [(3, 4)])


def test_sigmoid_extreme_inputs_finite():
    x = Tensor([[-800.0, 800.0]])
    y = sigmoid(x)
    assert np.all(np.isfinite(y.data))
    np.testing.assert_allclose(y.data, [[0.0, 1.0]], atol=1e-300)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_2d_grad():
    check_op(lambda a, b: sum_(matmul(a, b)), [(3, 4), (4, 5)])


def test_matmul_batched_grad():
    check_op(lambda a, b: sum_(matmul(a, b)), [(2, 3, 4), (2, 4, 5)])


def test_matmul_broadcast_weight_grad():
    # batched activations against one shared weight matrix
    check_op(lambda a, b: sum_(matmul(a, b)), [(2, 3, 4), (4, 5)])


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ContractError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


# ---------------------------------------------------------------------------
# softmax family


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.normal(size=(4, 7)))
    y = softmax(x, axis=-1)
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(4), atol=1e-12)


def test_softmax_grad():
    check_op(lambda a, c: sum_(mul(softmax(a, axis=-1), c)), [(3, 5), (3, 5)])


def test_log_softmax_matches_log_of_softmax(rng):
    x = Tensor(rng.normal(size=(3, 6)))
    np.testing.assert_allclose(log_softmax(x, axis=-1).data,
                               np.log(softmax(x, axis=-1).data), atol=1e-12)


def test_log_softmax_grad():
    check_op(lambda a, c: sum_(mul(log_softmax(a, axis=-1), c)), [(3, 5), (3, 5)])


# ---------------------------------------------------------------------------
# shape ops


def test_reshape_transpose_grads():
    check_op(lambda a: sum_(mul(reshape(a, (6, 2)), reshape(a, (6, 2)))), [(3, 4)])
    check_op(lambda a, c: sum_(mul(transpose_last(a), c)), [(2, 3, 4), (2, 4, 3)])


def test_concat_narrow_grads():
    check_op(lambda a, b: sum_(mul(concat([a, b], axis=-1), concat([b, a], axis=-1))),
             [(2, 3), (2, 3)])
    check_op(lambda a: sum_(mul(narrow(a, 1, 1, 2), narrow(a, 1, 0, 2))), [(3, 4)])


# ---------------------------------------------------------------------------
# reductions and indexing


def test_sum_mean_axis_grads():
    check_op(lambda a: sum_(mul(sum_(a, axis=1), sum_(a, axis=1))), [(3, 4)])
    check_op(lambda a: sum_(sum_(a, axis=1, keepdims=True)), [(2, 3)])


def test_gather_rows_grad():
    idx = np.array([2, 0, 2])

    def f(table):
        return sum_(mul(gather_rows(table, idx), gather_rows(table, idx)))

    check_op(f, [(4, 3)])


def test_gather_rows_accumulates_repeats():
    table = Tensor(np.ones((3, 2)), requires_grad=True)
    with Tape() as tape:
        y = sum_(gather_rows(table, np.array([1, 1, 1])))
    backward(tape, y)
    np.testing.assert_allclose(table.grad, [[0, 0], [3, 3], [0, 0]])


def test_gather_rows_bounds():
    with pytest.raises(ContractError):
        gather_rows(Tensor(np.ones((3, 2))), np.array([3]))


def test_pick_grad():
    idx = np.array([1, 0])

    def f(a):
        return sum_(pick(a, idx))

    check_op(f, [(2, 4)])


# ---------------------------------------------------------------------------
# tape mechanics


def test_no_tape_records_nothing():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = mul(x, x)  # outside any tape
    assert y.grad is None
    with Tape() as tape:
        pass
    assert tape._records == []


def test_tape_replays_once():
    """A second backward would double every intermediate gradient; it is
    refused, and the first pass's gradients stand."""
    x = Tensor(np.full((2, 2), 3.0), requires_grad=True)
    with Tape() as tape:
        loss = sum_(mul(x, x))
    backward(tape, loss)
    with pytest.raises(ContractError, match="already replayed"):
        backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 6.0))


def test_backward_releases_each_record():
    """backward pops each record before it runs: the tape ends empty, and an
    array a late op saved is freed before the earliest record's backward."""
    seen = []

    def probe(a):
        out = Tensor(a.data * 2.0)

        def bw():
            seen.append(saved() is None)
            _acc(a, out.grad * 2.0)

        _record((a,), out, bw)
        return out

    x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
    with Tape() as tape:
        y = sigmoid(probe(x))  # sigmoid's backward keeps its output
        saved = weakref.ref(y.data)
        loss = sum_(y)
    del y
    assert len(tape) == 3
    backward(tape, loss)
    assert len(tape) == 0
    assert seen == [True]
    s = 1.0 / (1.0 + np.exp(-2.0 * np.array([0.5, -1.0])))
    np.testing.assert_allclose(x.grad, 2.0 * s * (1.0 - s), rtol=1e-15)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(ContractError):
        backward(tape, y)


@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (1, 1, 1)])
def test_item_of_any_single_element_tensor(shape):
    assert Tensor(np.full(shape, 2.5)).item() == 2.5
    with pytest.raises(ContractError, match="single-element"):
        Tensor(np.ones((1, 2))).item()


def test_grad_accumulates_across_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        y = sum_(add(mul(x, x), mul(x, x)))
    backward(tape, y)
    np.testing.assert_allclose(x.grad, [8.0])


def test_constant_inputs_get_no_grad():
    x = Tensor(np.ones((2,)))
    w = Tensor(np.ones((2,)), requires_grad=True)
    with Tape() as tape:
        y = sum_(mul(x, w))
    backward(tape, y)
    assert x.grad is None
    np.testing.assert_allclose(w.grad, [1.0, 1.0])


def test_grad_check_rejects_nondeterministic_forward():
    store = ParamStore()
    store.register("w", np.ones((2,)))
    state = {"n": 0}

    def forward():
        state["n"] += 1
        return sum_(Tensor(np.array(float(state["n"]))))

    with pytest.raises(ContractError):
        grad_check(forward, store)


# ---------------------------------------------------------------------------
# parameter store and dense layer


def test_frozen_parameter_has_no_gradient():
    store = ParamStore()
    frozen = store.register("frozen", np.ones(3), trainable=False)
    w = store.register("w", np.ones(3))
    assert frozen.grad is None and w.grad is None
    store.zero_grads()
    assert frozen.grad is None and w.grad is None
    assert [name for name, _ in store.trainable_items()] == ["w"]


def test_zero_grads_leaves_every_gradient_none():
    """A parameter's gradient follows the rule of every other tensor: the
    first contribution is bound as it is, uncopied, and one no record
    reached stays None; zero_grads sets them all back to None."""
    store = ParamStore()
    w = store.register("w", np.array([1.0, 2.0]))
    unused = store.register("unused", np.ones(2))
    frozen = store.register("frozen", np.ones(2), trainable=False)
    seen = []

    def probe(a):
        out = Tensor(a.data * 3.0)

        def bw():
            g = out.grad * 3.0
            seen.append(g)
            _acc(a, g)

        _record((a,), out, bw)
        return out

    with Tape() as tape:
        loss = sum_(mul(probe(w), frozen))
    backward(tape, loss)
    assert w.grad is seen[0]
    np.testing.assert_array_equal(w.grad, [3.0, 3.0])
    assert unused.grad is None and frozen.grad is None
    store.zero_grads()
    assert all(p.grad is None for _, p in store.items())


def test_grad_check_reads_an_unreached_parameter_as_zero():
    store = ParamStore()
    a = store.register("a", np.array([0.5, -1.0]))
    store.register("unused", np.ones(3))
    assert grad_check(lambda: sum_(mul(a, a)), store) < 1e-8


def test_store_duplicate_name_rejected():
    store = ParamStore()
    store.register("w", np.zeros((2,)))
    with pytest.raises(ContractError):
        store.register("w", np.zeros((2,)))


def test_store_load_values_roundtrip(rng):
    store = ParamStore()
    store.register("a", rng.normal(size=(2, 3)))
    store.register("b", rng.normal(size=(4,)), trainable=False)
    snapshot = {n: np.array(p.data) for n, p in store.items()}
    with store.writable():
        for _, p in store.items():
            p.data += 1.0
    store.load_values(snapshot)
    for n, p in store.items():
        np.testing.assert_allclose(p.data, snapshot[n])


def test_store_load_values_mismatch():
    store = ParamStore()
    store.register("a", np.zeros((2,)))
    with pytest.raises(ContractError):
        store.load_values({"b": np.zeros((2,))})


def test_parameters_are_written_only_through_the_writer(rng):
    """A parameter, or a view of one taken outside the writer, refuses an
    in-place write; ``writable()`` opens them all, nests, and closes them
    again (on an exception too), bumping ``version`` once per outermost
    block."""
    store = ParamStore()
    a = store.register("a", rng.normal(size=(2, 3)))
    b = store.register("b", np.zeros(4), trainable=False)
    view = a.data[0]
    for write in (lambda: a.data.__setitem__(0, 1.0), lambda: b.data.__iadd__(1.0),
                  lambda: view.fill(2.0), lambda: np.multiply(a.data, 2.0, out=a.data),
                  lambda: a.data.reshape(-1).__setitem__(0, 3.0)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert store.version == 0
    with store.writable():
        a.data[0] = 1.0
        with store.writable():
            b.data += 1.0
        b.data += 1.0
    assert store.version == 1
    np.testing.assert_array_equal(a.data[0], 1.0)
    np.testing.assert_array_equal(b.data, 2.0)
    with pytest.raises(RuntimeError):
        with store.writable():
            a.data[1] = 5.0
            raise RuntimeError
    assert store.version == 2 and not a.data.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a.data[1] = 6.0
    with store.writable():
        late = store.register("late", np.ones(2))
        late.data[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        late.data[1] = 0.0


def test_prepared_layouts_are_built_once_per_version(rng):
    store = ParamStore()
    w = store.register("w", rng.normal(size=(3, 2)))
    built = []

    def build(owner):
        built.append(owner)
        return (w.data.T.copy(),)

    owner = object()
    first = store.prepared(owner, build)
    assert store.prepared(owner, build) is first and len(built) == 1
    with pytest.raises(ValueError, match="read-only"):
        first[0][0, 0] = 1.0
    with store.writable():
        w.data[0, 0] = 7.0
        # an open store may still be written, so nothing is kept
        assert store.prepared(owner, build)[0][0, 0] == 7.0
        w.data[0, 0] = 8.0
        assert store.prepared(owner, build)[0][0, 0] == 8.0
    again = store.prepared(owner, build)
    assert again[0][0, 0] == 8.0 and store.prepared(owner, build) is again
    assert len(built) == 4


def test_store_load_values_is_all_or_nothing(rng):
    """A refused load, for a shape or for a dtype that is not a real number
    type, leaves every parameter as it was and the version unmoved."""
    store = ParamStore()
    store.register("a", rng.normal(size=(2,)))
    store.register("b", rng.normal(size=(3,)))
    before = {n: p.data.copy() for n, p in store.items()}
    for bad, match in (({"a": np.ones(2), "b": np.ones(4)}, "shape"),
                       ({"a": np.ones(2), "b": np.array(["x", "y", "z"])}, "dtype"),
                       ({"a": np.ones(2), "b": np.ones(3, dtype=complex)}, "dtype"),
                       ({"a": np.ones(2), "b": np.array([1.0, None, 2.0])}, "dtype")):
        with pytest.raises(ContractError, match=match):
            store.load_values(bad)
        for n, p in store.items():
            np.testing.assert_array_equal(p.data, before[n])
            assert not p.data.flags.writeable
        assert store.version == 0
    store.load_values({"a": np.arange(2), "b": np.ones(3)})
    np.testing.assert_array_equal(store["a"].data, [0.0, 1.0])
    assert store.version == 1


def test_dense_shape_contract_names_layer(rng):
    store = ParamStore()
    layer = Dense(store, "enc.proj", 4, 3, "relu", rng)
    with pytest.raises(ContractError, match="enc.proj"):
        layer(Tensor(np.zeros((2, 5))))


def test_dense_unknown_activation(rng):
    with pytest.raises(ConfigError):
        Dense(ParamStore(), "d", 3, 3, "swish", rng)


def test_glorot_bounds(rng):
    w = glorot(rng, 30, 20)
    limit = np.sqrt(6.0 / 50.0)
    assert w.shape == (30, 20)
    assert np.all(np.abs(w) <= limit)
    assert np.std(w) > 0.1 * limit  # actually spread out, not collapsed

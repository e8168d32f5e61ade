"""Per-op finite-difference checks for the autodiff tape."""

import numpy as np
import pytest

from mova.adapter.network import _attention
from mova.errors import ShapeError
from mova.numerics import FeatureMap, avg_pool_2x, scaled_dot_attention, softmax
from mova.numerics import autodiff as ad
from mova.numerics.gradcheck import finite_diff_check


def check_op(build, *input_shapes, seed=0, tol=1e-6):
    """Verify d(sum(op(inputs) * R))/d(input_i) for every input."""
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(shape) for shape in input_shapes]
    probe_out = build(*[ad.constant(v) for v in values])
    weights = rng.standard_normal(probe_out.shape)

    def scalar(*vals):
        out = build(*[ad.constant(v) for v in vals])
        return float((out.value * weights).sum())

    for i in range(len(values)):
        nodes = [
            ad.variable(v) if j == i else ad.constant(v) for j, v in enumerate(values)
        ]
        out = build(*nodes)
        loss = ad.mean_all(ad.mul(out, ad.constant(weights)))
        ad.backward(loss)
        analytic = nodes[i].grad * out.value.size  # mean_all -> sum rescale

        def fn(block, i=i):
            vals = list(values)
            vals[i] = block
            return scalar(*vals)

        report = finite_diff_check(values[i], fn, analytic, eps=1e-6)
        assert report.max_rel_error < tol, f"input {i}: {report.max_rel_error}"


def test_add_sub_mul():
    check_op(ad.add, (3, 4), (3, 4))
    check_op(ad.sub, (3, 4), (3, 4))
    check_op(ad.mul, (5,), (5,))


def test_scale_and_mul_scalar():
    check_op(lambda a: ad.scale(a, -2.5), (4, 2))
    check_op(ad.mul_scalar, (3, 3), ())


def test_matmul_both_arguments():
    check_op(ad.matmul, (4, 3), (3, 5))
    check_op(ad.matmul, (2, 4, 3), (3, 5))


def test_fused_linear_and_attention():
    check_op(ad.linear, (4, 3), (3, 5), (5,))
    check_op(ad.linear, (2, 4, 3), (3, 5), (5,))
    check_op(lambda x, w: ad.linear(x, w), (2, 4, 3), (3, 5))
    check_op(ad.attention, (4, 3), (6, 3), (6, 2))
    check_op(ad.attention, (2, 4, 3), (2, 6, 3), (2, 6, 2))


def test_batched_mixing_ops():
    # Row 1 of the base is not routed and passes through.
    terms = [[0, 3], [-1, -1], [2, -1], [4, 1]]
    check_op(lambda b, p: ad.scatter_rows(b, p, terms), (4, 2, 3), (5, 2, 3))
    check_op(ad.mul_scalar, (3, 2, 2), (3,))
    check_op(lambda a: ad.gather_vec(a, [2, 0, 2]), (3, 4, 2))
    check_op(lambda a: ad.gather_vec(a, [[4, 1], [0, 0]]), (6,))
    check_op(ad.concat_vec, (2, 4, 3), (1, 4, 3))


@pytest.mark.parametrize("lead", [(), (4,)], ids=["2d", "3d"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
def test_grouped_linear(lead, bias):
    # Three groups of 1, 2 and 3 rows, each with its own weight (and bias).
    rows = [1, 2, 3]

    def build(x, *params):
        ws = params[:3]
        bs = params[3:] if bias else [None] * 3
        return ad.grouped_linear(x, ws, bs, rows)

    shapes = [(6, *lead, 3)] + [(3, 5)] * 3 + ([(5,)] * 3 if bias else [])
    check_op(build, *shapes)
    # Each group's values and gradients are bitwise those of linear on its rows.
    rng = np.random.default_rng(1)
    x = ad.variable(rng.standard_normal(shapes[0]))
    ws = [ad.variable(rng.standard_normal((3, 5))) for _ in rows]
    bs = [ad.variable(rng.standard_normal(5)) if bias else None for _ in rows]
    g = ad.constant(rng.standard_normal((6, *lead, 5)))
    grouped = ad.grouped_linear(x, ws, bs, rows)
    ad.backward(ad.mean_all(ad.mul(grouped, g)))
    segs = [slice(0, 1), slice(1, 3), slice(3, 6)]
    xs = [ad.variable(x.value[seg]) for seg in segs]
    ws1 = [ad.variable(w.value) for w in ws]
    bs1 = [ad.variable(b.value) if bias else None for b in bs]
    ones = [ad.linear(*args) for args in zip(xs, ws1, bs1)]
    ad.backward(ad.mean_all(ad.mul(ad.concat_vec(ad.concat_vec(*ones[:2]), ones[2]), g)))
    for seg, one, xi, w, w1, b, b1 in zip(segs, ones, xs, ws, ws1, bs, bs1):
        assert one.value.tobytes() == grouped.value[seg].tobytes()
        assert xi.grad.tobytes() == x.grad[seg].tobytes()
        assert w1.grad.tobytes() == w.grad.tobytes()
        if bias:
            assert b1.grad.tobytes() == b.grad.tobytes()
    with pytest.raises(ShapeError):
        ad.grouped_linear(x, ws, bs, [1, 2, 2])


def test_structural_ops():
    check_op(ad.transpose, (3, 5))
    check_op(ad.transpose, (2, 3, 5))
    check_op(lambda a: ad.reshape(a, (6, 2)), (3, 4))
    check_op(ad.concat_vec, (4,), (3,))
    check_op(lambda a: ad.gather_vec(a, [4, 1, 1, 0]), (6,))
    check_op(lambda a: ad.pick(a, 2), (5,))
    check_op(lambda a: ad.slice_cols(a, 1, 3), (4, 5))
    check_op(lambda a, b: ad.concat_cols([a, b]), (3, 2), (3, 4))
    check_op(lambda a: ad.slice_cols(a, 1, 3), (2, 4, 5))
    check_op(lambda a, b: ad.concat_cols([a, b]), (2, 3, 2), (2, 3, 4))


def test_reductions():
    check_op(ad.mean_all, (4, 3))
    check_op(ad.mean_rows, (6, 3))
    check_op(lambda x, b: ad.add_bias(x, b), (5, 4), (4,))
    check_op(ad.mean_rows, (2, 6, 3))
    check_op(lambda x, b: ad.add_bias(x, b), (2, 5, 4), (4,))


def test_nonlinearities():
    check_op(ad.tanh, (4, 4))
    check_op(ad.gelu, (4, 4))
    check_op(ad.softmax_vec, (6,))
    check_op(ad.row_softmax, (4, 5))
    check_op(ad.softmax_vec, (2, 3, 5))


def test_layer_norm_all_inputs():
    check_op(ad.layer_norm_rows, (6, 8), (8,), (8,), tol=1e-5)
    check_op(ad.layer_norm_rows, (2, 6, 8), (8,), (8,), tol=1e-5)


def test_avg_pool_rows():
    check_op(lambda x: ad.avg_pool_2x_rows(x, 4, 6), (24, 3))
    check_op(lambda x: ad.avg_pool_2x_rows(x, 4, 6), (2, 24, 3))


def test_softmax_padding_gets_exactly_zero():
    v = np.array([[0.3, -np.inf, 1.7, -np.inf], [-np.inf] * 4])
    p = ad.softmax_vec(ad.constant(v)).value
    assert p[0, [0, 2]].tobytes() == softmax(v[0, [0, 2]]).tobytes()
    assert not p[0, [1, 3]].any() and not p[1].any()


@pytest.mark.parametrize("seed", range(5))
def test_tape_forward_is_bitwise_the_numerics_kernel(seed):
    """The validated numerics functions and the tape ops run one kernel each."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(7) * 10
    assert softmax(v).tobytes() == ad.softmax_vec(ad.constant(v)).value.tobytes()

    # Width 5 makes "/ sqrt(d)" and "* (1 / sqrt(d))" round differently.
    q, k, val = (rng.standard_normal(shape) for shape in ((6, 5), (9, 5), (9, 3)))
    tape = _attention(ad.constant(q), ad.constant(k), ad.constant(val), heads=1)
    assert scaled_dot_attention(q, k, val).tobytes() == tape.value.tobytes()

    f = FeatureMap(rng.standard_normal((3, 8, 6)))
    pooled = ad.avg_pool_2x_rows(ad.constant(f.tokens()), f.height, f.width)
    assert avg_pool_2x(f).tokens().tobytes() == pooled.value.tobytes()


def test_backward_requires_scalar_root():
    x = ad.variable(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        ad.backward(ad.add(x, x))


def test_grad_accumulates_across_backward_calls():
    x = ad.variable(np.array([1.0, 2.0]))
    first = ad.mean_all(ad.mul(x, x))
    ad.backward(first)
    once = x.grad.copy()
    second = ad.mean_all(ad.mul(x, x))
    ad.backward(second)
    assert np.allclose(x.grad, 2 * once)


def test_nodes_keep_only_what_backward_needs():
    c = ad.tanh(ad.constant(np.ones(3)))
    assert c._parents == () and c._vjps == ()
    x = ad.variable(np.array([0.5, -1.0]))
    h = ad.tanh(ad.mul(x, x))
    loss = ad.mean_all(h)
    assert h._parents and loss._parents
    ad.backward(loss)
    for interior in (h, loss):
        assert interior.grad is None and interior._parents == () and interior._vjps == ()
    assert x.grad is not None


def test_constants_receive_no_gradient():
    x = ad.variable(np.ones(3))
    c = ad.constant(np.ones(3))
    loss = ad.mean_all(ad.mul(x, c))
    ad.backward(loss)
    assert x.grad is not None
    assert c.grad is None

import math
import warnings

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

import oracles
from mova.errors import EmptySupportError, NumericError, ShapeError
from mova.numerics import autodiff as ad
from mova.numerics import ops
from mova.numerics.gradcheck import finite_diff_check
from mova.numerics.ops import (
    avg_pool_2x_tokens,
    bilinear_interpolate,
    dot_attention,
    global_avg_pool,
    softmax,
)
from mova.numerics.tensor import FeatureMap


def naive_matmul(a, b):
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for r in range(m):
        for s in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[r, t] * b[t, s]
            out[r, s] = acc
    return out


def matmul(a, b):
    """The forward value of the tape's linear op, the one matmul every layer runs."""
    return ad.linear(ad.constant(a), ad.constant(b)).value


class TestMatmul:
    def test_identity(self, rng):
        a = rng.standard_normal((3, 3))
        assert np.array_equal(matmul(np.eye(3), a), a)

    def test_annihilator(self, rng):
        a = rng.standard_normal((4, 3))
        assert np.array_equal(matmul(a, np.zeros((3, 2))), np.zeros((4, 2)))

    def test_matches_naive_triple_loop(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        assert np.max(np.abs(matmul(a, b) - naive_matmul(a, b))) < 1e-12

    def test_naive_agreement_100_cases(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            m, k, n = rng.integers(1, 9, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            assert np.max(np.abs(matmul(a, b) - naive_matmul(a, b))) < 1e-12

    def test_shape_error_names_both_operands(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            matmul(np.zeros((3, 4)), np.zeros((3, 2)))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_log_counts(self):
        out = softmax(np.log([1.0, 2.0, 3.0]))
        assert np.max(np.abs(out - np.array([1, 2, 3]) / 6)) < 1e-12

    def test_masked_entries_are_exactly_zero(self, rng):
        v = rng.standard_normal(6)
        mask = np.array([True, False, True, False, False, True])
        out = softmax(v, mask)
        assert np.all(out[~mask] == 0.0)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.array_equal(out[mask], softmax(v[mask]))

    def test_all_false_mask(self):
        with pytest.raises(EmptySupportError):
            softmax(np.ones(3), np.zeros(3, dtype=bool))

    def test_extreme_values_stable(self):
        out = softmax(np.array([1e4, 0.0, -1e4]))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_stable_softmax_leaves_input_unless_out_is_given(self, rng):
        x = rng.standard_normal((3, 5, 7)) * 4.0
        before = x.copy()
        expected = ops.stable_softmax(x)
        assert x.tobytes() == before.tobytes()
        got = ops.stable_softmax(x, out=x)
        assert got is x
        assert got.tobytes() == expected.tobytes()

    def test_dot_attention_leaves_its_inputs_unchanged(self, rng):
        q, k, v = (rng.standard_normal((2, n, 4)) for n in (3, 5, 5))
        before = [t.copy() for t in (q, k, v)]
        out, p = ops.dot_attention(q, k, v)
        for t, b in zip((q, k, v), before):
            assert t.tobytes() == b.tobytes()
        scores = q @ np.swapaxes(k, -1, -2) * (1.0 / np.sqrt(4))
        assert p.tobytes() == ops.stable_softmax(scores).tobytes()
        assert out.tobytes() == (p @ v).tobytes()


class TestErf:
    EDGES = [
        0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, np.nextafter(1.0, 2.0),
        np.nextafter(-1.0, -2.0), 8.0, -8.0, np.nextafter(8.0, 0.0), 26.6, -26.7, 27.0,
        1e300, -1e300, 5e-324, -5e-324, 1e-300,
    ]

    def test_bitwise_equal_to_scipy_without_warnings(self, rng):
        draws = [rng.standard_normal((40, 5000)) * s for s in (0.3, 1.0, 3.0, 30.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (*draws, draws[1][:, ::3].T, np.array(self.EDGES), np.float64(-2.5)):
                got = ops.erf(x)
                assert got.shape == x.shape
                assert np.array_equal(got.view(np.int64), scipy_erf(x).view(np.int64))

    def test_libm_exp_path_is_pinned(self):
        # Inputs whose exp(-x^2) numpy's contiguous (SIMD) exp rounds differently
        # from libm; without such a SIMD path every draw is used.
        a = np.random.default_rng(3).uniform(1.0, 8.0, 20000)
        x = np.where(np.arange(a.size) % 2, a, -a)
        libm = np.array([math.exp(t) for t in (-x * x).tolist()])
        differs = x[np.exp(-x * x) != libm]
        x = differs if differs.size else x
        cause = (
            "ops.erf differs from scipy where numpy's contiguous exp differs from libm: "
            "numpy's exp on a negative-stride view no longer calls libm's exp"
        )
        strided = np.repeat(x, 2)[::2]
        assert not strided.flags.c_contiguous
        for got, arg in ((ops.erf(x), x), (ops.erf(strided), strided)):
            assert got.view(np.int64).tolist() == scipy_erf(arg).view(np.int64).tolist(), cause
        for t in x[:64]:
            got = ops.erf(np.float64(t))
            assert got.shape == ()
            assert got.view(np.int64) == scipy_erf(t).view(np.int64), cause


class TestBilinearInterpolate:
    def test_same_size_is_bitwise_copy(self, rng):
        f = FeatureMap(rng.standard_normal((4, 5, 7)))
        out = bilinear_interpolate(f, 5, 7)
        assert out.data.tobytes() == f.data.tobytes()

    def test_constant_map_stays_constant(self):
        f = FeatureMap(np.full((2, 3, 4), 0.1))
        out = bilinear_interpolate(f, 7, 5)
        assert np.all(out.data == 0.1)

    def test_2x2_to_3x3_closed_form(self):
        f = FeatureMap(np.array([[[0.0, 1.0], [2.0, 3.0]]]))
        out = bilinear_interpolate(f, 3, 3)
        expected = np.array([[[0.0, 0.5, 1.0], [1.0, 1.5, 2.0], [2.0, 2.5, 3.0]]])
        assert np.array_equal(out.data, expected)
        assert np.array_equal(out.data, oracles.bilinear_resize(f.data, 3, 3))

    def test_matches_oracle_on_random_resizes(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            c, h, w = rng.integers(1, 5), rng.integers(1, 7), rng.integers(1, 7)
            f = FeatureMap(rng.standard_normal((c, h, w)))
            oh, ow = rng.integers(1, 9), rng.integers(1, 9)
            out = bilinear_interpolate(f, oh, ow)
            assert np.max(np.abs(out.data - oracles.bilinear_resize(f.data, oh, ow))) < 1e-12

    def test_stays_within_local_bounds(self, rng):
        f = FeatureMap(rng.standard_normal((2, 4, 6)))
        out = bilinear_interpolate(f, 9, 5)
        assert out.data.min() >= f.data.min() - 1e-12
        assert out.data.max() <= f.data.max() + 1e-12

    def test_rejects_bad_extents(self, rng):
        f = FeatureMap(rng.standard_normal((1, 2, 2)))
        with pytest.raises(ShapeError):
            bilinear_interpolate(f, 0, 3)


class TestPooling:
    def test_global_pool_constant(self):
        f = FeatureMap(np.full((3, 4, 4), 7.0))
        assert np.array_equal(global_avg_pool(f), np.full(3, 7.0))

    def test_global_pool_small_case(self):
        f = FeatureMap(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert np.array_equal(global_avg_pool(f), [2.5])

    def test_global_pool_matches_naive_sum(self, rng):
        f = FeatureMap(rng.standard_normal((8, 5, 5)))
        naive = np.zeros(8)
        for c in range(8):
            acc = 0.0
            for y in range(5):
                for x in range(5):
                    acc += f.data[c, y, x]
            naive[c] = acc / 25
        assert np.max(np.abs(global_avg_pool(f) - naive)) < 1e-12

    def test_avg_pool_2x_constant(self):
        out = avg_pool_2x_tokens(np.full((6 * 4, 2), -1.5), 6, 4)
        assert out.shape == (3 * 2, 2)
        assert np.all(out == -1.5)

    def test_avg_pool_2x_single_block(self):
        f = FeatureMap(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert np.array_equal(avg_pool_2x_tokens(f.tokens(), 2, 2), [[2.5]])

    def test_avg_pool_2x_matches_naive_block_mean(self, rng):
        f = FeatureMap(rng.standard_normal((3, 16, 16)))
        out = avg_pool_2x_tokens(f.tokens(), 16, 16)  # row-major (8*8, 3) tokens
        for c in range(3):
            for y in range(8):
                for x in range(8):
                    block = f.data[c, 2 * y : 2 * y + 2, 2 * x : 2 * x + 2]
                    assert abs(out[y * 8 + x, c] - block.mean()) < 1e-12

    def test_avg_pool_2x_rejects_odd_extents(self, rng):
        with pytest.raises(ShapeError):
            avg_pool_2x_tokens(FeatureMap(rng.standard_normal((1, 3, 4))).tokens(), 3, 4)


class TestScaledDotAttention:
    def test_single_kv_row_dominates(self, rng):
        q = rng.standard_normal((4, 6))
        k = rng.standard_normal((1, 6))
        v = rng.standard_normal((1, 6))
        out = dot_attention(q, k, v)[0]
        assert np.allclose(out, np.tile(v, (4, 1)), atol=1e-15)

    def test_zero_query_averages_values(self, rng):
        k = rng.standard_normal((5, 3))
        v = rng.standard_normal((5, 3))
        out = dot_attention(np.zeros((2, 3)), k, v)[0]
        assert np.max(np.abs(out - v.mean(axis=0))) < 1e-12

    def test_matches_two_step_oracle(self, rng):
        q = rng.standard_normal((4, 6))
        k = rng.standard_normal((5, 6))
        v = rng.standard_normal((5, 6))
        scores = q @ k.T / np.sqrt(6)
        probs = np.stack([softmax(row) for row in scores])
        assert np.max(np.abs(dot_attention(q, k, v)[0] - probs @ v)) < 1e-10


class TestFiniteDiffCheck:
    def test_quadratic(self, rng):
        theta = rng.standard_normal(6)
        before = theta.tobytes()
        report = finite_diff_check(
            theta, lambda t: float((t**2).sum()), 2 * theta, eps=1e-5, op_name="quadratic"
        )
        assert report.max_rel_error < 1e-7
        assert report.count == 6
        assert report.eps == 1e-5
        assert theta.tobytes() == before  # probed in place, restored exactly

    def test_constant_function(self, rng):
        theta = rng.standard_normal((2, 3))
        report = finite_diff_check(theta, lambda t: 4.25, np.zeros((2, 3)))
        assert report.max_rel_error == 0.0

    def test_non_finite_probe_names_index(self):
        theta = np.array([1.0, 2.0])

        def bad(t):
            return float("nan") if t[1] != 2.0 else 1.0

        with pytest.raises(NumericError, match="element 1"):
            finite_diff_check(theta, bad, np.zeros(2))
        assert theta.tolist() == [1.0, 2.0]  # restored although the probe failed

    def test_non_finite_analytic_gradient_names_tensor(self):
        # max(worst, nan) keeps worst, so a NaN gradient must fail before any comparison.
        theta = np.array([1.0, 2.0])
        for grad in (np.full(2, np.nan), np.array([2.0, np.inf])):
            with pytest.raises(NumericError, match="w: non-finite analytic gradient"):
                finite_diff_check(theta, lambda t: float((t**2).sum()), grad, op_name="w")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            finite_diff_check(np.zeros(3), lambda t: 0.0, np.zeros(4))


class TestFeatureMap:
    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            FeatureMap(np.array([[[np.inf]]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            FeatureMap(np.zeros((2, 2)))

    def test_data_is_read_only(self, rng):
        f = FeatureMap(rng.standard_normal((1, 2, 2)))
        with pytest.raises(ValueError):
            f.data[0, 0, 0] = 1.0

    def test_token_roundtrip(self, rng):
        f = FeatureMap(rng.standard_normal((3, 2, 4)))
        back = FeatureMap.from_tokens(f.tokens(), 2, 4)
        assert np.array_equal(back.data, f.data)

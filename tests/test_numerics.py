import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcompose.errors import UsageError
from kvcompose.numerics import SeededRng, argsort_desc, softmax_rows

from conftest import random_matrix, scalar_uniform


def softmax_oracle(m, scale):
    """The out-of-place softmax with a non-finite fix-up that ``softmax_rows``
    replaced; it must agree with the in-place kernel bit for bit."""
    m = np.asarray(m, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        z = m * scale
        mx = np.max(z, axis=1, keepdims=True)
        mx = np.where(np.isfinite(mx), mx, 0.0)
        e = np.exp(z - mx)
    e[~np.isfinite(z)] = 0.0
    denom = e.sum(axis=1, keepdims=True)
    denom[denom == 0.0] = 1.0
    return e / denom


@st.composite
def masked_matrices(draw):
    """Finite matrices with -inf masks, some rows fully masked."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    values = draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols))
    masked = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    m = np.array(values).reshape(rows, cols)
    m[np.array(masked).reshape(rows, cols)] = -np.inf
    m[draw(st.lists(st.integers(0, rows - 1), max_size=rows))] = -np.inf
    return m


class TestSoftmaxRows:
    @settings(deadline=None, max_examples=200)
    @given(masked_matrices(), st.floats(0.01, 4.0))
    def test_bits_match_out_of_place_oracle(self, m, scale):
        before = m.copy()
        out = softmax_rows(m, scale)
        want = softmax_oracle(m, scale)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(m.view(np.uint64), before.view(np.uint64))  # input untouched

    def test_bits_match_oracle_on_causal_attention_scores(self):
        m = random_matrix(5, 48, 48) * 30.0
        m[np.triu(np.ones((48, 48), dtype=bool), k=1)] = -np.inf
        m[7] = -np.inf
        out = softmax_rows(m, scale=0.35)
        assert np.array_equal(out.view(np.uint64), softmax_oracle(m, 0.35).view(np.uint64))
        assert not out[7].any()

    @pytest.mark.parametrize(
        "row, scale",
        [([np.inf, 0.0, 1.0], 1.0), ([1.0, np.nan, 0.0], 1.0), ([1e308, 1e308, 0.0], 2.0)],
        ids=["plus-inf", "nan", "overflow"],
    )
    def test_rejects_nan_and_plus_inf_rows(self, row, scale):
        m = np.array([[0.0, 1.0, 2.0], row])
        with pytest.raises(UsageError, match="NaN"):
            softmax_rows(m, scale)

    def test_symmetric_row(self):
        out = softmax_rows(np.array([[0.0, 0.0]]), scale=1.0)
        assert np.array_equal(out, np.array([[0.5, 0.5]]))

    def test_closed_form_row(self):
        out = softmax_rows(np.array([[math.log(2.0), 0.0]]), scale=1.0)
        assert np.abs(out - np.array([[2 / 3, 1 / 3]])).max() < 1e-12

    def test_matches_exp_sum_oracle(self):
        m = random_matrix(4, 3, 5) * 3.0
        out = softmax_rows(m, scale=0.7)
        expected = np.exp(m * 0.7) / np.exp(m * 0.7).sum(axis=1, keepdims=True)
        assert np.abs(out - expected).max() < 1e-12
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6

    def test_masked_entries_map_to_zero(self):
        out = softmax_rows(np.array([[1.0, -np.inf, 0.0]]), scale=2.0)
        assert out[0, 1] == 0.0
        assert abs(out[0].sum() - 1.0) < 1e-12

    def test_fully_masked_row_is_zero_beside_live_rows(self):
        live = np.array([[1.0, -np.inf, 0.0]])
        out = softmax_rows(np.vstack([np.full((1, 3), -np.inf), live]), scale=2.0)
        assert not out[0].any()
        assert np.array_equal(out[1:], softmax_rows(live, scale=2.0))

    def test_bad_scale(self):
        with pytest.raises(UsageError):
            softmax_rows(np.zeros((1, 2)), scale=0.0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_rows_sum_to_one(self, row):
        out = softmax_rows(np.array([row]), scale=1.0)
        assert abs(out.sum() - 1.0) < 1e-6
        assert (out >= 0).all()

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.floats(0.1, 5.0),
    )
    def test_monotone_per_row(self, row, bump):
        base = softmax_rows(np.array([row]), scale=1.0)
        bumped_row = list(row)
        bumped_row[0] += bump
        bumped = softmax_rows(np.array([bumped_row]), scale=1.0)
        assert bumped[0, 0] >= base[0, 0]


def pair_sort_oracle(v):
    """Selection sort by (value desc, index asc)."""
    order = list(range(len(v)))
    for i in range(len(order)):
        best = i
        for j in range(i + 1, len(order)):
            oi, oj = order[best], order[j]
            if v[oj] > v[oi] or (v[oj] == v[oi] and oj < oi):
                best = j
        order[i], order[best] = order[best], order[i]
    return order


class TestArgsortDesc:
    def test_distinct_values(self):
        assert argsort_desc(np.array([0.2, 0.9, 0.5])).tolist() == [1, 2, 0]

    def test_tie_breaks_to_lowest_index(self):
        assert argsort_desc(np.array([1.0, 1.0, 0.0])).tolist() == [0, 1, 2]

    def test_empty(self):
        assert argsort_desc(np.array([])).tolist() == []

    def test_matches_pair_sort_oracle(self):
        rng = SeededRng(42)
        v = np.floor(rng.uniform_block(64) * 10)  # coarse values force ties
        assert argsort_desc(v).tolist() == pair_sort_oracle(v)

    @given(st.lists(st.floats(-100, 100), max_size=20))
    def test_output_is_permutation_and_sorted(self, values):
        v = np.asarray(values)
        perm = argsort_desc(v)
        assert sorted(perm.tolist()) == list(range(len(values)))
        sorted_vals = v[perm]
        assert all(sorted_vals[i] >= sorted_vals[i + 1] for i in range(len(values) - 1))

    def test_rejects_non_finite(self):
        with pytest.raises(UsageError):
            argsort_desc(np.array([1.0, np.nan]))

    @pytest.mark.parametrize(
        "shape, axis",
        [((5, 9), 1), ((5, 9), -1), ((3, 4, 7), 2)],
        ids=["shape0-1", "shape2--1", "shape3-2"],
    )
    def test_every_slice_matches_vector_call(self, shape, axis):
        # the sort runs along the last axis, named here either way
        rng = SeededRng(43)
        v = np.floor(rng.uniform_block(int(np.prod(shape))) * 4).reshape(shape)  # many ties
        rows = np.moveaxis(v, axis, -1).reshape(-1, shape[axis])
        perms = np.moveaxis(argsort_desc(v), axis, -1).reshape(-1, shape[axis])
        for row, perm in zip(rows, perms):
            assert perm.tolist() == argsort_desc(row).tolist()


class TestSeededRng:
    def test_identical_seed_identical_stream(self):
        a = SeededRng(123)
        b = SeededRng(123)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_different_seeds_differ(self):
        assert SeededRng(1).next_u64() != SeededRng(2).next_u64()

    def test_frozen_first_values(self):
        # golden values pin the update rule itself
        rng = SeededRng(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_vectorized_matches_scalar(self):
        scalar = SeededRng(99)
        vec = SeededRng(99)
        expected = [scalar_uniform(scalar) for _ in range(100)]
        got = vec.uniform_block(100)
        assert np.array_equal(np.asarray(expected), got)
        # streams stay aligned afterwards
        assert scalar.next_u64() == vec.next_u64()

    def test_randint_range_and_determinism(self):
        rng = SeededRng(5)
        values = [rng.randint(10) for _ in range(200)]
        assert all(0 <= v < 10 for v in values)
        rng2 = SeededRng(5)
        assert values == [rng2.randint(10) for _ in range(200)]

    def test_sample_distinct(self):
        rng = SeededRng(8)
        picked = rng.sample(20, 12)
        assert len(set(picked)) == 12
        assert all(0 <= v < 20 for v in picked)
        with pytest.raises(UsageError):
            rng.sample(3, 4)

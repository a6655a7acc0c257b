from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infdiv import (
    BlockMatrix,
    CapExceeded,
    block_diagonalize,
    closed_sum_33,
    closed_sum_34,
    compositions,
    double_bridge_trace,
    dp_grid,
    single_bridge_trace,
    swap_blocks,
    trace_sum_dp,
    trace_sum_enum,
)
from infdiv.sampling import random_tilt_like
from infdiv.tracesum import _advance

# the 4x4 demonstration matrix, scaled to unit spectral radius; its top
# eigenvalue and a handful of sums are frozen from an independent evaluation
DEMO = np.array([
    [0.80, 0.00, 0.01, 0.01],
    [0.00, 0.30, 0.01, -0.20],
    [0.01, 0.01, 0.80, 0.00],
    [0.01, -0.20, 0.00, 0.30],
])
DEMO_TOP = 0.8101408171415954
FROZEN = {
    (0, 3): 1.0136948127363554,
    (1, 2): 0.06877703024446849,
    (2, 2): 0.04196829246664144,
    (3, 2): 0.023554334275791948,
    (3, 3): 0.0146638879096191,
}


@pytest.fixture
def demo():
    return BlockMatrix.from_array(DEMO / DEMO_TOP, 2)


def test_compositions_order_and_count():
    got = list(compositions(2, 2))
    assert got == [(0, 2), (1, 1), (2, 0)]
    assert len(list(compositions(5, 3))) == 21  # C(7,2)


def test_frozen_sums_enum_and_dp(demo):
    for (k, m), want in FROZEN.items():
        npt.assert_allclose(trace_sum_enum(demo, k, m).value, want, rtol=1e-12)
        npt.assert_allclose(trace_sum_dp(demo, k, m).value, want, rtol=1e-9)


def test_zero_zero_is_the_dimension(demo):
    assert trace_sum_enum(demo, 0, 0).value == 4.0
    npt.assert_allclose(trace_sum_dp(demo, 0, 0).value, 4.0, rtol=1e-12)


def test_pure_second_block(demo):
    want = np.trace(np.linalg.matrix_power(demo.b22, 3))
    npt.assert_allclose(trace_sum_enum(demo, 0, 3).value, want, rtol=1e-12)


def test_one_bridge_multiplicity(demo):
    # k=1: each of the m+1 placements contributes the same bridge trace
    want = 3.0 * np.trace(demo.b12 @ demo.b22 @ demo.b21)
    npt.assert_allclose(trace_sum_enum(demo, 1, 2).value, want, rtol=1e-12)


def test_two_two_hand_expansion(tilt_blocks):
    t = tilt_blocks()
    want = 4.0 * np.trace(t.b11 @ t.b12 @ t.b22 @ t.b21) \
        + 2.0 * np.trace(np.linalg.matrix_power(t.b12 @ t.b21, 2))
    npt.assert_allclose(trace_sum_enum(t, 2, 2).value, want, rtol=1e-12)
    npt.assert_allclose(trace_sum_dp(t, 2, 2).value, want, rtol=1e-9)


def test_zero_offdiag_kills_mixed_sums():
    t = BlockMatrix.from_array(np.diag([0.9, 0.5, 0.4, 0.2]), 2)
    assert trace_sum_enum(t, 2, 3).value == 0.0
    npt.assert_allclose(trace_sum_dp(t, 2, 3).value, 0.0, atol=1e-15)


def test_enum_reports_min_term(demo):
    r = trace_sum_enum(demo, 3, 2)
    assert r.algorithm == "enumeration"
    assert r.term_count == 10
    assert r.min_term is not None and r.min_term <= r.value


def test_enum_cap():
    t = BlockMatrix.from_array(np.eye(4) * 0.5, 2)
    with pytest.raises(CapExceeded):
        trace_sum_enum(t, 7, 6)
    trace_sum_enum(t, 6, 6)  # at the cap is fine


def test_dp_cap():
    t = BlockMatrix.from_array(np.eye(4) * 0.5, 2)
    with pytest.raises(CapExceeded):
        trace_sum_dp(t, 201, 200)


@dataclass(frozen=True)
class CoeffTable:
    """Matrix coefficients of (T S)^N as a polynomial in (s1, s2).

    coeff[c] is the n x n coefficient of s1^c s2^(N-c); summing over c
    reproduces T^N (substitute s1 = s2 = 1).
    """

    degree: int
    n1: int
    coeff: np.ndarray  # shape (degree + 1, n, n)


def coeff_table(t: BlockMatrix, degree: int) -> CoeffTable:
    """The full table of (T S)^degree, one _advance per degree: the oracle
    the windowed dp_grid must reproduce bit for bit."""
    coeff = np.eye(t.dim)[None, :, :]
    for _ in range(degree):
        coeff = _advance(coeff, t.full, t.n1)
    return CoeffTable(degree=degree, n1=t.n1, coeff=coeff)


def test_coeff_table_degree_one(tilt_blocks):
    t = tilt_blocks()
    table = coeff_table(t, 1)
    # degree 1 in s1 keeps the first block columns, degree 0 the second
    want1 = np.zeros((4, 4))
    want1[:, :2] = t.full[:, :2]
    want0 = np.zeros((4, 4))
    want0[:, 2:] = t.full[:, 2:]
    npt.assert_allclose(table.coeff[1], want1)
    npt.assert_allclose(table.coeff[0], want0)


def test_coeff_table_sums_to_power(tilt_blocks):
    t = tilt_blocks()
    for n in (1, 2, 3, 5):
        table = coeff_table(t, n)
        npt.assert_allclose(table.coeff.sum(axis=0),
                            np.linalg.matrix_power(t.full, n), atol=1e-12)


def test_coeff_table_pure_offdiag_cross_term():
    b = np.zeros((4, 4))
    b[:2, 2:] = [[1.0, 2.0], [3.0, 4.0]]
    t = BlockMatrix.from_array(b + b.T, 2)
    table = coeff_table(t, 2)
    # (TS)^2 at s1^1 s2^1: both bridge orders contribute
    npt.assert_allclose(np.trace(table.coeff[1]), 2.0 * np.trace(t.b12 @ t.b21))


def test_dp_grid_matches_pointwise(demo):
    g = dp_grid(demo, 6, 6)
    assert g.shape == (7, 7)
    for k in range(7):
        for m in range(7):
            npt.assert_allclose(g[k, m], trace_sum_dp(demo, k, m).value,
                                rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n1, n2, kmax, mmax", [
    (2, 2, 7, 7), (2, 2, 0, 6), (2, 2, 6, 0), (3, 3, 4, 9),
    (4, 4, 6, 3), (1, 3, 8, 2), (3, 1, 0, 7), (3, 1, 5, 5),
])
def test_dp_grid_bit_identical_to_coeff_table(n1, n2, kmax, mmax):
    # the windowed recurrence must keep exactly the bits of the full table
    gen = np.random.default_rng(100 * n1 + 10 * n2 + kmax)
    t = BlockMatrix.from_array(random_tilt_like(gen, n1 + n2), n1)
    g = dp_grid(t, kmax, mmax)
    assert g.shape == (kmax + 1, mmax + 1)
    assert g[0, 0] == n1 + n2
    for k in range(kmax + 1):
        for m in range(mmax + 1):
            if k + m:
                want = np.trace(coeff_table(t, k + m).coeff[k])
                assert np.array_equal(g[k, m], want), (k, m)
                assert trace_sum_dp(t, k, m).value == want


def test_closed_sums_match_direct(tilt_blocks):
    for _ in range(10):
        t = tilt_blocks()
        npt.assert_allclose(closed_sum_33(t), trace_sum_enum(t, 3, 3).value, rtol=1e-10)
        npt.assert_allclose(closed_sum_34(t), trace_sum_enum(t, 3, 4).value, rtol=1e-10)
        npt.assert_allclose(closed_sum_34(swap_blocks(t)),
                            trace_sum_enum(t, 4, 3).value, rtol=1e-10)


def test_single_bridge_closed_form(tilt_blocks):
    _, rot = block_diagonalize(tilt_blocks())
    for k, m in ((0, 0), (2, 3), (4, 1)):
        want = np.trace(np.linalg.matrix_power(rot.b11, k) @ rot.b12
                        @ np.linalg.matrix_power(rot.b22, m) @ rot.b21)
        npt.assert_allclose(single_bridge_trace(rot, k, m), want, rtol=1e-10)


def test_double_bridge_closed_form(tilt_blocks):
    _, rot = block_diagonalize(tilt_blocks())
    for k1, k2, m1, m2 in ((0, 0, 0, 0), (1, 2, 0, 3), (2, 2, 1, 1)):
        want = np.trace(
            np.linalg.matrix_power(rot.b11, k1) @ rot.b12
            @ np.linalg.matrix_power(rot.b22, m1) @ rot.b21
            @ np.linalg.matrix_power(rot.b11, k2) @ rot.b12
            @ np.linalg.matrix_power(rot.b22, m2) @ rot.b21)
        npt.assert_allclose(double_bridge_trace(rot, k1, k2, m1, m2), want,
                            rtol=1e-10, atol=1e-14)


def test_swap_blocks_symmetry(tilt_blocks):
    t = tilt_blocks()
    s = swap_blocks(t)
    for k, m in ((1, 3), (2, 2), (4, 2)):
        npt.assert_allclose(trace_sum_dp(s, m, k).value,
                            trace_sum_dp(t, k, m).value, rtol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 2.0), st.integers(0, 3), st.integers(0, 3))
def test_scaling_covariance(c, k, m):
    gen = np.random.default_rng(77)
    base = BlockMatrix.from_array(
        np.diag([0.9, 0.5, 0.6, 0.3]) + 0.05 * gen.standard_normal((4, 4)), 2)
    x = trace_sum_dp(base, k, m).value
    y = trace_sum_dp(BlockMatrix.from_array(c * base.full, 2), k, m).value
    npt.assert_allclose(y, c ** (k + m) * x, rtol=1e-10)

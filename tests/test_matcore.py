import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infdiv import (
    InfdivError,
    NonFiniteResult,
    NotPositiveDefinite,
    SymMatrix,
    cholesky,
    eigen2,
    eigen_sym,
    inverse_spd,
    is_positive_definite,
    solve_spd,
    symmetrize,
    top_eigenvalue,
)


def test_symmetrize_averages():
    m = np.array([[1.0, 2.0], [4.0, 3.0]])
    npt.assert_allclose(symmetrize(m), [[1.0, 3.0], [3.0, 3.0]])


def test_symmetrize_near_overflow():
    # (M + M^t)/2 overflows here; the halves are added instead
    npt.assert_array_equal(symmetrize([[1.0, 1e308], [1e308, 1.0]]),
                           [[1.0, 1e308], [1e308, 1.0]])
    npt.assert_array_equal(symmetrize([[0.0, 1.5e308], [1e308, 0.0]]),
                           [[0.0, 1.25e308], [1.25e308, 0.0]])
    # a non-finite entry stays non-finite
    s = symmetrize([[np.inf, 1e308], [1e308, 1.0]])
    assert s[0, 0] == np.inf and s[0, 1] == 1e308 and s[1, 1] == 1.0
    lam, v = eigen_sym(np.diag([1e308, 1.0]))
    npt.assert_array_equal(lam, [1e308, 1.0])
    npt.assert_array_equal(v, np.eye(2))
    assert is_positive_definite(np.diag([1e308, 1e300]))
    # finite, but the pivot rule refuses a condition number of 1e308
    assert not is_positive_definite(np.diag([1e308, 1.0]))


def test_symmetrize_keeps_the_bits_of_the_average():
    gen = np.random.default_rng(31)
    tiny = 5e-324  # the smallest subnormal: halving it first would round
    for _ in range(300):
        n = int(gen.integers(1, 9))
        m = gen.standard_normal((n, n)) * 10.0 ** gen.integers(-300, 300, (n, n))
        m[gen.random((n, n)) < 0.3] = tiny * gen.integers(-9, 10)
        npt.assert_array_equal(symmetrize(m), (m + m.T) / 2.0)


def test_sym_matrix_json_round_trip():
    m = SymMatrix.from_array([[2.0, 0.5], [0.5, 1.0]])
    again = SymMatrix.from_json(m.to_json())
    npt.assert_array_equal(again.entries, m.entries)
    assert again.dim == 2


def test_sym_matrix_json_rejects_bad_length():
    with pytest.raises(ValueError):
        SymMatrix.from_json({"dim": 2, "entries": [1.0, 2.0, 3.0]})


# eigen2 conventions on the small worked examples

def test_eigen2_scalar_multiple_of_identity():
    pair = eigen2(np.array([[3.0, 0.0], [0.0, 3.0]]))
    assert pair.lambda1 == pair.lambda2 == 3.0
    npt.assert_array_equal(pair.v1, [1.0, 0.0])
    npt.assert_array_equal(pair.v2, [0.0, 1.0])


def test_eigen2_exchange_matrix():
    pair = eigen2(np.array([[0.0, 1.0], [1.0, 0.0]]))
    npt.assert_allclose(pair.lambda1, 1.0)
    npt.assert_allclose(pair.lambda2, -1.0)
    r = 1.0 / math.sqrt(2.0)
    npt.assert_allclose(pair.v1, [r, r])


def test_eigen2_diagonal_descending_vs_ascending():
    pair = eigen2(np.array([[1.0, 0.0], [0.0, 2.0]]))
    # diagonal with a < c: the convention keeps a rotation, not a reflection
    assert pair.lambda1 == 2.0 and pair.lambda2 == 1.0
    npt.assert_array_equal(pair.v1, [0.0, 1.0])
    npt.assert_array_equal(pair.v2, [-1.0, 0.0])
    assert np.linalg.det(np.column_stack([pair.v1, pair.v2])) > 0


def test_eigen2_equal_offdiag_family_member():
    # off-diagonal gram block of the family matrix at delta == epsilon
    ep = 0.01
    m = np.array([[2 * ep * ep, 0.0], [0.0, 2 * ep * ep]])
    pair = eigen2(m)
    npt.assert_array_equal(pair.v1, [1.0, 0.0])


def test_eigen2_family_gram_block():
    ep, de = 0.01, 0.2
    m = np.array([[2 * ep * ep, ep * (ep - de)], [ep * (ep - de), ep * ep + de * de]])
    pair = eigen2(m)
    assert pair.lambda1 >= 0.0401  # dominated by the delta^2 + epsilon^2 entry
    assert pair.lambda1 >= pair.lambda2 >= 0.0
    v = pair.matrix
    npt.assert_allclose(v @ np.diag([pair.lambda1, pair.lambda2]) @ v.T, m, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3))
@example([1.0, 2.2250738585e-313, 1.0])
@example([0.0, 2.2250738585e-313, 0.0])
def test_eigen2_reconstructs(entries):
    a, b, c = entries
    m = np.array([[a, b], [b, c]])
    pair = eigen2(m)
    scale = max(1.0, np.abs(m).max())
    v = pair.matrix
    recon = v @ np.diag([pair.lambda1, pair.lambda2]) @ v.T
    assert np.abs(recon - m).max() <= 1e-12 * scale
    assert pair.lambda1 >= pair.lambda2
    assert np.abs(v.T @ v - np.eye(2)).max() <= 1e-12


def test_eigen2_huge_offdiag_stays_finite():
    # b*b overflows unless the matrix is scaled before the closed form
    m = np.array([[1.0, 1e200], [1e200, 3.0]])
    pair = eigen2(m)
    v = pair.matrix
    assert np.isfinite(v).all()
    assert np.abs(v.T @ v - np.eye(2)).max() <= 1e-12
    npt.assert_allclose([pair.lambda1, pair.lambda2], [1e200, -1e200])
    recon = v @ np.diag([pair.lambda1, pair.lambda2]) @ v.T
    assert np.abs(recon - m).max() <= 1e-12 * 1e200


def test_eigen_sym_against_numpy(rng):
    for _ in range(40):
        n = int(rng.integers(2, 9))
        m = symmetrize(rng.standard_normal((n, n)))
        lam, v = eigen_sym(m)
        ref = np.linalg.eigvalsh(m)[::-1]
        npt.assert_allclose(lam, ref, atol=1e-10 * max(1.0, np.abs(m).max()))
        npt.assert_allclose(v.T @ v, np.eye(n), atol=1e-12)
        npt.assert_allclose(v.T @ m @ v, np.diag(lam),
                            atol=1e-10 * max(1.0, np.abs(m).max()))


def test_eigen_sym_sorted_and_sign_normalized(rng):
    m = symmetrize(rng.standard_normal((6, 6)))
    lam, v = eigen_sym(m)
    assert all(lam[i] >= lam[i + 1] for i in range(5))
    # largest-magnitude entry of each column is positive
    for j in range(6):
        col = v[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_eigen_sym_handles_tiny_couplings():
    # couplings below the zeroing floor must not stall the sweep
    m = np.diag([3.0, 2.0, 1.0]).astype(float)
    m[0, 1] = m[1, 0] = 1e-40
    lam, _ = eigen_sym(m)
    npt.assert_allclose(lam, [3.0, 2.0, 1.0])


@pytest.mark.parametrize("diag, cols", [
    ([2.0, 2.0], [0, 1]),
    ([0.0, 0.0, 0.0], [0, 1, 2]),
    ([1.0, 3.0, 3.0], [1, 2, 0]),
    ([3.0, 3.0, 1.0], [0, 1, 2]),
    ([5.0, 1.0, 5.0, 1.0], [0, 2, 1, 3]),
])
def test_eigen_sym_ties_keep_index_order(diag, cols):
    lam, v = eigen_sym(np.diag(diag))
    npt.assert_array_equal(lam, sorted(diag, reverse=True))
    npt.assert_array_equal(v, np.eye(len(diag))[:, cols])


def test_eigen_sym_one_by_one():
    lam, v = eigen_sym(np.array([[-7.0]]))
    npt.assert_array_equal(lam, [-7.0])
    npt.assert_array_equal(v, [[1.0]])


def test_eigen_sym_sign_rule_first_index_wins_tie(monkeypatch):
    # columns whose largest magnitude is shared by +x and -x: the entry in
    # the first row decides the sign
    x = 2.0 ** -0.5
    fake = (np.array([-1.0, 1.0]), np.array([[-x, -x], [x, -x]]))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (fake[0].copy(), fake[1].copy()))
    lam, v = eigen_sym(np.eye(2))
    npt.assert_array_equal(lam, [1.0, -1.0])
    npt.assert_array_equal(v, [[x, x], [x, -x]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_typed(bad):
    m = np.eye(3)
    m[0, 1] = m[1, 0] = bad
    assert not is_positive_definite(m)
    with pytest.raises(NotPositiveDefinite):
        cholesky(m)
    with pytest.raises(NotPositiveDefinite):
        inverse_spd(m)
    with pytest.raises(NonFiniteResult):
        eigen_sym(m)
    with pytest.raises(NonFiniteResult):
        top_eigenvalue(m)
    assert issubclass(NonFiniteResult, InfdivError)


def test_top_eigenvalue_is_eigen_sym_first_bitwise(rng):
    def same(m):
        got, want = top_eigenvalue(m), eigen_sym(m)[0][0]
        return type(got) is type(want) and got.tobytes() == want.tobytes()

    for _ in range(300):
        n = int(rng.integers(1, 11))
        g = rng.standard_normal((n, n))
        assert same(g + g.T)
        assert same(np.diag(rng.standard_normal(n)))
    for diag in ([2.0, 2.0], [0.0, 0.0, 0.0], [1.0, 3.0, 3.0], [3.0, 3.0, 1.0],
                 [5.0, 1.0, 5.0, 1.0], [-1.0, -1.0]):
        assert same(np.diag(diag))
    assert same(np.ones((4, 4)))  # eigenvalue 0 three times, 4 once


def test_trace_overflow_keeps_pivot_rule():
    # the diagonal sums past the float maximum; the factor is finite and
    # well conditioned, so the matrix is positive definite
    m = np.array([[1e308, 5e307], [5e307, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_positive_definite(m)
        L = cholesky(m)
    npt.assert_allclose(L @ L.T, m, rtol=1e-15)
    assert not is_positive_definite(np.diag([1e308, 1.0]))
    assert not is_positive_definite(np.diag([-1e308, -1e308]))


def test_cholesky_known_factor():
    m = np.array([[4.0, 2.0], [2.0, 5.0]])
    L = cholesky(m)
    npt.assert_allclose(L, [[2.0, 0.0], [1.0, 2.0]])


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_is_positive_definite_boundary():
    assert is_positive_definite(np.eye(3))
    assert not is_positive_definite(np.zeros((2, 2)))
    assert not is_positive_definite(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_solve_and_inverse(covariances):
    m = covariances(5)
    rhs = np.arange(5.0)
    x = solve_spd(m, rhs)
    npt.assert_allclose(m @ x, rhs, atol=1e-9)
    inv = inverse_spd(m)
    npt.assert_allclose(inv, inv.T)
    npt.assert_allclose(m @ inv, np.eye(5), atol=1e-9)

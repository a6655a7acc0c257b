import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infdiv import (
    NotPositiveDefinite,
    SymMatrix,
    cholesky,
    eigen2,
    eigen_sym,
    inverse_spd,
    is_positive_definite,
    solve_spd,
    symmetrize,
)


def test_symmetrize_averages():
    m = np.array([[1.0, 2.0], [4.0, 3.0]])
    npt.assert_allclose(symmetrize(m), [[1.0, 3.0], [3.0, 3.0]])


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

import numpy as np
import numpy.testing as npt
import pytest

from infdiv import (
    BlockMatrix,
    CovarianceModel,
    PreconditionViolated,
    ShapeError,
    SignatureMatrix,
    SymMatrix,
    block_diagonalize,
    canonical_rotation,
    construct_nonneg_signature,
    construct_nonpos_offdiag,
    falsify_word_positivity,
    griffiths_bapat_check,
    materialize,
    nonneg_signature_check,
    precision_signature_check,
    scalar_bridge_report,
    shanbhag_check,
    trace_sum_dp,
    word_positivity_check,
)
from infdiv import criteria, matcore
from infdiv.criteria import GB_TOL, quantity_holds
from infdiv.model import DeltaEpsilonFamily


def _model(sigma, n1, a=1.0):
    sigma = np.asarray(sigma, dtype=float)
    return CovarianceModel(SymMatrix.from_array(sigma), n1, sigma.shape[0] - n1, a)


def test_signature_matrix_validates_orthogonality():
    with pytest.raises(ValueError):
        SignatureMatrix(u1=np.array([[1.0, 1.0], [0.0, 1.0]]), u2=np.eye(2))


def test_block_diagonalize(tilt_blocks):
    a = tilt_blocks()
    w, rot = block_diagonalize(a)
    npt.assert_allclose(rot.b11, np.diag(np.diag(rot.b11)), atol=1e-12)
    npt.assert_allclose(rot.b22, np.diag(np.diag(rot.b22)), atol=1e-12)
    assert rot.b11[0, 0] >= rot.b11[1, 1]
    assert rot.b22[0, 0] >= rot.b22[1, 1]
    npt.assert_allclose(w.conjugate(a).full, rot.full, atol=1e-12)


def test_canonical_rotation_invariance(tilt_blocks):
    # the reported quantity must not depend on the incoming basis
    a = tilt_blocks()
    _, _, q0, _ = canonical_rotation(a, "word")
    th = 0.7
    r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    w = SignatureMatrix(u1=r, u2=r.T)
    _, _, q1, _ = canonical_rotation(w.conjugate(a), "word")
    npt.assert_allclose(q0, q1, atol=1e-12)


def test_tie_quantity_is_nonnegative():
    # equal rotated diagonals: the tie search must land on the square
    gen = np.random.default_rng(11)
    for _ in range(25):
        b = 0.3 * gen.standard_normal((2, 2))  # small enough to stay PD
        m = np.zeros((4, 4))
        m[:2, :2] = 2.0 * np.eye(2)
        m[2:, 2:] = np.diag([1.5, 0.7])
        m[:2, 2:] = b
        a = BlockMatrix.from_array(m + m.T - np.diag(np.diag(m)), 2)
        _, _, qv, _ = canonical_rotation(a, "word")
        assert qv >= -1e-14
        _, _, qv, _ = canonical_rotation(a, "offdiag")
        assert qv >= -1e-14


def _tied(gen, tie):
    """Random positive definite 2+2 matrix whose block `tie` is c*I."""
    b = 0.6 * gen.standard_normal((2, 2))
    g = gen.standard_normal((2, 2))
    d = g.T @ g / 2 + 0.25 * np.eye(2)
    need = np.linalg.eigvalsh(b @ np.linalg.inv(d) @ b.T).max()
    m = np.block([[(need * gen.uniform(1.2, 2.0) + 0.05) * np.eye(2), b], [b.T, d]])
    return _tie_block(m, tie)


def _tie_block(m, tie):
    """m has its tied block first; tie 2 swaps the blocks."""
    if tie == 2:
        m = m[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])]
    return BlockMatrix.from_array(m, 2)


def _quantity_of(rot, target):
    """The decisive quantity recomputed on a rotated matrix."""
    j = 0 if target == "word" else 1
    b = rot.b12
    v = matcore.eigen2(b @ b.T).v1
    return v[j] * b[j, j] * (v @ b[:, j])


def _grid_oracle(a, target):
    """The best quantity over 720 equally spaced angles of the tied block's
    rotation, with numpy's eigh for the top eigenvector of B B^t."""
    j = 0 if target == "word" else 1
    _, rot = block_diagonalize(a)
    d1 = np.diag(rot.b11)
    tie1 = abs(d1[0] - d1[1]) <= criteria.TIE_REL * np.abs(d1).max()
    th = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    r = np.stack([np.stack([np.cos(th), -np.sin(th)], -1),
                  np.stack([np.sin(th), np.cos(th)], -1)], -2)
    b = np.swapaxes(r, -1, -2) @ rot.b12 if tie1 else rot.b12 @ r
    v = np.linalg.eigh(b @ np.swapaxes(b, -1, -2))[1][:, :, -1]
    return float((v[:, j] * b[:, j, j] * np.einsum("ti,ti->t", v, b[:, :, j])).max())


def test_tie_closed_form_matches_grid_oracle():
    gen = np.random.default_rng(1986)
    for i in range(200):
        a = _tied(gen, 1 + i % 2)
        s2 = np.abs(a.full).max() ** 2
        for target in ("word", "offdiag"):
            w, rot, qv, _ = canonical_rotation(a, target)
            oracle = _grid_oracle(a, target)
            assert qv >= oracle - 1e-12 * s2
            assert qv <= oracle * (1 + 1e-4)
            npt.assert_allclose(_quantity_of(w.conjugate(a), target), qv, rtol=1e-9)
            npt.assert_allclose(w.conjugate(a).full, rot.full, atol=1e-12 * s2 ** 0.5)


def _assert_tie_witnesses(a):
    scale = np.abs(a.full).max()
    for target in ("word", "offdiag"):
        assert canonical_rotation(a, target).quantity >= 0.0
    w = construct_nonneg_signature(a)
    assert w.conjugate(a).full.min() >= -1e-10 * scale
    w = construct_nonpos_offdiag(a)
    out = w.conjugate(a).full
    assert (out - np.diag(np.diag(out))).max() <= 1e-10 * scale
    for u in (w.u1, w.u2):
        npt.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("tie", [1, 2])
@pytest.mark.parametrize("factor", [1.0, 2.0 ** 500, 2.0 ** -500])
def test_tie_degenerate_inputs(tie, factor):
    c, s = np.cos(0.4), np.sin(0.4)
    offdiag = {
        "scaled-orthogonal": 0.5 * np.array([[c, -s], [s, c]]),  # B B^t = I / 4
        "zero-column-0": np.array([[0.0, 0.4], [0.0, -0.3]]),
        "zero-column-1": np.array([[0.4, 0.0], [-0.3, 0.0]]),
        "zero": np.zeros((2, 2)),
    }
    for second in (np.diag([1.5, 0.7]), 1.2 * np.eye(2)):  # then both tied
        for b in offdiag.values():
            m = np.block([[2.0 * np.eye(2), b], [b.T, second]])
            _assert_tie_witnesses(_tie_block(factor * m, tie))


def test_tie_free_eigenvector_quantity():
    # B B^t = I / 4: the top eigenvector of the rotated B B^t is roundoff, so
    # the quantity is v_j^2 / 4 for whatever v that is, never negative
    c, s = np.cos(0.4), np.sin(0.4)
    b = 0.5 * np.array([[c, -s], [s, c]])
    a = BlockMatrix.from_array(np.block([[2.0 * np.eye(2), b], [b.T, np.diag([1.5, 0.7])]]), 2)
    for target in ("word", "offdiag"):
        j = 0 if target == "word" else 1
        _, rot, qv, pair = canonical_rotation(a, target)
        npt.assert_allclose(qv, pair.v1[j] ** 2 / 4, rtol=1e-12)
        npt.assert_allclose(abs(rot.b12[j, j]), 0.5, rtol=1e-12)
        assert abs(rot.b12[1 - j, j]) <= 1e-15


def test_canonical_rotation_invariance_tied():
    gen = np.random.default_rng(2718)
    for i in range(20):
        a = _tied(gen, 1 + i % 2)
        th1, th2 = gen.uniform(0, 2 * np.pi, 2)
        w = SignatureMatrix(u1=np.array([[np.cos(th1), -np.sin(th1)], [np.sin(th1), np.cos(th1)]]),
                            u2=np.array([[np.cos(th2), np.sin(th2)], [np.sin(th2), -np.cos(th2)]]))
        for target in ("word", "offdiag"):
            q0 = canonical_rotation(a, target).quantity
            q1 = canonical_rotation(w.conjugate(a), target).quantity
            npt.assert_allclose(q0, q1, atol=1e-12)


def test_tie_path_conjugates_at_most_twice(monkeypatch):
    # block_diagonalize once and the closed-form rotation once: an angle
    # search would conjugate once per candidate
    calls = []
    conjugate = SignatureMatrix.conjugate

    def counting(self, a):
        calls.append(1)
        return conjugate(self, a)

    monkeypatch.setattr(SignatureMatrix, "conjugate", counting)
    gen = np.random.default_rng(31)
    for tie in (1, 2):
        a = _tied(gen, tie)
        for target in ("word", "offdiag"):
            calls.clear()
            canonical_rotation(a, target)
            assert len(calls) <= 2


def _scale_cases(gen, count):
    """2+2 covariances: Griffiths-Bapat-true ones, precision-family ones
    (precision criterion true iff delta <= epsilon) and Wishart-like ones."""
    for _ in range(count):
        yield _gb_true_sigma(gen, 4)
        de, ep = gen.uniform(0.1, 0.9, 2)
        yield np.linalg.inv(materialize(DeltaEpsilonFamily("precision", (4.0, 2.5, 3.5, 2.2),
                                                           de, ep)).full)
        g = gen.standard_normal((4, 4))
        yield g.T @ g / 4 + 0.05 * np.eye(4)


def test_decisions_are_scale_invariant(tilt_blocks):
    seen = set()
    for sigma in _scale_cases(np.random.default_rng(4242), 12):
        t = tilt_blocks()
        base = (griffiths_bapat_check(sigma).holds,
                precision_signature_check(_model(sigma, 2)).holds,
                word_positivity_check(t).holds)
        seen.add(base)
        for f in (2.0 ** 300, 2.0 ** -300):
            t_f = BlockMatrix.from_array(f * t.full, 2)
            assert (griffiths_bapat_check(f * sigma).holds,
                    precision_signature_check(_model(f * sigma, 2)).holds,
                    word_positivity_check(t_f).holds) == base
            assert nonneg_signature_check(t_f).holds == base[2]
    for i in range(3):  # each decision is seen both ways
        assert {case[i] for case in seen} == {True, False}


def test_word_check_on_family_boundary():
    diag = (4.0, 2.5, 3.5, 2.2)
    hold = materialize(DeltaEpsilonFamily("tilt", diag, 0.3, 0.5))
    fail = materialize(DeltaEpsilonFamily("tilt", diag, 0.5, 0.3))
    assert nonneg_signature_check(hold).holds
    assert not nonneg_signature_check(fail).holds
    assert word_positivity_check(fail).detail["quantity"] < 0


def test_construct_witness_properties(tilt_blocks):
    built = 0
    while built < 25:
        a = tilt_blocks()
        rep = nonneg_signature_check(a)
        if not rep.holds:
            with pytest.raises(PreconditionViolated):
                construct_nonneg_signature(a)
            continue
        built += 1
        w = rep.witness
        assert isinstance(w, SignatureMatrix)
        out = w.conjugate(a)
        assert out.full.min() >= -1e-10
        for u in (w.u1, w.u2):
            npt.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)


def test_construct_offdiag_witness(tilt_blocks):
    built = 0
    while built < 25:
        a = tilt_blocks()
        w = construct_nonpos_offdiag(a)
        _, _, qv, _ = canonical_rotation(a, "offdiag")
        assert (w is not None) == quantity_holds(qv, a)
        if w is None:
            continue
        built += 1
        out = w.conjugate(a).full
        off = out - np.diag(np.diag(out))
        assert off.max() <= 1e-10
        for u in (w.u1, w.u2):
            npt.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)


def test_conjugation_preserves_sums(tilt_blocks):
    a = tilt_blocks()
    rep = nonneg_signature_check(a)
    if rep.holds:
        rotated = rep.witness.conjugate(a)
        for k, m in ((1, 1), (2, 3), (3, 3)):
            npt.assert_allclose(trace_sum_dp(rotated, k, m).value,
                                trace_sum_dp(a, k, m).value, rtol=1e-9)


def test_falsify_failing_instances(tilt_blocks):
    seen = 0
    tried = 0
    while seen < 4 and tried < 3000:
        tried += 1
        a = tilt_blocks()
        if word_positivity_check(a).holds:
            continue
        seen += 1
        res = falsify_word_positivity(a)
        assert res is not None
        assert res.value < 0.0
        assert res.big_k <= 200
        assert res.k == res.m == 2 * res.big_k + 1
    assert seen == 4


def test_falsify_none_when_holding():
    t = materialize(DeltaEpsilonFamily("tilt", (0.8, 0.3, 0.8, 0.3), 0.01, 0.2))
    assert word_positivity_check(t).holds
    assert falsify_word_positivity(t) is None


def test_griffiths_bapat_two_by_two_always():
    for sigma in (np.array([[2.0, 1.0], [1.0, 2.0]]),
                  np.array([[2.0, -1.0], [-1.0, 2.0]]),
                  np.eye(2)):
        rep = griffiths_bapat_check(sigma)
        assert rep.holds
        assert rep.witness[0] == 1.0


def test_griffiths_bapat_m_matrix_inverse():
    # inverse is an M-matrix: the identity sign vector works
    prec = np.array([[2.0, -0.5, -0.1], [-0.5, 2.0, -0.3], [-0.1, -0.3, 2.0]])
    sigma = np.linalg.inv(prec)
    rep = griffiths_bapat_check(sigma)
    assert rep.holds
    npt.assert_array_equal(rep.witness, [1.0, 1.0, 1.0])
    assert rep.detail["max_offdiag"] <= 1e-12


def test_griffiths_bapat_needs_sign_flip():
    prec = np.array([[2.0, 0.5, -0.1], [0.5, 2.0, 0.3], [-0.1, 0.3, 2.0]])
    sigma = np.linalg.inv(prec)
    rep = griffiths_bapat_check(sigma)
    assert rep.holds
    signs = np.asarray(rep.witness)
    conj = np.outer(signs, signs) * prec
    off = conj - np.diag(np.diag(conj))
    assert off.max() <= 1e-12


def _brute_force_griffiths_bapat(sigma, tol=GB_TOL):
    """Reference: try all 2^(n-1) sign vectors with s_0 = +1 in index order
    (bit i of the index set means s_(i+1) = -1); the first valid one wins.
    The tolerance is relative, tol * max|Sigma^(-1)|."""
    inv = matcore.inverse_spd(sigma)
    n = inv.shape[0]
    tol = tol * np.abs(inv).max()
    off_mask = ~np.eye(n, dtype=bool)
    for idx in range(1 << (n - 1)):
        signs = np.ones(n)
        for i in range(n - 1):
            signs[i + 1] = 1.0 - 2.0 * ((idx >> i) & 1)
        conj = signs[:, None] * signs[None, :] * inv
        if (conj[off_mask] <= tol).all():
            return True, signs, {"max_offdiag": float(conj[off_mask].max())}
    return False, None, {}


def _gb_true_sigma(gen, n):
    """Covariance whose precision is D M D: M diagonally dominant with
    off-diagonals <= 0, about half of them exactly zero so the signed graph
    often splits into several components; D a random sign diagonal."""
    m = -np.abs(gen.standard_normal((n, n))) * (gen.random((n, n)) < 0.5)
    m = np.triu(m, 1)
    m = m + m.T
    np.fill_diagonal(m, np.abs(m).sum(axis=1) + 0.1 + gen.random(n))
    d = np.diag(gen.choice([-1.0, 1.0], n))
    return np.linalg.inv(d @ m @ d)


def _assert_matches_brute_force(sigma):
    rep = griffiths_bapat_check(sigma)
    holds, witness, detail = _brute_force_griffiths_bapat(sigma)
    assert rep.holds == holds
    if holds:
        npt.assert_array_equal(rep.witness, witness)
    else:
        assert rep.witness is None
    assert rep.detail == detail
    return holds


def test_griffiths_bapat_matches_brute_force_when_true():
    gen = np.random.default_rng(1953)
    for _ in range(150):
        assert _assert_matches_brute_force(_gb_true_sigma(gen, int(gen.integers(2, 11))))


def test_griffiths_bapat_matches_brute_force_when_false():
    gen = np.random.default_rng(1984)
    failed = 0
    for _ in range(150):
        n = int(gen.integers(2, 11))
        g = gen.standard_normal((n, n))
        failed += not _assert_matches_brute_force(g.T @ g / n + 0.1 * np.eye(n))
    assert failed >= 100  # dense random precisions are almost never balanced


def test_griffiths_bapat_large_dimension_certifies():
    sigma = _gb_true_sigma(np.random.default_rng(1989), 40)
    rep = griffiths_bapat_check(sigma)
    assert rep.holds
    signs = np.asarray(rep.witness)
    assert signs[0] == 1.0
    conj = np.outer(signs, signs) * np.linalg.inv(sigma)
    assert (conj - np.diag(np.diag(conj))).max() <= GB_TOL


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_griffiths_bapat_non_finite_never_free(monkeypatch, value):
    # identity precision holds; one non-finite pair must make it fail, not go
    # free: an infinite precision entry certifies nothing, whatever its sign
    inv = np.eye(3)
    inv[0, 1] = inv[1, 0] = value
    monkeypatch.setattr(matcore, "inverse_spd", lambda s: inv.copy())
    rep = griffiths_bapat_check(np.eye(3))
    assert not rep.holds
    assert rep.witness is None


def test_griffiths_bapat_no_dimension_cap():
    rep = griffiths_bapat_check(np.eye(21))
    assert rep.holds
    npt.assert_array_equal(rep.witness, np.ones(21))


def test_precision_check_identity_and_family():
    assert precision_signature_check(_model(np.eye(4), 2)).holds
    diag = (4.0, 2.5, 3.5, 2.2)
    for de, ep, expect in ((0.2, 0.4, True), (0.4, 0.2, False)):
        prec = materialize(DeltaEpsilonFamily("precision", diag, de, ep))
        sigma = np.linalg.inv(prec.full)
        rep = precision_signature_check(_model(sigma, 2))
        assert rep.holds == expect
        if expect:
            assert rep.witness is not None


def test_precision_check_requires_two_two():
    with pytest.raises(ShapeError):
        precision_signature_check(_model(np.eye(4), 1))


def test_shanbhag_scalar_block(covariances):
    sigma = covariances(4)
    rep = shanbhag_check(_model(sigma, 1, a=5.0))
    assert rep.holds
    assert rep.detail["min_scalar"] >= -1e-12
    with pytest.raises(ShapeError):
        shanbhag_check(_model(sigma, 2))


def test_scalar_bridge_report_direct(tilt_blocks):
    t4 = tilt_blocks()
    t = BlockMatrix.from_array(t4.full[:3, :3], 1)
    rep = scalar_bridge_report(t)
    assert rep.holds and rep.criterion == "shanbhag"
    with pytest.raises(ShapeError):
        scalar_bridge_report(t4)

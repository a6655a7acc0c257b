import math

import numpy as np
import numpy.testing as npt
import pytest

from infdiv import laplace
from infdiv import (
    CapExceeded,
    CovarianceModel,
    DualPoint,
    SymMatrix,
    auto_nmax,
    cholesky,
    dp_grid,
    eigen_sym,
    laplace_closed,
    laplace_series,
    log_transform_coefficients,
    monte_carlo,
    tilt_matrix,
)


def _model(sigma, n1, a=1.0):
    sigma = np.asarray(sigma, dtype=float)
    return CovarianceModel(SymMatrix.from_array(sigma), n1, sigma.shape[0] - n1, a)


def test_dual_point_domain():
    DualPoint(0.0, 0.999)
    for bad in ((1.0, 0.0), (-0.1, 0.0), (0.0, 2.0)):
        with pytest.raises(ValueError):
            DualPoint(*bad)


def test_closed_identity_covariance():
    # Sigma = I_2, a = 1, s = 0: det(I + I) = 4, P = 1/2
    mdl = _model(np.eye(2), 1)
    npt.assert_allclose(laplace_closed(mdl, DualPoint(0.0, 0.0)), 0.5, rtol=1e-14)


def test_closed_frozen_value():
    mdl = _model([[2.0, 1.0], [1.0, 2.0]], 1)
    got = laplace_closed(mdl, DualPoint(0.3, 0.6))
    npt.assert_allclose(got, 0.4975185951049946, rtol=1e-13)


def test_closed_approaches_one_at_the_corner():
    mdl = _model([[2.0, 1.0], [1.0, 2.0]], 1)
    got = laplace_closed(mdl, DualPoint(1.0 - 1e-12, 1.0 - 1e-12))
    npt.assert_allclose(got, 1.0, atol=1e-10)


def test_closed_monotone_in_s(covariances):
    mdl = _model(covariances(4), 2, a=2.0)
    vals = [laplace_closed(mdl, DualPoint(s, 0.2)) for s in (0.0, 0.3, 0.6, 0.9)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_auto_nmax_tail_control():
    n = auto_nmax(0.9)
    assert 0.9 ** (n + 1) / ((n + 1) * 0.1) < 1e-10
    assert auto_nmax(0.999999) == 10_000  # capped, not runaway


def test_series_matches_closed(covariances):
    mdl = _model(covariances(4), 2, a=3.0)
    for s1, s2 in ((0.0, 0.0), (0.3, 0.7), (0.9, 0.9)):
        p = DualPoint(s1, s2)
        res = laplace_series(mdl, p)
        npt.assert_allclose(res.value, laplace_closed(mdl, p), atol=1e-9)
        assert res.tail_bound < 1e-10
        assert 0.0 <= res.rho < 1.0


def test_series_s_zero_short_series():
    # S = 0 kills every trace term; the series is the a-determinant alone
    mdl = _model(np.eye(3), 1, a=4.0)
    res = laplace_series(mdl, DualPoint(0.0, 0.0), nmax=1)
    npt.assert_allclose(res.value, laplace_closed(mdl, DualPoint(0.0, 0.0)), rtol=1e-12)


def test_series_nmax_cap():
    mdl = _model(np.eye(2), 1)
    with pytest.raises(CapExceeded):
        laplace_series(mdl, DualPoint(0.5, 0.5), nmax=10_001)
    with pytest.raises(ValueError):
        laplace_series(mdl, DualPoint(0.5, 0.5), nmax=-1)


# reference copies of the plain per-term and per-row code; the fast paths in
# laplace must reproduce them bit for bit

def _auto_nmax_loop(rho, tol=1e-10):
    if rho <= 0.0:
        return 1
    n = 1
    while rho ** (n + 1) / ((n + 1) * (1.0 - rho)) >= tol:
        n += 1
        if n >= laplace.NMAX_CAP:
            return laplace.NMAX_CAP
    return n


def _series_loop(model, p, nmax):
    t = tilt_matrix(model)
    rho = eigen_sym(t.full)[0][0] * max(p.s1, p.s2)
    n = model.sigma.dim
    L = cholesky(np.eye(n) + model.a * model.sigma.entries)
    logdet_i_minus_t = -2.0 * math.fsum(math.log(x) for x in np.diag(L))
    svec = np.concatenate([np.full(model.n1, p.s1), np.full(model.n2, p.s2)])
    ts = t.full * svec[None, :]
    terms = []
    power = np.eye(n)
    for i in range(1, nmax + 1):
        power = power @ ts
        terms.append(float(np.trace(power)) / i)
    total = logdet_i_minus_t + math.fsum(terms)
    tail = rho ** (nmax + 1) / ((nmax + 1) * (1.0 - rho)) if rho > 0 else 0.0
    return math.exp(0.5 * total), rho, tail


def _monte_carlo_rows(model, p, samples, seed, shard):
    L = cholesky(model.sigma.entries)
    n1 = model.n1
    c1, c2 = model.a * (1.0 - p.s1), model.a * (1.0 - p.s2)
    counts = [shard] * (samples // shard) + ([samples % shard] if samples % shard else [])
    stats = []
    for child, cnt in zip(np.random.SeedSequence(seed).spawn(len(counts)), counts):
        z = np.random.default_rng(child).standard_normal((cnt, model.sigma.dim))
        x = z @ L.T
        e = np.exp(-0.5 * (c1 * (x[:, :n1] ** 2).sum(axis=1) + c2 * (x[:, n1:] ** 2).sum(axis=1)))
        mean = float(e.mean())
        stats.append((cnt, mean, float(((e - mean) ** 2).sum())))
    while len(stats) > 1:
        stats = [laplace._merge_moments(stats[i], stats[i + 1]) if i + 1 < len(stats)
                 else stats[i] for i in range(0, len(stats), 2)]
    count, mean, m2 = stats[0]
    return mean, math.sqrt(m2 / (count - 1) / count)


@pytest.mark.parametrize("n1", [2, 3, 4])
def test_series_bit_identical_to_loop(covariances, n1):
    mdl = _model(covariances(2 * n1), n1, a=5.0)
    p = DualPoint(0.97, 0.999)
    for nmax in (0, 1, 255, 256, 257, 513, laplace.NMAX_CAP):
        res = laplace_series(mdl, p, nmax=nmax)
        assert (res.value, res.rho, res.tail_bound) == _series_loop(mdl, p, nmax)
        assert res.nmax == nmax


def test_auto_nmax_bit_identical_to_loop():
    rhos = np.concatenate([np.linspace(-0.5, 1.0, 1500, endpoint=False),
                           1.0 - np.logspace(-12, 0, 150, endpoint=False),
                           np.logspace(-300, -1, 100),
                           [0.0, -0.0, 1e-300, 5e-324, 0.999999, 1.5]])
    for tol in (1e-10, 1e-3, 1e-300):
        for rho in rhos:
            assert auto_nmax(float(rho), tol) == _auto_nmax_loop(float(rho), tol), (rho, tol)
    assert auto_nmax(float("nan")) == 1


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 3), (2, 2), (3, 3), (4, 4), (3, 5)])
def test_monte_carlo_bit_identical_to_rows(monkeypatch, covariances, n1, n2):
    mdl = _model(covariances(n1 + n2), n1, a=2.5)
    p = DualPoint(0.3, 0.8)
    for samples, shard in ((1000, 250_000), (9000, 250_000), (23_456, 5000)):
        monkeypatch.setattr(laplace, "MC_SHARD", shard)
        want = _monte_carlo_rows(mdl, p, samples, 17, shard)
        assert monte_carlo(mdl, p, samples=samples, seed=17) == want


def test_monte_carlo_seeded_and_close(covariances):
    mdl = _model(covariances(4), 2, a=1.5)
    p = DualPoint(0.4, 0.2)
    est1, se1 = monte_carlo(mdl, p, samples=120_000, seed=9)
    est2, _ = monte_carlo(mdl, p, samples=120_000, seed=9)
    assert est1 == est2  # bit-reproducible per seed
    assert se1 > 0
    assert abs(est1 - laplace_closed(mdl, p)) < 4 * se1


def test_monte_carlo_rejects_tiny_budget():
    with pytest.raises(ValueError):
        monte_carlo(_model(np.eye(2), 1), DualPoint(0.0, 0.0), samples=10, seed=0)


def test_monte_carlo_rejects_negative_seed():
    with pytest.raises(ValueError):
        monte_carlo(_model(np.eye(2), 1), DualPoint(0.0, 0.0), samples=1000, seed=-1)


def test_log_coefficients_match_dp(covariances):
    mdl = _model(covariances(4), 2, a=1.0)
    t = tilt_matrix(mdl)
    grid = dp_grid(t, 6, 6)
    coeffs = log_transform_coefficients(t, 6, 6)
    for k in range(7):
        for m in range(7):
            if k + m == 0:
                continue
            want = grid[k, m] / (k + m)
            npt.assert_allclose(coeffs[k, m], want, rtol=1e-6,
                                atol=1e-12)


def test_log_coefficients_degree_guard():
    t = tilt_matrix(_model(np.eye(2), 1))
    with pytest.raises(ValueError):
        log_transform_coefficients(t, 64, 0, npts=64)

"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a single PASS line on success so a -v -s run reads as a
checklist. Sampling uses the documented random-matrix scheme with fixed
seeds; every tolerance and cap is the one the package documents.
"""

import math
import time

import numpy as np
import pytest

from infdiv import (
    BlockMatrix,
    CovarianceModel,
    DualPoint,
    SymMatrix,
    block_diagonalize,
    closed_sum_33,
    closed_sum_34,
    construct_nonneg_signature,
    construct_nonpos_offdiag,
    canonical_rotation,
    double_bridge_trace,
    dp_grid,
    falsify_word_positivity,
    griffiths_bapat_check,
    laplace_closed,
    laplace_series,
    log_transform_coefficients,
    materialize,
    monte_carlo,
    nonneg_signature_check,
    precision_signature_check,
    scale_to_unit_spectral_radius,
    shanbhag_check,
    single_bridge_trace,
    swap_blocks,
    tilt_matrix,
    trace_sum_dp,
    trace_sum_enum,
    word_positivity_check,
)
from infdiv.cli import FIGURE_MATRIX
from infdiv.criteria import quantity_holds
from infdiv.model import DeltaEpsilonFamily
from infdiv.sampling import random_covariance, random_tilt_like

FAMILY_DIAG = (4.0, 2.5, 3.5, 2.2)  # stays positive definite over (0,1]^2


def _rel(x, y):
    return abs(x - y) / max(1.0, abs(x), abs(y))


def test_criterion_01_two_evaluators_agree_everywhere():
    t0 = time.monotonic()
    gen = np.random.default_rng(1001)
    worst = 0.0
    cases = [(4, 200), (5, 50)]
    for n, count in cases:
        for _ in range(count):
            t = BlockMatrix.from_array(random_tilt_like(gen, n), 2)
            for k in range(0, 9):
                for m in range(0, 9 - k):
                    a = trace_sum_enum(t, k, m).value
                    b = trace_sum_dp(t, k, m).value
                    worst = max(worst, _rel(a, b))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9, f"worst relative gap {worst}"
    assert elapsed <= 120.0, f"took {elapsed:.1f}s"
    print(f"criterion 1 PASS: enumeration vs dp on 250 matrices, k+m<=8, "
          f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_closed_forms_match_direct_products():
    gen = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(500):
        t = BlockMatrix.from_array(random_tilt_like(gen, 4), 2)
        _, rot = block_diagonalize(t)
        k, m = int(gen.integers(0, 5)), int(gen.integers(0, 5))
        direct = np.trace(np.linalg.matrix_power(rot.b11, k) @ rot.b12
                          @ np.linalg.matrix_power(rot.b22, m) @ rot.b21)
        worst = max(worst, _rel(single_bridge_trace(rot, k, m), direct))
        k1, k2 = int(gen.integers(0, 4)), int(gen.integers(0, 4))
        m1, m2 = int(gen.integers(0, 4)), int(gen.integers(0, 4))
        direct = np.trace(
            np.linalg.matrix_power(rot.b11, k1) @ rot.b12
            @ np.linalg.matrix_power(rot.b22, m1) @ rot.b21
            @ np.linalg.matrix_power(rot.b11, k2) @ rot.b12
            @ np.linalg.matrix_power(rot.b22, m2) @ rot.b21)
        worst = max(worst, _rel(double_bridge_trace(rot, k1, k2, m1, m2), direct))
        worst = max(worst, _rel(closed_sum_33(t), trace_sum_dp(t, 3, 3).value))
        worst = max(worst, _rel(closed_sum_34(t), trace_sum_dp(t, 3, 4).value))
        worst = max(worst, _rel(closed_sum_34(swap_blocks(t)),
                                trace_sum_dp(t, 4, 3).value))
    assert worst <= 1e-9, f"worst relative gap {worst}"
    print(f"criterion 2 PASS: bridge expansions and closed sums on 500 "
          f"instances, worst rel {worst:.2e}")


def test_criterion_03_low_order_sums_never_negative():
    gen = np.random.default_rng(1003)
    floor = 0.0
    for _ in range(1000):
        t = BlockMatrix.from_array(random_tilt_like(gen, 4), 2)
        g = dp_grid(t, 10, 10)
        for k in range(11):
            for m in range(11):
                if k <= 2 or m <= 2 or k + m <= 7:
                    floor = min(floor, float(g[k, m]))
    assert floor >= -1e-10, f"violating cell value {floor}"
    print(f"criterion 3 PASS: guaranteed-nonnegative window over 1000 "
          f"matrices, lowest cell {floor:.2e}")


def test_criterion_04_demo_grid_positive_and_log_bounded():
    t0 = time.monotonic()
    q = scale_to_unit_spectral_radius(BlockMatrix.from_array(FIGURE_MATRIX, 2))
    g = dp_grid(q, 60, 60)
    elapsed = time.monotonic() - t0
    assert g.shape == (61, 61)
    assert (g > 0).all(), f"min cell {g.min()}"
    logs = np.log(g)
    assert np.isfinite(logs).all()
    assert logs.min() >= -200.0 and logs.max() <= 10.0
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    print(f"criterion 4 PASS: 61x61 grid positive, min {g.min():.3e}, "
          f"log range [{logs.min():.2f}, {logs.max():.2f}], {elapsed:.2f}s")


def test_criterion_05_tilt_family_truth_table():
    grid = np.linspace(0.05, 1.0, 20)
    checked = 0
    for de in grid:
        for ep in grid:
            if abs(de - ep) < 1e-9:
                continue
            fam = materialize(DeltaEpsilonFamily("tilt", FAMILY_DIAG,
                                                 float(de), float(ep)))
            assert nonneg_signature_check(fam).holds == (de <= ep), \
                f"mismatch at delta={de}, epsilon={ep}"
            checked += 1
    print(f"criterion 5 PASS: tilt-family truth table holds iff "
          f"delta <= epsilon on {checked} grid points")


def test_criterion_06_precision_family_truth_table():
    grid = np.linspace(0.05, 1.0, 20)
    checked = 0
    for de in grid:
        for ep in grid:
            prec = materialize(DeltaEpsilonFamily("precision", FAMILY_DIAG,
                                                  float(de), float(ep)))
            sigma = np.linalg.inv(prec.full)
            assert not griffiths_bapat_check(sigma).holds, \
                f"sign search certified at delta={de}, epsilon={ep}"
            if abs(de - ep) < 1e-9:
                continue
            mdl = CovarianceModel(SymMatrix.from_array(sigma), 2, 2, 1.0)
            assert precision_signature_check(mdl).holds == (de <= ep), \
                f"mismatch at delta={de}, epsilon={ep}"
            checked += 1
    print(f"criterion 6 PASS: sign search never certifies the precision "
          f"family; signature criterion matches delta <= epsilon on "
          f"{checked} points")


def test_criterion_07_constructed_witnesses_are_valid():
    gen = np.random.default_rng(1007)
    word_done = 0
    worst_entry = math.inf
    worst_orth = 0.0
    while word_done < 500:
        t = BlockMatrix.from_array(random_tilt_like(gen, 4), 2)
        if not word_positivity_check(t).holds:
            continue
        w = construct_nonneg_signature(t)
        out = w.conjugate(t).full
        worst_entry = min(worst_entry, float(out.min()))
        for u in (w.u1, w.u2):
            worst_orth = max(worst_orth, float(np.abs(u.T @ u - np.eye(2)).max()))
        word_done += 1
    assert worst_entry >= -1e-10, f"witness entry {worst_entry}"
    assert worst_orth <= 1e-12, f"orthogonality defect {worst_orth}"

    off_done = 0
    worst_off = -math.inf
    while off_done < 500:
        t = BlockMatrix.from_array(random_tilt_like(gen, 4), 2)
        qv = canonical_rotation(t, "offdiag").quantity
        if not quantity_holds(qv, t):
            continue
        w = construct_nonpos_offdiag(t)
        assert w is not None
        out = w.conjugate(t).full
        off = out - np.diag(np.diag(out))
        worst_off = max(worst_off, float(off.max()))
        for u in (w.u1, w.u2):
            worst_orth = max(worst_orth, float(np.abs(u.T @ u - np.eye(2)).max()))
        off_done += 1
    assert worst_off <= 1e-10, f"off-diagonal {worst_off}"
    assert worst_orth <= 1e-12, f"orthogonality defect {worst_orth}"
    print(f"criterion 7 PASS: 500+500 witnesses, min entry {worst_entry:.2e}, "
          f"max off-diagonal {worst_off:.2e}, orthogonality {worst_orth:.2e}")


def test_criterion_08_falsification_finds_negative_words():
    gen = np.random.default_rng(1008)
    failing = 0
    drawn = 0
    worst_k = 0
    while failing < 100:
        drawn += 1
        assert drawn < 60_000, "sampler stopped producing failing instances"
        t = BlockMatrix.from_array(random_tilt_like(gen, 4), 2)
        if word_positivity_check(t).holds:
            continue
        failing += 1
        res = falsify_word_positivity(t, kcap=200)
        assert res is not None, "no negative word found within the cap"
        assert res.value < 0.0
        assert res.big_k <= 200
        worst_k = max(worst_k, res.big_k)
    print(f"criterion 8 PASS: negative word found for 100/100 failing "
          f"instances, deepest K {worst_k}")


def test_criterion_09_transform_three_ways():
    gen = np.random.default_rng(1009)
    s_grid = (0.0, 0.3, 0.7, 0.9)

    worst_gap = 0.0
    for _ in range(20):
        sigma = random_covariance(gen, 4)
        mdl = CovarianceModel(SymMatrix.from_array(sigma), 2, 2,
                              float(gen.uniform(0.5, 4.0)))
        for s1 in s_grid:
            for s2 in s_grid:
                p = DualPoint(s1, s2)
                worst_gap = max(worst_gap, abs(laplace_closed(mdl, p)
                                               - laplace_series(mdl, p).value))
    assert worst_gap <= 1e-8, f"closed vs series gap {worst_gap}"

    worst_z = 0.0
    for seed in (31, 32, 33):
        sigma = random_covariance(np.random.default_rng(seed), 4)
        mdl = CovarianceModel(SymMatrix.from_array(sigma), 2, 2, 1.5)
        p = DualPoint(0.3, 0.6)
        est, se = monte_carlo(mdl, p, samples=1_000_000, seed=seed)
        worst_z = max(worst_z, abs(est - laplace_closed(mdl, p)) / se)
    assert worst_z <= 3.0, f"Monte Carlo at {worst_z:.2f} standard errors"

    worst_rel = 0.0
    for seed in (41, 42):
        sigma = random_covariance(np.random.default_rng(seed), 4)
        mdl = CovarianceModel(SymMatrix.from_array(sigma), 2, 2, 1.0)
        t = tilt_matrix(mdl)
        g = dp_grid(t, 10, 10)
        coeffs = log_transform_coefficients(t, 10, 10)
        for k in range(11):
            for m in range(11):
                if not 1 <= k + m <= 10:
                    continue
                want = g[k, m] / (k + m)
                worst_rel = max(worst_rel, abs(coeffs[k, m] - want)
                                / max(1e-12, abs(want)))
    assert worst_rel <= 1e-6, f"coefficient bridge rel {worst_rel}"
    print(f"criterion 9 PASS: closed/series gap {worst_gap:.2e}, Monte Carlo "
          f"{worst_z:.2f} SE, coefficient bridge rel {worst_rel:.2e}")


def test_criterion_10_scalar_block_always_certifies():
    gen = np.random.default_rng(1010)
    floor = 0.0
    for _ in range(200):
        n2 = int(gen.integers(1, 7))
        sigma = random_covariance(gen, 1 + n2)
        mdl = CovarianceModel(SymMatrix.from_array(sigma), 1, n2,
                              float(gen.uniform(0.2, 50.0)))
        rep = shanbhag_check(mdl)
        assert rep.holds
        floor = min(floor, rep.detail["min_scalar"])
    assert floor >= -1e-12, f"scalar bridge term {floor}"
    print(f"criterion 10 PASS: 200 scalar-block models certified, lowest "
          f"bridge term {floor:.2e}")

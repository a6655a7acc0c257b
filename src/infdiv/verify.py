"""Property suites behind the `verify` subcommand.

Each suite re-derives a slice of the package's correctness story from scratch
with fixed seeds: evaluator cross-agreement, closed forms against direct
products, constructive witnesses against their inequalities, and the
transform bridge. The CLI turns the summary into an exit code, so a corrupted
constant anywhere in the chain fails the run.

All calls into sibling modules go through the module objects on purpose;
that keeps the suites honest under monkeypatched fault injection.
"""

from __future__ import annotations

import math

import numpy as np

from . import criteria, laplace, matcore, model, sampling, tracesum


def _check(name: str, ok: bool, **info) -> dict:
    entry = {"name": name, "passed": bool(ok)}
    if info:
        entry["info"] = {k: float(v) if isinstance(v, (int, float, np.floating)) else v
                         for k, v in info.items()}
    return entry


def _block(gen, n=4, n1=2) -> model.BlockMatrix:
    return model.BlockMatrix.from_array(sampling.random_tilt_like(gen, n), n1)


def suite_matcore() -> list[dict]:
    gen = np.random.default_rng(101)
    checks = []

    worst = 0.0
    for _ in range(60):
        n = int(gen.integers(2, 9))
        s = matcore.symmetrize(gen.standard_normal((n, n)))
        lam, v = matcore.eigen_sym(s)
        err = np.abs(v.T @ s @ v - np.diag(lam)).max()
        worst = max(worst, err / max(1e-300, np.abs(s).max()))
    checks.append(_check("eigen_sym reconstruction within 1e-10 relative", worst <= 1e-10, worst=worst))

    worst_val = worst_vec = 0.0
    for _ in range(200):
        s = matcore.symmetrize(gen.standard_normal((2, 2)))
        pair = matcore.eigen2(s)
        lam, v = matcore.eigen_sym(s)
        worst_val = max(worst_val, abs(pair.lambda1 - lam[0]), abs(pair.lambda2 - lam[1]))
        for col, ref in ((pair.v1, v[:, 0]), (pair.v2, v[:, 1])):
            worst_vec = max(worst_vec, min(np.abs(col - ref).max(), np.abs(col + ref).max()))
    checks.append(_check("eigen2 matches eigen_sym on random 2x2", worst_val <= 1e-12 and worst_vec <= 1e-7,
                         value_err=worst_val, vector_err=worst_vec))

    worst = 0.0
    for _ in range(40):
        m = sampling.random_covariance(gen, int(gen.integers(2, 7)))
        L = matcore.cholesky(m)
        worst = max(worst, np.abs(L @ L.T - m).max())
    checks.append(_check("cholesky round trip within 1e-10", worst <= 1e-10, worst=worst))

    ok = True
    for _ in range(120):
        n = int(gen.integers(2, 7))
        s = matcore.symmetrize(gen.standard_normal((n, n)))
        lam, _ = matcore.eigen_sym(s)
        if abs(lam[-1]) <= 1e-8:
            continue
        ok = ok and (matcore.is_positive_definite(s) == (lam[-1] > 0))
    checks.append(_check("is_positive_definite matches eigenvalue sign", ok))
    return checks


def suite_model() -> list[dict]:
    gen = np.random.default_rng(202)
    checks = []

    worst = 0.0
    in_range = True
    for _ in range(25):
        sig = sampling.random_covariance(gen, 4)
        a = float(gen.uniform(0.2, 1000.0))
        mdl = model.CovarianceModel(matcore.SymMatrix.from_array(sig), 2, 2, a)
        t = model.tilt_matrix(mdl)
        lam_s, _ = matcore.eigen_sym(sig)
        lam_t, _ = matcore.eigen_sym(t.full)
        mapped = a * lam_s / (1.0 + a * lam_s)
        worst = max(worst, np.abs(np.sort(mapped) - np.sort(lam_t)).max())
        in_range = in_range and 0.0 < lam_t[-1] and lam_t[0] < 1.0
    checks.append(_check("tilt eigenvalue map a*l/(1+a*l) within 1e-10", worst <= 1e-10, worst=worst))
    checks.append(_check("tilt spectrum inside (0, 1)", in_range))

    worst = 0.0
    for _ in range(25):
        sig = sampling.random_covariance(gen, int(gen.integers(2, 7)))
        n1 = int(gen.integers(1, sig.shape[0]))
        mdl = model.CovarianceModel(matcore.SymMatrix.from_array(sig), n1, sig.shape[0] - n1, 1.0)
        inv = model.invert_blocks(mdl)
        worst = max(worst, np.abs(sig @ inv.full - np.eye(sig.shape[0])).max())
    checks.append(_check("invert_blocks round trip within 1e-10", worst <= 1e-10, worst=worst))

    fam = model.DeltaEpsilonFamily("tilt", (0.8, 0.3, 0.8, 0.3), 0.2, 0.01)
    t = model.materialize(fam)
    prod = t.b12 @ t.b21
    ep, de = 0.01, 0.2
    expected = np.array([[2 * ep * ep, ep * (ep - de)], [ep * (ep - de), ep * ep + de * de]])
    checks.append(_check("tilt family off-diagonal product identity",
                         np.abs(prod - expected).max() <= 1e-15))

    prec = model.materialize(model.DeltaEpsilonFamily("precision", (0.8, 0.3, 0.8, 0.3), 0.2, 0.01))
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    checks.append(_check("family kinds related by swap conjugation on the off-diagonal block",
                         np.abs(p @ prec.b12 @ p - t.b12).max() <= 1e-15))

    scaled = model.scale_to_unit_spectral_radius(t)
    twice = model.scale_to_unit_spectral_radius(scaled)
    lam_top = matcore.top_eigenvalue(scaled.full)
    checks.append(_check("unit spectral radius scaling exact and idempotent",
                         abs(lam_top - 1.0) <= 1e-12 and np.abs(twice.full - scaled.full).max() <= 1e-12))
    return checks


def suite_tracesum() -> list[dict]:
    gen = np.random.default_rng(303)
    checks = []

    worst = 0.0
    for _ in range(25):
        t = _block(gen)
        for k in range(0, 7):
            for m in range(0, 7 - k):
                o = tracesum.trace_sum_enum(t, k, m).value
                d = tracesum.trace_sum_dp(t, k, m).value
                worst = max(worst, abs(o - d) / max(1.0, abs(o)))
    checks.append(_check("enumeration vs dp on 4x4, k+m <= 6", worst <= 1e-9, worst=worst))

    worst = 0.0
    for _ in range(5):
        t = _block(gen, n=5, n1=2)
        for k in range(0, 6):
            for m in range(0, 6 - k):
                o = tracesum.trace_sum_enum(t, k, m).value
                d = tracesum.trace_sum_dp(t, k, m).value
                worst = max(worst, abs(o - d) / max(1.0, abs(o)))
    checks.append(_check("enumeration vs dp on 5x5 (2+3 blocks)", worst <= 1e-9, worst=worst))

    worst33 = worst34 = worst43 = 0.0
    for _ in range(30):
        t = _block(gen)
        d33 = tracesum.trace_sum_dp(t, 3, 3).value
        worst33 = max(worst33, abs(tracesum.closed_sum_33(t) - d33) / max(1.0, abs(d33)))
        d34 = tracesum.trace_sum_dp(t, 3, 4).value
        worst34 = max(worst34, abs(tracesum.closed_sum_34(t) - d34) / max(1.0, abs(d34)))
        d43 = tracesum.trace_sum_dp(t, 4, 3).value
        swapped = tracesum.swap_blocks(t)
        worst43 = max(worst43, abs(tracesum.closed_sum_34(swapped) - d43) / max(1.0, abs(d43)))
    checks.append(_check("closed (3,3) sum vs dp", worst33 <= 1e-9, worst=worst33))
    checks.append(_check("closed (3,4) sum vs dp", worst34 <= 1e-9, worst=worst34))
    checks.append(_check("closed (4,3) sum via block swap", worst43 <= 1e-9, worst=worst43))

    worst_s = worst_d = 0.0
    for _ in range(30):
        raw = _block(gen)
        _, rot = criteria.block_diagonalize(raw)
        k, m = int(gen.integers(0, 5)), int(gen.integers(0, 5))
        direct = np.trace(
            np.linalg.matrix_power(rot.b11, k) @ rot.b12
            @ np.linalg.matrix_power(rot.b22, m) @ rot.b21
        )
        got = tracesum.single_bridge_trace(rot, k, m)
        worst_s = max(worst_s, abs(got - direct) / max(1.0, abs(direct)))
        k1, k2 = int(gen.integers(0, 4)), int(gen.integers(0, 4))
        m1, m2 = int(gen.integers(0, 4)), int(gen.integers(0, 4))
        direct = np.trace(
            np.linalg.matrix_power(rot.b11, k1) @ rot.b12
            @ np.linalg.matrix_power(rot.b22, m1) @ rot.b21
            @ np.linalg.matrix_power(rot.b11, k2) @ rot.b12
            @ np.linalg.matrix_power(rot.b22, m2) @ rot.b21
        )
        got = tracesum.double_bridge_trace(rot, k1, k2, m1, m2)
        worst_d = max(worst_d, abs(got - direct) / max(1.0, abs(direct)))
    checks.append(_check("single-bridge closed trace vs direct product", worst_s <= 1e-10, worst=worst_s))
    checks.append(_check("double-bridge closed trace vs direct product", worst_d <= 1e-10, worst=worst_d))

    t = _block(np.random.default_rng(9))
    ok = True
    for k, m in ((2, 3), (1, 4), (3, 3)):
        base = tracesum.trace_sum_dp(t, k, m).value
        scaled = tracesum.trace_sum_dp(model.BlockMatrix.from_array(0.5 * t.full, 2), k, m).value
        ok = ok and abs(scaled - 0.5 ** (k + m) * base) <= 1e-12 * max(1.0, abs(base))
    checks.append(_check("scaling covariance c^(k+m)", ok))
    return checks


def suite_criteria() -> list[dict]:
    gen = np.random.default_rng(404)
    checks = []

    built = 0
    worst_entry = math.inf
    worst_orth = 0.0
    while built < 40:
        a = _block(gen)
        report = criteria.nonneg_signature_check(a)
        if not report.holds:
            continue
        built += 1
        w = report.witness
        out = w.conjugate(a)
        worst_entry = min(worst_entry, float(out.full.min()))
        for u in (w.u1, w.u2):
            worst_orth = max(worst_orth, np.abs(u.T @ u - np.eye(2)).max())
    checks.append(_check("nonneg witness entries >= -1e-10 on 40 instances",
                         worst_entry >= -1e-10, worst=worst_entry))
    checks.append(_check("witness blocks orthogonal within 1e-12", worst_orth <= 1e-12, worst=worst_orth))

    agree = True
    worst_off = 0.0
    for _ in range(120):
        a = _block(gen)
        qv = criteria.canonical_rotation(a, "offdiag").quantity
        witness = criteria.construct_nonpos_offdiag(a)
        agree = agree and ((witness is not None) == criteria.quantity_holds(qv, a))
        if witness is not None:
            out = witness.conjugate(a).full
            worst_off = max(worst_off, float((out - np.diag(np.diag(out))).max()))
    checks.append(_check("offdiag witness present iff companion inequality holds", agree))
    checks.append(_check("offdiag witness off-diagonals <= 1e-10", worst_off <= 1e-10, worst=worst_off))

    failing = 0
    found = 0
    tried = 0
    while failing < 6 and tried < 2000:
        tried += 1
        a = _block(gen)
        if criteria.word_positivity_check(a).holds:
            continue
        failing += 1
        if criteria.falsify_word_positivity(a) is not None:
            found += 1
    checks.append(_check("falsification finds a negative word for failing instances",
                         failing > 0 and found == failing, failing=failing, found=found))

    worst = 0.0
    for _ in range(10):
        a = _block(gen)
        th1, th2 = gen.uniform(0, 2 * math.pi, size=2)
        w = criteria.SignatureMatrix(
            u1=np.array([[math.cos(th1), -math.sin(th1)], [math.sin(th1), math.cos(th1)]]),
            u2=np.array([[math.cos(th2), -math.sin(th2)], [math.sin(th2), math.cos(th2)]]),
        )
        rotated = w.conjugate(a)
        for k in range(0, 6):
            for m in range(0, 6 - k):
                x = tracesum.trace_sum_dp(a, k, m).value
                y = tracesum.trace_sum_dp(rotated, k, m).value
                worst = max(worst, abs(x - y) / max(1.0, abs(x)))
    checks.append(_check("trace sums invariant under signature conjugation", worst <= 1e-9, worst=worst))

    ok = True
    for _ in range(15):
        sig = sampling.random_covariance(gen, 4)
        signs = np.diag(1.0 - 2.0 * (gen.integers(0, 2, size=4)).astype(float))
        r1 = criteria.griffiths_bapat_check(sig)
        r2 = criteria.griffiths_bapat_check(signs @ sig @ signs)
        ok = ok and (r1.holds == r2.holds)
    checks.append(_check("sign-search invariant under diagonal-sign conjugation", ok))
    return checks


def suite_families() -> list[dict]:
    checks = []
    diag = (4.0, 2.5, 3.5, 2.2)
    grid = np.linspace(0.1, 1.0, 8)

    ok_tilt = ok_prec = True
    for de in grid:
        for ep in grid:
            if abs(de - ep) < 1e-9:
                continue
            fam = model.materialize(model.DeltaEpsilonFamily("tilt", diag, float(de), float(ep)))
            if criteria.nonneg_signature_check(fam).holds != (de <= ep):
                ok_tilt = False
            prec = model.materialize(model.DeltaEpsilonFamily("precision", diag, float(de), float(ep)))
            qv = criteria.canonical_rotation(prec, "offdiag").quantity
            if criteria.quantity_holds(qv, prec) != (de <= ep):
                ok_prec = False
    checks.append(_check("tilt family truth table: holds iff delta <= epsilon", ok_tilt))
    checks.append(_check("precision family truth table: holds iff delta <= epsilon", ok_prec))

    gb_none = True
    for de in (0.1, 0.5, 0.9):
        for ep in (0.1, 0.5, 0.9):
            prec = model.materialize(model.DeltaEpsilonFamily("precision", diag, de, ep))
            sig = matcore.inverse_spd(prec.full)
            if criteria.griffiths_bapat_check(sig).holds:
                gb_none = False
    checks.append(_check("sign search never certifies the precision family", gb_none))
    return checks


def suite_laplace() -> list[dict]:
    gen = np.random.default_rng(505)
    checks = []

    worst = 0.0
    mono_ok = True
    for _ in range(8):
        sig = sampling.random_covariance(gen, 4)
        mdl = model.CovarianceModel(matcore.SymMatrix.from_array(sig), 2, 2, float(gen.uniform(0.5, 3.0)))
        for s1 in (0.0, 0.3, 0.7, 0.9):
            for s2 in (0.0, 0.3, 0.7, 0.9):
                p = laplace.DualPoint(s1, s2)
                closed = laplace.laplace_closed(mdl, p)
                series = laplace.laplace_series(mdl, p)
                worst = max(worst, abs(closed - series.value))
                if not 0.0 < closed <= 1.0:
                    mono_ok = False
        row0 = laplace.laplace_closed(mdl, laplace.DualPoint(0.0, 0.0))
        row1 = laplace.laplace_closed(mdl, laplace.DualPoint(0.5, 0.0))
        row2 = laplace.laplace_closed(mdl, laplace.DualPoint(0.5, 0.5))
        mono_ok = mono_ok and row0 <= row1 <= row2
    checks.append(_check("closed vs series within 1e-8 on the s grid", worst <= 1e-8, worst=worst))
    checks.append(_check("transform in (0,1] and nondecreasing in s", mono_ok))

    worst_z = 0.0
    for seed in (12, 13):
        sig = sampling.random_covariance(np.random.default_rng(seed), 4)
        mdl = model.CovarianceModel(matcore.SymMatrix.from_array(sig), 2, 2, 1.5)
        p = laplace.DualPoint(0.3, 0.6)
        closed = laplace.laplace_closed(mdl, p)
        est, se = laplace.monte_carlo(mdl, p, samples=200_000, seed=seed)
        worst_z = max(worst_z, abs(est - closed) / se)
    checks.append(_check("Monte Carlo within 4 standard errors", worst_z <= 4.0, worst_z=worst_z))

    worst = 0.0
    for seed in (21, 22):
        g2 = np.random.default_rng(seed)
        sig = sampling.random_covariance(g2, 4)
        mdl = model.CovarianceModel(matcore.SymMatrix.from_array(sig), 2, 2, 1.0)
        t = model.tilt_matrix(mdl)
        grid = tracesum.dp_grid(t, 8, 8)
        coeffs = laplace.log_transform_coefficients(t, 8, 8)
        for k in range(9):
            for m in range(9):
                if not 1 <= k + m <= 8:
                    continue
                truth = grid[k, m] / (k + m)
                worst = max(worst, abs(coeffs[k, m] - truth) / max(1e-12, abs(truth)))
    checks.append(_check("transform coefficients match dp/(k+m) within 1e-6", worst <= 1e-6, worst=worst))
    return checks


SUITES = {
    "matcore": suite_matcore,
    "model": suite_model,
    "tracesum": suite_tracesum,
    "criteria": suite_criteria,
    "families": suite_families,
    "laplace": suite_laplace,
}


def run_suites(only: str | None = None) -> dict:
    if only is not None and only not in SUITES:
        raise ValueError(f"unknown suite {only!r}; choose from {sorted(SUITES)}")
    suites = []
    for name, fn in SUITES.items():
        if only is not None and name != only:
            continue
        checks = fn()
        suites.append({
            "suite": name,
            "passed": all(c["passed"] for c in checks),
            "checks": checks,
        })
    return {"passed": all(s["passed"] for s in suites), "suites": suites}

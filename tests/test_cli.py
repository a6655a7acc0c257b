import csv
import io
import json

import numpy as np
import pytest

from infdiv import BlockMatrix, cli, criteria, tracesum
from infdiv.sampling import random_tilt_like
from infdiv.tracesum import TraceSumResult


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def sigma_file(tmp_path, sigma, n1, a=None, name="model.json"):
    sigma = np.asarray(sigma, dtype=float)
    payload = {
        "sigma": {"dim": sigma.shape[0], "entries": list(map(float, sigma.ravel()))},
        "n1": n1,
        "n2": sigma.shape[0] - n1,
    }
    if a is not None:
        payload["a"] = a
    return write_json(tmp_path, name, payload)


def q_file(tmp_path, q, n1, name="q.json"):
    q = np.asarray(q, dtype=float)
    payload = {"dim": q.shape[0], "entries": list(map(float, q.ravel())), "n1": n1}
    return write_json(tmp_path, name, payload)


@pytest.fixture
def demo_q(tmp_path):
    scaled = cli.FIGURE_MATRIX / 0.8101408171415954
    return q_file(tmp_path, scaled, 2)


def test_check_identity_certifies(tmp_path, capsys):
    path = sigma_file(tmp_path, np.eye(4), 2)
    code, out, _ = run(capsys, ["check", "--sigma", path])
    assert code == 0
    assert "CertifiedID" in out
    assert "griffiths-bapat" in out


def test_check_large_model_runs_griffiths_bapat(tmp_path, capsys):
    # no dimension cap: a 22-dim model still gets the balance check
    path = sigma_file(tmp_path, np.eye(22), 11)
    code, out, _ = run(capsys, ["check", "--sigma", path, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["reasons"][0]["criterion"] == "griffiths-bapat"
    assert not any("cap" in note for note in payload["notes"])


def test_check_scalar_block_certifies(tmp_path, capsys):
    sigma = [[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]]
    code, out, _ = run(capsys, ["check", "--sigma", sigma_file(tmp_path, sigma, 1)])
    assert code == 0
    assert "shanbhag" in out


def test_check_scalar_second_block_swaps(tmp_path, capsys):
    sigma = [[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]]
    code, out, _ = run(capsys, ["check", "--sigma", sigma_file(tmp_path, sigma, 2)])
    assert code == 0
    assert "blocks swapped" in out


def test_check_demo_matrix_undetermined(demo_q, capsys):
    code, out, _ = run(capsys, ["check", "--q", demo_q, "--kmax", "30", "--mmax", "30"])
    assert code == 2
    assert "Undetermined" in out
    assert "word-positivity" in out


def test_check_family_model_certifies_via_precision(tmp_path, capsys):
    from infdiv.model import DeltaEpsilonFamily, materialize
    prec = materialize(DeltaEpsilonFamily("precision", (4.0, 2.5, 3.5, 2.2), 0.2, 0.4))
    sigma = np.linalg.inv(prec.full)
    code, out, _ = run(capsys, ["check", "--sigma", sigma_file(tmp_path, sigma, 2)])
    assert code == 0
    assert "precision-offdiag" in out


def test_check_json_artifact(tmp_path, demo_q, capsys):
    out_path = tmp_path / "verdict.json"
    code, _, _ = run(capsys, ["check", "--q", demo_q, "--kmax", "10", "--mmax", "10",
                              "--output", str(out_path)])
    assert code == 2
    payload = json.loads(out_path.read_text())
    assert payload["verdict"]["status"] == "Undetermined"
    assert payload["scan"][0]["value"] > 0


def test_check_verdict_is_scale_invariant(tmp_path, capsys):
    # Sigma and 1e150 * Sigma have the same verdict: no tolerance is absolute
    g = np.random.default_rng(99).standard_normal((4, 4))
    sigma = g.T @ g / 4 + 0.05 * np.eye(4)
    for factor in (1.0, 1e150):
        path = sigma_file(tmp_path, factor * sigma, 2)
        code, out, _ = run(capsys, ["check", "--sigma", path, "--format", "json"])
        reasons = json.loads(out)["verdict"]["reasons"]
        assert code == 2
        assert [(r["criterion"], r["holds"]) for r in reasons[:2]] == [
            ("griffiths-bapat", False), ("precision-offdiag", False)]


def test_check_input_errors(tmp_path, capsys):
    code, _, err = run(capsys, ["check", "--sigma", str(tmp_path / "missing.json")])
    assert code == 1 and "error" in err
    # both modes at once
    path = sigma_file(tmp_path, np.eye(4), 2)
    code, _, err = run(capsys, ["check", "--sigma", path, "--q", path])
    assert code == 1
    # indefinite q
    qpath = q_file(tmp_path, np.diag([1.0, 1.0, -1.0, 1.0]), 2)
    code, _, err = run(capsys, ["check", "--q", qpath])
    assert code == 1 and "positive definite" in err


def test_check_a_grid_flag_and_file(tmp_path, capsys):
    path = sigma_file(tmp_path, np.eye(4) + 0.2, 2, a=2.0)
    code, _, _ = run(capsys, ["check", "--sigma", path, "--a-grid", "1,10,bad"])
    assert code == 1
    code, _, _ = run(capsys, ["check", "--sigma", path, "--a-grid", "10,1"])
    assert code == 1


def test_check_non_finite_grid_is_an_error(tmp_path, capsys):
    # spectral radius 21: (k+m)-th powers overflow long before k+m = 400
    q = q_file(tmp_path, cli.FIGURE_MATRIX * (21.0 / 0.8101408171415954), 2)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, ["check", "--q", q, "--kmax", "200",
                                      "--mmax", "200"])
    assert code == 1
    assert "NonFiniteResult" in err and "not finite" in err
    assert "Undetermined" not in out


def test_check_negative_cell_verdict(monkeypatch, demo_q, capsys):
    # plant a dual-confirmed negative cell; verdict must flip to the witness
    def fake_grid(t, kmax, mmax):
        g = np.full((kmax + 1, mmax + 1), 2.0)
        g[3, 5] = -1.0
        return g

    def fake_enum(t, k, m, cap=tracesum.ENUM_CAP):
        value = -1.0 if (k, m) == (3, 5) else 2.0
        return TraceSumResult(value=value, term_count=1, min_term=value,
                              algorithm="enumeration")

    monkeypatch.setattr(tracesum, "dp_grid", fake_grid)
    monkeypatch.setattr(tracesum, "trace_sum_enum", fake_enum)
    code, out, _ = run(capsys, ["check", "--q", demo_q])
    assert code == 3
    assert "NotIDWitness" in out
    assert "k=3 m=5" in out


def _negative_cells_loop(grid):
    """Reference for find_negative_cells: one Python loop per anti-diagonal."""
    kmax, mmax = grid.shape[0] - 1, grid.shape[1] - 1
    out = []
    for s in range(kmax + mmax + 1):
        ks = range(max(0, s - mmax), min(kmax, s) + 1)
        scale = max(abs(float(grid[k, s - k])) for k in ks)
        thresh = -cli.NEG_CELL_REL * scale
        for k in ks:
            v = float(grid[k, s - k])
            if v < thresh:
                out.append((k, s - k, v))
    return out


def test_find_negative_cells_matches_loop():
    gen = np.random.default_rng(4242)
    shapes = [(1, 9), (9, 1), (1, 1)]
    shapes += [tuple(int(x) for x in gen.integers(1, 14, 2)) for _ in range(400)]
    for i, shape in enumerate(shapes):
        grid = gen.standard_normal(shape) * 10.0 ** gen.integers(-6, 7, shape)
        if i % 2:
            # mostly positive, with negatives around the relative threshold
            grid = np.abs(grid)
            flip = gen.random(shape) < 0.2
            grid[flip] *= -gen.choice([1.0, 1e-8, 1e-9, 1e-10], size=int(flip.sum()))
        if i % 3 == 0:
            s = np.add.outer(np.arange(shape[0]), np.arange(shape[1]))
            grid[s % 3 == 1] = 0.0  # all-zero anti-diagonals
        got = cli.find_negative_cells(grid)
        assert got == _negative_cells_loop(grid)
        assert got == sorted(got, key=lambda c: (c[0] + c[1], c[0]))
        assert all(type(k) is int and type(m) is int and type(v) is float
                   for k, m, v in got)
        json.dumps(got)


def test_find_negative_cells_threshold_edges():
    scale = 3.0
    thresh = -cli.NEG_CELL_REL * scale
    grid = np.ones((3, 6))
    grid[0, 2], grid[1, 1] = scale, thresh  # exactly at the threshold: kept out
    grid[2, 0] = np.nextafter(thresh, -np.inf)  # one ulp past it: a hit
    grid[0, 3] = grid[1, 2] = grid[2, 1] = 0.0  # an all-zero anti-diagonal
    grid[0, 5] = -scale  # row-major order would list it first
    got = cli.find_negative_cells(grid)
    assert got == [(2, 0, float(grid[2, 0])), (0, 5, -scale)]
    assert got == _negative_cells_loop(grid)
    assert json.loads(json.dumps(got)) == [list(c) for c in got]


def test_check_disagreeing_evaluators_discard_cell(monkeypatch, demo_q, capsys):
    def fake_grid(t, kmax, mmax):
        g = np.full((kmax + 1, mmax + 1), 2.0)
        g[3, 5] = -1.0
        return g

    monkeypatch.setattr(tracesum, "dp_grid", fake_grid)  # enum stays honest
    code, out, err = run(capsys, ["check", "--q", demo_q])
    assert code == 2
    assert "disagree" in err


def open_regime(stack):
    """Stand-in for criteria.word_positivity_stack: every trial fails word
    positivity with quantity -1, so search scans it."""
    return np.full(len(stack), -1.0), np.zeros(len(stack), dtype=bool)


def test_search_and_check_share_confirmation(monkeypatch, demo_q, capsys):
    # enumeration is negative but disagrees with dp: neither command may
    # count the cell as confirmed
    from infdiv import criteria

    def fake_grid(t, kmax, mmax):
        g = np.full((kmax + 1, mmax + 1), 2.0)
        g[3, 5] = -1.0
        return g

    def fake_enum(t, k, m, cap=tracesum.ENUM_CAP):
        return TraceSumResult(value=-5.0, term_count=1, min_term=-5.0,
                              algorithm="enumeration")

    monkeypatch.setattr(tracesum, "dp_grid", fake_grid)
    monkeypatch.setattr(tracesum, "trace_sum_enum", fake_enum)
    code, out, err = run(capsys, ["check", "--q", demo_q])
    assert code == 2
    assert "disagree" in err and "NotIDWitness" not in out

    monkeypatch.setattr(criteria, "word_positivity_stack", open_regime)
    code, out, _ = run(capsys, ["search", "--trials", "1", "--kmax", "5",
                                "--mmax", "5"])
    assert code == 0
    (cand,) = json.loads(out)["summary"]["candidates"]
    assert cand["cells"] == [{"k": 3, "m": 5, "dp": -1.0, "enumeration": -5.0,
                              "confirmed": False}]


def test_search_dp_only_cell_is_unconfirmed(monkeypatch, capsys):
    from infdiv import criteria

    def fake_grid(t, kmax, mmax):
        g = np.full((kmax + 1, mmax + 1), 2.0)
        g[10, 10] = -1.0  # k + m beyond ENUM_CAP
        return g

    monkeypatch.setattr(tracesum, "dp_grid", fake_grid)
    monkeypatch.setattr(criteria, "word_positivity_stack", open_regime)
    code, out, _ = run(capsys, ["search", "--trials", "1", "--kmax", "12",
                                "--mmax", "12"])
    assert code == 0
    (cand,) = json.loads(out)["summary"]["candidates"]
    assert cand["cells"] == [{"k": 10, "m": 10, "dp": -1.0, "confirmed": None}]


# Scanned trials and their min-cell (k, m) for search --trials 100 --kmax 30
# --mmax 30 --seed 7, recorded with the cyclic Jacobi eigensolver this package
# used before LAPACK; floats may move by ulps, decisions must not.
SEED7_SCANNED = {13: (6, 30), 48: (10, 30), 56: (0, 30), 79: (30, 4)}


def test_search_decisions_pinned(capsys):
    code, out, _ = run(capsys, ["search", "--trials", "100", "--kmax", "30",
                                "--mmax", "30", "--seed", "7"])
    assert code == 0
    trials = json.loads(out)["trials"]
    scanned = {t["trial"]: (t["min_cell"]["k"], t["min_cell"]["m"])
               for t in trials if "skipped" not in t}
    assert scanned == SEED7_SCANNED
    for t in trials:
        # at this seed every skipped trial has quantity >= 0 and every
        # scanned one quantity < 0
        assert (t["quantity"] < 0) == (t["trial"] in SEED7_SCANNED)
        assert t.get("negative_cells", 0) == 0


@pytest.mark.parametrize("mode", ["--q", "--sigma"])
def test_check_non_finite_input_is_an_error(tmp_path, capsys, mode):
    m = np.eye(4) * 0.5
    m[0, 2] = m[2, 0] = np.nan
    path = q_file(tmp_path, m, 2) if mode == "--q" else sigma_file(tmp_path, m, 2)
    code, out, err = run(capsys, ["check", mode, path])
    assert code == cli.EXIT_INPUT_ERROR
    # refused as not positive definite before any scan runs
    assert err.startswith("error:") and "positive definite" in err
    assert "Traceback" not in err and out == ""


def test_figure1_csv(tmp_path, capsys):
    out_path = tmp_path / "fig.csv"
    code, _, _ = run(capsys, ["figure1", "--output", str(out_path)])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0] == ["k", "m", "value", "log_value"]
    assert len(rows) == 1 + 61 * 61
    first = rows[1]
    assert first[:2] == ["0", "0"] and float(first[2]) == 4.0
    values = np.array([float(r[2]) for r in rows[1:]])
    assert (values > 0).all()
    ks = [int(r[0]) for r in rows[1:]]
    assert ks == sorted(ks)


def test_figure1_refuses_nonpositive(monkeypatch, capsys):
    def fake_grid(t, kmax, mmax):
        g = np.full((kmax + 1, mmax + 1), 1.0)
        g[10, 10] = -5e-3
        return g

    monkeypatch.setattr(tracesum, "dp_grid", fake_grid)
    code, out, err = run(capsys, ["figure1"])
    assert code == 1
    assert "FATAL" in err and "k=10 m=10" in err
    assert out == ""  # nothing written


def test_search_deterministic(capsys):
    argv = ["search", "--trials", "25", "--kmax", "15", "--mmax", "15", "--seed", "7"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["summary"]["trials"] == 25
    assert len(report["family_selftest"]) == 4
    skipped = [t for t in report["trials"] if "skipped" in t]
    assert len(skipped) == report["summary"]["skipped"]


def test_search_config_file_and_overrides(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", {"trials": 5, "kmax": 10, "mmax": 10, "seed": 3})
    code, out, _ = run(capsys, ["search", "--config", cfg, "--trials", "8"])
    assert code == 0
    report = json.loads(out)
    assert report["config"]["trials"] == 8  # flag wins
    assert report["config"]["seed"] == 3    # file value survives

    bad = write_json(tmp_path, "bad.json", {"trails": 5})
    code, _, err = run(capsys, ["search", "--config", bad])
    assert code == 1 and "unknown config keys" in err


def test_search_validates_config(capsys):
    code, _, err = run(capsys, ["search", "--trials", "0"])
    assert code == 1


def test_search_family_selftest_gate(monkeypatch, capsys):
    from infdiv import criteria

    def broken(a):
        return criteria.CriterionReport("signature-nonneg", True, None, {})

    monkeypatch.setattr(criteria, "nonneg_signature_check", broken)
    code, _, err = run(capsys, ["search", "--trials", "2"])
    assert code == 1
    assert "self-test failed" in err


def test_search_non_finite_grid_is_an_error(monkeypatch, capsys):
    from infdiv import criteria

    def nan_grid(t, kmax, mmax):
        g = np.full((kmax + 1, mmax + 1), 1.0)
        g[4, 4] = np.nan
        return g

    monkeypatch.setattr(criteria, "word_positivity_stack", open_regime)
    monkeypatch.setattr(tracesum, "dp_grid", nan_grid)
    code, out, err = run(capsys, ["search", "--trials", "2", "--kmax", "5",
                                  "--mmax", "5"])
    assert code == 1
    assert "1 of 36 trace-sum cells are not finite" in err


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, ["verify", "--filter", "families"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["suites"][0]["suite"] == "families"

    code, _, err = run(capsys, ["verify", "--filter", "nope"])
    assert code == 1


def test_verify_mutation_is_caught(monkeypatch, capsys):
    # corrupt a closed-form constant: the tracesum suite must notice
    real = tracesum.closed_sum_33

    def corrupted(t):
        return real(t) * (5.9 / 6.0)

    monkeypatch.setattr(tracesum, "closed_sum_33", corrupted)
    code, out, _ = run(capsys, ["verify", "--filter", "tracesum"])
    assert code == 1
    payload = json.loads(out)
    names = {c["name"]: c["passed"] for c in payload["suites"][0]["checks"]}
    assert not names["closed (3,3) sum vs dp"]


def test_laplace_subcommand(tmp_path, capsys):
    path = sigma_file(tmp_path, [[2.0, 1.0], [1.0, 2.0]], 1, a=1.0)
    code, out, _ = run(capsys, ["laplace", "--sigma", path, "--s1", "0.3",
                                "--s2", "0.6", "--samples", "20000", "--seed", "4"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["closed"] - 0.4975185951049946) < 1e-12
    assert abs(payload["series"]["value"] - payload["closed"]) < 1e-9
    mc = payload["monte_carlo"]
    assert abs(mc["estimate"] - payload["closed"]) < 5 * mc["stderr"]


def test_laplace_rejects_bad_point(tmp_path, capsys):
    path = sigma_file(tmp_path, np.eye(2), 1)
    code, _, err = run(capsys, ["laplace", "--sigma", path, "--s1", "1.0", "--s2", "0.0"])
    assert code == 1


@pytest.mark.parametrize("flags, message", [
    (["--nmax", "-1"], "nmax must be >= 0"),
    (["--nmax", "-3"], "nmax must be >= 0"),
    (["--samples", "10"], "at least 1000 samples"),
    (["--seed", "-1"], "seed must be >= 0"),
])
def test_laplace_rejects_bad_flags(tmp_path, capsys, flags, message):
    path = sigma_file(tmp_path, [[2.0, 1.0], [1.0, 2.0]], 1)
    code, out, err = run(capsys, ["laplace", "--sigma", path, "--s1", "0.3",
                                  "--s2", "0.6", *flags])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_search_rejects_negative_seed(capsys):
    code, out, err = run(capsys, ["search", "--seed", "-1", "--trials", "2"])
    assert code == 1 and out == ""
    assert err == "error: seed must be >= 0\n"


def _per_trial_report(trials, kmax, mmax, seed):
    """The search report as written by drawing, filtering and scanning one
    trial at a time."""
    cfg = cli.ScanConfig(kmax=kmax, mmax=mmax, seed=seed, trials=trials)
    _, selftest = cli._family_selftest()
    gen = np.random.default_rng(seed)
    rows, candidates, scanned = [], [], 0
    for i in range(trials):
        t = BlockMatrix.from_array(random_tilt_like(gen), 2)
        rep = criteria.word_positivity_check(t)
        if rep.holds:
            rows.append({"trial": i, "skipped": "word positivity holds",
                         "quantity": rep.detail["quantity"]})
            continue
        scanned += 1
        grid = tracesum.dp_grid(t, kmax, mmax)
        idx = np.unravel_index(int(np.argmin(grid)), grid.shape)
        entry = {"trial": i, "quantity": rep.detail["quantity"],
                 "min_cell": {"k": int(idx[0]), "m": int(idx[1]),
                              "value": float(grid[idx])}}
        cells = []
        for k, m, v in cli.find_negative_cells(grid):
            confirmed, enum, _ = cli._confirm_negative(t, k, m, v)
            cell = {"k": k, "m": m, "dp": v,
                    "confirmed": None if enum is None else confirmed}
            if enum is not None:
                cell["enumeration"] = enum
            cells.append(cell)
        entry["negative_cells"] = len(cells)
        rows.append(entry)
        if cells:
            candidates.append({"trial": i, "matrix": t.to_json(), "cells": cells})
    report = {"config": cfg.to_json(), "family_selftest": selftest, "trials": rows,
              "summary": {"trials": trials, "scanned": scanned,
                          "skipped": trials - scanned, "candidates": candidates}}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# every case scans at least one trial; the chunked ones scan trials 12 and
# 25 (five chunks of 7, the last one short) and 2, 7 and 12 (two full chunks)
@pytest.mark.parametrize("seed, trials, chunk", [
    (0, 100, None), (7, 100, None), (1234, 100, None), (2, 30, 7), (21, 14, 7),
])
def test_search_report_matches_per_trial_loop(monkeypatch, capsys, seed, trials, chunk):
    if chunk is not None:
        monkeypatch.setattr(cli, "_SEARCH_CHUNK", chunk)
    code, out, _ = run(capsys, ["search", "--trials", str(trials), "--kmax", "12",
                                "--mmax", "12", "--seed", str(seed)])
    assert code == 0
    assert out == _per_trial_report(trials, 12, 12, seed)
    assert json.loads(out)["summary"]["scanned"] > 0


def test_main_builds_one_parser_and_dispatches_at_call_time(monkeypatch):
    built, seen = [], []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for name in ("check", "figure1", "search", "verify", "laplace"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: seen.append(vars(args)) or 0)
    argvs = [
        ["search", "--seed", "3", "--trials", "5"],
        ["search"],
        ["--seed", "4", "--output", "a.json", "search", "--kmax", "2"],
        ["search", "--format", "json"],
        ["check", "--q", "q.json", "--format", "json", "--output", "b.json"],
        ["check", "--sigma", "s.json"],
        ["--format", "csv", "figure1"],
        ["figure1", "--seed", "9"],
        ["figure1"],
        ["verify", "--filter", "families"],
        ["laplace", "--sigma", "s.json", "--s1", "0.1", "--s2", "0.2", "--seed", "2"],
        ["laplace", "--sigma", "s.json", "--s1", "0.1", "--s2", "0.2"],
        ["search", "--seed", "3", "--trials", "5"],
    ]
    for argv in argvs:
        assert cli.main(argv) == 0
        assert seen[-1] == vars(build().parse_args(argv))
    assert len(built) == 1 and len(seen) == len(argvs)

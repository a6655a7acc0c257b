import csv
import io
import json

import numpy as np
import pytest

from infdiv import cli, tracesum
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


def test_check_disagreeing_evaluators_discard_cell(monkeypatch, demo_q, capsys):
    def fake_grid(t, kmax, mmax):
        g = np.full((kmax + 1, mmax + 1), 2.0)
        g[3, 5] = -1.0
        return g

    monkeypatch.setattr(tracesum, "dp_grid", fake_grid)  # enum stays honest
    code, out, err = run(capsys, ["check", "--q", demo_q])
    assert code == 2
    assert "disagree" in err


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

    def open_regime(t):
        return criteria.CriterionReport("word-positivity", False, None,
                                        {"quantity": -1.0})

    def nan_grid(t, kmax, mmax):
        g = np.full((kmax + 1, mmax + 1), 1.0)
        g[4, 4] = np.nan
        return g

    monkeypatch.setattr(criteria, "word_positivity_check", open_regime)
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

"""Tests of the benchmark itself: generators, tracer and reference checks.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import infdiv  # noqa: E402
import infdiv.cli as cli  # noqa: E402
import refcheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _snapshot(outdir: Path, ops) -> list:
    """Ops with their input files inlined, so two directories compare."""
    rows = []
    for op in ops:
        argv = [Path(a).name if a.startswith(str(outdir)) else a for a in op.argv]
        path = op.expect.get("path")
        rows.append((argv, op.kind, Path(path).read_text() if path else None))
    return rows


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_deterministic_per_seed(tmp_path, name):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _snapshot(dirs[0], workloads.generate(name, 7, str(dirs[0])))
    again = _snapshot(dirs[1], workloads.generate(name, 7, str(dirs[1])))
    other = _snapshot(dirs[2], workloads.generate(name, 8, str(dirs[2])))
    assert first == again
    assert first != other
    assert len(first) == len(other)


def test_signsearch_inputs_are_what_they_claim(tmp_path):
    ops = workloads.generate("signsearch", 3, str(tmp_path))[:40]
    for op in ops:
        raw = json.loads(Path(op.expect["path"]).read_text())
        n = raw["sigma"]["dim"]
        sigma = np.asarray(raw["sigma"]["entries"]).reshape(n, n)
        w = workloads.gb_balanced(np.linalg.inv(sigma))
        if op.expect["gb_true"]:
            assert w is not None and w.tolist() == op.expect["witness"]
            rank = sum(1 << i for i in range(n - 1) if w[i + 1] < 0)
            assert rank == op.expect["rank"]
        else:
            assert w is None


def test_tied_tilt_like_blocks_are_exact_multiples_of_identity():
    rng = np.random.default_rng(0)
    for tie, sl in ((1, slice(0, 2)), (2, slice(2, 4))):
        q = workloads.tilt_like(rng, 3.0, tie)
        block = q[sl, sl]
        assert block[0, 1] == 0.0 and block[0, 0] == block[1, 1]
        assert np.linalg.eigvalsh(q).max() == pytest.approx(3.0)


def _functions_of_package() -> dict:
    out = {}
    for modname, mod in sys.modules.items():
        if modname == "infdiv" or modname.startswith("infdiv."):
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType):
                    out[(modname, attr)] = obj
    return out


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _sigma_file(tmp_path, sigma, n1, a=None) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(workloads._model_json(np.asarray(sigma), n1, a)))
    return str(path)


def test_tracer_wraps_every_binding_and_restores_originals(tmp_path):
    before = _functions_of_package()
    rng = np.random.default_rng(1)
    sigma = workloads.random_covariance(rng, 6)
    while workloads.gb_balanced(np.linalg.inv(sigma)) is not None:
        sigma = workloads.random_covariance(rng, 6)
    path = _sigma_file(tmp_path, sigma, 3)  # no certificate applies: it is scanned
    tracer = spans.Tracer()
    tracer.install()
    try:
        from infdiv import criteria, laplace, model
        assert criteria.tilt_matrix is model.tilt_matrix
        assert laplace.tilt_matrix is model.tilt_matrix
        assert model.tilt_matrix is not before[("infdiv.model", "tilt_matrix")]
        assert infdiv.dp_grid is sys.modules["infdiv.tracesum"].dp_grid
        rc, _ = _run(["check", "--sigma", path, "--kmax", "6", "--mmax", "6",
                      "--format", "json"])
    finally:
        tracer.uninstall()
    assert _functions_of_package() == before
    assert rc in (0, 2, 3)
    st = tracer.self_times()
    assert st["cli.main"][0] == 1
    assert st["criteria.griffiths_bapat_check"][0] == 1
    assert st["model.tilt_matrix"][0] >= 1
    # self times partition the root span
    root = [i for i in range(len(tracer.start)) if tracer.parent[i] == -1]
    assert len(root) == 1
    total = tracer.end[root[0]] - tracer.start[root[0]]
    assert sum(secs for _, secs in st.values()) == pytest.approx(total, rel=1e-9)
    assert all(secs >= 0 for _, secs in st.values())


def test_tracer_restores_originals_when_an_op_raises(tmp_path):
    before = _functions_of_package()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            sys.modules["infdiv.tracesum"].dp_grid(None, -1, 0)
    finally:
        tracer.uninstall()
    assert _functions_of_package() == before
    assert tracer.end[0] >= tracer.start[0]


def _op(argv, **expect):
    return workloads.Op(argv, "test", expect)


def test_check_catches_flipped_verdict(tmp_path):
    sigma, _ = workloads.gb_true_covariance(np.random.default_rng(2), 6, rank=5)
    path = _sigma_file(tmp_path, sigma, 3)
    op = _op(["check", "--sigma", path, "--format", "json"], mode="sigma",
             path=path, gb_true=True)
    rc, out = _run(op.argv)
    assert refcheck.check_op(op, rc, out)[0] == []
    payload = json.loads(out)
    payload["verdict"]["status"] = "Undetermined"
    assert refcheck.check_op(op, rc, json.dumps(payload))[0]
    assert refcheck.check_op(op, 2, out)[0]
    payload = json.loads(out)
    payload["verdict"]["reasons"][0]["witness"][1] *= -1
    assert refcheck.check_op(op, rc, json.dumps(payload))[0]


@pytest.mark.parametrize("mode", ["sigma", "q"])
def test_check_catches_perturbed_scan_minimum(tmp_path, mode):
    rng = np.random.default_rng(3)
    if mode == "sigma":
        path = _sigma_file(tmp_path, workloads.random_covariance(rng, 6), 3)
    else:
        q = workloads.tilt_like(rng, 2.0, tie=1)
        path = str(tmp_path / "q.json")
        Path(path).write_text(json.dumps({"dim": 4, "n1": 2,
                                          "entries": q.ravel().tolist()}))
    op = _op(["check", f"--{mode}", path, "--kmax", "12", "--mmax", "12",
              "--format", "json"], mode=mode, path=path)
    rc, out = _run(op.argv)
    payload = json.loads(out)
    assert payload["scan"], "the input must reach the dp scan"
    assert refcheck.check_op(op, rc, out)[0] == []
    payload["scan"][0]["value"] *= 1 + 1e-8
    assert refcheck.check_op(op, rc, json.dumps(payload))[0]


def test_check_catches_shifted_monte_carlo(tmp_path):
    path = _sigma_file(tmp_path, workloads.random_covariance(np.random.default_rng(4), 4),
                       2, a=2.0)
    op = _op(["laplace", "--sigma", path, "--s1", "0.5", "--s2", "0.7"], path=path)
    rc, out = _run(op.argv)
    assert refcheck.check_op(op, rc, out)[0] == []
    payload = json.loads(out)
    # here the draws resolve the mean: the tolerance is about 6.4 sample stderr
    stderr = payload["monte_carlo"]["stderr"]
    assert 6 * stderr < _tolerance(path, payload) < 7 * stderr
    payload["monte_carlo"]["estimate"] += 10 * stderr
    assert refcheck.check_op(op, rc, json.dumps(payload))[0]
    payload = json.loads(out)
    payload["closed"] *= 1 + 1e-9
    assert refcheck.check_op(op, rc, json.dumps(payload))[0]


def _tolerance(path, payload) -> float:
    raw = json.loads(Path(path).read_text())
    sigma = refcheck._matrix(raw["sigma"])
    n, n1 = sigma.shape[0], raw["n1"]
    d = 1.0 - np.concatenate([np.full(n1, payload["s1"]), np.full(n - n1, payload["s2"])])
    logs = [refcheck._log_transform(sigma, raw["a"] * k * d) for k in (1.0, 2.0)]
    return refcheck.mc_tolerance(*logs, payload["monte_carlo"]["samples"])


def test_monte_carlo_check_holds_on_heavy_tails(tmp_path):
    # a (1 - s) large: 1e5 draws miss the region that carries the mean, and
    # the sample stderr understates the estimator's true error
    sigma = workloads.rotated_covariance(np.random.default_rng(5), 8)
    path = _sigma_file(tmp_path, sigma, 4, a=800.0)
    op = _op(["laplace", "--sigma", path, "--s1", "0.75", "--s2", "0.7",
              "--seed", "11"], path=path)
    rc, out = _run(op.argv)
    payload = json.loads(out)
    mc = payload["monte_carlo"]
    assert abs(mc["estimate"] - payload["closed"]) > 6 * mc["stderr"]
    assert refcheck.check_op(op, rc, out)[0] == []
    payload["monte_carlo"]["estimate"] = payload["closed"] + 2 * _tolerance(path, payload)
    assert refcheck.check_op(op, rc, json.dumps(payload))[0]


def test_check_catches_broken_search_report():
    op = _op(["search", "--trials", "30", "--kmax", "8", "--mmax", "8", "--seed", "3"])
    rc, out = _run(op.argv)
    problems, scanned = refcheck.check_op(op, rc, out)
    assert problems == [] and scanned == json.loads(out)["summary"]["scanned"]
    report = json.loads(out)
    report["summary"]["skipped"] += 1
    assert refcheck.check_op(op, rc, json.dumps(report))[0]


def test_unreadable_output_is_a_failure_not_a_crash():
    op = _op(["laplace", "--sigma", os.devnull, "--s1", "0.5", "--s2", "0.5"],
             path=os.devnull)
    assert refcheck.check_op(op, 1, "")[0]


def test_benchmark_json_names_every_reported_metric():
    import run
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)

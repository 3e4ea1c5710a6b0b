"""Benchmark harness and command-line front end, end to end.

The bench table never trusts a solver's self-reported residual: every row's
`residual` is recomputed from (A, b, x).  These tests lean on that audit.
CLI runs go through cli_main() in-process so exit codes and stdout/stderr
are checked without spawning subprocesses.
"""

import json

import numpy as np
import pytest

import mspsolve.bench
from mspsolve.bench import SOLVERS, run_compare, solve_plain_lanczos
from mspsolve.cli import cli_main
from mspsolve.core import MatrixHandle
from mspsolve.errors import DomainError
from mspsolve.instances import InstanceSpec, gen_instance
from mspsolve.io import read_matrix, read_vector, write_mtx, write_vector

rng = np.random.default_rng(20250819)


def flat_tail_spd(n, n_big=6, ratio=1e4, seed=0):
    r = np.random.default_rng(seed)
    q, _ = np.linalg.qr(r.standard_normal((n, n)))
    vals = np.concatenate([r.uniform(ratio, 2 * ratio, n_big),
                           r.uniform(1.0, 2.0, n - n_big)])
    a = (q * vals) @ q.T
    return MatrixHandle(0.5 * (a + a.T), sym="spd")


# ---------------------------------------------------------------- bench


def test_plain_lanczos_identity_and_validation():
    n = 48
    a = MatrixHandle(np.eye(n), sym="spd")
    b = rng.standard_normal(n)
    rep = solve_plain_lanczos(a, b, eps=1e-10)
    assert rep.converged
    assert rep.iterations["level1"] <= 2
    assert np.linalg.norm(rep.x - b) <= 1e-10 * np.linalg.norm(b)

    with pytest.raises(DomainError):
        solve_plain_lanczos(MatrixHandle(np.ones((4, 3))), np.ones(4))
    with pytest.raises(DomainError):
        solve_plain_lanczos(a, b, lam=-1.0)


def test_plain_lanczos_wraps_an_array_as_symmetric():
    # An ndarray runs on the same "spd" product solve_psd uses, so a
    # nonsymmetric or non-square array is rejected rather than solved.
    g = rng.standard_normal((6, 6))
    rep = solve_plain_lanczos(g @ g.T + 6.0 * np.eye(6), np.ones(6), eps=1e-10)
    assert rep.converged
    for bad in (np.triu(np.ones((30, 30))), np.ones((4, 3))):
        with pytest.raises(DomainError):
            solve_plain_lanczos(bad, np.ones(bad.shape[0]))


@pytest.mark.parametrize("eps", [1e-8, 1e-6, 1e-3])
def test_plain_lanczos_converged_means_energy_error_within_eps(eps):
    # The baseline stops on its own bound on the energy error, so a
    # "converged" claim must hold in the energy norm.  The last instance once
    # stopped on a residual target at relres <= eps with an energy error of
    # 1.02e-3 at eps = 1e-3.
    specs = [InstanceSpec("k-large-psd", n=256, k=4, ratio=1e4, seed=seed) for seed in range(4)]
    specs.append(InstanceSpec("k-large-psd", n=200, k=2, ratio=1e3, seed=3))
    for spec in specs:
        a, b, _ = gen_instance(spec)
        rep = solve_plain_lanczos(a, b, eps=eps)
        if rep.converged:
            dense = a.to_dense()
            x_star = np.linalg.solve(dense, b)
            e = rep.x - x_star
            assert np.sqrt(e @ dense @ e) <= eps * np.sqrt(x_star @ dense @ x_star)


def test_compare_prebuilt_identity_all_solvers():
    n = 64
    a = MatrixHandle(np.eye(n), sym="spd")
    b = np.ones(n)
    report = run_compare((a, b), ["plain-lanczos", "msp-psd", "dense-direct"],
                         {"eps": 1e-10}, warmup_runs=0)
    assert report.instance["generator"] == "prebuilt"
    assert report.all_converged
    for row in report.rows:
        assert row["status"] == "converged"
        assert row["iterations"] <= 3
        assert row["residual"] <= 1e-9


def test_compare_outliers_msp_beats_plain():
    spec = InstanceSpec("k-large-psd", n=512, k=8, ratio=1e4, seed=5)
    report = run_compare(spec, ["plain-lanczos", "msp-psd", "dense-direct"],
                         {"eps": 1e-8, "seed": 0}, warmup_runs=0)
    rows = {row["solver"]: row for row in report.rows}
    assert report.all_converged
    assert rows["msp-psd"]["iterations"] < rows["plain-lanczos"]["iterations"]
    assert rows["dense-direct"]["residual"] <= 1e-12
    # The audited residual must back up each iterative solver's claim.
    for name in ("plain-lanczos", "msp-psd"):
        claimed = rows[name]["claimed_residual"]
        assert claimed is not None
        assert rows[name]["residual"] <= 2 * claimed + 1e-15
    assert rows["plain-lanczos"]["claimed_residual"] <= 1e-8
    # msp-psd's eps is an energy-norm target (PsdSolveConfig), which its
    # residual need not meet: audit the energy error itself.
    a, b, _ = gen_instance(spec)
    dense = a.to_dense()
    x_star = np.linalg.solve(dense, b)
    d = report.reports["msp-psd"].x - x_star
    assert np.sqrt(d @ dense @ d) / np.sqrt(x_star @ dense @ x_star) <= 1e-8


def test_compare_failed_solver_recorded_and_run_continues():
    n = 40
    a = MatrixHandle(rng.standard_normal((n, n)))  # not SPD, not even symmetric
    b = rng.standard_normal(n)
    report = run_compare((a, b), ["plain-lanczos", "dense-direct"],
                         warmup_runs=0)
    rows = {row["solver"]: row for row in report.rows}
    assert rows["plain-lanczos"]["status"] == "error"
    assert "DomainError" in rows["plain-lanczos"]["note"]
    assert report.reports["plain-lanczos"] is None
    assert rows["dense-direct"]["status"] == "converged"
    assert not report.all_converged


def test_compare_unknown_solver_rejected():
    a = MatrixHandle(np.eye(8), sym="spd")
    with pytest.raises(DomainError):
        run_compare((a, np.ones(8)), ["newton-raphson"], warmup_runs=0)


@pytest.mark.parametrize("solvers, warmup_runs", [
    ([], 0),
    (["plain-lanczos", "newton-raphson"], 1),
    (["plain-lanczos", "plain-lanczos"], 0),
    (["plain-lanczos"], -1),
])
def test_compare_rejects_bad_input_before_any_solve(monkeypatch, solvers, warmup_runs):
    calls = []
    monkeypatch.setattr(mspsolve.bench, "run_solver", lambda *a, **k: calls.append(a))
    a = MatrixHandle(np.eye(8), sym="spd")
    with pytest.raises(DomainError):
        run_compare((a, np.ones(8)), solvers, warmup_runs=warmup_runs)
    assert calls == []


@pytest.mark.parametrize("flags", [
    ["--solvers", ""],
    ["--solvers", "plain-lanczos,foo"],
    ["--solvers", "plain-lanczos", "--warmup-runs", "-1"],
])
def test_cli_compare_bad_input_exits_1(capsys, flags):
    code = cli_main(["compare", "--kind", "k-large-psd", "--n", "64", "--k", "4", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "mspsolve: error:" in captured.err


def test_compare_runs_are_reproducible():
    spec = InstanceSpec("k-large-psd", n=256, k=8, ratio=1e4, seed=3)
    targets = {"eps": 1e-8, "seed": 0}
    r1 = run_compare(spec, ["plain-lanczos", "msp-psd"], targets, warmup_runs=0)
    r2 = run_compare(spec, ["plain-lanczos", "msp-psd"], targets, warmup_runs=0)
    for row1, row2 in zip(r1.rows, r2.rows):
        assert row1["iterations"] == row2["iterations"]
        assert row1["residual"] == row2["residual"]  # bitwise: same instance, same path


def test_benchmark_report_json_and_table():
    spec = InstanceSpec("k-large-psd", n=128, k=4, ratio=1e3, seed=1)
    report = run_compare(spec, ["msp-psd", "dense-direct"], {"eps": 1e-8},
                         warmup_runs=0)
    payload = json.loads(report.to_json())
    assert payload["schema"] == 1
    assert set(payload) == {"schema", "instance", "environment", "rows", "reports"}
    assert payload["environment"]["numpy"] == np.__version__
    assert len(payload["rows"]) == 2
    for row in payload["rows"]:
        for key in ("solver", "status", "iterations", "matvecs", "residual",
                    "claimed_residual", "system"):
            assert key in row
    assert "x" not in payload["reports"]["msp-psd"]

    table = report.table()
    lines = table.splitlines()
    assert lines[0].split()[:2] == ["solver", "status"]
    assert len(lines) == 2 + 2  # header + rule + one line per solver
    assert "msp-psd" in table and "dense-direct" in table


# ------------------------------------------------------------------ cli


def test_cli_gen_hidden_rotation_writes_sidecars(tmp_path, capsys):
    prefix = tmp_path / "hr"
    code = cli_main(["gen", "--kind", "hidden-rotation", "--n", "1000",
                     "--seed", "7", "--out", str(prefix)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    files = summary["files"]
    assert set(files) == {"matrix", "rhs", "solution", "spectrum"}

    a = read_matrix(files["matrix"])
    assert (a.rows, a.cols) == (1000, 1000)
    b = read_vector(files["rhs"])
    assert np.array_equal(b, np.ones(1000))
    x = read_vector(files["solution"])
    assert np.sum(x == 0.0) == 1  # exactly one masked coordinate
    assert np.allclose(a.matvec(x), b, atol=1e-12)
    sigma = read_vector(files["spectrum"])
    assert np.allclose(sigma[:2], np.sqrt(2.0), atol=1e-12)
    assert np.allclose(sigma[2:], 1.0, atol=1e-12)


def test_cli_gen_global_flags_both_positions(tmp_path, capsys):
    before = tmp_path / "a"
    after = tmp_path / "b"
    assert cli_main(["--seed", "3", "gen", "--kind", "k-large-psd",
                     "--n", "64", "--out", str(before)]) == 0
    assert cli_main(["gen", "--kind", "k-large-psd", "--n", "64",
                     "--seed", "3", "--out", str(after)]) == 0
    capsys.readouterr()
    assert (before.with_suffix(".mtx").read_bytes()
            == after.with_suffix(".mtx").read_bytes())


def test_cli_solve_roundtrip(tmp_path, capsys):
    n = 96
    a = flat_tail_spd(n, seed=11)
    b = np.random.default_rng(12).standard_normal(n)
    mtx = tmp_path / "a.mtx"
    rhs = tmp_path / "b.txt"
    out = tmp_path / "report.json"
    write_mtx(mtx, a)
    write_vector(rhs, b)

    code = cli_main(["solve", "--matrix", str(mtx), "--rhs", str(rhs),
                     "--spd", "--method", "msp-psd", "--eps", "1e-8",
                     "--l", "16", "--json-out", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["status"] == "converged"
    x = np.asarray(payload["x"])
    x_star = np.linalg.solve(a.to_dense(), b)
    assert np.linalg.norm(x - x_star) <= 1e-6 * np.linalg.norm(x_star)

    code = cli_main(["solve", "--matrix", str(mtx), "--rhs", str(rhs),
                     "--spd", "--l", "16", "--no-solution",
                     "--json-out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert "x" not in json.loads(out.read_text())


def test_cli_solve_missing_matrix_exits_1(capsys):
    assert cli_main(["solve", "--matrix", "/no/such/file.mtx"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_usage_errors_exit_1(capsys):
    assert cli_main([]) == 1
    assert cli_main(["frobnicate"]) == 1
    assert cli_main(["gen", "--kind", "bogus", "--n", "10"]) == 1
    capsys.readouterr()


def test_cli_compare_converged_exit_0(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code = cli_main(["compare", "--kind", "k-large-psd", "--n", "128",
                     "--k", "4", "--ratio", "1e4", "--eps", "1e-8",
                     "--solvers", "plain-lanczos,msp-psd,dense-direct",
                     "--warmup-runs", "0", "--json-out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert stdout.splitlines()[0].split()[0] == "solver"
    assert "msp-psd" in stdout
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert len(payload["rows"]) == 3


def test_cli_compare_nonconvergence_exits_2(capsys):
    # eps = 1e-13 sits below the roundoff floor eps_mach * kappa ~ 2e-8 on a
    # ratio-1e8 instance, so an honest plain run must stop short of the target.
    code = cli_main(["compare", "--kind", "k-large-psd", "--n", "128",
                     "--k", "4", "--ratio", "1e8", "--eps", "1e-13",
                     "--solvers", "plain-lanczos", "--warmup-runs", "0"])
    capsys.readouterr()
    assert code == 2


def test_cli_bench_subcommand(capsys):
    code = cli_main(["bench", "--kind", "k-large-psd", "--n", "128",
                     "--k", "4", "--method", "msp-psd", "--eps", "1e-8"])
    stdout = capsys.readouterr().out
    assert code == 0
    payload = json.loads(stdout)
    assert payload["schema"] == 1
    assert payload["status"] == "converged"
    assert payload["instance"]["generator"] == "k-large-psd"


@pytest.mark.parametrize("kind,k", [("k-large-psd", 8), ("k-large-psd", 2),
                                     ("rbf-kernel", 8)])
def test_cli_bench_and_compare_echo_the_same_default_l(tmp_path, capsys, kind, k):
    # k = 8 lifts l to 2k = 16 over max(ceil(log2 n) + 1, 8) = 10 at n = 512;
    # k = 2 and a kernel instance keep 10.
    instance = ["--kind", kind, "--n", "512", "--k", str(k)]
    out = tmp_path / "cmp.json"
    assert cli_main(["bench", *instance, "--method", "msp-psd",
                     "--json-out", str(tmp_path / "bench.json")]) in (0, 2)
    assert cli_main(["compare", *instance, "--solvers", "msp-psd",
                     "--warmup-runs", "0", "--json-out", str(out)]) in (0, 2)
    capsys.readouterr()
    bench_l = json.loads((tmp_path / "bench.json").read_text())["config"]["l"]
    compare_l = json.loads(out.read_text())["instance"]["l"]
    assert bench_l == compare_l == (16 if (kind, k) == ("k-large-psd", 8) else 10)


def test_cli_has_no_config_flag(capsys):
    # Solver constants live in mspsolve.config; no flag or file overrides them.
    assert cli_main(["--config", "f", "compare"]) == 1
    assert "invalid choice: 'f'" in capsys.readouterr().err
    assert cli_main(["compare", "--config", "f"]) == 1
    assert "unrecognized arguments: --config f" in capsys.readouterr().err


def test_solver_registry_frozen():
    assert SOLVERS == ("plain-lanczos", "msp-psd", "msp-general", "dense-direct")

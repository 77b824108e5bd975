"""End-to-end tests of the command-line interface."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scfconv import (
    LADDER,
    GeneralVec,
    HadamardMask,
    Problem,
    ScfOptions,
    analyze_problem,
    build_illustrative,
    build_laplacian,
    convergence_factor,
    jacobian_fd,
    ladder,
    load_problem,
    locate_fixed_point,
    save_problem,
    scf_solve,
)
from scfconv import analysis, cli, scf
from scfconv.cli import main, parse_outputs


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_solve_illustrative(tmp_path):
    out = tmp_path / "history.csv"
    code = main(
        ["solve", "--family", "illustrative", "--eps", "0.2", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == [
        "iter",
        "step_err_fro",
        "err_to_fixed_point_fro",
        "lambda_p",
        "lambda_p1",
        "gap",
    ]
    assert len(rows) > 5
    assert float(rows[-1][1]) <= 1e-12
    steps = [float(r[1]) for r in rows]
    assert steps[-1] < steps[0]


def test_solve_file_problem(tmp_path):
    problem = Problem(
        a0=np.diag([0.0, 1.0, 3.0]), op=HadamardMask(mask=np.zeros((3, 3))), p=1
    )
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    out = tmp_path / "history.csv"
    code = main(["solve", "--file", str(path), "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) <= 2  # linear problem: fixed point after one step


def test_a_gap_below_unit_scale_is_no_zero_gap(tmp_path, capsys):
    # the cross gap is half the spectrum's scale: 1e-13 is no degeneracy there
    problem = Problem(a0=np.diag([0.0, 1e-13, 2e-13]), op=HadamardMask(mask=np.zeros((3, 3))),
                      p=1)
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    out = tmp_path / "history.csv"
    assert main(["solve", "--file", str(path), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert main(["analyze", "--file", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["c"] == 0.0


def test_solve_nonconvergent_exit_code(tmp_path):
    out = tmp_path / "history.csv"
    code = main(
        [
            "solve",
            "--family",
            "illustrative",
            "--eps",
            "0.2",
            "--max-iter",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    _, rows = read_csv(out)
    assert len(rows) == 3


def test_solve_leaves_the_error_to_fixed_point_empty_when_unconverged(tmp_path):
    # the last iterate of an unconverged run is no fixed point to measure against
    out = tmp_path / "history.csv"
    argv = ["solve", "--family", "illustrative", "--eps", "0.6", "--max-iter", "4"]
    assert main([*argv, "--out", str(out)]) == 2
    header, rows = read_csv(out)
    column = header.index("err_to_fixed_point_fro")
    assert len(rows) == 4
    assert [row[column] for row in rows] == [""] * 4


def test_solve_requires_problem_source():
    with pytest.raises(SystemExit):
        main(["solve"])


def test_solve_runs_damped_under_damping(tmp_path):
    out = tmp_path / "history.csv"
    assert main(["solve", "--family", "illustrative", "--damping", "0.5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    damped = scf_solve(build_illustrative(0.1), ScfOptions(damping=0.5))
    assert damped.history != scf_solve(build_illustrative(0.1)).history
    assert [float(row[1]) for row in rows] == [rec.step_err for rec in damped.history]


@pytest.mark.parametrize("command", ["analyze", "sweep", "check"])
def test_damping_is_a_solve_flag_only(capsys, command):
    # rejected as argparse rejects any unknown flag: usage, exit status 2
    argv = [command, "--family", "illustrative", "--axis", "eps", "--values", "0.1"]
    argv = argv if command == "sweep" else argv[:3]
    errors = []
    for flag in (["--damping", "0.5"], ["--no-such-flag", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err.replace(flag[0], "FLAG"))
    assert errors[0] == errors[1]
    assert "unrecognized arguments: FLAG 0.5" in errors[0]


def test_analyze_illustrative_naive_value(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["analyze", "--family", "illustrative", "--eps", "0", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert payload["c_naive"] == pytest.approx(625.0, rel=1e-12)
    assert payload["c"] <= payload["c2"] + 1e-12
    assert payload["deltas"] == sorted(payload["deltas"])
    assert payload["c_liu"] is None
    assert payload["c_tilde"][-1][1] == pytest.approx(payload["c2"], rel=1e-12)


def test_analyze_keeps_c_below_c2_at_a_coupling_of_1e300(capsys):
    # c is about 2e-299, so the squared entries of J underflowed in c2
    assert main(["analyze", "--family", "illustrative", "--eps", "1e300"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0 < report["c"] <= report["c2"]


def test_analyze_reports_liu_as_none_for_a_singular_a0(tmp_path, capsys):
    # ||A0^-1|| is unbounded: the reference bound has no value, the rest stands
    path = tmp_path / "singular-a0.json"
    save_problem(Problem(a0=np.diag([0.0, 1.0, 2.0]), op=HadamardMask(mask=0.1 * np.eye(3)),
                         p=1, meta={"alpha": 1.0}), path)
    assert main(["analyze", "--file", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["c_liu"] is None
    # A(P*) = diag(0.1, 1, 2): ||L'|| = 0.1 over the cross gap 0.9
    assert report["c"] <= report["c2"] <= report["c_naive"] == pytest.approx(0.1 / 0.9)


def test_analyze_laplacian_omega_listing(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "analyze",
            "--family",
            "laplacian-real",
            "--n",
            "7",
            "--p",
            "3",
            "--alpha",
            "10",
            "--q-max",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pairs"][:3] == [[3, 4], [2, 4], [3, 5]]
    assert payload["c_liu"] is not None
    assert payload["fd_check"] is None


def test_analyze_fd_check_flag(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "analyze",
            "--family",
            "illustrative",
            "--eps",
            "0.1",
            "--fd-check",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["fd_check"] <= 1e-6


def test_sweep_eps_slopes(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--family",
            "illustrative",
            "--axis",
            "eps",
            "--grid",
            "1e-4",
            "1e-2",
            "10",
            "--grid-scale",
            "log",
            "--outputs",
            "c,c2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == [
        "axis_name",
        "axis_value",
        "quantity",
        "value",
        "converged",
        "measured_rate",
    ]
    assert len(rows) == 20
    by_quantity = {"c": [], "c2": []}
    for row in rows:
        by_quantity[row[2]].append((float(row[1]), float(row[3])))
    for quantity, target in (("c", 2.0), ("c2", 1.0)):
        pts = np.array(by_quantity[quantity])
        slope = np.polyfit(np.log(pts[:, 0]), np.log(pts[:, 1]), 1)[0]
        assert slope == pytest.approx(target, abs=0.15)


def test_sweep_alpha_linear(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--family",
            "laplacian-complex",
            "--n",
            "12",
            "--p",
            "5",
            "--axis",
            "alpha",
            "--values",
            "10,20,30,40",
            "--outputs",
            "c,liu",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, rows = read_csv(out)
    cs = np.array([float(r[3]) for r in rows if r[2] == "c"])
    alphas = np.array([float(r[1]) for r in rows if r[2] == "c"])
    slope, intercept = np.polyfit(alphas, cs, 1)
    resid = cs - (slope * alphas + intercept)
    assert float(np.sum(resid**2)) <= 1e-6 * float(np.sum(cs**2))
    lius = [float(r[3]) for r in rows if r[2] == "liu"]
    assert all(b >= c for b, c in zip(lius, cs))


def test_sweep_is_deterministic(tmp_path):
    args = [
        "sweep",
        "--family",
        "illustrative",
        "--axis",
        "eps",
        "--values",
        "0.05,0.1",
        "--outputs",
        "c,c2,gap:1,tilde:1",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_rejects_unknown_quantity(tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "sweep",
                "--family",
                "illustrative",
                "--axis",
                "eps",
                "--values",
                "0.1",
                "--outputs",
                "c,entropy",
            ]
        )
    with pytest.raises(SystemExit):
        main(
            [
                "sweep",
                "--family",
                "illustrative",
                "--axis",
                "eps",
                "--values",
                "0.1",
                "--outputs",
                "gap",
            ]
        )


@pytest.mark.parametrize("outputs", ["gap:-1,gap:3", "tilde:0", "c,tilde:-2"])
def test_sweep_rejects_out_of_range_suffix(outputs):
    # gap:Q counts from Q = 0 and tilde:K from K = 1; a negative suffix must
    # not wrap around to the end of the family
    args = ["sweep", "--family", "illustrative", "--axis", "eps", "--values", "0.1"]
    with pytest.raises(SystemExit):
        main(args + ["--outputs", outputs])


def test_sweep_needs_grid(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--family", "illustrative", "--axis", "eps"])


def test_check_passes_on_illustrative(capsys):
    code = main(["check", "--family", "illustrative", "--eps", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "finite-difference oracle" in out
    assert "phase invariance" in out
    assert "bound chain" in out


def test_check_negative_control(capsys):
    for problem_args in (
        ["--family", "illustrative", "--eps", "0.1"],
        # S is the n diagonal columns, not every column
        ["--family", "laplacian-real", "--n", "8", "--p", "3", "--alpha", "10"],
    ):
        code = main(["check", *problem_args, "--corrupt-jacobian"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert any(line.startswith("FAIL finite-difference oracle") for line in lines)
        assert any(line.startswith("FAIL phase invariance") for line in lines)
        assert any(line.startswith("FAIL cyclic-permutation spectral radii") for line in lines)


@pytest.mark.parametrize("family", ["laplacian-real", "laplacian-complex"])
def test_check_passes_on_laplacian(capsys, family):
    # Most columns of a diagonal-map Jacobian are exactly zero; the FD
    # oracle must return them as zero, not as stencil cancellation noise.
    code = main(["check", "--family", family, "--n", "8", "--p", "3", "--alpha", "10"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--family", "illustrative", "--q-max", "2"],
        ["check", "--family", "illustrative", "--out", "report.txt"],
        ["sweep", "--family", "illustrative", "--axis", "eps", "--values", "0.1", "--q-max", "2"],
        ["solve", "--family", "illustrative", "--seed", "1"],
        ["analyze", "--family", "illustrative", "--seed", "1"],
        ["sweep", "--family", "illustrative", "--axis", "eps", "--values", "0.1", "--seed", "1"],
        ["check", "--family", "illustrative", "--seed", "1"],
    ],
)
def test_unread_flags_are_rejected(argv):
    with pytest.raises(SystemExit):
        main(argv)


def general_vec_file(tmp_path) -> str:
    """A saved problem with a dense GeneralVec operator, L(P) = sum_k B_k P B_k^H."""
    rng = np.random.default_rng(7)
    n = 5
    matrix = np.zeros((n * n, n * n), dtype=complex)
    for _ in range(3):
        b = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
        matrix += np.kron(b.conj(), b)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a0 = 0.15 * (h + h.conj().T) + np.diag(2.0 * np.arange(n))
    path = tmp_path / "general_vec.json"
    save_problem(Problem(a0=a0, op=GeneralVec(matrix=matrix), p=2), path)
    return str(path)


# problem arguments and the sweep axis that reproduces them; None: no sweep
# reads a file, so that case evaluates the table directly.  The illustrative
# family has no coupling alpha, so its liu cell is empty, as analyze's null.
LADDER_CASES = {
    "illustrative": (
        ["--family", "illustrative", "--eps", "0.1"],
        ["--axis", "eps", "--values", "0.1"],
    ),
    "laplacian-real": (
        ["--family", "laplacian-real", "--n", "7", "--p", "3", "--alpha", "10"],
        ["--axis", "alpha", "--values", "10"],
    ),
    "general-vec": (None, None),
}
TABLE_TOKENS = "c,c2,c2a,c2b,naive,liu,gap:0,gap:2,gap:99,tilde:1,tilde:3,tilde:99".split(",")


def report_value(report, token):
    """The field of an ``analyze`` report that a ladder token names."""
    name, _, index = token.partition(":")
    if not index:
        return report["c_naive" if name == "naive" else "c_liu" if name == "liu" else name]
    family = report["c_gap"] if name == "gap" else report["c_tilde"]
    if family is None:
        return None
    family = dict(family) if name == "tilde" else family
    return family[min(int(index), len(report["c_gap"]) - 1)]  # past the table: its last member


@pytest.mark.parametrize("filter_args", [[], ["--filter", "fermi", "--beta", "20"]],
                         ids=["step", "fermi"])
@pytest.mark.parametrize("case", list(LADDER_CASES))
def test_sweep_quantities_match_analyze(tmp_path, monkeypatch, capsys, case, filter_args):
    problem_args, sweep_args = LADDER_CASES[case]
    if problem_args is None:
        problem_args = ["--file", general_vec_file(tmp_path)]
    common = [*problem_args, *filter_args]
    report_path = tmp_path / "report.json"
    assert main(["analyze", *common, "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    expected = {t: report_value(report, t) for t in TABLE_TOKENS}
    assert all(expected[t] is not None for t in TABLE_TOKENS if t != "liu")
    assert expected["liu"] is None or not filter_args

    if sweep_args is None:
        problem = load_problem(problem_args[1])
        opts = ScfOptions(filter="fermi", beta=20.0) if filter_args else None
        _, _, jb = analyze_problem(problem, opts)
        got = ladder(problem, jb, TABLE_TOKENS)
    else:
        sweep_path = tmp_path / "sweep.csv"
        args = ["sweep", *common, *sweep_args, "--outputs", ",".join(TABLE_TOKENS)]
        assert main(args + ["--out", str(sweep_path)]) == 0
        _, rows = read_csv(sweep_path)
        got = {row[2]: float(row[3]) if row[3] else None for row in rows}
    assert got.keys() == expected.keys()
    for token, value in expected.items():
        assert (got[token] is None) == (value is None), token
        if value is not None:
            assert got[token] == pytest.approx(value, rel=1e-12), token

    # check's bound chain reads the same table
    chains = []

    def spy(problem, jb, tokens):
        chains.append(ladder(problem, jb, tokens))
        return chains[-1]

    monkeypatch.setattr(cli, "ladder", spy)
    assert main(["check", *common]) == 0
    assert f"PASS bound chain: c={report['c']:.6e}" in capsys.readouterr().out
    (chain,) = chains
    assert list(chain)[:3] == ["c2", "c2a", "c2b"]
    assert len(chain) == 3 + len(report["c_gap"])  # every member of the gap table
    for token, value in chain.items():
        want = report_value(report, token)
        assert (value is None) == (want is None), token
        if want is not None:
            assert value == pytest.approx(want, rel=1e-12), token


def test_parse_outputs_accepts_exactly_the_ladder_table():
    tokens = [name if low is None else f"{name}:{low}" for name, low in LADDER.items()]
    assert parse_outputs(" , ".join(tokens)) == tokens
    assert parse_outputs("gap:7,tilde:99") == ["gap:7", "tilde:99"]
    for bad in ["c:1", "liu:0", "gap", "gap:", "gap:x", "tilde:0", "gap:-1", "c_naive", "omega"]:
        with pytest.raises(SystemExit):
            parse_outputs(bad)


# Problem files of the wrong shape or kind: each entry replaces keys of a
# well-formed file (a list replaces the whole file)
MALFORMED_FILES = {
    "top-level-list": [1, 2],
    "meta-null": {"meta": None},
    "meta-list": {"meta": [1]},
    "operator-null": {"operator": None},
    "hadamard-without-mask": {"operator": {"kind": "hadamard"}},
    "general-vec-without-matrix": {"operator": {"kind": "general_vec"}},
    "diagonal-map-alpha-null": {"operator": {"kind": "diagonal_map", "coeff": [[1.0] * 3] * 3,
                                             "alpha": None}},
    "diagonal-map-complex-coeff": {"operator": {"kind": "diagonal_map",
                                                "coeff": [[[1.0, 0.5]] * 3] * 3}},
    **{f"diagonal-map-alpha-{name}": {"operator": {"kind": "diagonal_map",
                                                   "coeff": [[1.0] * 3] * 3, "alpha": alpha}}
       for name, alpha in (("string", "2"), ("bool", True), ("overflow", float("1e999")))},
    "p-null": {"p": None},
    "n-list": {"n": [2]},
    "p-float": {"p": 2.7},
    "p-bool": {"p": True},
    "p-string": {"p": "1"},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--family", "laplacian-real", "--n", "5", "--p", "5"],
        ["sweep", "--family", "laplacian-real", "--n", "6", "--p", "0", "--axis", "alpha",
         "--values", "10"],
        ["check", "--family", "illustrative", "--filter", "fermi"],
        ["analyze", "--family", "illustrative", "--beta", "20"],
        ["solve", "--family", "illustrative", "--damping", "0"],
        ["analyze", "--file", "no-such-problem.json"],
        ["sweep", "--family", "illustrative", "--axis", "eps", "--values", "0.1,x"],
        ["sweep", "--family", "illustrative", "--axis", "eps", "--grid", "0.1", "0.2", "x"],
        ["sweep", "--family", "illustrative", "--axis", "eps", "--grid", "0.1", "0.2", "0"],
        ["sweep", "--family", "illustrative", "--axis", "eps", "--grid", "0.1", "0.2", "-1"],
        ["analyze", "--family", "illustrative", "--q-max", "-1"],
        ["analyze", "--family", "illustrative", "--out", "no-such-dir/report.json"],
        ["solve", "--family", "illustrative", "--out", "no-such-dir/history.csv"],
        ["sweep", "--family", "illustrative", "--axis", "eps", "--values", "0.1",
         "--out", "no-such-dir/sweep.csv"],
        ["solve", "--family", "illustrative", "--out", "."],
        ["analyze", "--family", "illustrative", "--out", "."],
        ["sweep", "--family", "illustrative", "--axis", "eps", "--values", "0.1", "--out", "."],
        ["analyze", "--family", "illustrative", "--eps", "0", "--d", "-1"],
        ["sweep", "--family", "illustrative", "--d", "-1", "--axis", "eps", "--values", "0"],
        ["check", "--family", "illustrative", "--eps", "0", "--d", "-1"],
        ["analyze", "--family", "illustrative", "--filter", "fermi", "--beta", "1e-310"],
        ["sweep", "--family", "illustrative", "--filter", "fermi", "--beta", "1e-310",
         "--axis", "eps", "--values", "0.1"],
        ["check", "--family", "illustrative", "--filter", "fermi", "--beta", "1e-310"],
        ["solve", "--family", "illustrative", "--max-iter", "0"],
        ["analyze", "--family", "laplacian-real", "--n", "6", "--p", "3", "--alpha", "inf"],
        ["sweep", "--family", "laplacian-real", "--n", "6", "--p", "3", "--axis", "alpha",
         "--values", "nan"],
        ["sweep", "--family", "illustrative", "--axis", "eps", "--grid", "-1", "1", "3",
         "--grid-scale", "log"],
        ["check", "--family", "laplacian-real", "--h", "0"],
        ["analyze", "--family", "laplacian-real", "--n", "6", "--p", "3", "--alpha", "10",
         "--h", "1e-170"],
        ["analyze", "--family", "laplacian-real", "--n", "6", "--p", "3", "--alpha", "10",
         "--h", "1e200"],
        ["analyze", "--family", "illustrative", "--tol", "nan"],
        ["analyze", "--file", "nan-a0.json"],
        ["solve", "--file", "non-hermitian-mask.json"],
        ["analyze", "--file", "non-hermitian-mask.json"],
        ["check", "--file", "non-hermitian-mask.json"],
        ["solve", "--file", "non-hermitian-general-vec.json"],
        ["analyze", "--file", "non-hermitian-general-vec.json"],
        ["check", "--file", "non-hermitian-general-vec.json"],
        ["analyze", "--file", "alpha-not-a-number.json"],
        ["analyze", "--file", "alpha-infinite.json"],
        *(["analyze", "--file", f"{name}.json"] for name in MALFORMED_FILES),
        ["sweep", "--family", "illustrative", "--axis", "eps", "--values", "0.1",
         "--outputs", ""],
        ["sweep", "--family", "illustrative", "--axis", "eps", "--values", "0.1",
         "--outputs", ","],
    ],
    ids=["p-ge-n", "p-zero", "fermi-without-beta", "beta-without-fermi", "damping-zero",
         "missing-file", "sweep-bad-value", "sweep-bad-count", "sweep-count-zero",
         "sweep-count-negative", "negative-q-max", "analyze-out-missing-dir",
         "solve-out-missing-dir", "sweep-out-missing-dir", "solve-out-is-a-directory",
         "analyze-out-is-a-directory", "sweep-out-is-a-directory", "analyze-zero-gap",
         "sweep-zero-gap",
         "check-zero-gap", "analyze-mu-not-bracketed", "sweep-mu-not-bracketed",
         "check-mu-not-bracketed", "solve-max-iter-zero", "analyze-alpha-inf",
         "sweep-value-nan", "sweep-log-grid-through-zero", "check-h-zero",
         "analyze-h-squared-underflows", "analyze-h-squared-overflows", "analyze-tol-nan",
         "analyze-nan-in-a0", "solve-non-hermitian-mask",
         "analyze-non-hermitian-mask", "check-non-hermitian-mask",
         "solve-non-hermitian-general-vec", "analyze-non-hermitian-general-vec",
         "check-non-hermitian-general-vec", "analyze-alpha-not-a-number",
         "analyze-alpha-infinite", *(f"analyze-{name}" for name in MALFORMED_FILES),
         "sweep-no-outputs", "sweep-outputs-only-commas"],
)
def test_bad_input_is_one_line_on_stderr(tmp_path, argv):
    # the problem file of the NaN case: the illustrative problem with A0[1, 1] = NaN
    a0 = [[0.0, 0.1, 0.0], [0.1, float("nan"), 0.1], [0.0, 0.1, 10.0]]
    mask = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 100.0]]
    (tmp_path / "nan-a0.json").write_text(json.dumps(
        {"n": 3, "p": 1, "A0": a0, "operator": {"kind": "hadamard", "mask": mask}}))
    # two operators that do not keep A(P) Hermitian: a mask with mask[0, 1] !=
    # conj(mask[1, 0]), and L(P) = B P with B not a multiple of the identity
    illustrative = build_illustrative(0.1)
    skewed = np.array(illustrative.op.mask)
    skewed[0, 1] = 1.0
    save_problem(replace(illustrative, op=HadamardMask(mask=skewed)),
                 tmp_path / "non-hermitian-mask.json")
    b = np.diag([1.0, 2.0, 3.0]) + np.triu(np.ones((3, 3)), 1)
    save_problem(replace(illustrative, op=GeneralVec(matrix=np.kron(np.eye(3), b))),
                 tmp_path / "non-hermitian-general-vec.json")
    # a coupling alpha in the metadata that is not a finite number
    for name, alpha in (("alpha-not-a-number", "x"), ("alpha-infinite", float("inf"))):
        save_problem(replace(illustrative, meta={"alpha": alpha}), tmp_path / f"{name}.json")
    good = {"n": 3, "p": 1, "A0": illustrative.a0.real.tolist(),
            "operator": {"kind": "hadamard", "mask": mask}}
    for name, malformed in MALFORMED_FILES.items():
        payload = malformed if isinstance(malformed, list) else {**good, **malformed}
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "scfconv.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--family", "illustrative"],
        ["analyze", "--family", "illustrative", "--q-max", "3"],
        ["sweep", "--family", "illustrative", "--axis", "eps", "--values", "0.1"],
    ],
    ids=["solve", "analyze", "sweep"],
)
def test_an_out_that_names_a_directory_exits_before_any_work(tmp_path, argv, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the run started before --out was checked")

    for module, name in [(cli, "scf_solve"), (cli, "locate_fixed_point"),
                         (cli, "locate_fixed_points"), (analysis, "locate_fixed_point")]:
        monkeypatch.setattr(module, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    # a string code: Python prints it as the one stderr line and exits 1
    assert isinstance(exc.value.code, str) and "is a directory" in exc.value.code
    assert len(exc.value.code.splitlines()) == 1
    assert capsys.readouterr() == ("", "")


def test_an_n_sweep_prints_the_n_it_builds(tmp_path):
    argv = ["sweep", "--family", "laplacian-real", "--p", "3", "--alpha", "10", "--axis", "n",
            "--outputs", "c"]
    rounded, exact = tmp_path / "rounded.csv", tmp_path / "exact.csv"
    assert main([*argv, "--values", "6.4,5.6", "--out", str(rounded)]) == 0
    assert main([*argv, "--values", "6,6", "--out", str(exact)]) == 0
    assert rounded.read_text() == exact.read_text()
    _, rows = read_csv(exact)
    assert [row[1] for row in rows] == ["6", "6"]


def test_a_failing_sweep_cell_keeps_the_rows_before_it(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["sweep", "--family", "illustrative", "--d", "-1", "--axis", "eps", "--values"]
    runs = [
        subprocess.run([sys.executable, "-m", "scfconv.cli", *argv, values], cwd=tmp_path,
                       env=env, capture_output=True, text=True, timeout=120)
        for values in ("0.1", "0.1,0")
    ]
    assert runs[0].returncode == 0 and runs[0].stdout
    # the cell at eps = 0 has a zero gap
    assert runs[1].returncode == 1
    assert len(runs[1].stderr.splitlines()) == 1, runs[1].stderr
    assert runs[1].stdout == runs[0].stdout


@pytest.mark.parametrize(
    "argv,before,failing",
    [
        (["--family", "illustrative", "--d", "-1", "--axis", "eps"], "0.1", "0"),
        (["--family", "laplacian-complex", "--p", "3", "--axis", "n"], "6", "3"),
        (["--family", "illustrative", "--filter", "fermi", "--beta", "1e-310", "--axis", "eps"],
         "", "0.1"),
    ],
    ids=["zero-gap", "unbuildable-problem", "mu-not-bracketed"],
)
def test_the_first_failing_cell_ends_a_lockstep_sweep_as_it_ends_one_cell(
    capsys, argv, before, failing
):
    # The grid is the cell ``before`` the failing one (if any), the failing
    # one, and one after it; under beta = 1e-310 no cell can bracket mu (the
    # bracket's half-width (1 + ln n) / beta overflows).
    def sweep(values):
        try:
            code = main(["sweep", *argv, "--values", values])
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    after = {"eps": "0.2", "n": "8"}[argv[argv.index("--axis") + 1]]
    code, rows_before = sweep(before) if before else (0, "")
    assert code == 0
    alone = sweep(failing)
    assert isinstance(alone[0], str) and alone[1] == ""  # a one-line message, no rows
    grid = ",".join(v for v in (before, failing, after) if v)
    assert sweep(grid) == (alone[0], rows_before)


def test_a_grid_of_one_n_and_p_runs_its_plain_runs_as_one_batch(monkeypatch):
    # Ten cells of 75-111 plain steps, all convergent: one plain run of all
    # ten, and no fallback
    argv = ["sweep", "--family", "laplacian-complex", "--n", "30", "--p", "15",
            "--axis", "alpha", "--grid", "1.6e5", "1.9e5", "10", "--outputs", "c",
            "--out", os.devnull]
    calls = []

    def spy(batch, opts, stall):
        calls.append((opts.damping, len(batch)))
        return run_batch(batch, opts, stall)

    run_batch = scf._run_batch
    monkeypatch.setattr(scf, "_run_batch", spy)
    assert main(argv) == 0
    assert calls == [(1.0, 10)]


def test_check_says_it_skips_the_cyclic_radii_past_n20(capsys):
    code = main(["check", "--family", "laplacian-real", "--n", "22", "--p", "5", "--alpha", "10"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "INFO cyclic-permutation spectral radii: skipped, n > 20" in out.splitlines()


def test_check_passes_under_fermi(capsys):
    code = main(["check", "--family", "illustrative", "--filter", "fermi", "--beta", "20"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out
    assert "PASS finite-difference oracle" in out
    assert "PASS cyclic-permutation spectral radii" in out
    assert "PASS bound chain" in out


def test_a_fermi_run_needs_no_gap_in_A0(tmp_path, capsys):
    # lambda_p = lambda_p+1 = 1 in A0: it has no step projector, but a Fermi
    # density, the start of a Fermi run
    path = tmp_path / "tie.json"
    path.write_text(json.dumps({"n": 4, "p": 2, "A0": np.diag([0.0, 1.0, 1.0, 2.0]).tolist(),
                                "operator": {"kind": "hadamard", "mask": [[0.1] * 4] * 4}}))
    fermi = ["--file", str(path), "--filter", "fermi", "--beta", "5"]
    report = tmp_path / "report.json"
    assert main(["analyze", *fermi, "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["converged"] and payload["c"] == pytest.approx(0.125, rel=1e-12)
    assert main(["check", *fermi]) == 0
    assert "FAIL" not in capsys.readouterr().out
    with pytest.raises(SystemExit, match="zero gap"):  # the step filter needs the gap
        main(["analyze", "--file", str(path)])


def test_sweep_under_fermi_leaves_the_step_ladder_empty(tmp_path):
    out = tmp_path / "sweep.csv"
    outputs = "c,c2,c2a,c2b,naive,liu,gap:1,tilde:1"
    code = main(["sweep", "--family", "illustrative", "--axis", "eps", "--values", "0.1",
                 "--filter", "fermi", "--beta", "20", "--outputs", outputs, "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    values = {row[2]: row[3] for row in rows}
    c = float(values["c"])
    assert c <= float(values["c2"]) <= float(values["naive"])
    assert all(c <= float(values[t]) for t in ("c2a", "c2b", "gap:1"))
    assert 0.0 < float(values["tilde:1"]) <= float(values["c2"]) * (1 + 1e-12)
    assert values["liu"] == ""  # a Laplacian bound of the step map


def test_analyze_under_fermi_past_the_mu_tolerance_ulp(capsys):
    # one ulp of mu near lambda_p ~ 3568 moves the trace by more than 1e-12
    code = main(["analyze", "--family", "laplacian-real", "--n", "20", "--p", "7",
                 "--alpha", "1e5", "--filter", "fermi", "--beta", "20"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["converged"]
    problem = build_laplacian(20, 1e5, 7, variant="real")
    bundle, _ = locate_fixed_point(problem, ScfOptions(filter="fermi", beta=20.0))
    fd = jacobian_fd(problem, bundle.p_star, filter="fermi", beta=20.0)
    assert report["c"] == pytest.approx(convergence_factor(fd), rel=1e-6)


# Two levels 1e-7 apart: close on the spectrum's scale, not on beta's
TIE_FILE = {"n": 3, "p": 1, "A0": [[0.0, 0.0, 0.0], [0.0, 1e-7, 0.0], [0.0, 0.0, 1e4]],
            "operator": {"kind": "hadamard", "mask": [[1e-9, 1e-9, 0.0], [1e-9, 1e-9, 0.0],
                                                      [0.0, 0.0, 1e-9]]}}


@pytest.mark.parametrize("beta", ["1e8", "1e5"])
def test_check_passes_on_levels_close_on_the_spectrum_scale_only(tmp_path, capsys, beta):
    path = tmp_path / "tie.json"
    path.write_text(json.dumps(TIE_FILE))
    code = main(["check", "--file", str(path), "--filter", "fermi", "--beta", beta])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS finite-difference oracle" in out


def test_check_passes_where_mu_lies_past_the_spectrum_at_small_beta(capsys):
    # at beta = 0.05 the trace at lambda_1 - 1 is 1.33 > p = 1: mu lies below it
    code = main(["check", "--family", "illustrative", "--eps", "0.1", "--filter", "fermi",
                 "--beta", "0.05"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS finite-difference oracle" in out

"""End-to-end tests of the command-line interface."""

import csv
import json

import numpy as np
import pytest

from scfconv import HadamardMask, Problem, save_problem
from scfconv.cli import main


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


def test_solve_requires_problem_source():
    with pytest.raises(SystemExit):
        main(["solve"])


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
    assert payload["omega"][3] == [[4, 3], [3, 4], [4, 2], [2, 4], [5, 3], [3, 5]]
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
    code = main(
        ["check", "--family", "illustrative", "--eps", "0.1", "--corrupt-jacobian"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


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
    ],
)
def test_unread_flags_are_rejected(argv):
    with pytest.raises(SystemExit):
        main(argv)


def test_sweep_quantities_match_analyze(tmp_path):
    common = ["--family", "laplacian-real", "--n", "7", "--p", "3", "--alpha", "10"]
    report_path, sweep_path = tmp_path / "report.json", tmp_path / "sweep.csv"
    assert main(["analyze", *common, "--out", str(report_path)]) == 0
    outputs = "c,c2,c2a,c2b,naive,liu,gap:0,gap:2,gap:99,tilde:1,tilde:3,tilde:99"
    args = ["sweep", *common, "--axis", "alpha", "--values", "10", "--outputs", outputs]
    assert main(args + ["--out", str(sweep_path)]) == 0
    report = json.loads(report_path.read_text())
    _, rows = read_csv(sweep_path)
    got = {row[2]: float(row[3]) for row in rows}
    tilde = dict(report["c_tilde"])
    expected = {
        "c": report["c"], "c2": report["c2"], "c2a": report["c2a"], "c2b": report["c2b"],
        "naive": report["c_naive"], "liu": report["c_liu"],
        "gap:0": report["c_gap"][0], "gap:2": report["c_gap"][2], "gap:99": report["c_gap"][12],
        "tilde:1": tilde[1], "tilde:3": tilde[3], "tilde:99": tilde[12],
    }
    assert got == pytest.approx(expected, rel=1e-12)


def test_check_passes_under_fermi(capsys):
    code = main(["check", "--family", "illustrative", "--filter", "fermi", "--beta", "20"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out
    assert "PASS finite-difference oracle" in out
    assert "INFO cyclic-permutation spectral radii: skipped" in out


def test_sweep_under_fermi_leaves_the_step_ladder_empty(tmp_path):
    out = tmp_path / "sweep.csv"
    outputs = "c,c2,c2a,c2b,naive,liu,gap:1,tilde:1"
    code = main(["sweep", "--family", "illustrative", "--axis", "eps", "--values", "0.1",
                 "--filter", "fermi", "--beta", "20", "--outputs", outputs, "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    values = {row[2]: row[3] for row in rows}
    assert float(values["c"]) <= float(values["c2"])
    assert all(values[t] == "" for t in outputs.split(",")[2:])

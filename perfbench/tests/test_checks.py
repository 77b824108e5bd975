"""Positive and negative controls of the output checks."""

import json

import pytest
import scfconv.cli
from checks import References, check_case
from run import run_case
from workloads import Case, build_cases


def laplacian_case(q_max=2):
    spec = {"family": "laplacian-real", "n": 6, "p": 2, "alpha": 10.0, "q_max": q_max}
    argv = ("analyze", "--family", "laplacian-real", "--n", "6", "--p", "2", "--alpha", "10",
            "--q-max", str(q_max))
    return Case("analyze-small", "analyze", argv, spec=spec)


def run_and_check(case, refs=None):
    outcome = run_case(scfconv.cli, case)
    return outcome, check_case(case, outcome.rc, outcome.stdout, refs or References())


def test_analyze_report_passes():
    _, verdicts = run_and_check(laplacian_case())
    assert [v.errors for v in verdicts] == [[]]


def test_report_with_c2_below_c_fails():
    case = laplacian_case()
    outcome = run_case(scfconv.cli, case)
    report = json.loads(outcome.stdout)
    report["c2"] = 0.5 * report["c"]
    (verdict,) = check_case(case, 0, json.dumps(report), References())
    assert verdict.failed and not verdict.known
    assert any("c <= c2" in reason for reason, _ in verdict.errors)


def test_unparsable_report_fails():
    (verdict,) = check_case(laplacian_case(), 0, '{"c": 0.1', References())
    assert verdict.failed and "unparsable" in verdict.errors[0][0]


def illustrative_check(*extra):
    return Case("check-illustrative", "check",
                ("check", "--family", "illustrative", "--eps", "0.1") + extra,
                spec={"family": "illustrative", "eps": 0.1, "n": 3, "p": 1})


def test_check_passes_on_illustrative():
    outcome, verdicts = run_and_check(illustrative_check())
    assert outcome.rc == 0
    assert [v.errors for v in verdicts] == [[]]


def test_check_exit_1_fails():
    outcome, (verdict,) = run_and_check(illustrative_check("--corrupt-jacobian"))
    assert outcome.rc == 1
    assert verdict.failed and not verdict.known


def test_fd_false_fail_is_tagged_only_on_the_documented_case(tmp_path):
    cases = build_cases("oracle", 0, str(tmp_path))
    case = next(c for c in cases if c.kind == "check-laplacian-real-n8")
    refs = References()
    outcome = run_case(scfconv.cli, case)
    lines = [line for line in outcome.stdout.splitlines() if "finite-difference" not in line]
    lines.insert(0, "FAIL finite-difference oracle: max column error 3.135e-05")
    stdout = "\n".join(lines)
    (verdict,) = check_case(case, 1, stdout, refs)
    assert verdict.known
    renamed = Case("check-other", case.command, case.argv, spec=case.spec)
    (verdict,) = check_case(renamed, 1, stdout, refs)
    assert verdict.failed and not verdict.known


@pytest.fixture(scope="module")
def small_sweep():
    values = [20.0, 40.0]
    case = Case(
        "sweep-small", "sweep",
        ("sweep", "--family", "laplacian-complex", "--n", "6", "--p", "3", "--axis", "alpha",
         "--values", "20,40", "--outputs", "c,c2,naive"),
        cells=2,
        spec={"family": "laplacian-complex", "n": 6, "p": 3, "axis": "alpha", "values": values,
              "outputs": ["c", "c2", "naive"], "filter": "step"},
    )
    return case, run_case(scfconv.cli, case)


def test_sweep_passes(small_sweep):
    case, outcome = small_sweep
    verdicts = check_case(case, outcome.rc, outcome.stdout, References())
    assert len(verdicts) == 2 and not any(v.failed for v in verdicts)


def test_truncated_sweep_csv_fails_every_cell(small_sweep):
    case, outcome = small_sweep
    truncated = "\n".join(outcome.stdout.splitlines()[:-1])
    verdicts = check_case(case, 0, truncated, References())
    assert len(verdicts) == 2
    assert all(v.failed and not v.known for v in verdicts)
    assert "rows" in verdicts[0].errors[0][0]


def test_raised_invocation_fails():
    (verdict,) = check_case(laplacian_case(), None, "", References())
    assert verdict.failed and not verdict.known


def test_malformed_report_fails_instead_of_raising():
    case = laplacian_case()
    outcome = run_case(scfconv.cli, case)
    report = json.loads(outcome.stdout)
    report["c_tilde"] = [7]
    (verdict,) = check_case(case, 0, json.dumps(report), References())
    assert verdict.failed and "malformed" in verdict.errors[0][0]

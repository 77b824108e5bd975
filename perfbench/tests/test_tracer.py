"""Span bookkeeping, wrapping and the determinism of traced counts."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest
import scfconv.analysis
import scfconv.cli
from run import end_to_end, per_layer, run_case
from tracer import Tracer, find_targets, layer_metrics, self_times
from workloads import Case

BENCH = Path(__file__).resolve().parent.parent


def test_self_time_on_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1, "a"],
        ["child", 1.0, 4.0, 0, "a"],
        ["grandchild", 2.0, 3.0, 1, "a"],
        ["child", 3.5, 6.0, 0, "a"],  # overlaps the first child: counted once
        ["child", 9.0, 12.0, 0, "a"],  # runs past the parent: clipped
        ["other", 20.0, 21.0, -1, "b"],
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0, 1.0])


def test_missing_function_reports_zero_calls():
    analysis = types.ModuleType("fake.analysis")

    def convergence_factor(j):
        return 0.5

    convergence_factor.__module__ = analysis.__name__
    analysis.convergence_factor = convergence_factor
    tracer = Tracer()
    targets = find_targets({"analysis": analysis})
    assert [name for name, *_ in targets] == ["analysis.convergence_factor"]
    wrapped = tracer.wrap("analysis.convergence_factor", convergence_factor)
    assert wrapped(None) == 0.5
    metrics = layer_metrics(tracer, {})
    assert metrics["analysis.bound_cyclic.calls"] == (0, "count")
    assert metrics["analysis.convergence_factor.total_s"][0] >= 0.0
    assert metrics["scf.useful_step_ratio"] == (0.0, "ratio")


def small_cases():
    return [
        Case("analyze", "analyze", ("analyze", "--family", "laplacian-complex", "--n", "6",
                                    "--p", "3", "--alpha", "30", "--q-max", "2")),
        Case("sweep", "sweep", ("sweep", "--family", "illustrative", "--axis", "eps",
                                "--values", "0.05,0.3", "--filter", "fermi", "--beta", "20",
                                "--outputs", "c,c2"), cells=2),
    ]


def traced_counts():
    tracer = Tracer()
    tracer.install()
    try:
        for case in small_cases():
            tracer.case = case.kind
            assert run_case(scfconv.cli, case).rc == 0
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, {})
    return tracer, {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes", "ratio")}


def test_install_follows_every_binding_and_uninstall_restores():
    originals = (scfconv.cli.main, scfconv.analysis.scf_step, scfconv.scf.scf_step,
                 scfconv.analysis.ConvergenceReport.to_dict)
    tracer, counts = traced_counts()
    assert (scfconv.cli.main, scfconv.analysis.scf_step, scfconv.scf.scf_step,
            scfconv.analysis.ConvergenceReport.to_dict) == originals
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "analysis.analyze_problem", "scf.scf_step",
            "matops.fermi_chemical_potential", "analysis.ConvergenceReport.to_dict"} <= names
    assert all(span[4] in ("analyze", "sweep") for span in tracer.spans)
    assert counts["scf.scf_step.calls"] > 0 and counts["problems.lprime_bytes"] > 0


def test_counts_repeat_exactly():
    _, first = traced_counts()
    _, second = traced_counts()
    assert first == second


def test_exits_nonzero_without_program_sources(tmp_path):
    subprocess.run(["cp", "-r", str(BENCH), str(tmp_path / "perfbench")], check=True)
    subprocess.run(["cp", str(BENCH.parent / "BENCHMARK.json"), str(tmp_path)], check=False)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_every_metric_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {name: unit for name, (_, unit) in per_layer(Tracer(), 0, 0.0, 1.0, 1.0).items()}
    assert printed == listed
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    printed = {name: unit for name, (_, unit) in end_to_end(1, 1.0, 1.0, 1.0).items()}
    assert printed == listed

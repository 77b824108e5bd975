"""scfconv benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload {ladder,sweep,oracle} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/`` of the
checkout and driven in-process through its CLI entry point
``scfconv.cli.main(argv)``; the benchmark writes the seeded input files and
the program receives only those files and argv.

Phases of a run:

1. set-up: ``setup_s`` is the median over fresh interpreters, each timed
   from its launch until it has imported scfconv and generated the inputs;
2. timed phase, tracing off: the workload's cases back-to-back, round after
   round, until ``--seconds`` have passed (at least one round);
3. with ``--trace 1``, one more round with every public scfconv function
   wrapped (see ``tracer.py``);
4. correctness checks of every output (see ``checks.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  A full
record (environment, per-case latencies, failures, spans) goes to
``.perfbench_out/``.  ``correct`` is false when a case fails for any reason
other than the documented defects in ``checks.KNOWN_DEFECTS``; those still
count in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
# BLAS threads: at most two, never more than the cores this process may use.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import scfconv from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "scfconv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no scfconv sources under {src}")
    sys.path.insert(0, str(src))
    import scfconv
    import scfconv.cli

    if Path(scfconv.__file__).resolve().parent != src / "scfconv":
        raise SystemExit(f"perfbench: scfconv was imported from {scfconv.__file__}, not {src}")
    return scfconv.cli


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    from importlib import metadata

    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "clients": 1,
    }


def setup(workload: str, seed: int, workdir: str):
    """Everything a run needs before its first case: program and inputs."""
    cli = import_program()
    from workloads import build_cases

    return cli, build_cases(workload, seed, workdir)


def probe_setup(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: set up, say so, clean up."""
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=WORK_DIR)
    try:
        setup(workload, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median launch-to-ready time of fresh interpreters doing the set-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            try:
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError("set-up probe did not exit")
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
        times.append(ready - start)
    return statistics.median(times)


@dataclass
class Outcome:
    """One invocation: exit code (None if it raised), captured stdout, latency."""

    case: object
    rc: int | None
    stdout: str
    latency: float
    error: str | None
    traced: bool


def run_case(cli, case, traced: bool = False) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(case.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed case, not a failed benchmark
        rc, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return Outcome(case, rc, out.getvalue(), latency, error, traced)


def timed_phase(cli, cases, seconds: float) -> list:
    """Closed loop: whole rounds of the case list until ``seconds`` have passed."""
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.extend(run_case(cli, case) for case in cases)
    return outcomes


def median_latencies(outcomes) -> dict:
    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.case.kind, []).append(o.latency)
    return {kind: statistics.median(times) for kind, times in by_kind.items()}


def traced_round(cli, cases):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    outcomes = []
    start = time.perf_counter()
    try:
        for case in cases:
            tracer.case = case.kind
            outcomes.append(run_case(cli, case, traced=True))
    finally:
        elapsed = time.perf_counter() - start
        tracer.uninstall()
    return tracer, outcomes, elapsed


def check_all(outcomes):
    from checks import References, check_case

    refs = References()
    verdicts = []
    for o in outcomes:
        found = check_case(o.case, o.rc, o.stdout, refs)
        if o.error:
            for v in found:
                v.fail(o.error)
        verdicts.extend(found)
    return verdicts


def end_to_end(cells: int, round_s: float, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "cases_per_s": (cells / round_s, "cases/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, output_bytes: int, error_rate: float, traced_s: float, round_s: float):
    from tracer import layer_metrics

    return layer_metrics(tracer, {
        "cli.output_bytes": (output_bytes, "bytes"),
        "cases.error_rate": (error_rate, "ratio"),
        "trace.round_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - round_s, "s"),
    })


def compact_spans(spans) -> dict:
    """Spans as rows of (name index, start, end, parent, case index), times in
    integer nanoseconds from the first span."""
    names, cases = {}, {}
    origin = spans[0][1] if spans else 0.0
    rows = [
        [names.setdefault(name, len(names)), round((start - origin) * 1e9),
         round((end - origin) * 1e9), parent, cases.setdefault(case, len(cases))]
        for name, start, end, parent, case in spans
    ]
    return {"names": list(names), "cases": list(cases),
            "fields": ["name", "start_ns", "end_ns", "parent", "case"], "rows": rows}


def main(argv=None) -> int:
    pin_blas_threads()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        cli, cases = setup(args.workload, args.seed, workdir)
        env = environment(args.seed)
        setup_s = measure_setup(args.workload, args.seed)

        outcomes = timed_phase(cli, cases, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        medians = median_latencies(outcomes)
        round_s = sum(medians.values())
        cells = sum(case.cells for case in cases)
        tracer = None
        if args.trace:
            tracer, traced, traced_s = traced_round(cli, cases)
            outcomes += traced
        verdicts = check_all(outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(verdicts)
    failed = sum(v.failed for v in verdicts)
    unexpected = [v for v in verdicts if v.failed and not v.known]
    error_rate = failed / attempted

    if args.trace:
        traced_bytes = sum(len(o.stdout.encode()) for o in outcomes if o.traced)
        values = per_layer(tracer, traced_bytes, error_rate, traced_s, round_s)
    else:
        values = end_to_end(cells, round_s, setup_s, peak_rss_mb)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    failures = {}
    for v in verdicts:
        for reason, tag in v.errors:
            key = (v.label, reason, tag)
            failures[key] = failures.get(key, 0) + 1
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "error_rate": error_rate,
        "rounds_timed": len(outcomes) / len(cases) - (1 if args.trace else 0),
        "median_latency_s": medians,
        "latencies_s": [[o.case.kind, o.latency, o.rc, o.traced] for o in outcomes],
        "failures": [
            {"case": label, "reason": reason, "known_defect": tag, "count": count}
            for (label, reason, tag), count in failures.items()
        ],
        "metrics": metrics,
    }
    if tracer is not None:
        record["spans"] = compact_spans(tracer.spans)
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh)

    print(f"# environment {json.dumps(env)}")
    for kind, value in medians.items():
        print(f"# median latency {kind}: {value:.4f} s")
    print(f"# error_rate {error_rate:.6g} ({failed} of {attempted} cases failed)")
    for item in record["failures"]:
        known = f" [known defect: {item['known_defect']}]" if item["known_defect"] else ""
        print(f"# FAILED x{item['count']} {item['case']}: {item['reason']}{known}")
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"# record written to {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

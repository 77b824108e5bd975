"""Command-line surface: solves, analyses, oracle checks and parameter sweeps.

Outputs are deterministic given the problem and the options.  Numeric values
are written with full double precision (shortest round-trip representation),
so re-reading a CSV/JSON reproduces the computed values bit-faithfully.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .analysis import (
    LADDER,
    analyze_problem,
    assemble_jacobian,
    convergence_factor,
    cyclic_spectral_radii,
    jacobian_fd,
    ladder,
    ladder_token,
    max_column_relative_error,
    realified_jacobian_fd,
)
from .matops import ChemicalPotentialError, ZeroGapError
from .problems import Problem, build_illustrative, build_laplacian, load_problem
from .scf import ScfOptions, locate_fixed_point, locate_fixed_points, measured_rate, scf_solve

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NOT_CONVERGED = 2


def fmt(value) -> str:
    """17-significant-digit text form; empty string for missing values."""
    if value is None:
        return ""
    return format(float(value), ".17g")


def add_problem_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        choices=["illustrative", "laplacian-complex", "laplacian-real"],
        help="built-in problem family",
    )
    parser.add_argument("--file", help="problem JSON file (alternative to --family)")
    parser.add_argument("--eps", type=float, default=0.1, help="illustrative coupling")
    parser.add_argument("--d", type=float, default=0.16, help="illustrative gap parameter")
    parser.add_argument("--n", type=int, default=30, help="problem dimension")
    parser.add_argument("--p", type=int, default=15, help="occupation count")
    parser.add_argument("--alpha", type=float, default=40.0, help="Laplacian coupling")
    parser.add_argument("--h", type=float, default=None, help="grid spacing (default 1/(n+1))")


def add_solver_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-12)
    parser.add_argument("--max-iter", type=int, default=500)
    parser.add_argument("--filter", choices=["step", "fermi"], default="step")
    parser.add_argument("--beta", type=float, default=None, help="Fermi smearing parameter")


def write_csv(path, header, rows) -> None:
    """Write a header and rows to ``path``, or to stdout when path is None.

    Each row is written as ``rows`` yields it, so a failure keeps the rows
    before it; nothing is written before the first row is in hand.
    """
    rows = iter(rows)
    head = [header, *itertools.islice(rows, 1)]
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerows(head)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def build_problem(args) -> Problem:
    """The problem the arguments name; bad input exits with a one-line message."""
    try:
        if args.file:
            problem = load_problem(args.file)
            problem.op.require_hermitian_preserving()  # so that every A(P) is Hermitian
            return problem
        if args.family == "illustrative":
            return build_illustrative(args.eps, d=args.d)
        if args.family in ("laplacian-complex", "laplacian-real"):
            variant = args.family.split("-")[1]
            return build_laplacian(args.n, args.alpha, args.p, variant=variant, h=args.h)
    except (ValueError, OSError) as exc:
        raise SystemExit(str(exc)) from None
    raise SystemExit("either --family or --file is required")


def build_opts(args) -> ScfOptions:
    try:
        return ScfOptions(tol=args.tol, max_iter=args.max_iter, filter=args.filter,
                          beta=args.beta, damping=getattr(args, "damping", 1.0))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def cmd_solve(args) -> int:
    problem = build_problem(args)
    bundle = scf_solve(problem, opts=build_opts(args))
    to_fixed = bundle.errors_to_fixed
    rows = [
        [k + 1, fmt(rec.step_err), fmt(None if to_fixed is None else to_fixed[k]),
         fmt(rec.lambda_p), fmt(rec.lambda_p1), fmt(rec.gap)]
        for k, rec in enumerate(bundle.history)
    ]
    header = ["iter", "step_err_fro", "err_to_fixed_point_fro", "lambda_p", "lambda_p1", "gap"]
    write_csv(args.out, header, rows)
    if not bundle.converged:
        print(
            f"not converged after {bundle.iterations} iterations "
            f"(last step {bundle.history[-1].step_err:.3e})",
            file=sys.stderr,
        )
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.q_max is not None and args.q_max < 0:
        raise SystemExit(f"--q-max must be >= 0, got {args.q_max}")
    problem = build_problem(args)
    report, _, _ = analyze_problem(
        problem, opts=build_opts(args), q_max=args.q_max, fd_check=args.fd_check
    )
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
    if not report.converged:
        print("no fixed point located; partial report emitted", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def parse_outputs(spec: str):
    """The comma-separated tokens of the ladder table in ``spec``."""
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise SystemExit(f"no output quantities in --outputs {spec!r}")
    for token in tokens:
        try:
            ladder_token(token)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    return tokens


def sweep_grid(args):
    try:
        if args.values:
            grid = [float(v) for v in args.values.split(",")]
        elif args.grid:
            lo, hi, count = float(args.grid[0]), float(args.grid[1]), int(args.grid[2])
            if count < 1:
                raise SystemExit(f"bad sweep grid: COUNT must be >= 1, got {count}")
            space = np.geomspace if args.grid_scale == "log" else np.linspace
            with np.errstate(invalid="ignore"):
                grid = [float(v) for v in space(lo, hi, count)]
        else:
            raise SystemExit("sweep needs --values or --grid LO HI COUNT")
    except ValueError as exc:
        raise SystemExit(f"bad sweep grid: {exc}") from None
    if not np.all(np.isfinite(grid)):
        raise SystemExit(f"bad sweep grid: every value must be finite, got {grid}")
    if args.axis == "n":  # the n each cell builds and its row prints
        grid = [round(v) for v in grid]
    return grid


def problem_at(args, value: float) -> Problem:
    """The problem of one sweep cell: the family with ``--axis`` set to ``value``."""
    if args.family == "illustrative" and args.axis != "eps":
        raise SystemExit("illustrative family sweeps over --axis eps")
    if args.family != "illustrative" and args.axis == "eps":
        raise SystemExit(f"axis 'eps' not valid for family {args.family}")
    return build_problem(argparse.Namespace(**{**vars(args), "file": None, args.axis: value}))


def cmd_sweep(args) -> int:
    if not args.family:
        raise SystemExit("sweep requires --family")
    outputs = parse_outputs(args.outputs)
    grid = sweep_grid(args)
    opts = build_opts(args)
    problems, unbuilt = [], None
    for value in grid:
        try:
            problems.append(problem_at(args, value))
        except SystemExit as exc:
            unbuilt = exc
            break

    def rows():
        # The first failing cell in grid order ends the sweep after the rows before it
        for value, problem, run in zip(grid, problems, locate_fixed_points(problems, opts)):
            if isinstance(run, Exception):
                raise run
            bundle, plain = run
            measured = measured_rate(plain)
            converged = int(plain.converged)
            quantities = {}
            if bundle.converged:
                quantities = ladder(problem, assemble_jacobian(bundle, problem.op), outputs)
            for token in outputs:
                yield [args.axis, fmt(value), token, fmt(quantities.get(token)), converged,
                       fmt(measured)]
        if unbuilt is not None:
            raise unbuilt

    header = ["axis_name", "axis_value", "quantity", "value", "converged", "measured_rate"]
    write_csv(args.out, header, rows())
    return EXIT_OK


def verdict(ok: bool, text: str) -> int:
    """Print a PASS or FAIL line; 1 for a failure."""
    print(f"{'PASS' if ok else 'FAIL'} {text}")
    return int(not ok)


def cmd_check(args) -> int:
    problem = build_problem(args)
    bundle, _ = locate_fixed_point(problem, build_opts(args))
    if not bundle.converged:
        print("FAIL: no fixed point located")
        return EXIT_NOT_CONVERGED
    jb = assemble_jacobian(bundle, problem.op)
    fd = jacobian_fd(problem, bundle.p_star, filter=bundle.filter, beta=bundle.beta)
    dense = jb.dense()
    if args.corrupt_jacobian:
        # the diagonal of J[S, S], the block every check reads, in the core and in the dense J
        jb.j_ss[np.diag_indices(jb.support.size)] += 1e-3
        dense[jb.support, jb.support] += 1e-3
    fd_err = max_column_relative_error(dense, fd)
    failures = verdict(fd_err <= 1e-6, f"finite-difference oracle: max column error {fd_err:.3e}")

    rng = np.random.default_rng(0)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=problem.n))
    rotated = assemble_jacobian(replace(bundle, x=bundle.x * phases[None, :]), problem.op)
    pairs = [(rotated.j_ss, jb.j_ss), (rotated.c2, jb.c2), (rotated.c2a, jb.c2a)]
    del dense, rotated  # neither is read past here
    phase_err = max(float(np.max(np.abs(a - b), initial=0.0) / np.max(np.abs(b), initial=1.0))
                    for a, b in pairs)
    failures += verdict(phase_err <= 1e-12, f"phase invariance: residual {phase_err:.3e}")

    if problem.n > 20:
        print("INFO cyclic-permutation spectral radii: skipped, n > 20")
    else:
        radii = cyclic_spectral_radii(jb)
        spread = max(radii) - min(radii)
        ok = spread <= 1e-10 * max(1.0, max(radii))
        failures += verdict(ok, f"cyclic-permutation spectral radii: spread {spread:.3e}")

    c = jb.c
    gap_tokens = [f"gap:{q}" for q in range(jb.gaps.count + 1)]
    chain = ladder(problem, jb, ["c2", "c2a", "c2b", *gap_tokens])
    violations = [name for name, val in chain.items() if c > val + 1e-10]
    violated = f", violated {violations}" if violations else ""
    failures += verdict(not violations, f"bound chain: c={c:.6e}{violated}")

    j_real = realified_jacobian_fd(
        problem, bundle.p_star, filter=bundle.filter, beta=bundle.beta, fd=fd
    )
    rho_real = convergence_factor(j_real)
    rel = abs(rho_real - c) / max(c, 1e-300)
    print(
        f"INFO realified-coordinate spectral radius {rho_real:.6e} vs complex {c:.6e} "
        f"(relative difference {rel:.3e})"
    )

    return EXIT_OK if failures == 0 else EXIT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scfconv",
        description="SCF convergence-factor analysis: solves, Jacobians, bounds, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the SCF iteration, emit history CSV")
    add_problem_args(p_solve)
    add_solver_args(p_solve)
    p_solve.add_argument("--damping", type=float, default=1.0, help="mixing weight theta")
    p_solve.add_argument("--out", default=None, help="history CSV path (default stdout)")
    p_solve.set_defaults(func=cmd_solve)

    p_analyze = sub.add_parser("analyze", help="convergence factor and bound ladder JSON")
    add_problem_args(p_analyze)
    add_solver_args(p_analyze)
    p_analyze.add_argument("--q-max", type=int, default=None, help="cap on the gap-bound family")
    p_analyze.add_argument("--fd-check", action="store_true", help="include the FD oracle error")
    p_analyze.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="parameter sweep, long-format CSV")
    add_problem_args(p_sweep)
    add_solver_args(p_sweep)
    p_sweep.add_argument("--axis", choices=["eps", "alpha", "n"], required=True)
    p_sweep.add_argument("--grid", nargs=3, metavar=("LO", "HI", "COUNT"), default=None)
    p_sweep.add_argument("--grid-scale", choices=["linear", "log"], default="linear")
    p_sweep.add_argument("--values", default=None, help="explicit comma-separated grid")
    table = (name if low is None else f"{name}:N (N >= {low})" for name, low in LADDER.items())
    p_sweep.add_argument(
        "--outputs",
        default="c,c2,c2a,c2b,naive",
        help="comma list from the ladder table: " + ", ".join(table),
    )
    p_sweep.add_argument("--out", default=None, help="sweep CSV path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="oracle and invariant checks")
    add_problem_args(p_check)
    add_solver_args(p_check)
    p_check.add_argument(
        "--corrupt-jacobian",
        action="store_true",
        help=argparse.SUPPRESS,  # negative-control hook for tests
    )
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    out = getattr(args, "out", None) or ""
    out_dir = os.path.dirname(out)
    if out_dir and not os.path.isdir(out_dir):
        raise SystemExit(f"output directory {out_dir!r} does not exist")
    if os.path.isdir(out):
        raise SystemExit(f"--out {out!r} is a directory, not a file")
    try:
        return args.func(args)
    except (ZeroGapError, ChemicalPotentialError, OSError) as exc:  # OSError: opening --out
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())

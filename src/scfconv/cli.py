"""Command-line surface: solves, analyses, oracle checks and parameter sweeps.

Outputs are deterministic given the problem and the options (``check`` also
reads ``--seed``).  Numeric values are written with full double precision
(shortest round-trip representation), so re-reading a CSV/JSON reproduces the
computed values bit-faithfully.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from .analysis import (
    analyze_problem,
    assemble_jacobian,
    bound_cyclic,
    bound_gap_all,
    bound_liu,
    bound_rank_truncated,
    convergence_factor,
    cyclic_spectral_radii,
    gap_structure,
    jacobian_fd,
    max_column_relative_error,
    realified_jacobian_fd,
)
from .problems import (
    Problem,
    assemble_Lprime,
    build_illustrative,
    build_laplacian,
    load_problem,
)
from .scf import ScfOptions, locate_fixed_point, measured_rate, scf_solve

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
    parser.add_argument("--damping", type=float, default=1.0)
    parser.add_argument("--filter", choices=["step", "fermi"], default="step")
    parser.add_argument("--beta", type=float, default=None, help="Fermi smearing parameter")


def write_csv(path, header, rows) -> None:
    """Write a header and rows to ``path``, or to stdout when path is None."""
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def build_problem(args) -> Problem:
    if args.file:
        return load_problem(args.file)
    if args.family == "illustrative":
        return build_illustrative(args.eps, d=args.d)
    if args.family == "laplacian-complex":
        return build_laplacian(args.n, args.alpha, args.p, variant="complex", h=args.h)
    if args.family == "laplacian-real":
        return build_laplacian(args.n, args.alpha, args.p, variant="real", h=args.h)
    raise SystemExit("either --family or --file is required")


def build_opts(args) -> ScfOptions:
    return ScfOptions(
        tol=args.tol,
        max_iter=args.max_iter,
        damping=args.damping,
        filter=args.filter,
        beta=args.beta,
    )


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
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    known = {"c", "c2", "c2a", "c2b", "naive", "liu"}
    for token in tokens:
        base = token.split(":")[0]
        if base not in known and base not in ("gap", "tilde"):
            raise SystemExit(f"unknown output quantity {token!r}")
        if base in ("gap", "tilde"):
            try:
                index = int(token.split(":")[1])
            except (IndexError, ValueError):
                raise SystemExit(f"quantity {token!r} needs an integer suffix, e.g. gap:1")
            if index < (0 if base == "gap" else 1):
                raise SystemExit(f"quantity {token!r}: gap:Q needs Q >= 0, tilde:K needs K >= 1")
    return tokens


def sweep_grid(args):
    if args.values:
        return [float(v) for v in args.values.split(",")]
    if args.grid:
        lo, hi, count = float(args.grid[0]), float(args.grid[1]), int(args.grid[2])
        if args.grid_scale == "log":
            return list(np.geomspace(lo, hi, count))
        return list(np.linspace(lo, hi, count))
    raise SystemExit("sweep needs --values or --grid LO HI COUNT")


def problem_at(args, axis: str, value: float) -> Problem:
    if args.family == "illustrative":
        if axis != "eps":
            raise SystemExit("illustrative family sweeps over --axis eps")
        return build_illustrative(value, d=args.d)
    variant = "complex" if args.family == "laplacian-complex" else "real"
    n, alpha = args.n, args.alpha
    if axis == "alpha":
        alpha = value
    elif axis == "n":
        n = int(round(value))
    else:
        raise SystemExit(f"axis {axis!r} not valid for family {args.family}")
    return build_laplacian(n, alpha, args.p, variant=variant, h=args.h)


def step_ladder(problem: Problem, jb, outputs) -> dict:
    """The requested step-filter bounds above c2 of one sweep cell."""
    gaps = gap_structure(jb.lambdas, jb.p)
    base = {t: t.split(":")[0] for t in outputs}
    # gap:Q and tilde:K, capped at p(n-p), each family in one call
    index = {t: min(int(t.split(":")[1]), gaps.count) for t in outputs
             if base[t] in ("gap", "tilde")}
    gap_tokens = [t for t in index if base[t] == "gap"]
    tilde_tokens = [t for t in index if base[t] == "tilde"]
    quantities = {}
    if gap_tokens:
        family = bound_gap_all(jb, gaps)
        quantities.update((t, family[index[t]]) for t in gap_tokens)
    if tilde_tokens:
        tilde = bound_rank_truncated(jb, [index[t] for t in tilde_tokens], gaps)
        quantities.update(zip(tilde_tokens, tilde))
    cyclic_tokens = [t for t in outputs if base[t] in ("c2a", "c2b")]
    if cyclic_tokens:
        cyc = dict(zip(("c2a", "c2b"), bound_cyclic(jb)))
        quantities.update((t, cyc[base[t]]) for t in cyclic_tokens)
    for token in outputs:
        if token == "naive":
            quantities[token] = jb.c_naive(gaps)
        elif token == "liu":
            quantities[token] = bound_liu(problem, gaps.delta(1))
    return quantities


def cmd_sweep(args) -> int:
    if not args.family:
        raise SystemExit("sweep requires --family")
    outputs = parse_outputs(args.outputs)
    grid = sweep_grid(args)
    rows = []
    for value in grid:
        problem = problem_at(args, args.axis, value)
        bundle, plain = locate_fixed_point(problem, build_opts(args))
        measured = measured_rate(plain)
        converged = 1 if (plain is not None and plain.converged) else 0
        quantities = {}
        if bundle.converged:
            jb = assemble_jacobian(bundle, assemble_Lprime(problem.op, problem.n))
            quantities.update((t, getattr(jb, t)) for t in outputs if t in ("c", "c2"))
            if jb.filter == "step":
                quantities.update(step_ladder(problem, jb, outputs))
        rows += [
            [args.axis, fmt(value), token, fmt(quantities.get(token)), converged, fmt(measured)]
            for token in outputs
        ]
    header = ["axis_name", "axis_value", "quantity", "value", "converged", "measured_rate"]
    write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_check(args) -> int:
    problem = build_problem(args)
    bundle, _ = locate_fixed_point(problem, build_opts(args))
    if not bundle.converged:
        print("FAIL: no fixed point located")
        return EXIT_NOT_CONVERGED
    l_prime = assemble_Lprime(problem.op, problem.n)
    jb = assemble_jacobian(bundle, l_prime)
    if args.corrupt_jacobian:
        jb.j_p = jb.j_p + 1e-3 * np.eye(jb.m)
    step = jb.filter == "step"

    failures = 0

    fd = jacobian_fd(problem, bundle.p_star, filter=bundle.filter, beta=bundle.beta)
    fd_err = max_column_relative_error(jb.j_p, fd)
    ok = fd_err <= 1e-6
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} finite-difference oracle: max column error {fd_err:.3e}")

    rng = np.random.default_rng(args.seed)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=problem.n))
    rotated = assemble_jacobian(replace(bundle, x=bundle.x * phases[None, :]), l_prime).j_p
    phase_err = float(np.abs(rotated - jb.j_p).max())
    ok = phase_err <= 1e-12 * max(1.0, float(np.abs(jb.j_p).max()))
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} phase invariance: residual {phase_err:.3e}")

    if not step:
        print("INFO cyclic-permutation spectral radii: skipped, a step-filter identity")
    elif problem.n <= 20:
        radii = cyclic_spectral_radii(jb)
        spread = max(radii) - min(radii)
        ok = spread <= 1e-10 * max(1.0, max(radii))
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} cyclic-permutation spectral radii: spread {spread:.3e}")

    c = jb.c
    ladder = {"c2": jb.c2}
    if step:
        gaps = gap_structure(bundle.lambdas, problem.p)
        ladder.update(zip(("c2a", "c2b"), bound_cyclic(jb)))
        ladder.update((f"gap:{q}", val) for q, val in enumerate(bound_gap_all(jb, gaps)))
    violations = [name for name, val in ladder.items() if c > val + 1e-10]
    ok = not violations
    failures += not ok
    print(
        f"{'PASS' if ok else 'FAIL'} bound chain: c={c:.6e}"
        + (f", violated {violations}" if violations else "")
    )

    j_real = realified_jacobian_fd(problem, bundle.p_star, filter=bundle.filter, beta=bundle.beta)
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
    p_sweep.add_argument(
        "--outputs",
        default="c,c2,c2a,c2b,naive",
        help="comma list from c,c2,c2a,c2b,naive,liu,gap:Q,tilde:K",
    )
    p_sweep.add_argument("--out", default=None, help="sweep CSV path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="oracle and invariant checks")
    add_problem_args(p_check)
    add_solver_args(p_check)
    p_check.add_argument("--seed", type=int, default=0, help="seed of the phase-invariance test")
    p_check.add_argument(
        "--corrupt-jacobian",
        action="store_true",
        help=argparse.SUPPRESS,  # negative-control hook for tests
    )
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

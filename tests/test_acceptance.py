"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Criterion 6 pins down J'(0), the derivative of the illustrative Jacobian with
respect to the coupling at eps = 0.  Because J(0) = 0 and J'(0) is nilpotent,
the bounds grow like O(eps) and c like O(eps^2).  The test derives
J'(0) = e_2 (e_4 - e_1)^T / d^2 from d and checks the computed derivative
against it entrywise, its spectral radius (0), its spectral norm
(sqrt(2)/d^2) and its largest column norm (1/d^2); see the README.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from scfconv import (
    ScfOptions,
    analyze_problem,
    assemble_jacobian,
    bound_c2,
    bound_cyclic,
    bound_gap_all,
    bound_liu,
    bound_rank_truncated,
    build_illustrative,
    build_laplacian,
    convergence_factor,
    cyclic_spectral_radii,
    jacobian_fd,
    locate_fixed_point,
    max_column_relative_error,
    spectral_filter_density,
    vech,
)
from scfconv.problems import apply_L
from scfconv.scf import measured_rate

from conftest import lprime_by_basis_loop, selector_T, solved_random_instances, symmetrize_S


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def solve_and_jacobian(problem, **opts_kw):
    bundle, plain = locate_fixed_point(problem, ScfOptions(**opts_kw))
    return bundle, plain, assemble_jacobian(bundle, problem.op)


def test_criterion_01_jacobian_oracle():
    t0 = time.perf_counter()
    errs = []
    for eps in (0.0, 0.05, 0.2):
        problem = build_illustrative(eps)
        bundle, _, jb = solve_and_jacobian(problem)
        errs.append(max_column_relative_error(jb.dense(), jacobian_fd(problem, bundle.p_star)))
    for problem, bundle in solved_random_instances(20):
        jb = assemble_jacobian(bundle, problem.op)
        errs.append(max_column_relative_error(jb.dense(), jacobian_fd(problem, bundle.p_star)))
    elapsed = time.perf_counter() - t0
    worst = max(errs)
    ok = worst <= 1e-6 and elapsed < 30.0
    report(1, ok, f"FD oracle max column error {worst:.3e} over 23 problems, {elapsed:.1f} s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_02_rate_prediction():
    t0 = time.perf_counter()
    cases = [
        ("illustrative eps=0.2", build_illustrative(0.2)),
        (
            "laplacian-complex n=30 p=15 alpha=40 h=0.2",
            build_laplacian(30, 40.0, 15, variant="complex", h=0.2),
        ),
    ]
    rels = []
    for label, problem in cases:
        bundle, plain, jb = solve_and_jacobian(problem)
        assert plain.converged, label
        rho = convergence_factor(jb.dense())
        rate = measured_rate(plain)
        rels.append((label, rho, rate, abs(rate - rho) / rho))
    elapsed = time.perf_counter() - t0
    worst = max(r[3] for r in rels)
    ok = worst <= 1e-3 and elapsed < 60.0
    detail = "; ".join(f"{lbl}: rho={rho:.4e}, rate={rate:.4e}" for lbl, rho, rate, _ in rels)
    report(2, ok, f"max relative gap {worst:.3e} ({detail}), {elapsed:.1f} s")
    assert worst <= 1e-3
    assert elapsed < 60.0


def test_criterion_03_bound_chain():
    violations = []
    for problem, bundle in solved_random_instances(100):
        jb = assemble_jacobian(bundle, problem.op)
        gaps = jb.gaps
        c = convergence_factor(jb.dense())
        upper = [("c2", bound_c2(jb.dense()))]
        c2a, c2b = bound_cyclic(jb)
        upper += [("c2a", c2a), ("c2b", c2b)]
        upper += [(f"gap:{q}", v) for q, v in enumerate(bound_gap_all(jb))]
        for name, val in upper:
            if c > val + 1e-10:
                violations.append((problem.meta["seed"], name, c, val))
    ok = not violations
    report(3, ok, f"{len(violations)} violations over 100 instances")
    assert not violations, violations[:5]


def test_criterion_04_gap0_equals_naive():
    worst = 0.0
    for problem, bundle in solved_random_instances(100):
        jb = assemble_jacobian(bundle, problem.op)
        gaps = jb.gaps
        naive = np.linalg.norm(lprime_by_basis_loop(problem.op, problem.n), 2) / gaps.delta(1)
        gap0 = bound_gap_all(jb)[0]
        worst = max(worst, abs(gap0 - naive) / naive)
    problem = build_illustrative(0.0)
    bundle, _, jb = solve_and_jacobian(problem)
    gaps = jb.gaps
    naive0 = np.linalg.norm(lprime_by_basis_loop(problem.op, problem.n), 2) / gaps.delta(1)
    rel625 = abs(naive0 - 625.0) / 625.0
    ok = worst <= 1e-12 and rel625 <= 1e-12
    report(4, ok, f"max |c_gap0 - c_naive| rel {worst:.3e}; eps=0 value {naive0!r} vs 625")
    assert worst <= 1e-12
    assert rel625 <= 1e-12


def test_criterion_05_taylor_slopes():
    eps_grid = np.geomspace(1e-4, 1e-2, 20)
    cs, c2s = [], []
    for eps in eps_grid:
        bundle, _, jb = solve_and_jacobian(build_illustrative(float(eps)))
        cs.append(convergence_factor(jb.dense()))
        c2s.append(bound_c2(jb.dense()))
    slope_c = np.polyfit(np.log(eps_grid), np.log(cs), 1)[0]
    slope_c2 = np.polyfit(np.log(eps_grid), np.log(c2s), 1)[0]
    ok = abs(slope_c - 2.0) <= 0.15 and abs(slope_c2 - 1.0) <= 0.1
    report(5, ok, f"slope(c)={slope_c:.4f} (target 2 +- 0.15), slope(c2)={slope_c2:.4f} (target 1 +- 0.1)")
    assert abs(slope_c - 2.0) <= 0.15
    assert abs(slope_c2 - 1.0) <= 0.1


def _jprime_analytic(d: float) -> np.ndarray:
    """J'(0) = e_2 (e_4 - e_1)^T / d^2 of the illustrative family, in vech coordinates.

    At eps = 0 the occupied and first virtual eigenvectors are e_1 and e_2
    with lambda_1 - lambda_2 = -d; to first order x_1 = e_1 - (eps/d) e_2 and
    x_2 = e_2 + (eps/d) e_1, so the only O(eps) response of Psi to a
    perturbation dP is dPsi_21 = eps (dP_22 - dP_11) / d^2.  Psi_21, P_11 and
    P_22 are vech entries 1, 0 and 3 (0-based, column-major lower triangle).
    """
    jprime = np.zeros((6, 6))
    jprime[1, 3] = 1.0 / d**2
    jprime[1, 0] = -1.0 / d**2
    return jprime


def test_criterion_06_jprime_structure():
    """J'(0) is nilpotent and equals e_2 (e_4 - e_1)^T / d^2.

    Its spectral norm is sqrt(2)/d^2 and its largest column norm is 1/d^2
    (39.0625 at the default d = 0.16).  Checked at two values of d, so the
    1/d^2 scaling is tested, and by two routes: central differences over eps
    of the assembled Jacobian, and of the finite-difference Jacobian of the
    iterated map itself, which uses no Jacobian formula.
    """
    details = []
    failures = []
    for d in (0.16, 0.3):
        scale = 1.0 / d**2
        analytic = _jprime_analytic(d)

        def assembled(eps):
            return solve_and_jacobian(build_illustrative(eps, d=d))[2].dense()

        def map_fd(eps):
            problem = build_illustrative(eps, d=d)
            bundle, _ = locate_fixed_point(problem, ScfOptions())
            return jacobian_fd(problem, bundle.p_star)

        jprime = (assembled(1e-6) - assembled(-1e-6)) / 2e-6
        jprime_fd = (map_fd(1e-4) - map_fd(-1e-4)) / 2e-4

        rho = convergence_factor(jprime)
        entry_err = float(np.abs(jprime - analytic).max()) / scale
        fd_err = float(np.abs(jprime_fd - analytic).max()) / scale
        norm = float(np.linalg.norm(jprime, 2))
        norm_rel = abs(norm - np.sqrt(2.0) * scale) / (np.sqrt(2.0) * scale)
        col = float(np.linalg.norm(jprime, axis=0).max())
        col_rel = abs(col - scale) / scale
        checks = {
            "rho": rho <= 1e-5,
            "entries": entry_err <= 1e-6,
            "map fd": fd_err <= 1e-4,
            "2-norm": norm_rel <= 1e-3,
            "column norm": col_rel <= 1e-3,
        }
        failures += [f"d={d}: {name}" for name, ok in checks.items() if not ok]
        details.append(
            f"d={d}: rho(J'(0))={rho:.3e}; ||J'(0)||_2={norm:.6f} vs sqrt(2)/d^2 "
            f"(rel {norm_rel:.3e}); max column norm={col:.6f} vs 1/d^2={scale:.6f} "
            f"(rel {col_rel:.3e}); entrywise error vs e_2(e_4-e_1)^T/d^2 "
            f"{entry_err:.3e} (formula), {fd_err:.3e} (map FD), relative to 1/d^2"
        )
    report(6, not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_07_laplacian_trends():
    cs_n = []
    for n in (20, 30, 40, 60):
        _, _, jb = solve_and_jacobian(build_laplacian(n, 40.0, 15, variant="complex"))
        cs_n.append(convergence_factor(jb.dense()))
    decreasing = all(a > b for a, b in zip(cs_n, cs_n[1:]))

    alphas = np.array([10.0, 20.0, 30.0, 40.0])
    cs_a = []
    for alpha in alphas:
        _, _, jb = solve_and_jacobian(build_laplacian(30, float(alpha), 15, variant="complex"))
        cs_a.append(convergence_factor(jb.dense()))
    cs_a = np.array(cs_a)
    slope, intercept = np.polyfit(alphas, cs_a, 1)
    resid = cs_a - (slope * alphas + intercept)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((cs_a - cs_a.mean()) ** 2))
    ok = decreasing and r2 >= 0.999
    report(7, ok, f"c(n)={[f'{v:.3e}' for v in cs_n]} strictly decreasing: {decreasing}; c(alpha) R^2={r2:.6f}")
    assert decreasing, cs_n
    assert r2 >= 0.999


def test_criterion_08_real_laplacian_ordering():
    problem = build_laplacian(60, 5.0, 25, variant="real")
    bundle, _, jb = solve_and_jacobian(problem)
    gaps = jb.gaps
    c = convergence_factor(jb.dense())
    c2 = bound_c2(jb.dense())
    naive = jb.c_naive
    liu = bound_liu(problem, gaps.delta(1))
    ok = liu >= naive >= c2 >= c
    report(8, ok, f"c_liu={liu:.4e} >= c_naive={naive:.4e} >= c2={c2:.4e} >= c={c:.4e}")
    assert ok


def test_criterion_09_structural_invariants():
    instances = solved_random_instances(50)
    worst = {"phase": 0.0, "cyclic": 0.0, "lprime": 0.0, "column": 0.0, "density": 0.0}
    rng = np.random.default_rng(7)
    for problem, bundle in instances:
        n = problem.n
        l_prime = lprime_by_basis_loop(problem.op, n)
        jb = assemble_jacobian(bundle, problem.op)
        scale = max(1.0, float(np.abs(jb.dense()).max()))

        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
        rotated = assemble_jacobian(
            type(bundle)(
                p_star=bundle.p_star,
                x=bundle.x * phases[None, :],
                lambdas=bundle.lambdas,
                history=[],
                converged=True,
                p=bundle.p,
            ),
            problem.op,
        )
        phase_err = float(np.abs(rotated.dense() - jb.dense()).max())
        worst["phase"] = max(worst["phase"], phase_err / scale)

        radii = cyclic_spectral_radii(jb)
        worst["cyclic"] = max(
            worst["cyclic"], (max(radii) - min(radii)) / max(1.0, max(radii))
        )

        x_rand = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = jb.l_s @ vech(x_rand)[jb.support]
        rhs = apply_L(problem.op, symmetrize_S(x_rand)).ravel(order="F")
        worst["lprime"] = max(
            worst["lprime"],
            float(np.linalg.norm(lhs - rhs)) / max(1.0, float(np.linalg.norm(rhs))),
        )

        r = jb.r
        a, b = problem.p, 0  # smallest-gap style cross pair (virtual, occupied)
        outer = np.outer(jb.x[:, a], jb.x[:, b].conj())
        dense_col = r[a, b] * (l_prime @ vech(outer))
        k1 = np.kron(jb.x.conj(), jb.x)
        full = (l_prime @ selector_T(n)) @ (k1 * r.ravel(order="F")[None, :])
        worst["column"] = max(
            worst["column"],
            float(np.linalg.norm(full[:, b * n + a] - dense_col))
            / max(1.0, float(np.linalg.norm(dense_col))),
        )

        p_star = bundle.p_star
        dens = max(
            float(np.abs(p_star @ p_star - p_star).max()),
            abs(float(np.trace(p_star).real) - problem.p),
            float(np.abs(p_star - p_star.conj().T).max()),
        )
        worst["density"] = max(worst["density"], dens)
    ok = (
        worst["phase"] <= 1e-12
        and worst["cyclic"] <= 1e-10
        and worst["lprime"] <= 1e-12
        and worst["column"] <= 1e-12
        and worst["density"] <= 1e-10
    )
    report(
        9,
        ok,
        "worst residuals over 50 cases: "
        + ", ".join(f"{k}={v:.3e}" for k, v in worst.items()),
    )
    assert worst["phase"] <= 1e-12
    assert worst["cyclic"] <= 1e-10
    assert worst["lprime"] <= 1e-12
    assert worst["column"] <= 1e-12
    assert worst["density"] <= 1e-10


def test_criterion_10_fermi_consistency():
    problem = build_illustrative(0.1)
    bundle, _, jb = solve_and_jacobian(problem)
    rho_step = convergence_factor(jb.dense())
    jf = assemble_jacobian(replace(bundle, filter="fermi", beta=1e3), problem.op)
    rho_fermi = convergence_factor(jf.dense())
    rel = abs(rho_fermi - rho_step) / rho_step
    dens = spectral_filter_density(problem.apply(bundle.p_star), problem.p, beta=1e3)[0]
    trace_err = abs(float(np.trace(dens).real) - problem.p)
    ok = rel <= 0.02 and trace_err <= 1e-12
    report(
        10,
        ok,
        f"rho_fermi={rho_fermi:.6e} vs rho_step={rho_step:.6e} (rel {rel:.3e}); "
        f"trace error {trace_err:.3e}",
    )
    assert rel <= 0.02
    assert trace_err <= 1e-12


def test_criterion_11_rank_truncation_recovers_c2():
    worst = 0.0
    cases = [build_illustrative(0.2), build_laplacian(10, 5.0, 4, variant="real")]
    cases += [prob for prob, _ in solved_random_instances(5)]
    for problem in cases:
        bundle, _, jb = solve_and_jacobian(problem)
        gaps = jb.gaps
        c2 = bound_c2(jb.dense())
        (tilde,) = bound_rank_truncated(jb, [gaps.count])
        worst = max(worst, abs(tilde - c2) / c2)
    ok = worst <= 1e-12
    report(11, ok, f"max |c_tilde(full) - c2| relative {worst:.3e} over {len(cases)} problems")
    assert worst <= 1e-12

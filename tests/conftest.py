"""Shared generators for randomized problem instances."""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from scfconv import (
    ChemicalPotentialError,
    GeneralVec,
    HadamardMask,
    Problem,
    ScfOptions,
    ZeroGapError,
    apply_L,
    build_laplacian,
    fermi_occupations,
    locate_fixed_point,
    require_hermitian,
    scf_step,
    spectral_filter_density,
    vech,
    vech_index,
    vech_inv,
)
from scfconv.scf import (
    FALLBACK_DAMPINGS,
    FALLBACK_MAX_ITER,
    STALL_SPREAD,
    STALL_STEPS,
    FixedPointBundle,
    IterationRecord,
)


def random_hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (h + h.conj().T) / 2.0


OPERATOR_KINDS = ("hadamard", "diagonal_map", "general_vec")
FILTERS = {"step": {}, "fermi": {"filter": "fermi", "beta": 5.0}}


def operator_problem(kind: str) -> Problem:
    """A problem at n = 5, p = 2 whose L is of the operator kind ``kind``: a
    complex Hermitian mask, a complex Laplacian's diagonal map, or a dense
    GeneralVec with L(P) = sum_k B_k P B_k^H."""
    n = 5
    if kind == "diagonal_map":
        return build_laplacian(n, 8.0, 2, variant="complex", h=0.25)
    rng = np.random.default_rng(5)
    a0 = random_hermitian(rng, n, scale=0.1) + np.diag(np.arange(n, dtype=float))
    if kind == "hadamard":
        return Problem(a0=a0, op=HadamardMask(mask=random_hermitian(rng, n, scale=0.2)), p=2)
    matrix = np.zeros((n * n, n * n), dtype=complex)
    for _ in range(2):
        b = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
        matrix += np.kron(b.conj(), b)
    return Problem(a0=a0, op=GeneralVec(matrix=matrix), p=2)


def random_operator_problem(kind: str, n: int, seed: int) -> Problem:
    """A seeded problem of size n and random p whose L is of the operator kind
    ``kind``: a complex Laplacian's diagonal map with alpha in [1, 2000], a
    complex Hermitian mask, or a GeneralVec sum_k B_k P B_k^H over two k."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, n))
    if kind == "diagonal_map":
        return build_laplacian(n, float(rng.uniform(1.0, 2e3)), p, variant="complex")
    a0 = random_hermitian(rng, n, scale=0.3) + np.diag(np.arange(n, dtype=float))
    if kind == "hadamard":
        return Problem(a0=a0, op=HadamardMask(mask=random_hermitian(rng, n, scale=0.6)), p=p)
    bs = 0.6 * (rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))) / np.sqrt(n)
    return Problem(a0=a0, op=GeneralVec(matrix=sum(np.kron(b.conj(), b) for b in bs)), p=p)


def selector_T(n: int) -> np.ndarray:
    """The m-by-n^2 0/1 selector with T @ vec(W) = vech(W) (block-diagonal choice)."""
    m = n * (n + 1) // 2
    t = np.zeros((m, n * n))
    t[np.arange(m), vech_index(n)] = 1.0
    return t


def dense_d_eff(r: np.ndarray) -> np.ndarray:
    """The n^2 x n^2 middle factor of J = T K1 D_eff K2 L': D_eff = diag(vec R)
    - u u^T / sum f' (u = vec(diag f'), f' = diag R; no shift when sum f' = 0)."""
    fprime = np.diagonal(r)
    d_eff = np.diag(r.ravel(order="F"))
    if fprime.sum() != 0:
        u = np.diag(fprime).ravel(order="F")
        d_eff -= np.outer(u, u) / fprime.sum()
    return d_eff


def gap_members(gaps, n: int) -> list:
    """The vec positions of each member of the gap table, in its order: a + n b
    and b + n a of each pair (a, b), then the n diagonal positions when the
    table has its diagonal member."""
    members = [[a + n * b, b + n * a] for a, b in zip(gaps.occ.tolist(), gaps.virt.tolist())]
    if gaps.diagonal:
        members.append((np.arange(n) * (n + 1)).tolist())
    assert len(members) == gaps.count
    return members


def d_eff_on(d_eff: np.ndarray, members: list) -> np.ndarray:
    """D_eff zeroed outside the vec positions of ``members`` (it is block diagonal
    over the members of the gap table, so this keeps their blocks whole)."""
    keep = np.zeros(len(d_eff), dtype=bool)
    keep[[pos for member in members for pos in member]] = True
    return d_eff * np.outer(keep, keep)


def symmetrize_S(x) -> np.ndarray:
    """Map X = L + D + R (triangular split) to L + D + L^T."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    lower = np.tril(x)
    return lower + np.tril(x, -1).T


def lprime_by_basis_loop(op, n):
    """The dense n^2 x m L', column by column, L applied to each vech basis
    matrix: the oracle of the operators' closed forms and of the dense
    definitions the tests build."""
    m = n * (n + 1) // 2
    out = np.zeros((n * n, m), dtype=complex)
    ej = np.zeros(m)
    for j in range(m):
        ej.flat = 0.0
        ej[j] = 1.0
        out[:, j] = apply_L(op, vech_inv(ej)).ravel(order="F")
    return out


def w_by_definition(op, x, support) -> np.ndarray:
    """The |S| x n x n stack W_s = X^H L(E_s) X, s in ``support``, L applied to
    each vech basis matrix E_s: the definition the core's W is made from."""
    n = x.shape[0]
    ej = np.zeros(n * (n + 1) // 2)
    stack = []
    for s in support:
        ej.flat = 0.0
        ej[s] = 1.0
        stack.append(x.conj().T @ apply_L(op, vech_inv(ej)) @ x)
    return np.array(stack).reshape(len(support), n, n)


def jacobian_fd_loop(problem, p_star, filter="step", beta=None):
    """``jacobian_fd`` one column and one ``scf_step`` call at a time: the
    reference of the stacked oracle, which must equal it exactly."""
    n = p_star.shape[0]
    m = n * (n + 1) // 2
    step = 5e-4 * (1.0 + float(np.linalg.norm(p_star)))
    out = np.zeros((m, m), dtype=complex)
    ej = np.zeros(m)
    for j in range(m):
        ej.flat = 0.0
        ej[j] = 1.0
        direction = vech_inv(ej).real

        def psi(t):
            shifted, _, _ = scf_step(problem, p_star + t * direction, filter=filter, beta=beta)
            return vech(shifted)

        out[:, j] = (
            8.0 * (psi(step) - psi(-step)) - (psi(2.0 * step) - psi(-2.0 * step))
        ) / (12.0 * step)
    return out


def realified_jacobian_fd_loop(problem, p_star, filter="step", beta=None):
    """``realified_jacobian_fd`` with every one of its n^2 directions (the m
    real, then the m - n imaginary) by a second-order central difference, one
    ``scf_step`` call at a time."""
    n = p_star.shape[0]
    m = n * (n + 1) // 2
    step = 1e-5 * (1.0 + float(np.linalg.norm(p_star)))
    vidx = vech_index(n)
    rows = vidx % n
    cols = vidx // n
    offdiag = np.flatnonzero(rows != cols)

    directions = []
    for j in range(m):
        ej = np.zeros(m)
        ej[j] = 1.0
        directions.append(vech_inv(ej).real)
    for j in offdiag:
        d = np.zeros((n, n), dtype=complex)
        d[rows[j], cols[j]] = 1j
        d[cols[j], rows[j]] = -1j
        directions.append(d)

    def coords(delta):
        v = vech(delta)
        return np.concatenate([v.real, v[offdiag].imag])

    dim = m + offdiag.size
    out = np.zeros((dim, dim))
    for k, direction in enumerate(directions):
        plus, _, _ = scf_step(problem, p_star + step * direction, filter=filter, beta=beta)
        minus, _, _ = scf_step(problem, p_star - step * direction, filter=filter, beta=beta)
        out[:, k] = coords((plus - minus) / (2.0 * step))
    return out


def fermi_chemical_potential_loop(lam, beta, p, tol=1e-12, max_iter=200):
    """The safeguarded Newton search for mu on one spectrum, a scalar at a
    time: the reference of ``fermi_chemical_potential`` on stacks, which must
    equal it row by row exactly."""
    lam = np.sort(np.asarray(lam, dtype=float))
    if beta <= 0:
        raise ValueError("beta must be positive")
    with np.errstate(over="ignore"):
        s = max(1.0, (1.0 + np.log(lam.size)) / beta)
    lo, hi = lam[0] - s, lam[-1] + s
    if np.isinf(s) or fermi_occupations(lam, beta, lo).sum() > p or (
        fermi_occupations(lam, beta, hi).sum() < p
    ):
        raise ChemicalPotentialError(
            f"trace target p={p} not bracketed on [{lo}, {hi}] for beta={beta}"
        )
    top = min(max(p, 1), lam.size - 1)
    mu = 0.5 * (lam[top - 1] + lam[top])
    for _ in range(max_iter):
        f = fermi_occupations(lam, beta, mu)
        excess = f.sum() - p
        if abs(excess) <= tol:
            return mu
        if excess < 0:
            lo = mu
        else:
            hi = mu
        if np.isfinite(excess) and np.nextafter(lo, hi) >= hi:
            ends = np.array([lo, hi])
            return ends[np.argmin([abs(fermi_occupations(lam, beta, e).sum() - p) for e in ends])]
        slope = beta * (f * (1.0 - f)).sum()
        newton = mu - excess / slope if slope > 0 else hi
        mu = newton if lo < newton < hi else 0.5 * (lo + hi)
    excess = fermi_occupations(lam, beta, mu).sum() - p
    if abs(excess) <= tol:
        return mu
    raise ChemicalPotentialError(
        f"mu search did not reach |trace - p| <= {tol} in {max_iter} iterations "
        f"(residual {excess:.3e})"
    )


def scf_solve_loop(problem, opts, stall_steps=None):
    """``scf_solve`` one problem and one ``scf_step`` call at a time: the
    reference of the lockstep iteration, which must equal it exactly.  A run
    that stops on a stall (``stall_steps``) keeps no iterates."""
    density = spectral_filter_density(problem.a0, problem.p, beta=opts.beta)[0]
    theta = opts.damping
    history, iterates = [], []
    converged = False
    for k in range(opts.max_iter):
        try:
            psi, lam, _ = scf_step(problem, density, filter=opts.filter, beta=opts.beta)
        except ZeroGapError as exc:
            raise ZeroGapError(f"zero gap at SCF iterate {k}: {exc}") from exc
        nxt = psi if theta == 1.0 else (1.0 - theta) * density + theta * psi
        step_err = float(np.linalg.norm(nxt - density))
        p = problem.p
        history.append(IterationRecord(step_err, float(lam[p - 1]), float(lam[p]),
                                       float(lam[p] - lam[p - 1])))
        density = nxt
        iterates.append(density)
        if step_err <= opts.tol:
            converged = True
            break
        if stall_steps and len(history) >= stall_steps:
            window = [rec.step_err for rec in history[-stall_steps:]]
            if max(window) <= (1.0 + STALL_SPREAD) * min(window):
                break
    lam, x = np.linalg.eigh(require_hermitian(problem.apply(density), tol=1e-10, name="A(P*)"))
    mu = None
    if opts.filter == "fermi":
        mu = fermi_chemical_potential_loop(lam, opts.beta, problem.p)
    errors = None
    if converged and not stall_steps:
        errors = np.array([float(np.linalg.norm(it - density)) for it in iterates])
    return FixedPointBundle(p_star=density, x=x, lambdas=lam, history=history,
                            converged=converged, p=problem.p, damping=theta,
                            filter=opts.filter, beta=opts.beta, mu=mu, errors_to_fixed=errors)


def locate_fixed_point_loop(problem, opts):
    """``locate_fixed_point`` by ``scf_solve_loop``: one run of one problem at a
    time.  No run keeps its iterates, so no bundle has errors_to_fixed."""
    plain = scf_solve_loop(problem, replace(opts, damping=1.0), stall_steps=STALL_STEPS)
    if plain.converged:
        return plain, plain
    for theta in FALLBACK_DAMPINGS:
        damped = scf_solve_loop(
            problem, replace(opts, damping=theta, max_iter=FALLBACK_MAX_ITER), STALL_STEPS
        )
        if damped.converged:
            return damped, plain
    return plain, plain


def random_hadamard_problem(seed: int, n_max: int = 8, mask_scale: float = 0.2) -> Problem:
    """Random Hermitian A0 with a spread diagonal plus a real-symmetric mask."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    diag = np.arange(n, dtype=float) + rng.uniform(-0.2, 0.2, size=n)
    a0 = np.diag(np.sort(diag)) + random_hermitian(rng, n, scale=0.1)
    raw = rng.normal(size=(n, n))
    mask = mask_scale * (raw + raw.T) / 2.0
    p = int(rng.integers(1, n))
    return Problem(a0=a0, op=HadamardMask(mask=mask), p=p, meta={"seed": seed})


@lru_cache(maxsize=8)
def solved_random_instances(count: int, start_seed: int = 0, n_max: int = 8):
    """First ``count`` seeded instances whose fixed point is located and whose
    smallest cross gap exceeds 1e-3."""
    out = []
    seed = start_seed
    while len(out) < count:
        problem = random_hadamard_problem(seed, n_max=n_max)
        seed += 1
        try:
            bundle, _ = locate_fixed_point(problem, ScfOptions(max_iter=800))
        except Exception:
            continue
        if not bundle.converged:
            continue
        gap = bundle.lambdas[problem.p] - bundle.lambdas[problem.p - 1]
        if gap <= 1e-3:
            continue
        out.append((problem, bundle))
    return tuple(out)

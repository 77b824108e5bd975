"""Shared generators for randomized problem instances."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from scfconv import (
    GeneralVec,
    HadamardMask,
    Problem,
    ScfOptions,
    apply_L,
    build_laplacian,
    locate_fixed_point,
    scf_step,
    vech,
    vech_index,
    vech_inv,
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

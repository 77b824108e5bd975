"""Shared generators for randomized problem instances."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from scfconv import (
    HadamardMask,
    Problem,
    ScfOptions,
    apply_L,
    locate_fixed_point,
    vech_inv,
)


def random_hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (h + h.conj().T) / 2.0


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

"""Seeded case sets of the three workloads.

A workload is a fixed list of cases.  The timed phase issues them
back-to-back in a closed loop (one client, the next case starts when the
previous one returned), round after round.  Every input the program reads
comes from here: the seed fixes the generated JSON problems and the ladder's
coupling, and the program itself receives only files and argv.

The seed changes values, never sizes, so every seed asks for the same amount
of work and figures from different seeds can be compared.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("ladder", "sweep", "oracle")

# Fermi inverse temperature of the illustrative sweep.
FERMI_BETA = 20.0


@dataclass(frozen=True)
class Case:
    """One CLI invocation.

    ``kind`` labels the invocation; per-kind median latencies and cached
    reference values are keyed on it.  ``cells`` is the number of cases the
    invocation counts for (grid cells of a sweep, 1 otherwise).  ``spec``
    carries what the correctness checks need to rebuild the problem.
    """

    kind: str
    command: str
    argv: tuple
    cells: int = 1
    spec: dict = field(default_factory=dict)


def _hermitian(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def _encode(a) -> list:
    a = np.asarray(a, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _write_problem(path: str, a0, p: int, operator: dict) -> None:
    payload = {"n": int(a0.shape[0]), "p": int(p), "A0": _encode(a0), "operator": operator}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def hadamard_problem(rng, n: int):
    """A0 with unit-spaced jittered spectrum in a random unitary basis, and a
    small Hermitian mask: plain SCF converges and every cross gap is open."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    lam = np.arange(n, dtype=float) + rng.uniform(-0.3, 0.3, n)
    a0 = (q * lam) @ q.conj().T
    a0 = (a0 + a0.conj().T) / 2.0
    mask = 0.3 * _hermitian(rng, n)
    return a0, mask


def general_vec_problem(rng, n: int):
    """L(P) = sum_k B_k P B_k^H over three k (Hermitian-preserving), as its
    dense n^2 x n^2 column-major matrix sum_k conj(B_k) kron B_k."""
    matrix = np.zeros((n * n, n * n), dtype=complex)
    for _ in range(3):
        b = 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        matrix += np.kron(b.conj(), b)
    a0 = _hermitian(rng, n) + np.diag(2.0 * np.arange(n))
    return a0, matrix


def _laplacian_analyze(variant: str, n: int, alpha: float, q_max=None) -> Case:
    argv = ["analyze", "--family", f"laplacian-{variant}", "--n", str(n), "--p", str(n // 2),
            "--alpha", repr(alpha)]
    if q_max is not None:
        argv += ["--q-max", str(q_max)]
    kind = f"analyze-laplacian-{variant}-n{n}" + ("" if q_max is None else f"-q{q_max}")
    spec = {"family": f"laplacian-{variant}", "n": n, "p": n // 2, "alpha": alpha, "q_max": q_max}
    return Case(kind, "analyze", tuple(argv), spec=spec)


def _ladder(rng, workdir: str) -> list:
    alpha = float(rng.uniform(0.9e5, 1.1e5))
    cases = [
        _laplacian_analyze("complex", 32, alpha, q_max=3),
        _laplacian_analyze("real", 32, alpha, q_max=3),
        _laplacian_analyze("complex", 16, alpha),
    ]
    n, p = 20, 7
    a0, matrix = general_vec_problem(rng, n)
    path = os.path.join(workdir, "general_vec_n20.json")
    _write_problem(path, a0, p, {"kind": "general_vec", "matrix": _encode(matrix)})
    cases.append(
        Case("analyze-general-vec-n20-q3", "analyze", ("analyze", "--file", path, "--q-max", "3"),
             spec={"file": path, "n": n, "p": p, "q_max": 3})
    )
    return cases


def _sweep(rng, workdir: str) -> list:
    # The grids take no seed.  Where plain SCF diverges, the cost of a cell
    # depends erratically on its exact value (one alpha near 5.06e5 costs ten
    # times its neighbours), so shifted grids would make seeds incomparable.
    count = 10
    alpha_grid = (1e4, 5e5)
    eps_grid = (1e-3, 0.5)
    alpha_case = Case(
        "sweep-laplacian-complex-alpha", "sweep",
        ("sweep", "--family", "laplacian-complex", "--n", "30", "--p", "15", "--axis", "alpha",
         "--grid", repr(alpha_grid[0]), repr(alpha_grid[1]), str(count), "--grid-scale", "log",
         "--outputs", "c,c2,naive,liu"),
        cells=count,
        spec={"family": "laplacian-complex", "n": 30, "p": 15, "axis": "alpha",
              "values": [float(v) for v in np.geomspace(*alpha_grid, count)],
              "outputs": ["c", "c2", "naive", "liu"], "filter": "step"},
    )
    eps_case = Case(
        "sweep-illustrative-eps-fermi", "sweep",
        ("sweep", "--family", "illustrative", "--axis", "eps",
         "--grid", repr(eps_grid[0]), repr(eps_grid[1]), str(count), "--grid-scale", "log",
         "--filter", "fermi", "--beta", repr(FERMI_BETA), "--outputs", "c,c2"),
        cells=count,
        spec={"family": "illustrative", "axis": "eps",
              "values": [float(v) for v in np.geomspace(*eps_grid, count)],
              "outputs": ["c", "c2"], "filter": "fermi", "beta": FERMI_BETA},
    )
    return [alpha_case, eps_case]


def _oracle(rng, workdir: str) -> list:
    cases = []
    for n in range(12, 25, 2):
        p = n // 3
        a0, mask = hadamard_problem(rng, n)
        path = os.path.join(workdir, f"hadamard_n{n}.json")
        _write_problem(path, a0, p, {"kind": "hadamard", "mask": _encode(mask)})
        cases.append(Case(f"check-hadamard-n{n}", "check", ("check", "--file", path),
                          spec={"file": path, "n": n, "p": p}))
    # Documented false FAIL of the FD oracle on a correct Jacobian: kept in
    # the mix so that the fix shows as a lower error rate.
    cases.append(
        Case("check-laplacian-real-n8", "check",
             ("check", "--family", "laplacian-real", "--n", "8", "--p", "3", "--alpha", "10"),
             spec={"family": "laplacian-real", "n": 8, "p": 3, "alpha": 10.0})
    )
    return cases


def build_cases(workload: str, seed: int, workdir: str) -> list:
    """Generate the inputs of ``workload`` for ``seed`` under ``workdir``."""
    builders = {"ladder": _ladder, "sweep": _sweep, "oracle": _oracle}
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return builders[workload](rng, workdir)

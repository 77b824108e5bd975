"""Correctness checks of CLI outputs, run after the timed phase.

Each invocation's output is parsed and checked against invariants of the
theory and against values the benchmark computes itself:

* ``analyze``: c <= c2 <= min_q c_gap[q], c <= c2a, c <= c2b, c2 <= c_naive,
  c_tilde[p(n-p)] == c2, and c == rho of a dense-Kronecker reference
  Jacobian built here from ``Problem.apply`` on vech basis perturbations.
* ``sweep``: one row per grid cell and output, the chain c <= c2 <= c_naive
  per cell, c against the same reference, and for Fermi cells c against
  rho of the finite-difference Jacobian of the Fermi map.
* ``check``: a documented exit code, one PASS/INFO line per oracle, and the
  printed c against the reference.

A case that fails a check counts as failed.  Two documented program defects
fail on purpose; ``KNOWN_DEFECTS`` names them so that a run can tell them
from new failures without hiding them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from scfconv import (
    ScfOptions,
    build_illustrative,
    build_laplacian,
    jacobian_fd,
    load_problem,
    locate_fixed_point,
)

# Identities that hold to round-off: the bound chain and c_tilde[full] == c2.
REL_CHAIN = 1e-10
# c against rho of the reference Jacobian (two assemblies of one matrix).
REL_REFERENCE = 1e-9
# Values that ``check`` prints with 7 significant digits.
REL_PRINTED = 1e-6
# c against rho of a fourth-order finite-difference Jacobian.
REL_FD = 1e-6
# A fixed point the reference is built at must satisfy ||Psi(P) - P||_F <= this.
FIXED_POINT_TOL = 1e-8

EXIT_CODES = {0, 1, 2}
SWEEP_HEADER = ["axis_name", "axis_value", "quantity", "value", "converged", "measured_rate"]
CHECK_NAMES = (
    "finite-difference oracle",
    "phase invariance",
    "cyclic-permutation spectral radii",
    "bound chain",
)

KNOWN_DEFECTS = {
    "check-fd-false-fail": (
        "scfconv check fails the FD oracle on a correct Laplacian Jacobian: the "
        "five-point stencil leaves cancellation noise in columns that are exactly zero"
    ),
    "fermi-step-jacobian": (
        "sweep --filter fermi reports c of the step-filter Jacobian at the Fermi "
        "fixed point instead of c of the Fermi map"
    ),
}


@dataclass
class Verdict:
    """Outcome of one case: a grid cell of a sweep, or a whole invocation.

    ``errors`` holds (reason, known-defect tag or None) pairs; the case
    passed when it is empty.
    """

    label: str
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors)

    @property
    def known(self) -> bool:
        """Failed only through documented defects."""
        return self.failed and all(tag is not None for _, tag in self.errors)

    def fail(self, reason: str, tag: str | None = None) -> None:
        self.errors.append((reason, tag))


def _le(a: float, b: float) -> bool:
    return a <= b + REL_CHAIN * abs(b)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _spectral_radius(j: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(j)).max()) if j.size else 0.0


def vech_pairs(n: int) -> list:
    """(row, col) of the lower triangle in column-major order."""
    return [(i, j) for j in range(n) for i in range(j, n)]


def occupied_projector(problem, density) -> tuple:
    """Step-filter map Psi(P) with the eigendecomposition of A(P)."""
    lam, x = np.linalg.eigh(problem.apply(density))
    x1 = x[:, : problem.p]
    return x1 @ x1.conj().T, lam, x


def dense_kronecker_jacobian(problem, p_star: np.ndarray) -> np.ndarray:
    """J = T (conj(X) kron X) diag(vec R) (X^T kron X^H) L' with dense factors.

    L' column k is vec(L(E_k)) for the real symmetric basis matrix E_k of vech
    coordinate k, taken from ``Problem.apply``; R_ab = (f_a - f_b)/(l_a - l_b)
    with step occupations f.  Only the columns of the Kronecker factors where
    R is nonzero are formed; they are otherwise dense.
    """
    n, p = problem.n, problem.p
    psi, lam, x = occupied_projector(problem, p_star)
    residual = float(np.linalg.norm(psi - p_star))
    if residual > FIXED_POINT_TOL * (1.0 + float(np.linalg.norm(p_star))):
        raise ValueError(f"reference point is not a fixed point: residual {residual:.3e}")
    pairs = vech_pairs(n)
    a0 = problem.apply(np.zeros((n, n)))
    l_prime = np.empty((n * n, len(pairs)), dtype=complex)
    for k, (i, j) in enumerate(pairs):
        e = np.zeros((n, n))
        e[i, j] = e[j, i] = 1.0
        l_prime[:, k] = (problem.apply(e) - a0).ravel(order="F")
    occ = np.arange(n) < p
    cross = occ[:, None] != occ[None, :]
    denom = np.where(cross, lam[:, None] - lam[None, :], 1.0)
    r = np.where(cross, (occ[:, None].astype(float) - occ[None, :]) / denom, 0.0)
    vec_r = r.ravel(order="F")
    nz = np.flatnonzero(vec_r)
    k1 = np.kron(x.conj(), x)[:, nz]
    k2 = np.kron(x.T, x.conj().T)[nz, :]
    full = k1 @ (vec_r[nz, None] * (k2 @ l_prime))
    rows = [j * n + i for i, j in pairs]
    return full[rows, :]


def build_reference_problem(spec: dict, axis_value: float | None = None):
    if "file" in spec:
        return load_problem(spec["file"])
    family = spec["family"]
    if family == "illustrative":
        return build_illustrative(axis_value if spec.get("axis") == "eps" else spec["eps"])
    alpha = axis_value if spec.get("axis") == "alpha" else spec["alpha"]
    return build_laplacian(spec["n"], alpha, spec["p"], variant=family.split("-")[1])


class References:
    """Reference values, computed once per distinct problem and reused."""

    def __init__(self):
        self._cache = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def step_radius(self, key, make_problem) -> float:
        """rho of the dense-Kronecker Jacobian at the step-filter fixed point."""

        def compute():
            problem = make_problem()
            bundle, _ = locate_fixed_point(problem)
            if not bundle.converged:
                raise ValueError("no step-filter fixed point located for the reference")
            return _spectral_radius(dense_kronecker_jacobian(problem, bundle.p_star))

        return self._memo(("step",) + key, compute)

    def fermi_fd_radius(self, key, make_problem, beta: float) -> float:
        """rho of the FD Jacobian of the Fermi map at the Fermi fixed point."""

        def compute():
            problem = make_problem()
            bundle, _ = locate_fixed_point(problem, ScfOptions(filter="fermi", beta=beta))
            if not bundle.converged:
                raise ValueError("no Fermi fixed point located for the reference")
            fd = jacobian_fd(problem, bundle.p_star, filter="fermi", beta=beta)
            return _spectral_radius(fd)

        return self._memo(("fermi", beta) + key, compute)


def _reference(verdict: Verdict, compute, what: str):
    try:
        return compute()
    except Exception as exc:  # a reference that cannot be built fails the case
        verdict.fail(f"{what} reference failed: {type(exc).__name__}: {exc}")
        return None


def _number(value) -> float | None:
    if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    return None


def check_analyze(case, rc, stdout: str, refs: References) -> list:
    v = Verdict(case.kind)
    spec = case.spec
    if rc != 0:
        v.fail(f"exit code {rc}")
        return [v]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        v.fail(f"unparsable report: {exc}")
        return [v]
    if not isinstance(report, dict) or report.get("converged") is not True:
        v.fail("report missing or not converged")
        return [v]
    n, p = spec["n"], spec["p"]
    if (report.get("n"), report.get("p")) != (n, p):
        v.fail(f"report is for n={report.get('n')}, p={report.get('p')}, expected n={n}, p={p}")
    values = {k: _number(report.get(k)) for k in ("c", "c2", "c2a", "c2b", "c_naive")}
    c_gap = report.get("c_gap") or []
    c_tilde = report.get("c_tilde") or []
    missing = [k for k, val in values.items() if val is None]
    if missing or not c_gap or not c_tilde:
        v.fail(f"report lacks numbers for {missing or 'c_gap/c_tilde'}")
        return [v]
    count = p * (n - p)
    q_top = count if spec.get("q_max") is None else min(spec["q_max"], count)
    if len(c_gap) != q_top + 1:
        v.fail(f"c_gap has {len(c_gap)} entries, expected {q_top + 1}")
    c, c2 = values["c"], values["c2"]
    chain = [
        ("c <= c2", c, c2),
        ("c2 <= min c_gap", c2, min(c_gap)),
        ("c <= c2a", c, values["c2a"]),
        ("c <= c2b", c, values["c2b"]),
        ("c2 <= c_naive", c2, values["c_naive"]),
    ]
    for name, lhs, rhs in chain:
        if not _le(lhs, rhs):
            v.fail(f"bound chain violated: {name} ({lhs!r} > {rhs!r})")
    k_full, tilde_full = c_tilde[-1]
    if k_full != count or not _close(tilde_full, c2, REL_CHAIN):
        v.fail(f"c_tilde[{k_full}] = {tilde_full!r} differs from c2 = {c2!r} (k must be {count})")
    ref = _reference(
        v, lambda: refs.step_radius((case.kind,), lambda: build_reference_problem(spec)), "dense"
    )
    if ref is not None and not _close(c, ref, REL_REFERENCE):
        v.fail(f"c = {c!r} differs from the reference rho {ref!r}")
    return [v]


def check_sweep(case, rc, stdout: str, refs: References) -> list:
    spec = case.spec
    grid, outputs = spec["values"], spec["outputs"]
    labels = [f"{case.kind}[{spec['axis']}={value:.6g}]" for value in grid]
    verdicts = [Verdict(label) for label in labels]

    def fail_all(reason):
        for v in verdicts:
            v.fail(reason)
        return verdicts

    if rc != 0:
        return fail_all(f"exit code {rc}")
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != SWEEP_HEADER:
        return fail_all("missing or wrong CSV header")
    body = rows[1:]
    if len(body) != len(grid) * len(outputs):
        return fail_all(f"{len(body)} rows, expected {len(grid)} cells x {len(outputs)} outputs")
    k = len(outputs)
    for i, (value, v) in enumerate(zip(grid, verdicts)):
        cell = body[i * k : (i + 1) * k]
        quantities = {}
        for row, token in zip(cell, outputs):
            try:
                ok = (
                    len(row) == len(SWEEP_HEADER)
                    and row[0] == spec["axis"]
                    and row[2] == token
                    and _close(float(row[1]), value, 1e-12)
                )
                quantities[token] = float(row[3])
            except ValueError:
                ok = False
            if not ok:
                v.fail(f"malformed row {row!r} for {token}")
        if v.failed:
            continue
        c = quantities["c"]
        if not _le(c, quantities["c2"]):
            v.fail(f"bound chain violated: c <= c2 ({c!r} > {quantities['c2']!r})")
        if "naive" in quantities and not _le(quantities["c2"], quantities["naive"]):
            v.fail("bound chain violated: c2 <= c_naive")
        if "liu" in quantities and not quantities["liu"] > 0:
            v.fail("c_liu is not positive")
        key = (case.kind, value)
        problem = lambda: build_reference_problem(spec, value)  # noqa: E731
        if spec["filter"] == "fermi":
            beta = spec["beta"]
            ref = _reference(v, lambda: refs.fermi_fd_radius(key, problem, beta), "Fermi FD")
            if ref is not None and not _close(c, ref, REL_FD):
                v.fail(f"c = {c!r} is not rho of the Fermi map {ref!r}", "fermi-step-jacobian")
        else:
            ref = _reference(v, lambda: refs.step_radius(key, problem), "dense")
            if ref is not None and not _close(c, ref, REL_REFERENCE):
                v.fail(f"c = {c!r} differs from the reference rho {ref!r}")
    return verdicts


_CHECK_LINE = re.compile(r"^(PASS|FAIL|INFO) ([^:]+)")
_CHAIN_C = re.compile(r"c=([-+0-9.eE]+)")


def check_check(case, rc, stdout: str, refs: References) -> list:
    v = Verdict(case.kind)
    if rc not in (0, 1):
        v.fail(f"exit code {rc}" + ("" if rc in EXIT_CODES else " (undocumented)"))
        return [v]
    results = {}
    for line in stdout.splitlines():
        match = _CHECK_LINE.match(line)
        if match is None:
            v.fail(f"unparsable line {line!r}")
            return [v]
        results[match.group(2)] = (match.group(1), line)
    n = case.spec["n"]
    expected = [name for name in CHECK_NAMES if n <= 20 or "cyclic" not in name]
    absent = [name for name in expected if name not in results]
    if absent:
        v.fail(f"missing oracle lines {absent}")
        return [v]
    failing = [name for name, (status, _) in results.items() if status == "FAIL"]
    if (rc == 0) != (not failing):
        v.fail(f"exit code {rc} disagrees with FAIL lines {failing}")
    chain = _CHAIN_C.search(results["bound chain"][1])
    if chain is None:
        v.fail("bound chain line does not report c")
    else:
        c = float(chain.group(1))
        ref = _reference(
            v,
            lambda: refs.step_radius((case.kind,), lambda: build_reference_problem(case.spec)),
            "dense",
        )
        if ref is not None and not _close(c, ref, REL_PRINTED):
            v.fail(f"printed c = {c!r} differs from the reference rho {ref!r}")
    # The documented false alarm: only the FD oracle fails on the Laplacian
    # case while the printed c matches the reference.
    tag = "check-fd-false-fail" if case.kind == "check-laplacian-real-n8" and not v.errors else None
    for name in failing:
        v.fail(results[name][1], tag if name == "finite-difference oracle" else None)
    return [v]


CHECKERS = {"analyze": check_analyze, "sweep": check_sweep, "check": check_check}


def check_case(case, rc, stdout: str, refs: References) -> list:
    """Verdicts of one invocation; a sweep gives one per grid cell.

    ``rc`` is None when the invocation raised instead of returning.  Output
    whose structure the checker cannot read fails every case it stood for.
    """
    try:
        return CHECKERS[case.command](case, rc, stdout, refs)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        reason = f"malformed output: {type(exc).__name__}: {exc}"
        return [Verdict(f"{case.kind}#{i}", [(reason, None)]) for i in range(case.cells)]

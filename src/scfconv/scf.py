"""SCF fixed-point iteration on density matrices and empirical rate estimation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .matops import (
    ZeroGapError,
    fermi_chemical_potential,
    fermi_density,
    require_hermitian,
    spectral_filter_density,
)
from .problems import Problem

# estimate_rate fits the last RATE_TAIL errors above the round-off floor
RATE_TAIL = 8
RATE_FLOOR = 100.0 * np.finfo(float).eps

# A run inside locate_fixed_point ends once its step error has stopped
# changing: its last STALL_STEPS step errors agree to within a relative
# STALL_SPREAD.  Such a run sits on a cycle of the map, not on its way to a
# fixed point: a geometric run whose step shrinks that slowly needs about 1e9
# steps to shrink it 1e12-fold.  A run whose step error shrinks, grows
# or wanders, including one that drifts away from its start for a long time
# before it converges, is left alone.
STALL_STEPS = 50
STALL_SPREAD = 1e-6

# Iteration cap of each damped run inside locate_fixed_point
FALLBACK_MAX_ITER = 5000


class RateEstimationError(RuntimeError):
    """Too few usable tail points; rerun with a smaller tol or more iterations."""


@dataclass
class ScfOptions:
    """Options for the fixed-point solve.

    ``damping`` is the mixing weight theta in P_{k+1} = (1-theta) P_k +
    theta Psi(P_k); theta = 1 is plain SCF.  Damping is a fixed-point-finding
    aid only; rate measurements are meaningful for theta = 1.
    """

    tol: float = 1e-12
    max_iter: int = 500
    damping: float = 1.0
    filter: str = "step"
    beta: float | None = None

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.filter not in ("step", "fermi"):
            raise ValueError(f"unknown filter {self.filter!r}")
        if self.beta is not None and not np.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if self.filter == "fermi" and (self.beta is None or self.beta <= 0):
            raise ValueError("fermi filter requires beta > 0")


@dataclass
class IterationRecord:
    """Per-iteration diagnostics from the solve."""

    step_err: float
    lambda_p: float
    lambda_p1: float
    gap: float


@dataclass
class FixedPointBundle:
    """Converged density matrix with the full eigendecomposition of A(P*).

    ``errors_to_fixed`` is filled post hoc from the stored iterates once P*
    is known; it aligns with ``history`` (entry k is ||P_{k+1} - P*||_F).  It
    is None for an unconverged run, whose last iterate is no fixed point.
    """

    p_star: np.ndarray
    x: np.ndarray
    lambdas: np.ndarray
    history: list[IterationRecord]
    converged: bool
    p: int
    damping: float = 1.0
    filter: str = "step"
    beta: float | None = None
    mu: float | None = None
    errors_to_fixed: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return len(self.history)


def scf_step(problem: Problem, density, filter: str = "step", beta: float | None = None):
    """One application of the fixed-point map: P -> filter density of A0 + L(P).

    Returns (P_next, lambdas, X) with the full ascending eigendecomposition
    of A(P) for diagnostics.  On a stack (..., n, n) of densities it maps
    each one as a single call would; a zero gap names its member.
    """
    density = require_hermitian(density, name="P")
    a = problem.apply(density)
    if filter == "step":
        return spectral_filter_density(a, problem.p, return_eig=True, name="A(P)")
    if filter == "fermi":
        if beta is None or beta <= 0:
            raise ValueError("fermi filter requires beta > 0")
        density, lam, x, _ = fermi_density(a, beta, problem.p, return_eig=True, name="A(P)")
        return density, lam, x
    raise ValueError(f"unknown filter {filter!r}")


def scf_solve(
    problem: Problem,
    opts: ScfOptions | None = None,
    *,
    stall_steps: int | None = None,
) -> FixedPointBundle:
    """Iterate P_{k+1} = (1-theta) P_k + theta Psi(P_k) until the step is below tol,
    from the filter density P_0 of A0.

    Non-convergence is not an exception: the returned bundle carries the full
    history with ``converged=False`` so parameter sweeps over diverging ranges
    still emit data.  A zero cross gap at some iterate raises ZeroGapError
    identifying the iterate index.

    By default the run goes on to ``opts.max_iter``.  With ``stall_steps`` it
    also ends, unconverged, once the last ``stall_steps`` step errors agree to
    within ``STALL_SPREAD``; only ``locate_fixed_point`` sets it.
    """
    opts = opts or ScfOptions()
    density = spectral_filter_density(problem.a0, problem.p)
    theta = opts.damping
    history: list[IterationRecord] = []
    iterates: list[np.ndarray] = []
    converged = False
    for k in range(opts.max_iter):
        try:
            psi, lam, _ = scf_step(problem, density, filter=opts.filter, beta=opts.beta)
        except ZeroGapError as exc:
            raise ZeroGapError(f"zero gap at SCF iterate {k}: {exc}") from exc
        nxt = psi if theta == 1.0 else (1.0 - theta) * density + theta * psi
        step_err = float(np.linalg.norm(nxt - density))
        p = problem.p
        history.append(
            IterationRecord(
                step_err=step_err,
                lambda_p=float(lam[p - 1]),
                lambda_p1=float(lam[p]),
                gap=float(lam[p] - lam[p - 1]),
            )
        )
        density = nxt
        iterates.append(density)
        if step_err <= opts.tol:
            converged = True
            break
        if stall_steps and len(history) >= stall_steps:
            window = [rec.step_err for rec in history[-stall_steps:]]
            if max(window) <= (1.0 + STALL_SPREAD) * min(window):
                break
    p_star = density
    a_star = problem.apply(p_star)
    lam, x = np.linalg.eigh(require_hermitian(a_star, tol=1e-10, name="A(P*)"))
    mu = None
    if opts.filter == "fermi":
        mu = fermi_chemical_potential(lam, opts.beta, problem.p)
    errors = None
    if converged:
        errors = np.array([float(np.linalg.norm(it - p_star)) for it in iterates])
    return FixedPointBundle(
        p_star=p_star,
        x=x,
        lambdas=lam,
        history=history,
        converged=converged,
        p=problem.p,
        damping=theta,
        filter=opts.filter,
        beta=opts.beta,
        mu=mu,
        errors_to_fixed=errors,
    )


def locate_fixed_point(
    problem: Problem,
    opts: ScfOptions | None = None,
    fallback_dampings=(0.5, 0.2, 0.05),
) -> tuple[FixedPointBundle, FixedPointBundle | None]:
    """Find a fixed point, falling back to damped iteration when plain SCF fails.

    Returns (bundle, plain_bundle) where plain_bundle is the theta = 1 run
    (the one rate measurements may use) and bundle is the first converged run.
    Needed to evaluate divergent cases (c > 1), where plain SCF never settles
    but the damped iteration shares the same fixed points.

    Every run here (the plain one and each damped fallback) ends once its
    step error has stopped changing (``STALL_STEPS``, ``STALL_SPREAD``), so a
    plain run caught in a cycle hands over to damping long before
    ``max_iter``.  ``scf_solve`` alone, as ``solve`` runs it, keeps going to
    ``max_iter``.
    """
    opts = opts or ScfOptions()
    plain = scf_solve(problem, opts=replace(opts, damping=1.0), stall_steps=STALL_STEPS)
    if plain.converged:
        return plain, plain
    for theta in fallback_dampings:
        damped = scf_solve(
            problem,
            opts=replace(opts, damping=theta, max_iter=FALLBACK_MAX_ITER),
            stall_steps=STALL_STEPS,
        )
        if damped.converged:
            return damped, plain
    return plain, plain


@dataclass
class RateEstimate:
    """Geometric convergence rate fitted on the asymptotic tail of the history."""

    rate: float
    ratios: np.ndarray
    points_used: int


def estimate_rate(errors) -> RateEstimate:
    """Least-squares geometric rate from the tail of an error sequence.

    Uses the last ``RATE_TAIL`` entries that sit above the round-off floor
    ``RATE_FLOOR`` (100x machine precision) and fits the slope of log(error)
    against the iteration index.
    """
    errors = np.asarray(errors, dtype=float)
    usable = np.flatnonzero(errors > RATE_FLOOR)
    if usable.size < 6:
        raise RateEstimationError(
            f"only {usable.size} usable tail points above the floor {RATE_FLOOR:.2e}; "
            "rerun with a smaller tol or more iterations"
        )
    idx = usable[-RATE_TAIL:]
    logs = np.log(errors[idx])
    slope = np.polyfit(idx.astype(float), logs, 1)[0]
    ratios = errors[idx][1:] / errors[idx][:-1]
    return RateEstimate(rate=float(np.exp(slope)), ratios=ratios, points_used=idx.size)


def measured_rate(plain: FixedPointBundle | None) -> float | None:
    """Fitted rate of a converged plain (undamped) run; None when there is none to fit."""
    if plain is None or not plain.converged or plain.damping != 1.0:
        return None
    try:
        return estimate_rate(plain.errors_to_fixed).rate
    except RateEstimationError:
        return None

"""SCF fixed-point iteration on density matrices and empirical rate estimation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .matops import (
    ChemicalPotentialError,
    ZeroGapError,
    fermi_chemical_potential,
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

# The dampings locate_fixed_point falls back to, in turn, and the iteration
# cap of each damped run
FALLBACK_DAMPINGS = (0.5, 0.2, 0.05)
FALLBACK_MAX_ITER = 5000

# A lockstep batch keeps every member's plain-run iterates (16 n^2 bytes each,
# up to its iteration cap) until the member converges; it holds as many members
# as fit in GRID_BATCH_BYTES that way, and at least one.  The damped fallbacks
# keep no iterates.
GRID_BATCH_BYTES = 64 << 20


class RateEstimationError(RuntimeError):
    """Too few usable tail points; rerun with a smaller tol or more iterations."""


def _check_filter(filter: str, beta: float | None) -> None:
    """The filter rule: the step filter takes no beta, the Fermi filter a
    finite beta > 0."""
    if filter not in ("step", "fermi"):
        raise ValueError(f"unknown filter {filter!r}")
    if beta is not None and not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if filter == "fermi" and (beta is None or beta <= 0):
        raise ValueError("fermi filter requires beta > 0")
    if filter == "step" and beta is not None:
        raise ValueError("beta is given only with the fermi filter")


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
        _check_filter(self.filter, self.beta)


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
    is None for an unconverged run, whose last iterate is no fixed point, and
    for a damped run of ``locate_fixed_point(s)``, which keeps no iterates.
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


def scf_step(problem, density, filter: str = "step", beta: float | None = None):
    """One application of the fixed-point map: P -> filter density of A0 + L(P).

    Returns (P_next, lambdas, X) with the full ascending eigendecomposition
    of A(P) for diagnostics.  On a stack (..., n, n) of densities it maps
    each one as a single call would; the error of a failing member has the
    message of a single call and names the member in ``member``.
    ``problem`` may also be a list of problems of equal n and p, one for each
    member of a stack (k, n, n): each member is then mapped with its own A(P).
    That is the lockstep iteration's own step, whose densities are filter
    densities of Hermitian matrices and their mixtures, so only A(P) is
    checked for Hermiticity there.
    """
    _check_filter(filter, beta)
    if isinstance(problem, Problem):
        density = require_hermitian(density, name="P")
        a, p = problem.apply(density), problem.p
    else:
        if len(problem) != len(density):
            raise ValueError(f"{len(problem)} problems for a stack of {len(density)}")
        a, p = np.stack([one.apply(d) for one, d in zip(problem, density)]), problem[0].p
    return spectral_filter_density(a, p, beta=beta, name="A(P)")[:3]


def _batches(problems, max_iter: int):
    """The runs of consecutive problems of equal (n, p), cut to as many problems
    as store ``max_iter`` iterates of 16 n^2 bytes each in ``GRID_BATCH_BYTES``,
    and at least one."""
    for (n, _), run in itertools.groupby(problems, key=lambda one: (one.n, one.p)):
        run, per = list(run), max(1, GRID_BATCH_BYTES // (16 * n * n * max_iter))
        yield from (run[first:first + per] for first in range(0, len(run), per))


def _bundle(problem: Problem, opts: ScfOptions, history, p_star, iterates, converged: bool):
    """The FixedPointBundle of a finished run whose last density is ``p_star``;
    ``iterates`` is the run's densities, or None when it kept none."""
    a_star = problem.apply(p_star)
    lam, x = np.linalg.eigh(require_hermitian(a_star, tol=1e-10, name="A(P*)"))
    mu = None
    if opts.filter == "fermi":
        mu = fermi_chemical_potential(lam, opts.beta, problem.p)
    errors = None
    if converged and iterates is not None:
        errors = np.array([float(np.linalg.norm(it - p_star)) for it in iterates])
    return FixedPointBundle(
        p_star=p_star,
        x=x,
        lambdas=lam,
        history=history,
        converged=converged,
        p=problem.p,
        damping=opts.damping,
        filter=opts.filter,
        beta=opts.beta,
        mu=mu,
        errors_to_fixed=errors,
    )


def _run_batch(batch, opts: ScfOptions, stall: bool):
    """``scf_solve`` of each problem of ``batch`` (all of equal n and p), iterated
    together from the filter density of A0: the bundle of each, or the exception
    it raises alone.  Each step maps the live members' densities through one
    ``scf_step``.  A member leaves the stack once it fails, converges, reaches
    ``opts.max_iter`` or, with ``stall``, stalls (``_stalled``).  A damped run
    that stops on a stall (a fallback of ``locate_fixed_points``) keeps no iterates."""
    runs: list[FixedPointBundle | Exception | None] = [None] * len(batch)
    live, starts = [], []
    for i, problem in enumerate(batch):
        try:
            starts.append(spectral_filter_density(problem.a0, problem.p, beta=opts.beta)[0])
            live.append(i)
        except (ZeroGapError, ChemicalPotentialError) as exc:
            runs[i] = exc
    histories = [[] for _ in batch]
    keep = not (stall and opts.damping < 1.0)
    iterates = [[] if keep else None for _ in batch]
    density = np.stack(starts) if starts else None
    p, theta = batch[0].p, opts.damping
    for k in range(opts.max_iter):
        while live:
            try:
                psi, lam, _ = scf_step([batch[i] for i in live], density,
                                       filter=opts.filter, beta=opts.beta)
                break
            except (ZeroGapError, ChemicalPotentialError) as exc:
                j = exc.member[0]  # its message is that of a single call
                runs[live.pop(j)] = (ZeroGapError(f"zero gap at SCF iterate {k}: {exc}")
                                     if isinstance(exc, ZeroGapError)
                                     else ChemicalPotentialError(str(exc)))
                density = np.delete(density, j, axis=0)
        if not live:
            break
        nxt = psi if theta == 1.0 else (1.0 - theta) * density + theta * psi
        diff = nxt - density
        lows, highs = lam[:, p - 1], lam[:, p]
        stay = []
        for j, (i, low, high, gap) in enumerate(
            zip(live, lows.tolist(), highs.tolist(), (highs - lows).tolist())
        ):
            step_err = float(np.linalg.norm(diff[j]))
            history = histories[i]
            history.append(IterationRecord(step_err, low, high, gap))
            kept = iterates[i]
            if kept is not None:
                kept.append(nxt[j].copy())
            converged = step_err <= opts.tol
            if converged or k + 1 == opts.max_iter or (stall and _stalled(history)):
                try:
                    runs[i] = _bundle(batch[i], opts, history, nxt[j].copy(), kept, converged)
                except ChemicalPotentialError as exc:
                    runs[i] = exc
                iterates[i] = None
            else:
                stay.append(j)
        if len(stay) < len(live):
            live, nxt = [live[j] for j in stay], nxt[stay]
        density = nxt
    return runs


def _stalled(history) -> bool:
    """The last ``STALL_STEPS`` step errors agree to within ``STALL_SPREAD``."""
    if len(history) < STALL_STEPS:
        return False
    window = [rec.step_err for rec in history[-STALL_STEPS:]]
    return max(window) <= (1.0 + STALL_SPREAD) * min(window)


def scf_solve(problem: Problem, opts: ScfOptions | None = None) -> FixedPointBundle:
    """Iterate P_{k+1} = (1-theta) P_k + theta Psi(P_k) until the step is below tol,
    from the filter density P_0 of A0.

    Non-convergence is not an exception: the returned bundle carries the full
    history with ``converged=False`` so parameter sweeps over diverging ranges
    still emit data.  A zero cross gap at some iterate raises ZeroGapError
    identifying the iterate index.

    The run goes on to ``opts.max_iter``; only ``locate_fixed_point`` stops
    stalled runs.  This is the lockstep iteration on a batch of one.
    """
    (run,) = _run_batch([problem], opts or ScfOptions(), stall=False)
    if isinstance(run, Exception):
        raise run
    return run


def locate_fixed_points(problems, opts: ScfOptions | None = None):
    """``locate_fixed_point`` of each of ``problems``, in lockstep.

    Yields one entry per problem, in order: the (bundle, plain_bundle) pair
    of ``locate_fixed_point`` on it alone, or the exception that raises.  A
    failing problem leaves the stack; the others go on.  Consecutive problems
    of equal (n, p) go in batches (``_batches``) sized by the plain runs'
    iterates, and a batch's entries are yielded once it is done.  Within a
    batch the plain runs go together, then each of ``FALLBACK_DAMPINGS`` in
    turn as one stack of the problems still unconverged, keeping no iterates.
    """
    opts = opts or ScfOptions()
    for batch in _batches(problems, opts.max_iter):
        plain = _run_batch(batch, replace(opts, damping=1.0), stall=True)
        found = list(plain)
        for theta in FALLBACK_DAMPINGS:
            todo = [i for i, run in enumerate(found)
                    if isinstance(run, FixedPointBundle) and not run.converged]
            if not todo:
                break
            damped = replace(opts, damping=theta, max_iter=FALLBACK_MAX_ITER)
            for i, run in zip(todo, _run_batch([batch[i] for i in todo], damped, stall=True)):
                if isinstance(run, Exception) or run.converged:
                    found[i] = run
        yield from (run if isinstance(run, Exception) else (run, first)
                    for run, first in zip(found, plain))


def locate_fixed_point(problem: Problem, opts: ScfOptions | None = None
                       ) -> tuple[FixedPointBundle, FixedPointBundle | None]:
    """Find a fixed point, falling back to damped iteration when plain SCF fails.

    Returns (bundle, plain_bundle) where plain_bundle is the theta = 1 run
    (the one rate measurements may use) and bundle is the first converged run,
    trying ``FALLBACK_DAMPINGS`` in turn.  A damped bundle keeps no iterates,
    so its ``errors_to_fixed`` is None.  Needed to evaluate divergent cases
    (c > 1), where plain SCF never settles but the damped iteration shares the
    same fixed points.

    Every run here (the plain one and each damped fallback) ends once its
    step error has stopped changing (``STALL_STEPS``, ``STALL_SPREAD``), so a
    plain run caught in a cycle hands over to damping long before
    ``max_iter``.  ``scf_solve`` alone, as ``solve`` runs it, keeps going to
    ``max_iter``.  This is ``locate_fixed_points`` on a batch of one, the
    same lockstep iteration that ``sweep`` runs over its grid.
    """
    (run,) = locate_fixed_points([problem], opts)
    if isinstance(run, Exception):
        raise run
    return run


def estimate_rate(errors) -> float:
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
    return float(np.exp(slope))


def measured_rate(plain: FixedPointBundle | None) -> float | None:
    """Fitted rate of a converged plain (undamped) run; None when there is none to fit."""
    if plain is None or not plain.converged or plain.damping != 1.0:
        return None
    try:
        return estimate_rate(plain.errors_to_fixed)
    except RateEstimationError:
        return None

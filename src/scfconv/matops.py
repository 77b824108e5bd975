"""Half-vectorization algebra and the spectral filter kernel.

All operations here are pure functions of their inputs and safe to call
concurrently.  Eigenvalues are always returned in ascending order; the
completion used by ``vech_inv`` is the plain transpose (not the conjugate
transpose), so ``vech_inv(vech(W)) == W`` holds for complex-symmetric W but
not for general complex Hermitian W.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

HERMITIAN_TOL = 1e-12
GAP_TOL = 1e-12


class ZeroGapError(ValueError):
    """The occupied/virtual spectrum is degenerate (lambda_p == lambda_{p+1}).

    The analysis assumes a nonzero gap; a degenerate cross gap makes the
    density matrix ill-defined.  ``member`` indexes the spectrum in a stack.
    """

    def __init__(self, message: str, member: tuple | None = None):
        super().__init__(message)
        self.member = member


class ChemicalPotentialError(RuntimeError):
    """The chemical potential search could not meet the trace target.

    ``member`` indexes the spectrum in a stack, as for ``ZeroGapError``.
    """

    def __init__(self, message: str, member: tuple | None = None):
        super().__init__(message)
        self.member = member


def require_hermitian(a, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    """Validate that ``a``, a matrix or a stack (..., n, n) of them, is square
    and Hermitian within ``tol`` relative to each matrix's largest entry."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    err = np.abs(a - a.conj().swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    if (err > tol * np.abs(a).max(axis=(-2, -1), initial=1.0)).any():
        raise ValueError(f"{name} is not Hermitian within tolerance {tol}")
    return a


def triangular_dim(m: int) -> int:
    """Dimension n with n(n+1)/2 == m, or raise if m is not triangular."""
    n = int(round((np.sqrt(8 * m + 1) - 1) / 2))
    if n * (n + 1) // 2 != m:
        raise ValueError(f"length {m} is not a triangular number")
    return n


@lru_cache(maxsize=None)
def _vech_index_cached(n: int) -> np.ndarray:
    idx = [j * n + i for j in range(n) for i in range(j, n)]
    return np.asarray(idx, dtype=np.intp)


def vech_index(n: int) -> np.ndarray:
    """Column-major (Fortran) vec indices of the lower triangle, incl. diagonal."""
    return _vech_index_cached(n).copy()


def vech(w) -> np.ndarray:
    """Column-stacked lower-triangle vectorization (w11..wn1, w22..wn2, ..., wnn),
    of a matrix or of each matrix of a stack (..., n, n)."""
    w = np.asarray(w)
    if w.ndim < 2 or w.shape[-1] != w.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    idx = _vech_index_cached(w.shape[-1])
    return w[..., idx % w.shape[-1], idx // w.shape[-1]]


def vech_inv(v) -> np.ndarray:
    """Inverse of ``vech`` with transpose (symmetric) completion.

    The strict upper triangle is the transpose of the strict lower triangle,
    so the result is complex-symmetric, not Hermitian, for complex input.
    """
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError("expected a vector")
    n = triangular_dim(v.shape[0])
    flat = np.zeros(n * n, dtype=np.result_type(v.dtype, float))
    flat[_vech_index_cached(n)] = v
    w = flat.reshape(n, n, order="F")
    return w + np.tril(w, -1).T


def _check_cross_gap(lam: np.ndarray, p: int) -> None:
    """Raise ZeroGapError when the cross gap lambda_p+1 - lambda_p of ascending
    spectra (..., n) is at most ``GAP_TOL`` times the largest |lambda|, with the
    message of a single spectrum; a stack's first such member is named in ``member``."""
    gap = lam[..., p] - lam[..., p - 1]
    zero = gap <= GAP_TOL * np.abs(lam).max(axis=-1)
    if zero.any():
        member = tuple(np.argwhere(zero)[0].tolist())
        raise ZeroGapError(
            f"zero gap: lambda_p = {float(lam[member + (p - 1,)])!r} and lambda_p+1 = "
            f"{float(lam[member + (p,)])!r} are degenerate; the analysis assumes a nonzero gap",
            member=member or None,
        )


def fermi_occupations(lam, beta: float, mu: float) -> np.ndarray:
    """Fermi-Dirac occupations f(t) = 1 / (1 + exp(beta (t - mu))), overflow-safe."""
    lam = np.asarray(lam, dtype=float)
    return 0.5 * (1.0 - np.tanh(0.5 * beta * (lam - mu)))


def fermi_chemical_potential(lam, beta: float, p: int, tol: float = 1e-12, max_iter: int = 200):
    """Chemical potential mu with sum of occupations equal to p, by safeguarded Newton.

    Brackets on [lambda_1 - s, lambda_n + s], s = max(1, (1 + ln n) / beta),
    past which every occupation is within 1 / (1 + e n) of 0 or 1: the trace,
    increasing in mu, brackets any 1 <= p < n unless s overflows.  Newton on
    g(mu) = sum f_i - p, with g' = beta sum f_i (1 - f_i), starts midway
    between lambda_p and lambda_{p+1}; every evaluation shrinks the bracket by
    the sign of g, and a step that leaves the bracket (or a slope that
    underflows to 0) is replaced by the bracket's midpoint.  The search ends
    at |g| <= ``tol``, or once the bracket holds adjacent doubles, at its end
    of smaller |g|: near a large lambda_p one ulp of mu can move the trace by
    more than tol.

    On spectra of shape (..., n) every row runs this search at once and is
    frozen once it converges, each to the mu a single row would get.  A row
    that fails raises ChemicalPotentialError with the single-row message,
    naming its ``member``; the first such row in order is reported.
    """
    lam = np.sort(np.asarray(lam, dtype=float), axis=-1)
    if beta <= 0:
        raise ValueError("beta must be positive")
    rows = lam.reshape(-1, lam.shape[-1])
    with np.errstate(over="ignore"):
        s = max(1.0, (1.0 + np.log(rows.shape[-1])) / beta)
    lo, hi = rows[:, 0] - s, rows[:, -1] + s
    unbracketed = np.isinf(s) | (fermi_occupations(rows, beta, lo[:, None]).sum(axis=-1) > p) | (
        fermi_occupations(rows, beta, hi[:, None]).sum(axis=-1) < p
    )
    top = min(max(p, 1), rows.shape[-1] - 1)
    mu = 0.5 * (rows[:, top - 1] + rows[:, top])
    excess = np.zeros(rows.shape[0])
    # the rows still searching, each with its spectrum, mu and bracket
    live = np.flatnonzero(~unbracketed)
    lam_l, mu_l, lo_l, hi_l = rows[live], mu[live], lo[live], hi[live]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            f = fermi_occupations(lam_l, beta, mu_l[:, None])
            ex = f.sum(axis=-1) - p
            below = ex < 0
            lo_l = np.where(below, mu_l, lo_l)
            hi_l = np.where(below, hi_l, mu_l)
            met = np.abs(ex) <= tol  # a NaN trace goes on, as in the scalar search
            tight = ~met & np.isfinite(ex) & (np.nextafter(lo_l, hi_l) >= hi_l)
            if tight.any():  # a bracket of adjacent doubles holds no other mu: its better end
                ends = np.stack([lo_l[tight], hi_l[tight]], axis=-1)
                g = fermi_occupations(lam_l[tight][:, None, :], beta, ends[..., None]).sum(-1) - p
                mu_l[tight] = np.take_along_axis(ends, np.abs(g).argmin(-1)[:, None], -1)[:, 0]
            going = ~(met | tight)
            if not going.all():
                mu[live[~going]] = mu_l[~going]
                live, lam_l, mu_l, lo_l, hi_l, f, ex = (
                    a[going] for a in (live, lam_l, mu_l, lo_l, hi_l, f, ex)
                )
                if live.size == 0:
                    break
            slope = beta * (f * (1.0 - f)).sum(axis=-1)
            newton = np.where(slope > 0, mu_l - ex / slope, hi_l)
            mu_l = np.where((lo_l < newton) & (newton < hi_l), newton, 0.5 * (lo_l + hi_l))
        else:
            mu[live] = mu_l
            excess[live] = fermi_occupations(lam_l, beta, mu_l[:, None]).sum(axis=-1) - p
    failed = unbracketed | ~(np.abs(excess) <= tol)
    if failed.any():
        first = int(np.flatnonzero(failed)[0])
        member = tuple(int(i) for i in np.unravel_index(first, lam.shape[:-1])) or None
        if unbracketed[first]:
            raise ChemicalPotentialError(
                f"trace target p={p} not bracketed on [{lo[first]}, {hi[first]}] for beta={beta}",
                member=member,
            )
        raise ChemicalPotentialError(
            f"mu search did not reach |trace - p| <= {tol} in {max_iter} iterations "
            f"(residual {excess[first]:.3e})",
            member=member,
        )
    return mu.reshape(lam.shape[:-1])[()]


def spectral_filter_density(b, p: int, beta: float | None = None, name: str = "matrix"):
    """The filter density P of ``b`` (each matrix of a stack (..., n, n)) with
    its full ascending eigendecomposition: (P, lambdas, X, mu).

    With no ``beta`` P = X1 X1^H is the orthogonal projector onto the p
    smallest eigenvalues (P^2 = P, trace p), after the cross-gap check, and
    mu is None.  With ``beta`` P = X f(Lambda) X^H is the Fermi-Dirac
    density, with mu solved (per member) so that trace P = p.  ``name``
    labels ``b`` in the Hermiticity error.
    """
    b = require_hermitian(b, name=name)
    n = b.shape[-1]
    if not 1 <= p < n:
        raise ValueError(f"occupation p={p} must satisfy 1 <= p < n={n}")
    lam, x = np.linalg.eigh(b)
    if beta is None:
        _check_cross_gap(lam, p)
        x1 = x[..., :p]
        return x1 @ x1.conj().swapaxes(-2, -1), lam, x, None
    mu = fermi_chemical_potential(lam, beta, p)
    f = fermi_occupations(lam, beta, mu[..., None])
    return (x * f[..., None, :]) @ x.conj().swapaxes(-2, -1), lam, x, mu


def divided_difference_matrix(
    lambdas, p: int, beta: float | None = None, mu: float | None = None
) -> np.ndarray:
    """R_ab = (f_a - f_b) / (lambda_a - lambda_b) of the occupations f on the
    given spectrum, with f'(lambda_a) on the diagonal.

    With no ``beta`` f is the step filter (1 on the p lowest, 0 above): R is
    1/(lambda_a - lambda_b) on occupied/virtual cross pairs, all negative (the
    paper's -D), and zero elsewhere.  With ``beta`` f is the Fermi function
    at ``mu`` (solved for trace p when not given); a pair with |d| < 1, d =
    beta (lambda_a - lambda_b) / 2, takes the form free of the cancellation
    in f_a - f_b, -(beta / 4) (sinh d / d) / (cosh x_a cosh x_b) with
    x = beta (lambda - mu) / 2.
    """
    lam = np.asarray(lambdas, dtype=float)
    n = lam.shape[0]
    if not 1 <= p < n:
        raise ValueError(f"occupation p={p} must satisfy 1 <= p < n={n}")
    if np.any(np.diff(lam) < 0):
        raise ValueError("eigenvalues must be in ascending order")
    if beta is None:
        _check_cross_gap(lam, p)
        r = np.zeros((n, n))
        r[:p, p:] = 1.0 / (lam[:p][:, None] - lam[p:][None, :])
        r[p:, :p] = r[:p, p:].T
        return r
    if not beta > 0:
        raise ValueError("beta must be positive")
    if mu is None:
        mu = fermi_chemical_potential(lam, beta, p)
    f = fermi_occupations(lam, beta, mu)
    diff = lam[:, None] - lam[None, :]
    d = 0.5 * beta * diff
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        quotient = (f[:, None] - f[None, :]) / diff
        cosh = np.cosh(0.5 * beta * (lam - mu))  # tanh x - tanh y = sinh(x - y) / (cosh x cosh y)
        tie = -0.25 * beta * np.where(d == 0, 1.0, np.sinh(d) / d) / np.outer(cosh, cosh)
    r = np.where(np.abs(d) < 1.0, tie, quotient)
    np.fill_diagonal(r, -beta * f * (1.0 - f))
    return r

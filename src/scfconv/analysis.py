"""Exact Jacobian of the fixed-point map, convergence factor, and the bound ladder.

The Jacobian acts on half-vectorized density-matrix coordinates (dimension
m = n(n+1)/2).  L' vanishes outside L'[T, S], S the columns that can be
nonzero (``lprime_support``) and T the vec positions L can write, so the rows
of J = T K1 D_eff K1^H L' are those of chi = K1 D_eff K1^H, the
independent-particle susceptibility, at the columns T:

    J[(i', k'), S]  = chi[(i', k'), T] L'[T, S]
    chi[(i', k'), u] = sum_b Q_i'[i_u, b] x[k_u, b] conj(x[k', b]),  Q_i' = (conj(X) o x_i') R

for u = i_u + n k_u in T, x_i' the row i' of X multiplied into each row of
conj(X).  R holds the divided differences of the map's own occupations, f' on
its diagonal, and D_eff(Y) = R o Y - (sum_i f'_i Y_ii / sum f') diag(f') adds
-Pf[i', k'] Pf[k_u, i_u] / sum f' to chi, Pf = X diag(f') X^H: nothing when f'
vanishes, so one formula serves both filters.  One pass over the rows of chi
keeps J[S, S] (c = rho(J[S, S])) and G = J[:, S]^H J[:, S] (c2 and c2a); c2b
and c_gap come from D_eff and L'[T, S] times the S-rows of vech(x_a x_b^H),
c_tilde from one running sum over the gap table.  Nothing of size n^4 or
m x |S| is kept: the dense J (``JacobianBundle.dense``) serves the oracles.

``LADDER`` names these quantities, and ``ladder`` is the one evaluator that
``analyze``, ``sweep`` and ``check`` read them from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matops import (
    ZeroGapError,
    divided_difference_matrix,
    vech,
    vech_index,
)
from .problems import OperatorSpec, Problem, assemble_Lprime, lprime_support
from .scf import FixedPointBundle, ScfOptions, locate_fixed_point, measured_rate, scf_step

# The bytes of one chunk of the Jacobian core's temporaries (Gram passes, cyclic radii)
CORE_CHUNK_BYTES = 1 << 16


def _spans(count: int, item_bytes: int, least: int = 1) -> list:
    """Consecutive slices of range(count), each of the items that fit in
    ``CORE_CHUNK_BYTES`` at ``item_bytes`` apiece, but at least ``least``."""
    size = max(least, CORE_CHUNK_BYTES // max(item_bytes, 1), 1)
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _gram_spans(count: int, height: int) -> list:
    """The column blocks of a Gram pass over ``count`` columns of ``height``
    entries of at most 16 bytes: a chunk, or a quarter of the height when that
    is wider, so that each update is one well-shaped GEMM and the temporaries
    stay within a chunk or the Gram matrix's own size."""
    return _spans(count, 16 * height, least=height // 4)


@dataclass
class GapStructure:
    """The gap table: the members of D_eff, every pair with R_ab != 0 by |R_ab|
    descending (ties by gap, then index), then the diagonal block when f' != 0.

    ``cross_gaps[t]`` = |lambda[virt[t]] - lambda[occ[t]]| for the t-th pair of
    0-based eigenvector indices ``occ[t]`` < ``virt[t]``: occupied and virtual
    under the step filter (the cross pairs in gap order, |R_ab| = 1/gap), the
    lower and higher index under the Fermi filter.  ``a`` and ``b`` interleave
    both orientations of each pair, (virt, occ) first: omega(q) is the slice
    a[:2q], b[:2q].
    """

    cross_gaps: np.ndarray
    occ: np.ndarray
    virt: np.ndarray
    diagonal: bool

    @property
    def count(self) -> int:
        return self.cross_gaps.size + self.diagonal

    @property
    def a(self) -> np.ndarray:
        return np.column_stack([self.virt, self.occ]).ravel()

    @property
    def b(self) -> np.ndarray:
        return np.column_stack([self.occ, self.virt]).ravel()

    def delta(self, j: int) -> float:
        """The j-th pair's gap (1-based), with sentinel +inf past the last pair."""
        if j < 1:
            raise ValueError("gap index is 1-based")
        if j > self.cross_gaps.size:
            return np.inf
        return float(self.cross_gaps[j - 1])


def gap_structure(lambdas, r) -> GapStructure:
    """The gap table of an ascending spectrum and its divided differences R
    (``divided_difference_matrix``), f' = diag R."""
    lam = np.asarray(lambdas, dtype=float)
    lo, hi = np.nonzero(np.triu(r, 1))
    weight, gap = np.abs(r[lo, hi]), np.abs(lam[hi] - lam[lo])
    order = np.lexsort((hi, lo, gap, -weight))
    return GapStructure(cross_gaps=gap[order], occ=lo[order], virt=hi[order],
                        diagonal=bool(np.diagonal(r).any()))


@dataclass
class JacobianBundle:
    """The factored core of the Jacobian that every bound is read from.

    ``r`` is the n x n divided-difference matrix R of the map's occupations,
    f' on its diagonal.  ``support`` is S (``lprime_support``), and
    ``image_rows`` is T, the vec positions L can write; L' vanishes outside
    ``l_s`` = L'[T, S] (|T| x |S|), and J outside the columns S.  Of J, the
    assembly's row pass keeps ``j_ss`` = J[S, S] and the ``c2`` and ``c2a`` of
    J[:, S]'s Gram matrix; ``dense`` runs the pass again for the oracles.
    """

    j_ss: np.ndarray
    c2: float
    c2a: float
    r: np.ndarray
    l_s: np.ndarray
    x: np.ndarray
    lambdas: np.ndarray
    support: np.ndarray
    image_rows: np.ndarray
    filter: str = "step"

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.n * (self.n + 1) // 2

    @cached_property
    def lprime_r(self) -> np.ndarray:
        """A factor F with F^H F = L'[T, S]^H L'[T, S], so that every norm of
        L' M is that of F M, with at most |S| rows: the column norms (a vector:
        F is diagonal) when no row of L'[T, S] holds two nonzeros, as for a
        Hadamard mask; else the R of the QR of L'[T, S]."""
        t, s = np.nonzero(self.l_s)
        if np.all(np.diff(t) > 0):
            weights = np.abs(self.l_s[t, s]) ** 2
            return np.sqrt(np.bincount(s, weights, minlength=self.support.size))
        return np.linalg.qr(self.l_s, mode="r")

    @cached_property
    def lprime_u(self) -> tuple[float, np.ndarray, float]:
        """One pass over L' T K1 = L'[:, S] U_S, whose column (a, b) is L' applied
        to vech(x_a x_b^H), over the positions where D_eff is nonzero, a chunk of
        columns at a time.  The S-rows U_S[s, (a, b)] = x[i_s, a] conj(x[k_s, b]),
        s = (i_s, k_s), come straight from x, and ``lprime_r`` F stands for L'
        (a weighted sum of the rows of U_S).  Returns c2b = ||L' T K1 D_eff||_2,
        the column norms ||L' vech(x_a x_b^H)|| at the flat positions a n + b
        (0 where D_eff vanishes), and ||L' T K1 D_eff|| on the diagonal block."""
        n, f = self.n, self.lprime_r
        here = vech_index(n)[self.support]
        xi, xk = self.x[here % n], self.x[here // n].conj()
        norms = np.zeros(n * n)

        def columns(pos):
            y = _kron_rows(xi, xk, pos)
            if f.ndim == 1:
                y *= f[:, None]
            else:
                y = _matmul(f, y)
            norms[pos] = np.sqrt(sum(np.einsum("ij,ij->j", a, a) for a in _parts(y)))
            return y

        # chunks of the positions a != b where R is nonzero (the 2p(n-p) cross pairs
        # under the step filter), then the diagonal positions when f' is nonzero
        on = np.arange(n) * (n + 1)
        off = np.flatnonzero(self.r - np.diag(np.diagonal(self.r)))
        blocks = [off[span] for span in _gram_spans(off.size, here.size)]
        blocks += [on] * self.gaps.diagonal
        diagonal = _norm2(_d_eff(self.r, columns(on), on)) if self.gaps.diagonal else 0.0
        c2b = _root(*_gram(_d_eff(self.r, columns(pos), pos) for pos in blocks))
        return c2b, norms, diagonal

    @cached_property
    def lprime_norm(self) -> float:
        """||L'||_2 = ||L'[T, S]||_2."""
        return _norm2(self.l_s)

    @cached_property
    def gaps(self) -> GapStructure:
        """The gap table of ``lambdas`` and R."""
        return gap_structure(self.lambdas, self.r)

    @cached_property
    def c(self) -> float:
        """The convergence factor rho(J) = rho(J[S, S]).  J is zero outside the
        columns S, so ordered (S, rest) it is block lower-triangular with a
        zero diagonal block."""
        return convergence_factor(self.j_ss)

    @cached_property
    def c_naive(self) -> float:
        """||L'||_2 ||D_eff||_2 = c_gap[0], ||L'||_2 / delta_1 under the step filter."""
        return self.lprime_norm * _d_eff_tail(self)[0]

    def dense(self) -> np.ndarray:
        """The m x m J, zero outside the columns S, by the row pass: for the oracles."""
        j = np.zeros((self.m, self.m), dtype=self.j_ss.dtype)
        for rows, z in _row_pass(self.x, self.r, self.l_s, self.image_rows):
            j[np.ix_(rows, self.support)] = z.T
        return j


def assemble_jacobian(bundle: FixedPointBundle, op: OperatorSpec) -> JacobianBundle:
    """Exact Jacobian of the fixed-point map that produced ``bundle``, L = ``op``.

    R is the divided-difference matrix of the map's own occupations: of the
    step filter, or of the Fermi function at ``bundle.beta`` and
    ``bundle.mu`` (solved for trace p when None).  One row pass over chi
    (``_row_pass``) keeps J[S, S] and J's n diagonal rows and sums G =
    J[:, S]^H J[:, S] (``_gram``): c2^2 = lambda_max(G).  J[:, s] = vech(X M_s
    X^H), M_s the column s of D_eff K2 L' T, X unitary and X M_s X^H Hermitian,
    so <M_s, M_t> counts J's diagonal rows once and twice the real part of the
    rest: c2a^2 = lambda_max(2 Re G - G_d), G_d the Gram matrix of those rows.
    """
    x = bundle.x
    n = x.shape[0]
    beta = bundle.beta if bundle.filter == "fermi" else None
    r = divided_difference_matrix(bundle.lambdas, bundle.p, beta=beta, mu=bundle.mu)
    l_s = assemble_Lprime(op, n)
    rows, support = op.image_rows(), lprime_support(op)
    j_ss = np.empty((support.size, support.size), dtype=np.result_type(x, l_s))
    on = np.empty((support.size, n), dtype=j_ss.dtype)  # J's diagonal rows, transposed
    at = np.full(n * (n + 1) // 2, -1)  # the row of J[S, S] at each vech position
    at[support] = np.arange(support.size)

    def blocks():
        for i, (vech_rows, z) in enumerate(_row_pass(x, r, l_s, rows)):
            s = at[vech_rows]
            j_ss[s[s >= 0]] = z[:, s >= 0].T
            on[:, i] = z[:, i]
            yield z  # scaled in place by _gram

    gram, e = _gram(blocks())
    c2 = _root(gram, e)
    if gram is not None:
        _ldexp(on, -e)
        gram = 2.0 * gram.real  # 2 Re G - G_d
        for part in _parts(on):
            gram -= part @ part.T
    return JacobianBundle(
        j_ss=j_ss, c2=c2, c2a=_root(gram, e), r=r, l_s=l_s, x=x,
        lambdas=np.asarray(bundle.lambdas, dtype=float), support=support, image_rows=rows,
        filter=bundle.filter,
    )


def _row_pass(x: np.ndarray, r: np.ndarray, l_s: np.ndarray, rows: np.ndarray):
    """Yield, for i' = 0 .. n-1, the vech positions of J's rows (i', k'), k' <=
    i', and Z = J[(i', k'), S]^T (|S| x (i' + 1)), from the rows of chi at the
    columns T = ``rows`` (module docstring).  Q_i'^T = R (X^H o x_i') is one
    real-by-complex GEMM (R is symmetric), gathered at the i_u and multiplied by
    the x[k_u]; conj(x[k']) and L'[T, S] make Z, less the rank-one shift."""
    n = x.shape[0]
    iu, ku = rows % n, rows // n
    xh = np.ascontiguousarray(x.conj().T)
    xk = x.T[:, ku]  # x[k_u, b] at [b, u]
    first = np.flatnonzero(vech_index(n) % (n + 1) == 0)  # the vech position of (k, k)
    pf = (x * np.diagonal(r)) @ xh  # X diag(f') X^H, 0 when f' is
    shift = (pf[ku, iu] / (np.trace(r) or 1.0)) @ l_s
    for i in range(n):
        v = _matmul(r, xh * x[i][:, None])[:, iu]  # Q_i'^T at the columns i_u
        v *= xk
        z = _matmul(l_s.T, v.T @ xh[:, : i + 1])  # L'[T, S]^T chi[(i', k'), T]^T
        z -= np.multiply.outer(shift, pf[i, : i + 1])
        yield first[: i + 1] + i - np.arange(i + 1), z


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, as one real GEMM on the float views of b and the result when a is
    real and b complex (half the work of the complex GEMM)."""
    if np.iscomplexobj(a) or not np.iscomplexobj(b):
        return a @ b
    return (a @ np.ascontiguousarray(b).view(float)).view(complex)


def _d_eff(r: np.ndarray, y: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Y D_eff restricted to the flat positions ``pos`` (a n + b of Y), in place,
    for ``y`` the columns of a stack of Y at those positions.  D_eff(Y) = R o Y
    - (diag(Y) f' / sum f') diag(f'), f' = diag R (no shift when f' sums to 0):
    R_ab alone at each a != b, so ``pos`` must hold every diagonal position
    with f' != 0 or none.  R is symmetric: one call serves either side or vec
    order."""
    n = r.shape[0]
    y *= r.ravel()[pos]
    on = np.flatnonzero(pos % (n + 1) == 0)
    total = np.trace(r)
    if on.size and total != 0:
        # sum_i f'_i Y_ii / sum f', each row summed alike however many rows
        dmu = np.take(y, on, axis=1).sum(axis=1) / total
        y[:, on] -= dmu[:, None] * np.diagonal(r)[pos[on] // (n + 1)]
    return y


def _d_eff_tail(jb: JacobianBundle) -> np.ndarray:
    """rho_q = ||D_eff off the first q members of the gap table||_2, q = 0 .. count.  In
    vec, D_eff is R_ab alone at each a != b and its diagonal block on the diagonal, so
    rho_q is the largest member past q: |R_ab| of a pair, the norm of the block, 0 past
    the last (1/delta_{q+1} under the step filter)."""
    gaps = jb.gaps
    members = np.abs(jb.r[gaps.occ, gaps.virt])
    if gaps.diagonal:
        on = np.arange(jb.n) * (jb.n + 1)
        members = np.append(members, _norm2(_d_eff(jb.r, np.eye(jb.n), on)))
    return np.maximum.accumulate(np.append(members, 0.0)[::-1])[::-1]


# The bytes of one chunk's stack of perturbed densities in the FD oracles
FD_CHUNK_BYTES = 1 << 19


def _perturbed_psi(problem, p_star, ts, rows, cols, value, filter, beta, first=0):
    """Yield (j, vech(Psi(P* + t D_j))) chunk by chunk, the second of shape
    (len(ts), len(j), m), along D_j = value E_(rows_j, cols_j) + conj(value)
    E_(cols_j, rows_j).  A chunk's densities go through one stacked
    ``scf_step``; a zero gap names its column, counted from ``first``."""
    n = p_star.shape[0]
    size = max(1, FD_CHUNK_BYTES // (16 * len(ts) * n * n))
    for lo in range(0, rows.size, size):
        j = np.arange(lo, min(lo + size, rows.size))
        d = np.zeros((j.size, n, n), dtype=np.result_type(value))
        d[j - lo, rows[j], cols[j]] = value
        d[j - lo, cols[j], rows[j]] = np.conj(value)
        stack = p_star + np.multiply.outer(ts, d)
        try:
            psi, _, _ = scf_step(problem, stack, filter=filter, beta=beta)
        except ZeroGapError as exc:
            col = first + lo + exc.member[1] + 1
            raise ZeroGapError(f"zero gap while perturbing column j={col}: {exc}") from exc
        yield j, vech(psi)


def jacobian_fd(
    problem: Problem,
    p_star: np.ndarray,
    filter: str = "step",
    beta: float | None = None,
) -> np.ndarray:
    """Finite-difference Jacobian: the independent oracle for ``assemble_jacobian``.

    Column j is a central difference of vech(Psi(.)) along the real
    perturbation direction vech_inv(e_j), by the fourth-order five-point
    stencil with a step of 5e-4 times (1 + ||P*||_F): the second-order
    stencil at its optimal step leaves an absolute noise floor near 1e-11
    from cancellation, which is not small enough to certify Jacobian columns
    that are several orders below the matrix scale.  The four perturbed
    densities of a chunk of columns go through one stacked ``scf_step``.
    """
    n = p_star.shape[0]
    m = n * (n + 1) // 2
    step = 5e-4 * (1.0 + float(np.linalg.norm(p_star)))
    ts = np.array([step, -step, 2.0 * step, -2.0 * step])
    vidx = vech_index(n)
    out = np.empty((m, m), dtype=problem.apply(p_star).dtype)
    for j, v in _perturbed_psi(problem, p_star, ts, vidx % n, vidx // n, 1.0, filter, beta):
        # differences first, so a column whose psi values are all equal
        # comes out exactly zero
        out[:, j] = ((8.0 * (v[0] - v[1]) - (v[2] - v[3])) / (12.0 * step)).T
    return out


def realified_jacobian_fd(
    problem: Problem,
    p_star: np.ndarray,
    filter: str = "step",
    beta: float | None = None,
    fd: np.ndarray | None = None,
) -> np.ndarray:
    """Real Jacobian over the n^2 real coordinates of the Hermitian manifold.

    Coordinates: Re of every vech entry (m of them) followed by Im of the
    strict-lower vech entries (m - n of them).  The imaginary parts of the
    diagonal are identically zero for Hermitian matrices, so the real
    dimension is n^2, not 2m.  Complements the complex m x m Jacobian, whose
    coordinate map is complex-linear only on symmetric completions.  The
    m real directions are those of ``jacobian_fd``, whose result ``fd`` gives
    their columns [Re fd; Im fd[strict lower]]; the m - n imaginary ones are
    central differences with a step of 1e-5 (1 + ||P*||_F).
    """
    n = p_star.shape[0]
    m = n * (n + 1) // 2
    if fd is None:
        fd = jacobian_fd(problem, p_star, filter=filter, beta=beta)
    step = 1e-5 * (1.0 + float(np.linalg.norm(p_star)))
    vidx = vech_index(n)
    offdiag = np.flatnonzero(vidx % n != vidx // n)
    rows, cols = vidx[offdiag] % n, vidx[offdiag] // n
    out = np.empty((n * n, n * n))
    out[:m, :m], out[m:, :m] = fd.real, fd.imag[offdiag]
    ts = np.array([step, -step])
    for j, v in _perturbed_psi(problem, p_star, ts, rows, cols, 1j, filter, beta, first=m):
        d = (v[0] - v[1]) / (2.0 * step)
        out[:m, m + j], out[m:, m + j] = d.real.T, d.imag[:, offdiag].T
    return out


def convergence_factor(j_p: np.ndarray) -> float:
    """Spectral radius of the Jacobian: the exact local convergence factor."""
    if j_p.shape[0] == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(j_p)).max())


def bound_c2(j_p: np.ndarray) -> float:
    """Spectral-norm bound: largest singular value of the Jacobian."""
    return _norm2(j_p)


def _norm2(a: np.ndarray) -> float:
    """Spectral norm from the top eigenvalue of the smaller Gram matrix, 0 for
    a matrix with no entries: the 2-norm of the package.  The Gram matrix is
    summed a chunk of the longer side at a time (``_gram``), each chunk one
    scaled copy."""
    long = a.T if a.shape[0] > a.shape[1] else a
    return _root(*_gram(long[:, span].copy() for span in _gram_spans(long.shape[1], len(long))))


def _gram(blocks) -> tuple:
    """(G, e) with G = 2^-2e sum_k Z_k Z_k^H for column blocks Z_k of equal
    height, (None, 0) when every block is zero.  Each block is scaled in place
    by an exact power of two, 2^-e with e the exponent of the largest entry so
    far (the sum rescaled when e grows), so G cannot leave the double range."""
    gram, e = None, 0
    for z in blocks:
        top = float(np.abs(z).max(initial=0.0))
        if top == 0.0:
            continue
        _, ez = np.frexp(top)
        if gram is None:
            gram, e = np.zeros((len(z), len(z)), dtype=z.dtype), ez
        elif ez > e:
            _ldexp(gram, 2 * (e - ez))
            e = ez
        _ldexp(z, -e)
        zh = z.conj().T
        for rows in _gram_spans(len(z), len(z)):  # no product as large as the Gram matrix
            gram[rows] += z[rows] @ zh
        del z, zh  # before the next block is made
    return gram, e


def _root(gram: np.ndarray | None, e: int) -> float:
    """2^e sqrt(lambda_max(G)) of a Gram matrix G scaled as ``_gram`` scales it:
    ||[Z_1 Z_2 ...]||_2 of its blocks, 0 for None (every block zero)."""
    if gram is None:
        return 0.0
    return float(np.ldexp(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)), e))


def _parts(a: np.ndarray) -> tuple:
    """(a.real, a.imag) of a complex array, (a,) of a real one: views that write through."""
    return (a.real, a.imag) if np.iscomplexobj(a) else (a,)


def _ldexp(a: np.ndarray, k: int) -> None:
    """a *= 2^k in place and exactly, the real and imaginary parts apart (one
    factor 2.0**k would leave the double range where a subnormal needs it)."""
    for part in _parts(a):
        np.ldexp(part, k, out=part)


def bound_cyclic(jb: JacobianBundle) -> tuple[float, float]:
    """The cyclic-permutation bounds of J = T K1 D_eff K2 L': c_2a =
    ||D_eff K2 L' T||_2, read from the Gram matrix of J[:, S] in the assembly
    (``assemble_jacobian``), and c_2b = ||L' T K1 D_eff||_2 (``lprime_u``)."""
    return jb.c2a, jb.lprime_u[0]


def bound_gap_all(jb: JacobianBundle) -> np.ndarray:
    """The family c_gap[q], q = 0 .. count: split D_eff into the first q members of the gap
    table and the rest, ||L'||_2 rho_q (``_d_eff_tail``) plus, per pair (a, b), |R_ab| times
    ||L(S(x_a x_b^H))||_F + ||L(S(x_b x_a^H))||_F, the column norms of L' T K1, and the
    diagonal member's ||L' T K1 D_eff|| on its block (``lprime_u``)."""
    gaps = jb.gaps
    _, norms, diagonal = jb.lprime_u
    cost = np.abs(jb.r[gaps.occ, gaps.virt]) * norms[gaps.a * jb.n + gaps.b].reshape(-1, 2).sum(1)
    if gaps.diagonal:
        cost = np.append(cost, diagonal)
    return jb.lprime_norm * _d_eff_tail(jb) + np.concatenate([[0.0], np.cumsum(cost)])


def bound_rank_truncated(jb: JacobianBundle, ks) -> np.ndarray:
    """Spectral norms of the Jacobian truncated to the first k members of the gap table.

    J_k keeps only the entries of D_eff indexed by omega(k) (rank <= 2k).
    With the pairs (a, b) = (a[t], b[t]) of the gap table, a_t = R_ab
    vech(x_a x_b^H) and b_t = W[a, b, S] as the columns of A and the rows of
    B, J_k[:, S] = A[:, :2k] B[:2k] for k up to the pairs; k = count keeps
    every member, the diagonal one too, and reads c_2.  B is read from x and
    L'[T, S]: B^T = L'[T, S]^T U_T, U_T[(i, k), (a, b)] = conj(x[i, a]) x[k, b]
    for (i, k) in T.  A and B are built only for the first 2 max(k) pairs that
    the other k need.  One QR of A and one of B^H give A = Q_A R_A and B = L_B
    Q_B^H; the R factor of a column prefix of A is the matching block of R_A,
    so ||J_k|| is the norm of R_A[:, :2k] L_B[:2k].  One running sum of these
    rank-2 terms, each added to the leading 2k x 2k block where it lies,
    serves every k in ``ks``; its ``_norm2`` is taken only at the k asked for.
    """
    gaps = jb.gaps
    ks = np.asarray(ks, dtype=int).reshape(-1)
    if ks.size and not (1 <= ks.min() and ks.max() <= gaps.count):
        raise ValueError(f"k in {ks.tolist()} out of range [1, {gaps.count}]")
    out = np.zeros(ks.size)
    full = ks == gaps.count
    if full.any():
        out[full] = jb.c2
    part = ks[~full]
    if part.size and jb.support.size:
        top = 2 * part.max()
        pa, pb = gaps.a[:top], gaps.b[:top]
        n, t, vidx = jb.n, jb.image_rows, vech_index(jb.n)
        r_a = np.linalg.qr(jb.x[:, pa][vidx % n] * jb.x[:, pb].conj()[vidx // n] * jb.r[pa, pb],
                           mode="r")
        u_t = _kron_rows(jb.x[t % n].conj(), jb.x[t // n], pa * n + pb)
        b_h = _matmul(jb.l_s.T, u_t).conj()  # B^H = conj(L'[T, S]^T U_T)
        del u_t  # before the QR's workspace
        l_b = np.linalg.qr(b_h, mode="r").conj().T
        rows, cols = r_a.shape[0], l_b.shape[1]
        total = np.zeros((rows, cols), dtype=np.result_type(r_a, l_b))
        norms = {}
        wanted = set(part.tolist())
        for k in range(1, part.max() + 1):
            e, f = min(2 * k, rows), min(2 * k, cols)
            total[:e, :f] += r_a[:e, 2 * k - 2 : 2 * k] @ l_b[2 * k - 2 : 2 * k, :f]
            if k in wanted:
                norms[k] = _norm2(total[:e, :f])
        out[~full] = [norms[k] for k in part.tolist()]
    return out


def bound_liu(problem: Problem, delta1: float) -> float | None:
    """Reference diagonal-nonlinearity bound 2 alpha sqrt(n) ||A0^-1||_2 / delta_1,
    the norm by ``_norm2``; None for a singular A0 (``inv`` raises: no finite
    bound)."""
    alpha = problem.meta.get("alpha")
    if alpha is None:
        raise ValueError("problem metadata does not carry the coupling alpha")
    try:
        norm_inv = _norm2(np.linalg.inv(problem.a0))
    except np.linalg.LinAlgError:
        return None
    return 2.0 * float(alpha) * np.sqrt(problem.n) * norm_inv / delta1


def cyclic_spectral_radii(jb: JacobianBundle) -> list:
    """Spectral radii of the four cyclic reorderings of T (K1 D_eff)(K2 L'T), for
    moderate n (checks and tests).  K1 = conj(X) kron X and K2 = X^T kron X^H
    are read from x at the rows they need: K1 at vec(S), K2 at C, the positions
    where D_eff is nonzero (the cross pairs under the step filter, all n^2
    under the Fermi filter).  The first radius is c: J vanishes outside the
    columns S.  The second, (K1 D_eff)(K2 L'T), vanishes outside the columns
    vec(S), and D_eff outside C.  The third, D_eff (K2 L'T)(K1), vanishes
    outside the rows C, and the fourth, L'T (K1 D_eff K2), outside the rows T:
    each radius is that of its diagonal block (C x C, T x T), by the same
    block-triangular argument as c, not by the cyclic identity under test."""
    x, n, r = jb.x, jb.n, jb.r
    here, rows = vech_index(n)[jb.support], jb.image_rows
    pos = np.flatnonzero(r)  # C, as flat positions a n + b of Y = X^H P X
    k1 = _kron_rows(x[here % n], x[here // n].conj(), pos)  # K1[vec(S), C]
    k2l = np.empty((pos.size, here.size), dtype=np.result_type(x, jb.l_s))  # (K2 L'T)[C, S]
    xi, xk = x[rows % n], x[rows // n].conj()
    for span in _spans(pos.size, 16 * rows.size):
        k2l[span] = _kron_rows(xi, xk, pos[span]).conj().T @ jb.l_s
    # each reordered product is freed once its radius is taken; the third is the
    # C x C block transposed (the same radius), K1[vec(S), C]^T (K2 L'T)[C, S]^T D_eff
    radii = [jb.c, 0.0, convergence_factor(_d_eff(r, k1.T @ k2l.T, pos)), 0.0]
    k1d = _d_eff(r, k1, pos)  # (K1 D_eff)[vec(S), C]
    radii[1] = convergence_factor(k1d @ k2l)
    del k1, k2l
    k1dk2 = np.empty((here.size, rows.size), dtype=x.dtype)  # (K1 D_eff K2)[vec(S), T]
    for span in _spans(rows.size, 16 * pos.size):
        k1dk2[:, span] = k1d @ _kron_rows(xi[span], xk[span], pos).conj().T
    del k1d
    radii[3] = convergence_factor(jb.l_s @ k1dk2)  # L'[T, S] (K1 D_eff K2)[vec(S), T]
    return radii


def _kron_rows(xi: np.ndarray, xk: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """K1 = conj(X) kron X at the vec positions (i, k) whose rows x[i] and
    conj(x[k]) are ``xi`` and ``xk``, and at the columns ``pos`` (flat positions
    a n + b of Y): x[i, a] conj(x[k, b]), straight from x with no kron."""
    n = xi.shape[1]
    out = np.take(xi, pos // n, axis=1)
    out *= np.take(xk, pos % n, axis=1)
    return out


# The ladder table: every quantity ``ladder`` evaluates, by its CLI name.  The
# families gap:Q and tilde:K take an index, at least the number given here.
LADDER = dict.fromkeys(("c", "c2", "c2a", "c2b", "naive", "liu")) | {"gap": 0, "tilde": 1}


def ladder_token(token: str) -> tuple[str, int | None]:
    """(name, index) of a token of the ladder table; ValueError for any other."""
    name, colon, suffix = token.partition(":")
    low = LADDER.get(name)
    if name in LADDER and low is None and not colon:
        return name, None
    if low is not None and suffix.isdecimal() and int(suffix) >= low:
        return name, int(suffix)
    raise ValueError(
        f"unknown output quantity {token!r}: the ladder table has {', '.join(LADDER)}, "
        f"where gap:Q needs Q >= {LADDER['gap']} and tilde:K needs K >= {LADDER['tilde']}"
    )


def ladder(problem: Problem, jb: JacobianBundle, tokens) -> dict:
    """The quantities of the ladder table that ``tokens`` name, keyed by token.

    gap:Q and tilde:K past the gap table's count read the last member of
    their family, and each family is evaluated once per call.  The bounds hold
    for J = T K1 D_eff K2 L' under either filter, but liu is None under the
    Fermi filter: it is a Laplacian bound for the step map.  liu is also None
    without a coupling alpha in the metadata or with a singular A0.
    """
    wanted = {token: ladder_token(token) for token in tokens}
    found = {name: getattr(jb, name) for name in ("c", "c2") if name in wanted}
    gaps = jb.gaps
    if "c2a" in wanted or "c2b" in wanted:
        found["c2a"], found["c2b"] = bound_cyclic(jb)
    if "naive" in wanted:
        found["naive"] = jb.c_naive
    gap = {t: min(i, gaps.count) for t, (name, i) in wanted.items() if name == "gap"}
    if gap:
        found.update(zip(gap, bound_gap_all(jb)[list(gap.values())]))
    tilde = {t: min(i, gaps.count) for t, (name, i) in wanted.items() if name == "tilde"}
    if tilde:
        ks = sorted(set(tilde.values()))
        family = dict(zip(ks, bound_rank_truncated(jb, ks)))
        found.update((t, family[k]) for t, k in tilde.items())
    if jb.filter == "step" and "liu" in wanted and problem.meta.get("alpha") is not None:
        found["liu"] = bound_liu(problem, gaps.delta(1))
    return {t: None if found.get(t) is None else float(found[t]) for t in wanted}


# The JSON key of each ladder name in the ``analyze`` report, in its order;
# the families gap and tilde are lists, tilde as [k, value] pairs.
REPORT_KEYS = {"c": "c", "c2": "c2", "c2a": "c2a", "c2b": "c2b", "naive": "c_naive",
               "gap": "c_gap", "liu": "c_liu", "tilde": "c_tilde"}


@dataclass
class ConvergenceReport:
    """The ladder row of one fixed point, with its gap table and measured rate.

    ``values`` is the dict ``ladder`` returned, keyed by token (None when no
    fixed point was located).
    """

    n: int
    p: int
    converged: bool
    values: dict | None = None
    gaps: GapStructure | None = None
    measured_rate: float | None = None
    fd_check: float | None = None

    def to_dict(self) -> dict:
        row = dict.fromkeys(REPORT_KEYS.values())
        for token, value in (self.values or {}).items():
            name, index = ladder_token(token)
            key = REPORT_KEYS[name]
            if value is None:  # a quantity the problem does not define stays null
                continue
            if index is None:
                row[key] = value
            else:
                row[key] = row[key] or []
                row[key].append(value if name == "gap" else [index, value])
        deltas = pairs = None
        if self.gaps is not None:
            deltas = [float(v) for v in self.gaps.cross_gaps]
            pairs = (np.column_stack([self.gaps.occ, self.gaps.virt]) + 1).tolist()
        return {"n": self.n, "p": self.p, "converged": self.converged, **row, "deltas": deltas,
                "pairs": pairs, "measured_rate": self.measured_rate, "fd_check": self.fd_check}


def analyze_problem(
    problem: Problem,
    opts: ScfOptions | None = None,
    q_max: int | None = None,
    fd_check: bool = False,
) -> tuple[ConvergenceReport, FixedPointBundle | None, JacobianBundle | None]:
    """Full analysis pipeline: locate the fixed point, assemble J, evaluate bounds.

    Divergent plain SCF is handled by damped fixed-point location; the
    Jacobian and every bound still apply at the located fixed point.
    ``q_max`` caps both the c_gap family and the rank-truncation list (the
    full-rank value, which must equal c_2, is always included).  The report
    holds the row ``ladder`` returns: under the Fermi filter every number is
    one of the Fermi map, and liu stays None.
    """
    if q_max is not None and q_max < 0:
        raise ValueError(f"q_max={q_max} must be >= 0")
    bundle, plain = locate_fixed_point(problem, opts)
    if not bundle.converged:
        return ConvergenceReport(n=problem.n, p=problem.p, converged=False), bundle, None
    jb = assemble_jacobian(bundle, problem.op)
    gaps = jb.gaps
    q_top = gaps.count if q_max is None else min(q_max, gaps.count)
    tilde_ks = sorted(set(range(1, q_top + 1)) | {gaps.count})
    tokens = ["c", "c2", "c2a", "c2b", "naive", "liu", *(f"gap:{q}" for q in range(q_top + 1)),
              *(f"tilde:{k}" for k in tilde_ks)]
    report = ConvergenceReport(
        n=problem.n, p=problem.p, converged=True, values=ladder(problem, jb, tokens),
        gaps=gaps, measured_rate=measured_rate(plain),
    )
    if fd_check:
        fd = jacobian_fd(problem, bundle.p_star, filter=bundle.filter, beta=bundle.beta)
        report.fd_check = max_column_relative_error(jb.dense(), fd)
    return report, bundle, jb


def max_column_relative_error(j_assembled: np.ndarray, j_reference: np.ndarray) -> float:
    """Largest column-wise relative deviation between two Jacobians.

    Columns whose reference norm is below 1e-6 times the largest
    column norm are compared against that floor instead: a purely relative
    comparison of a numerically zero column is ill-posed (any rounding noise
    would dominate), so such columns only need to be negligible at the floor
    scale.
    """
    ref_norms = np.linalg.norm(j_reference, axis=0)
    floor = max(1e-6 * float(ref_norms.max(initial=0.0)), 1e-300)
    diff = np.linalg.norm(j_assembled - j_reference, axis=0)
    return float((diff / np.maximum(ref_norms, floor)).max())

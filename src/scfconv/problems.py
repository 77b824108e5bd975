"""Problem definitions: the affine operator A(P) = A0 + L(P) and benchmark families.

The linear part L is kept in one of three representations (Hadamard mask,
diagonal map, general vectorized matrix) rather than always densified: the
mask and diagonal forms are O(n^2) to apply, which keeps the Laplacian family
cheap at n = 60.  Each form speaks vec only: it names its image rows T, the
vec positions L can write, and writes any columns of its vec matrix on T in
closed form, with no loop over basis matrices.  ``assemble_Lprime`` alone
pairs them into L' (the derivative of L in vech coordinates).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .matops import require_hermitian, vech_index


@dataclass(frozen=True)
class HadamardMask:
    """L(P) = mask o P (entrywise product)."""

    mask: np.ndarray

    @property
    def n(self) -> int:
        return self.mask.shape[0]

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.mask * p

    def image_rows(self) -> np.ndarray:
        """T: the vec positions where the mask is nonzero."""
        return np.flatnonzero(self.mask.ravel(order="F"))

    def lprime_vec(self, cols: np.ndarray) -> np.ndarray:
        """The columns ``cols`` (vec positions) of L's vec matrix on the rows T:
        L(E_ik) = mask[i, k] E_ik, so column (i, k) holds mask[i, k] at row (i, k)."""
        rows, flat = self.image_rows(), self.mask.ravel(order="F")
        out = np.zeros((rows.size, cols.size), dtype=np.result_type(self.mask, float))
        hit = np.flatnonzero(flat[cols])
        out[np.searchsorted(rows, cols[hit]), hit] = flat[cols[hit]]
        return out

    def require_hermitian_preserving(self) -> None:
        """Raise ValueError unless L(P) is Hermitian for every Hermitian P: the
        mask must be Hermitian (within ``require_hermitian``'s tolerance)."""
        require_hermitian(self.mask, name="operator mask")


@dataclass(frozen=True)
class DiagonalMap:
    """L(P) = alpha * Diag(coeff @ diag(P)); depends only on the diagonal of P."""

    coeff: np.ndarray
    alpha: float = 1.0

    @property
    def n(self) -> int:
        return self.coeff.shape[0]

    def apply(self, p: np.ndarray) -> np.ndarray:
        v = np.matmul(self.coeff, np.diagonal(p, axis1=-2, axis2=-1)[..., None])[..., 0]
        out = np.zeros(p.shape, dtype=np.result_type(v, float))
        # Diag(v) of each member: every (n + 1)-th entry of the flattened matrix
        out.reshape(*p.shape[:-2], self.n * self.n)[..., :: self.n + 1] = self.alpha * v
        return out

    def image_rows(self) -> np.ndarray:
        """T: the n diagonal positions of vec (multiples of n + 1)."""
        return np.arange(self.n) * (self.n + 1)

    def lprime_vec(self, cols: np.ndarray) -> np.ndarray:
        """The columns ``cols`` (vec positions) of L's vec matrix on the rows T:
        alpha * coeff[:, i] at (i, i), zero off the diagonal."""
        i, k = cols % self.n, cols // self.n
        out = self.alpha * self.coeff[:, i]
        out[:, i != k] = 0
        return out

    def require_hermitian_preserving(self) -> None:
        """Nothing to check: L(P) is diagonal, and real for Hermitian P and the
        real ``coeff`` that ``load_problem`` gives."""


@dataclass(frozen=True)
class GeneralVec:
    """L given by its action on column-major vectorization: vec(L(P)) = matrix @ vec(P)."""

    matrix: np.ndarray

    def __post_init__(self):
        if np.ndim(self.matrix) != 2 or self.matrix.shape != (self.n**2, self.n**2):
            raise ValueError(f"operator matrix shape {np.shape(self.matrix)} is not n^2 x n^2")

    @property
    def n(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))

    def apply(self, p: np.ndarray) -> np.ndarray:
        n = p.shape[-1]
        vec = p.swapaxes(-2, -1).reshape(*p.shape[:-2], n * n, 1)  # column-major vec
        return np.matmul(self.matrix, vec).reshape(p.shape).swapaxes(-2, -1)

    def image_rows(self) -> np.ndarray:
        """T: every vec position."""
        return np.arange(self.n * self.n)

    def lprime_vec(self, cols: np.ndarray) -> np.ndarray:
        """The columns ``cols`` (vec positions) of the matrix, float at least."""
        return self.matrix[:, cols].astype(np.result_type(self.matrix, float), copy=False)

    def require_hermitian_preserving(self) -> None:
        """Raise ValueError unless L(P) is Hermitian for every Hermitian P: the
        matrix regrouped by (i, k), (j, l) must be Hermitian (within
        ``require_hermitian``'s tolerance), i.e. M.reshape(n, n, n, n) must
        equal its .transpose(1, 0, 3, 2).conj()."""
        n = self.n
        regrouped = self.matrix.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
        require_hermitian(regrouped, name="operator matrix regrouped by (i, k), (j, l)")


OperatorSpec = Union[HadamardMask, DiagonalMap, GeneralVec]


def apply_L(op: OperatorSpec, p) -> np.ndarray:
    """Apply the linear map L to a matrix or a stack (..., n, n), with dimension checks."""
    p = np.asarray(p)
    if p.ndim < 2 or p.shape[-1] != p.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {p.shape}")
    if p.shape[-1] != op.n:
        raise ValueError(f"dimension mismatch: operator is n={op.n}, matrix is n={p.shape[-1]}")
    return op.apply(p)


def lprime_support(op: OperatorSpec) -> np.ndarray:
    """S: the vech positions (i, k) with (i, k) or (k, i) in T = ``op.image_rows()``.
    Column (i, k) of L' is vec(L(E_ik + E_ki)), and every operator kind reads
    only the vec positions it writes (L(E_c) = 0 for c outside T): L' vanishes
    outside the columns S."""
    n = op.n
    vidx = vech_index(n)
    written = np.zeros(n * n, dtype=bool)
    written[op.image_rows()] = True
    return np.flatnonzero(written[vidx] | written[vidx // n + n * (vidx % n)])


def assemble_Lprime(op: OperatorSpec, n: int) -> np.ndarray:
    """L'[T, S], S = ``lprime_support(op)`` and T = ``op.image_rows()``: the
    |T| x |S| block of the columns vec(L(vech_inv(e_j))), the one place where
    vec columns are paired into vech.  L' is zero outside it."""
    if op.n != n:
        raise ValueError(f"dimension mismatch: operator is n={op.n}, L' asked for n={n}")
    here = vech_index(n)[lprime_support(op)]
    out = op.lprime_vec(here)
    off = np.flatnonzero(here % (n + 1))  # then vec(k, i) of each (i, k) off the diagonal
    out[:, off] += op.lprime_vec(here[off] // n + n * (here[off] % n))
    return out


@dataclass
class Problem:
    """A nonlinear eigenvector problem A(P) = A0 + L(P) with occupation count p."""

    a0: np.ndarray
    op: OperatorSpec
    p: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        arrays = {"A0": self.a0, **{f"operator {k}": v for k, v in vars(self.op).items()}}
        for name, value in arrays.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} has a non-finite entry")
        a0 = require_hermitian(self.a0, name="A0")
        self.a0 = a0.astype(np.result_type(a0, float), copy=False)
        if not 1 <= self.p < self.n:
            raise ValueError(f"occupation p={self.p} must satisfy 1 <= p < n={self.n}")
        if self.op.n != self.n:
            raise ValueError(
                f"operator dimension {self.op.n} does not match A0 dimension {self.n}"
            )

    @property
    def n(self) -> int:
        return self.a0.shape[0]

    def apply(self, density: np.ndarray) -> np.ndarray:
        """Evaluate A(P) = A0 + L(P), for P a matrix or a stack (..., n, n)."""
        return self.a0 + apply_L(self.op, density)


def build_illustrative(epsilon: float, d: float = 0.16) -> Problem:
    """3x3 Hadamard-mask family: A0 tridiagonal in epsilon, mask diag(1, 1, 100), p = 1."""
    a0 = np.array(
        [
            [0.0, epsilon, 0.0],
            [epsilon, 1.0 + d, epsilon],
            [0.0, epsilon, 10.0],
        ]
    )
    mask = np.diag([1.0, 1.0, 100.0])
    meta = {"family": "illustrative", "eps": float(epsilon), "d": float(d)}
    return Problem(a0=a0, op=HadamardMask(mask=mask), p=1, meta=meta)


def build_laplacian(
    n: int,
    alpha: float,
    p: int,
    variant: str = "complex",
    h: float | None = None,
) -> Problem:
    """Discretized 1D Laplacian families with a diagonal-only nonlinearity.

    The complex variant adds a convection term i d/dx discretized centrally
    (off-diagonals -1/h^2 +- i/2h); the real variant is the standard symmetric
    tridiagonal.  L(P) = alpha * Diag(Re(A0)^-1 diag(P)).  Grid spacing
    defaults to h = 1/(n+1) (unit interval, homogeneous Dirichlet).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if h is None:
        h = 1.0 / (n + 1)
    if not 0 < h < np.inf:
        raise ValueError(f"grid spacing h must be positive and finite, got {h}")
    if not 0 < h * h < np.inf:
        raise ValueError(f"grid spacing h={h} has a square outside the positive finite doubles")
    if variant not in ("complex", "real"):
        raise ValueError(f"unknown Laplacian variant {variant!r}")
    convection = 1j / (2.0 * h) if variant == "complex" else 0.0
    a0 = np.zeros((n, n), dtype=type(convection))
    np.fill_diagonal(a0, 2.0 / h**2)
    idx = np.arange(n - 1)
    a0[idx, idx + 1] = -1.0 / h**2 + convection
    a0[idx + 1, idx] = -1.0 / h**2 - convection
    coeff = np.linalg.inv(np.real(a0))
    meta = {
        "family": f"laplacian_{variant}",
        "alpha": float(alpha),
        "h": float(h),
    }
    return Problem(a0=a0, op=DiagonalMap(coeff=coeff, alpha=float(alpha)), p=p, meta=meta)


def _encode_complex_matrix(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _decode_matrix(data, name: str) -> np.ndarray:
    """The matrix of JSON rows of numbers or [re, im] pairs; real when no entry
    has a nonzero imaginary part."""
    try:
        raw = np.asarray(data)
    except ValueError:
        # Rows that mix numbers with pairs (or rows of unequal length).
        try:
            raw = np.asarray(
                [[e if isinstance(e, (list, tuple)) else (e, 0.0) for e in row] for row in data]
            )
        except (TypeError, ValueError):
            raise ValueError(f"{name} must be a matrix") from None
    if raw.ndim < 2:
        raise ValueError(f"{name} must be a matrix")
    if raw.dtype.kind not in "biuf" or raw.shape[2:] not in ((), (2,)):
        raise ValueError(f"{name}: entries must be numbers or [re, im] pairs")
    if raw.ndim == 2:
        return raw.astype(float)
    if not raw[..., 1].any():
        return raw[..., 0].astype(float)
    a = np.empty(raw.shape[:2], dtype=complex)
    a.real = raw[..., 0]
    a.imag = raw[..., 1]
    return a


def _encode_operator(op: OperatorSpec) -> dict:
    if isinstance(op, HadamardMask):
        return {"kind": "hadamard", "mask": _encode_complex_matrix(op.mask)}
    if isinstance(op, DiagonalMap):
        return {
            "kind": "diagonal_map",
            "coeff": [[float(v) for v in row] for row in np.asarray(op.coeff, dtype=float)],
            "alpha": float(op.alpha),
        }
    if isinstance(op, GeneralVec):
        return {"kind": "general_vec", "matrix": _encode_complex_matrix(op.matrix)}
    raise TypeError(f"unknown operator type {type(op)!r}")


def _finite_number(value, name: str):
    """``value``, if it is a finite JSON number (an int or a float, not a bool)."""
    if not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _decode_operator(data: dict, n: int) -> OperatorSpec:
    kind = data.get("kind")
    if kind == "hadamard":
        mask = _decode_matrix(data["mask"], "mask")
        if mask.shape != (n, n):
            raise ValueError(f"mask shape {mask.shape} does not match n={n}")
        return HadamardMask(mask=mask)
    if kind == "diagonal_map":
        coeff = _decode_matrix(data["coeff"], "coeff")
        if np.iscomplexobj(coeff):
            raise ValueError("coeff must be real")
        if coeff.shape != (n, n):
            raise ValueError(f"coeff shape {coeff.shape} does not match n={n}")
        alpha = _finite_number(data.get("alpha", 1.0), "operator alpha")
        return DiagonalMap(coeff=coeff, alpha=float(alpha))
    if kind == "general_vec":
        # GeneralVec checks that it is n^2 x n^2, and Problem that n is A0's
        return GeneralVec(matrix=_decode_matrix(data["matrix"], "matrix"))
    raise ValueError(f"unknown operator kind {kind!r}")


def save_problem(problem: Problem, path) -> None:
    """Write a problem to the JSON schema (complex entries as [re, im] pairs)."""
    payload = {
        "n": problem.n,
        "p": problem.p,
        "A0": _encode_complex_matrix(problem.a0),
        "operator": _encode_operator(problem.op),
        "meta": problem.meta,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def load_problem(path) -> Problem:
    """Load a problem from the JSON schema, validating Hermiticity of A0 and
    that a ``diagonal_map`` alpha and a ``meta.alpha`` other than null are
    finite numbers.  A malformed file (not an object, an operator or meta that
    is not an object, n or p not a JSON integer, a missing key) raises a
    one-line ValueError."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("a problem file must hold a JSON object")
    operator, meta = payload.get("operator", {}), payload.get("meta", {})
    for name, value in (("operator", operator), ("meta", meta)):
        if not isinstance(value, dict):
            raise ValueError(f"problem file: {name} must be a JSON object")
    try:
        n, p = payload["n"], payload["p"]
        if not (type(n) is int and type(p) is int):  # JSON integers: no float, bool or string
            raise ValueError(f"n and p must be integers, got {n!r} and {p!r}")
        a0 = _decode_matrix(payload["A0"], "A0")
    except KeyError as exc:
        raise ValueError(f"problem file missing required key: {exc}") from exc
    if a0.shape != (n, n):
        raise ValueError(f"A0 shape {a0.shape} does not match n={n}")
    try:
        op = _decode_operator(operator, n)
    except KeyError as exc:
        raise ValueError(f"operator missing required key: {exc}") from exc
    if meta.get("alpha") is not None:
        _finite_number(meta["alpha"], "meta.alpha")
    return Problem(a0=a0, op=op, p=p, meta=meta)

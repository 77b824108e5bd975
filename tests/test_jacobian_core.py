"""Every quantity read from the factored Jacobian core against its dense definition.

The definitions are built here from dense Kronecker products, the vech
selector T and the dense L' of the basis loop, at n <= 8:

    J      = T (conj(X) kron X) diag(vec R) (X^T kron X^H) L'
             (the Fermi filter adds the rank-one Fermi-level shift)
    c      = rho(J),  c2 = ||J||_2
    c2a    = ||diag(vec R) (X^T kron X^H) L' T||_2
    c2b    = ||L' T (conj(X) kron X) diag(vec R)||_2
    c_naive, c_gap[q]  from ||L'||_2 and the column norms of L' T (conj(X) kron X)
    c_tilde[k]         = ||J with vec R zeroed outside omega(k)||_2

Under the Fermi filter c2a, c2b, c_naive, c_gap[q] and c_tilde[k] take the
n^2 x n^2 D_eff, diag(vec R) plus the rank-one Fermi-level shift, in place of
diag(vec R), and the gap table's members are its pairs and, when f' is
nonzero, its diagonal block (``dense_fermi_ladder``).

The operators cover every column support the core distinguishes: all n
diagonal columns (Laplacians), every column (a dense GeneralVec), a banded
complex Hermitian mask, the illustrative problem's three diagonal columns,
and no column at all (the zero operator).
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scfconv import (
    GeneralVec,
    HadamardMask,
    Problem,
    ScfOptions,
    assemble_jacobian,
    bound_cyclic,
    bound_gap_all,
    bound_rank_truncated,
    build_illustrative,
    build_laplacian,
    cyclic_spectral_radii,
    divided_difference_matrix,
    fermi_chemical_potential,
    fermi_occupations,
    gap_structure,
    ladder,
    locate_fixed_point,
)
from scfconv import analysis
from scfconv.matops import vech

from conftest import (
    FILTERS,
    d_eff_on,
    dense_d_eff,
    gap_members,
    lprime_by_basis_loop,
    random_hermitian,
    selector_T,
    w_by_definition,
)

REL = 1e-12


def general_vec_problem(n: int = 5, p: int = 2) -> Problem:
    """L(P) = sum_k B_k P B_k^H, stored as its column-major matrix."""
    rng = np.random.default_rng(7)
    matrix = np.zeros((n * n, n * n), dtype=complex)
    for _ in range(3):
        b = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
        matrix += np.kron(b.conj(), b)
    a0 = random_hermitian(rng, n, scale=0.3) + np.diag(2.0 * np.arange(n))
    return Problem(a0=a0, op=GeneralVec(matrix=matrix), p=p)


def banded_mask_problem() -> Problem:
    """Complex Hermitian tridiagonal mask: the support is the band's columns."""
    rng = np.random.default_rng(3)
    n = 6
    mask = np.triu(np.tril(random_hermitian(rng, n, scale=0.3), 1), -1)
    a0 = random_hermitian(rng, n, scale=0.1) + np.diag(np.arange(n, dtype=float))
    return Problem(a0=a0, op=HadamardMask(mask=mask), p=3)


def zero_problem() -> Problem:
    a0 = np.diag([0.0, 1.0, 2.5, 4.0])
    return Problem(a0=a0, op=HadamardMask(mask=np.zeros((4, 4))), p=2)


CASES = {
    "laplacian-real": (lambda: build_laplacian(8, 10.0, 3, variant="real"), 8),
    "laplacian-complex": (lambda: build_laplacian(7, 8.0, 3, variant="complex"), 7),
    "general-vec": (general_vec_problem, 15),
    "hadamard-banded": (banded_mask_problem, 11),
    "illustrative": (lambda: build_illustrative(0.1), 3),
    "zero-operator": (zero_problem, 0),
}


def dense_jacobian(x, vec_r, l_prime):
    n = x.shape[0]
    k1 = np.kron(x.conj(), x)
    k2 = np.kron(x.T, x.conj().T)
    return selector_T(n) @ (k1 * vec_r[None, :]) @ (k2 @ l_prime)


def dense_ladder(problem, bundle, l_prime):
    """Every ladder quantity from its dense-Kronecker definition."""
    n = problem.n
    x = bundle.x
    gaps = gap_structure(bundle.lambdas, divided_difference_matrix(bundle.lambdas, problem.p))
    r = np.zeros((n, n))
    lam = bundle.lambdas
    p = problem.p
    r[:p, p:] = 1.0 / (lam[:p][:, None] - lam[p:][None, :])
    r[p:, :p] = r[:p, p:].T
    vec_r = r.ravel(order="F")
    k1 = np.kron(x.conj(), x)
    k2 = np.kron(x.T, x.conj().T)
    lpt = l_prime @ selector_T(n)
    j = dense_jacobian(x, vec_r, l_prime)
    norm_lp = np.linalg.norm(l_prime, 2)
    col = np.linalg.norm(lpt @ k1, axis=0)
    terms = np.array(
        [(col[i * n + j] + col[j * n + i]) / g
         for i, j, g in zip(gaps.occ, gaps.virt, gaps.cross_gaps)]
    )
    c_gap = [
        (norm_lp / gaps.delta(q + 1) if q < gaps.count else 0.0) + terms[:q].sum()
        for q in range(gaps.count + 1)
    ]
    c_tilde = []
    for k in range(1, gaps.count + 1):
        keep = np.zeros((n, n))
        keep[gaps.a[: 2 * k], gaps.b[: 2 * k]] = 1.0
        jk = dense_jacobian(x, (r * keep).ravel(order="F"), l_prime)
        c_tilde.append(np.linalg.norm(jk, 2))
    return {
        "j": j,
        "c": float(np.abs(np.linalg.eigvals(j)).max()),
        "c2": np.linalg.norm(j, 2),
        "c2a": np.linalg.norm(vec_r[:, None] * (k2 @ lpt), 2),
        "c2b": np.linalg.norm(lpt @ (k1 * vec_r[None, :]), 2),
        "c_naive": norm_lp / gaps.delta(1),
        "c_gap": np.array(c_gap),
        "c_tilde": np.array(c_tilde),
    }


def core_ladder(jb, gaps, l_prime):
    c2a, c2b = bound_cyclic(jb)
    return {
        "c": jb.c,
        "c2": jb.c2,
        "c2a": c2a,
        "c2b": c2b,
        "c_naive": jb.c_naive,
        "c_gap": bound_gap_all(jb),
        "c_tilde": bound_rank_truncated(jb, np.arange(1, gaps.count + 1)),
    }


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make, support_size = CASES[request.param]
    problem = make()
    bundle, _ = locate_fixed_point(problem, ScfOptions(max_iter=800))
    assert bundle.converged
    l_prime = lprime_by_basis_loop(problem.op, problem.n)
    jb = assemble_jacobian(bundle, problem.op)
    gaps = jb.gaps
    return problem, bundle, l_prime, jb, gaps, support_size


def test_support_is_the_nonzero_columns_of_lprime(case):
    _, _, l_prime, jb, _, support_size = case
    assert jb.support.size == support_size
    nonzero = np.flatnonzero(np.abs(l_prime).sum(axis=0))
    assert np.array_equal(jb.support, nonzero)
    rest = np.setdiff1d(np.arange(jb.m), jb.support)
    assert not np.any(jb.dense()[:, rest])


def test_jacobian_matches_dense_kronecker(case):
    problem, bundle, l_prime, jb, _, _ = case
    dense = dense_ladder(problem, bundle, l_prime)["j"]
    assert np.allclose(jb.dense(), dense, rtol=0.0, atol=1e-14 * max(1.0, np.abs(dense).max()))


def dense_fermi_jacobian(bundle, l_prime, beta):
    """The Fermi map's Jacobian: the divided-difference term plus the
    Fermi-level shift -vech(X f' X^H) sum_i f'_i (X^H L(E_s) X)_ii / sum_i f'_i."""
    x, lam, p = bundle.x, bundle.lambdas, bundle.p
    n = x.shape[0]
    mu = fermi_chemical_potential(lam, beta, p)
    f = fermi_occupations(lam, beta, mu)
    fprime = -beta * f * (1.0 - f)
    r = divided_difference_matrix(lam, p, beta=beta, mu=mu)
    j = dense_jacobian(x, r.ravel(order="F"), l_prime)
    if fprime.sum() != 0:
        diag_w = (np.kron(x.T, x.conj().T) @ l_prime)[np.arange(n) * (n + 1)]
        dmu = fprime @ diag_w / fprime.sum()
        j -= np.outer(selector_T(n) @ ((x * fprime) @ x.conj().T).ravel(order="F"), dmu)
    return j


def test_fermi_jacobian_matches_dense_kronecker(case):
    problem, bundle, l_prime, _, _, _ = case
    jf = assemble_jacobian(replace(bundle, filter="fermi", beta=5.0), problem.op)
    dense = dense_fermi_jacobian(bundle, l_prime, 5.0)
    assert np.allclose(jf.dense(), dense, rtol=0.0, atol=1e-14 * max(1.0, np.abs(dense).max()))


def dense_fermi_ladder(bundle, l_prime, beta):
    """c2a, c2b, c_naive and the c_gap and c_tilde families of the Fermi map
    from the n^2 x n^2 D_eff (``dense_d_eff``), the middle factor of J = T K1
    D_eff K2 L'.  c_gap[q] splits D_eff into the first q members of the gap
    table and the rest: a pair (a, b) costs |R_ab| times the column norms of
    L' T K1 at (a, b) and (b, a), the diagonal member ||L' T K1 D_eff|| on its
    block.  c_tilde[k] is ||J|| with D_eff zeroed outside the first k."""
    x, lam, p = bundle.x, bundle.lambdas, bundle.p
    n = x.shape[0]
    r = divided_difference_matrix(lam, p, beta=beta, mu=fermi_chemical_potential(lam, beta, p))
    d_eff = dense_d_eff(r)
    k1 = np.kron(x.conj(), x)
    k2 = np.kron(x.T, x.conj().T)
    lpt = l_prime @ selector_T(n)
    norm_lp = np.linalg.norm(l_prime, 2)
    gaps = gap_structure(lam, r)
    members = gap_members(gaps, n)
    col = np.linalg.norm(lpt @ k1, axis=0)
    cost = [abs(r[a, b]) * (col[a + n * b] + col[b + n * a]) for a, b in zip(gaps.occ, gaps.virt)]
    if gaps.diagonal:
        on = members[-1]
        cost.append(np.linalg.norm(lpt @ k1[:, on] @ d_eff[np.ix_(on, on)], 2))
    c_gap = [norm_lp * np.linalg.norm(d_eff - d_eff_on(d_eff, members[:q]), 2) + sum(cost[:q])
             for q in range(len(members) + 1)]
    c_tilde = [np.linalg.norm(selector_T(n) @ k1 @ d_eff_on(d_eff, members[:k]) @ k2 @ l_prime, 2)
               for k in range(1, len(members) + 1)]
    return {
        "c2a": np.linalg.norm(d_eff @ k2 @ lpt, 2),
        "c2b": np.linalg.norm(lpt @ k1 @ d_eff, 2),
        "c_naive": norm_lp * np.linalg.norm(d_eff, 2),
        "c_gap": np.array(c_gap),
        "c_tilde": np.array(c_tilde),
    }


@pytest.mark.parametrize("name", ["c2a", "c2b", "c_naive", "c_gap", "c_tilde"])
def test_factored_quantity_matches_dense_definition_under_fermi(case, name):
    problem, bundle, l_prime, _, _, _ = case
    fermi = FILTERS["fermi"]
    jf = assemble_jacobian(replace(bundle, **fermi), problem.op)
    expected = np.atleast_1d(dense_fermi_ladder(bundle, l_prime, fermi["beta"])[name])
    got = np.atleast_1d(core_ladder(jf, jf.gaps, l_prime)[name])
    assert got.shape == expected.shape
    if not np.any(l_prime):
        assert np.all(got == 0.0)
    else:
        assert np.allclose(got, expected, rtol=REL, atol=0.0), (got, expected)


@pytest.mark.parametrize("name", ["c", "c2", "c2a", "c2b", "c_naive", "c_gap", "c_tilde"])
def test_factored_quantity_matches_dense_definition(case, name):
    problem, bundle, l_prime, jb, gaps, _ = case
    expected = np.atleast_1d(dense_ladder(problem, bundle, l_prime)[name])
    got = np.atleast_1d(core_ladder(jb, gaps, l_prime)[name])
    assert got.shape == expected.shape
    if not np.any(l_prime):
        assert np.all(got == 0.0)
    else:
        assert np.allclose(got, expected, rtol=REL, atol=0.0), (got, expected)


def test_every_k_on_a_dense_support_allocates_no_more_than_a_few_jacobians():
    # |S| = m: a stack of one |S| x |S| matrix per k would take 36 Jacobians here
    problem = general_vec_problem(n=12, p=6)
    bundle, _ = locate_fixed_point(problem, ScfOptions(max_iter=800))
    assert bundle.converged
    jb = assemble_jacobian(bundle, problem.op)
    gaps = jb.gaps
    assert jb.support.size == jb.m
    ks = np.arange(1, gaps.count + 1)
    tracemalloc.start()
    try:
        got = bound_rank_truncated(jb, ks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * jb.dense().nbytes, (peak, jb.dense().nbytes)
    pairs = list(zip(gaps.a, gaps.b))
    a = np.stack(
        [jb.r[i, j] * vech(np.outer(jb.x[:, i], jb.x[:, j].conj())) for i, j in pairs], axis=1
    )
    w = w_by_definition(problem.op, jb.x, jb.support)
    b = np.stack([w[:, i, j] for i, j in pairs])
    expected = [np.linalg.norm(a[:, : 2 * k] @ b[: 2 * k], 2) for k in ks]
    assert np.allclose(got, expected, rtol=REL, atol=0.0)


@pytest.mark.parametrize(
    "variant, n, p, opts",
    [("complex", 60, 25, ScfOptions()), ("real", 40, 20, ScfOptions(filter="fermi", beta=5e-3))],
    ids=["laplacian-complex-step", "laplacian-real-fermi"],
)
def test_assembly_and_ladder_peak_below_eight_cubes(variant, n, p, opts):
    # the core is n x n per column of S (|S| = n here): nothing of size m x pairs,
    # and no stack of W_s beyond one chunk.  J[:, S] is half a cube (complex) or a
    # quarter (real), and the peak measures 0.78 and 0.56 cubes: one cube leaves
    # a margin of 1.28 over the larger
    problem = build_laplacian(n, 5.0, p, variant=variant)
    bundle, _ = locate_fixed_point(problem, opts)
    assert bundle.converged
    count = p * (n - p)
    tokens = ["c", "c2", "c2a", "c2b", "naive", *(f"gap:{q}" for q in range(count + 1)), "tilde:3"]
    tracemalloc.start()
    try:
        jb = assemble_jacobian(bundle, problem.op)
        values = ladder(problem, jb, tokens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert jb.filter == opts.filter
    if opts.filter == "fermi":
        assert np.diagonal(jb.r).sum() != 0  # the Fermi-level shift is in play
    assert values["c"] <= values["c2"]
    assert peak < n**3 * np.dtype(complex).itemsize, peak / (n**3 * np.dtype(complex).itemsize)


@pytest.mark.parametrize("filter_name", FILTERS)
def test_chunks_do_not_change_the_core(case, filter_name, monkeypatch):
    # one column of S per chunk, then |S| - 1, against everything in one chunk
    problem, bundle, _, _, gaps, _ = case
    bundle = replace(bundle, **FILTERS[filter_name])
    n = problem.n
    tokens = ["c", "c2", "c2a", "c2b", "naive", *(f"gap:{q}" for q in range(gaps.count + 1))]

    def run(chunk_bytes):
        monkeypatch.setattr(analysis, "CORE_CHUNK_BYTES", chunk_bytes)
        jb = assemble_jacobian(bundle, problem.op)
        return jb, ladder(problem, jb, tokens), cyclic_spectral_radii(jb)

    one, one_row, one_radii = run(1 << 40)
    for chunk_bytes in (1, (one.support.size - 1) * n * n * 16):
        jb, row, radii = run(chunk_bytes)
        assert np.array_equal(jb.j_s, one.j_s)
        for token, value in row.items():
            assert value == pytest.approx(one_row[token], rel=1e-14, abs=0.0), token
        assert np.allclose(radii, one_radii, rtol=1e-14, atol=0.0)


def dense_mask_problem(n: int = 16) -> Problem:
    """A dense complex Hermitian mask: T is every vec position and S every vech one."""
    rng = np.random.default_rng(11)
    a0 = random_hermitian(rng, n, scale=0.3) + np.diag(np.arange(n, dtype=float))
    return Problem(a0=a0, op=HadamardMask(mask=random_hermitian(rng, n, scale=0.2)), p=n // 2)


@pytest.mark.parametrize("filter_name", FILTERS)
def test_core_and_cyclic_radii_on_a_dense_support_stay_within_a_few_stacks(filter_name):
    # L'[T, S] and J[:, S] take 1.55 stacks of |S| n x n matrices here, and that is
    # all the core holds: no stack of W_s.  The peak, 3.25 stacks, is that of
    # assemble_Lprime pairing vec into vech: 3.5 leaves a margin of 8 %
    problem = dense_mask_problem()
    n = problem.n
    bundle, _ = locate_fixed_point(problem, ScfOptions(max_iter=800, **FILTERS[filter_name]))
    assert bundle.converged
    tokens = ["c", "c2", "c2a", "c2b", "naive",
              *(f"gap:{q}" for q in range(problem.p * (n - problem.p) + 1))]
    tracemalloc.start()
    try:
        jb = assemble_jacobian(bundle, problem.op)
        values = ladder(problem, jb, tokens)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        radii = cyclic_spectral_radii(jb)
        radii_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert jb.support.size == jb.m and jb.image_rows.size == n * n
    stack = jb.support.size * n * n * np.dtype(complex).itemsize
    assert held < 2 * stack, held / stack
    assert peak < 3.5 * stack, peak / stack
    assert radii_peak < 3 * n**4 * np.dtype(complex).itemsize, radii_peak / (n**4 * 16)
    assert values["c"] == radii[0] and max(radii) - min(radii) <= 1e-10 * max(radii)

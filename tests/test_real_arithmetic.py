"""A problem runs in the dtype of its own data.

Real A0 and real L keep every array real, from A0 and L' through X, the
stack W and J[:, S]; a complex A0 or L keeps them complex.  The real path is
checked against the complex cast of the same problem: the same data, with
every array of A0 and L cast to complex.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scfconv import (
    ChemicalPotentialError,
    DiagonalMap,
    GeneralVec,
    HadamardMask,
    Problem,
    ScfOptions,
    ZeroGapError,
    assemble_Lprime,
    assemble_jacobian,
    build_illustrative,
    build_laplacian,
    jacobian_fd,
    ladder,
    load_problem,
    locate_fixed_point,
    save_problem,
)

from conftest import FILTERS, OPERATOR_KINDS, random_hermitian


def complex_cast(problem: Problem) -> Problem:
    """The same problem with A0 and every array of its operator cast to complex."""
    op = problem.op
    cast = {k: v.astype(complex) for k, v in vars(op).items() if isinstance(v, np.ndarray)}
    return replace(problem, a0=problem.a0.astype(complex), op=replace(op, **cast))


def real_problem(kind: str, n: int, seed: int) -> Problem:
    """A seeded real problem of the operator kind ``kind``: A0 = Q diag(lam) Q^T
    with Q real orthogonal and lam = k + U(-0.3, 0.3), so no two eigenvalues tie,
    and a real symmetric mask or a GeneralVec sum_k B_k P B_k^T with real B_k;
    the diagonal map is ``laplacian-real``'s."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, n))
    if kind == "diagonal_map":
        return build_laplacian(n, float(rng.uniform(1.0, 2e3)), p, variant="real")
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a0 = (q * (np.arange(n) + rng.uniform(-0.3, 0.3, size=n))) @ q.T
    a0 = (a0 + a0.T) / 2.0
    if kind == "hadamard":
        raw = rng.normal(size=(n, n))
        return Problem(a0=a0, op=HadamardMask(mask=0.6 * (raw + raw.T) / 2.0), p=p)
    bs = 0.6 * rng.normal(size=(2, n, n)) / np.sqrt(n)
    return Problem(a0=a0, op=GeneralVec(matrix=sum(np.kron(b, b) for b in bs)), p=p)


def file_problem(tmp_path, problem: Problem, name: str) -> Problem:
    """``problem`` written to a JSON file, every entry an [re, im] pair, and read back."""
    path = tmp_path / f"{name}.json"
    save_problem(problem, path)
    payload = json.loads(path.read_text())
    assert payload["A0"][0][0] == [problem.a0[0, 0], 0.0]
    return load_problem(path)


def solved_core(problem: Problem, **kw):
    bundle, _ = locate_fixed_point(problem, ScfOptions(max_iter=800, **kw))
    assert bundle.converged
    return bundle, assemble_jacobian(bundle, problem.op)


REAL_CASES = ("laplacian-real", "illustrative", "hadamard-file", "general-vec-file")


def real_case(name: str, tmp_path) -> Problem:
    if name == "laplacian-real":
        return build_laplacian(8, 10.0, 3, variant="real")
    if name == "illustrative":
        return build_illustrative(0.1)
    kind = "hadamard" if name == "hadamard-file" else "general_vec"
    return file_problem(tmp_path, real_problem(kind, 5, 3), name)


@pytest.mark.parametrize("filter_name", FILTERS)
@pytest.mark.parametrize("name", REAL_CASES)
def test_a_real_problem_stays_real_from_a0_to_j(name, filter_name, tmp_path):
    problem = real_case(name, tmp_path)
    bundle, jb = solved_core(problem, **FILTERS[filter_name])
    arrays = {"A0": problem.a0, "L'": assemble_Lprime(problem.op, problem.n), "X": bundle.x,
              "P*": bundle.p_star, "J[:, S]": jb.j_s}
    assert {key: a.dtype for key, a in arrays.items()} == dict.fromkeys(arrays, np.dtype(float))


def test_a_complex_mask_stays_complex():
    rng = np.random.default_rng(2)
    a0 = random_hermitian(rng, 5, scale=0.1) + np.diag(np.arange(5.0))
    problem = Problem(a0=a0, op=HadamardMask(mask=random_hermitian(rng, 5, scale=0.2)), p=2)
    bundle, jb = solved_core(problem)
    for a in (assemble_Lprime(problem.op, problem.n), bundle.x, jb.j_s):
        assert a.dtype == complex


def test_the_complex_laplacian_has_a_complex_x_and_a_real_lprime():
    problem = build_laplacian(8, 10.0, 3, variant="complex")
    bundle, jb = solved_core(problem)
    assert assemble_Lprime(problem.op, problem.n).dtype == float and jb.l_s.dtype == float
    assert bundle.x.dtype == jb.j_s.dtype == complex


def test_lprime_keeps_its_data_dtype_and_makes_an_integer_one_float():
    eye = np.eye(3, dtype=int)
    assert assemble_Lprime(HadamardMask(mask=eye), 3).dtype == float
    assert assemble_Lprime(GeneralVec(matrix=np.eye(9, dtype=int)), 3).dtype == float
    assert assemble_Lprime(DiagonalMap(coeff=eye), 3).dtype == float
    assert assemble_Lprime(DiagonalMap(coeff=eye * (1.0 + 0.5j)), 3).dtype == complex
    assert assemble_Lprime(HadamardMask(mask=eye * (1.0 + 0j)), 3).dtype == complex


@pytest.mark.parametrize("name", REAL_CASES)
def test_a_real_core_takes_half_the_bytes_of_its_complex_cast(name, tmp_path):
    problem = real_case(name, tmp_path)
    _, jb = solved_core(problem)
    _, cast = solved_core(complex_cast(problem))
    assert cast.j_s.dtype == complex
    assert 2 * jb.j_s.nbytes == cast.j_s.nbytes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(OPERATOR_KINDS), n=st.integers(3, 6), seed=st.integers(0, 2**16),
       filter_name=st.sampled_from(sorted(FILTERS)))
def test_real_arithmetic_agrees_with_the_complex_cast(kind, n, seed, filter_name):
    # both at the fixed point of the real run, so only the arithmetic differs
    problem = real_problem(kind, n, seed)
    kw = FILTERS[filter_name]
    try:
        bundle, _ = locate_fixed_point(problem, ScfOptions(max_iter=800, **kw))
    except (ZeroGapError, ChemicalPotentialError):
        bundle = None
    assume(bundle is not None and bundle.converged)
    cast = complex_cast(problem)
    jb = assemble_jacobian(bundle, problem.op)
    jc = assemble_jacobian(replace(bundle, x=bundle.x.astype(complex)), cast.op)
    assert jb.j_s.dtype == float and jc.j_s.dtype == complex
    count = jb.gaps.count
    tokens = ["c", "c2", "c2a", "c2b", "naive", "liu", *(f"gap:{q}" for q in range(count + 1)),
              *(f"tilde:{k}" for k in range(1, count + 1))]
    real_row, complex_row = ladder(problem, jb, tokens), ladder(cast, jc, tokens)
    for token in tokens:
        if complex_row[token] is None:  # liu without an alpha, or under the Fermi filter
            assert real_row[token] is None
            continue
        rel = 1e-10 if token == "c" else 1e-12  # c: an eigenvalue of a non-normal J
        assert real_row[token] == pytest.approx(complex_row[token], rel=rel, abs=0.0), token
    fd = jacobian_fd(problem, bundle.p_star, **kw)
    fd_cast = jacobian_fd(cast, bundle.p_star.astype(complex), **kw)
    assert fd.dtype == float and fd_cast.dtype == complex
    # two stencils agree to their round-off over the step, ~1e-12 absolute
    # here: each column is measured against the largest column's norm
    columns = np.linalg.norm(fd_cast, axis=0)
    assert np.linalg.norm(fd - fd_cast, axis=0).max() <= 1e-9 * columns.max()

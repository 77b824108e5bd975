"""Unit tests for problem definitions, operator representations and JSON IO."""

import numpy as np
import pytest

from scfconv import (
    DiagonalMap,
    GeneralVec,
    HadamardMask,
    Problem,
    apply_L,
    assemble_Lprime,
    build_illustrative,
    build_laplacian,
    load_problem,
    save_problem,
    scf_solve,
    spectral_filter_density,
    vech,
)
from scfconv.problems import _decode_matrix, lprime_support

from conftest import (
    OPERATOR_KINDS,
    lprime_by_basis_loop,
    operator_problem,
    random_hermitian,
    symmetrize_S,
)


def test_hadamard_apply():
    mask = np.diag([1.0, 1.0, 100.0])
    op = HadamardMask(mask=mask)
    e11 = np.zeros((3, 3))
    e11[0, 0] = 1.0
    assert np.array_equal(apply_L(op, e11), e11)
    assert np.array_equal(apply_L(op, np.zeros((3, 3))), np.zeros((3, 3)))


def test_diagonal_map_matches_general_vec():
    rng = np.random.default_rng(0)
    coeff = rng.normal(size=(4, 4))
    op = DiagonalMap(coeff=coeff, alpha=2.5)
    # vec(L(P)) has alpha * coeff[l, k] P_kk at the diagonal position l
    matrix = np.zeros((16, 16))
    matrix[np.ix_(5 * np.arange(4), 5 * np.arange(4))] = 2.5 * coeff
    dense = GeneralVec(matrix=matrix)
    p = random_hermitian(rng, 4)
    assert np.allclose(apply_L(op, p), apply_L(dense, p), atol=1e-13)


@pytest.mark.parametrize("coeff_dtype", [float, complex])
def test_diagonal_map_writes_its_diagonal_as_the_eye_product_did(coeff_dtype):
    rng = np.random.default_rng(3)
    coeff = rng.normal(size=(5, 5)).astype(coeff_dtype)
    if coeff_dtype is complex:
        coeff = coeff + 1j * rng.normal(size=(5, 5))
    op = DiagonalMap(coeff=coeff, alpha=-1.7)
    for p in (random_hermitian(rng, 5), np.stack([random_hermitian(rng, 5) for _ in range(6)])
              .reshape(2, 3, 5, 5), rng.normal(size=(5, 5))):
        v = np.matmul(coeff, np.diagonal(p, axis1=-2, axis2=-1)[..., None])
        want = op.alpha * (v * np.eye(5))
        got = apply_L(op, p)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_apply_L_is_complex_linear():
    rng = np.random.default_rng(1)
    op = HadamardMask(mask=rng.normal(size=(3, 3)))
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a, b = 1.3 - 0.2j, -0.7 + 2.0j
    assert np.allclose(
        apply_L(op, a * x + b * y), a * apply_L(op, x) + b * apply_L(op, y), atol=1e-13
    )


def test_apply_L_dimension_checks():
    op = HadamardMask(mask=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        apply_L(op, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        apply_L(op, np.zeros((3, 4)))


def test_general_vec_checks_its_shape_when_built():
    # 10 rows would round to n = 3: the operator is refused, not mis-sized
    for shape in ((10, 10), (9, 8), (9,)):
        with pytest.raises(ValueError, match="not n\\^2 x n\\^2"):
            GeneralVec(matrix=np.zeros(shape))
    assert GeneralVec(matrix=np.zeros((16, 16))).n == 4


def test_assemble_Lprime_zero_operator():
    op = GeneralVec(matrix=np.zeros((9, 9)))
    assert np.array_equal(assemble_Lprime(op, 3), np.zeros((9, 6)))


def test_assemble_Lprime_norm_is_mask_scale():
    # the illustrative mask has largest entry 100 regardless of epsilon
    for eps in (0.0, 0.05, 0.2):
        problem = build_illustrative(eps)
        lp = assemble_Lprime(problem.op, problem.n)
        assert abs(np.linalg.norm(lp, 2) - 100.0) < 1e-12


def test_assemble_Lprime_identity_on_random_inputs():
    rng = np.random.default_rng(2)
    op = HadamardMask(mask=random_hermitian(rng, 5).real)
    lp = assemble_Lprime(op, 5)
    for _ in range(20):
        x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        lhs = lp @ vech(x)[lprime_support(op)]
        rhs = apply_L(op, symmetrize_S(x)).ravel(order="F")
        assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_an_operator_that_keeps_P_hermitian_passes_and_a_bent_one_is_named(kind):
    op = operator_problem(kind).op
    n = op.n
    op.require_hermitian_preserving()
    rng = np.random.default_rng(11)
    transpose = np.zeros((n * n, n * n))  # vec(P^T) = K vec(P): keeps P Hermitian too
    transpose[np.arange(n * n), (np.arange(n * n) % n) * n + np.arange(n * n) // n] = 1.0
    GeneralVec(matrix=transpose).require_hermitian_preserving()
    if kind == "diagonal_map":
        return
    if kind == "hadamard":
        bent = HadamardMask(mask=op.mask + 1e-3 * np.triu(rng.normal(size=(n, n)), 1))
    else:  # adds L(P) = 1e-3 B P
        bent = GeneralVec(matrix=op.matrix + 1e-3 * np.kron(np.eye(n), rng.normal(size=(n, n))))
    density = random_hermitian(rng, n)
    for each in (op, bent):
        image = apply_L(each, density)
        assert np.allclose(image, image.conj().T) == (each is op)
    with pytest.raises(ValueError, match="is not Hermitian"):
        bent.require_hermitian_preserving()


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem(a0=np.array([[0.0, 1.0], [0.0, 0.0]]), op=HadamardMask(np.zeros((2, 2))), p=1)
    with pytest.raises(ValueError):
        Problem(a0=np.eye(2), op=HadamardMask(np.zeros((2, 2))), p=2)
    with pytest.raises(ValueError):
        Problem(a0=np.eye(3), op=HadamardMask(np.zeros((2, 2))), p=1)


def test_build_illustrative_eps_zero_fixed_point():
    problem = build_illustrative(0.0)
    e11 = np.zeros((3, 3))
    e11[0, 0] = 1.0
    step = spectral_filter_density(problem.apply(e11), problem.p)[0]
    assert np.allclose(step, e11, atol=1e-14)
    lam = np.linalg.eigvalsh(problem.apply(e11))
    assert np.allclose(lam, [1.0, 1.16, 10.0], atol=1e-14)


def test_build_illustrative_scf_self_consistency():
    problem = build_illustrative(0.1)
    bundle = scf_solve(problem)
    assert bundle.converged
    psi = spectral_filter_density(problem.apply(bundle.p_star), problem.p)[0]
    assert np.linalg.norm(psi - bundle.p_star) <= 1e-12


def test_build_laplacian_real_spectrum_closed_form():
    n, h = 12, 0.3
    problem = build_laplacian(n, 1.0, 3, variant="real", h=h)
    lam = np.sort(np.linalg.eigvalsh(problem.a0.real))
    k = np.arange(1, n + 1)
    expected = np.sort(2.0 / h**2 * (1.0 - np.cos(k * np.pi / (n + 1))))
    assert np.allclose(lam, expected, atol=1e-9)


def test_build_laplacian_default_h_and_hermiticity():
    problem = build_laplacian(8, 2.0, 3, variant="complex")
    assert problem.meta["h"] == pytest.approx(1.0 / 9.0)
    assert np.allclose(problem.a0, problem.a0.conj().T, atol=1e-12)
    real = build_laplacian(8, 2.0, 3, variant="real")
    assert np.allclose(real.a0.imag, 0.0)
    with pytest.raises(ValueError):
        build_laplacian(8, 2.0, 3, variant="periodic")
    with pytest.raises(ValueError):
        build_laplacian(1, 2.0, 1)


def test_build_laplacian_alpha_zero_is_linear():
    problem = build_laplacian(10, 0.0, 4, variant="complex")
    bundle = scf_solve(problem)
    assert bundle.converged
    assert bundle.iterations <= 2


def test_json_roundtrip_illustrative(tmp_path):
    problem = build_illustrative(0.1)
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert loaded.p == problem.p
    assert np.allclose(loaded.a0, problem.a0, atol=0)
    assert np.allclose(loaded.op.mask, problem.op.mask, atol=0)
    assert loaded.meta == problem.meta


def test_json_roundtrip_laplacian_complex(tmp_path):
    problem = build_laplacian(6, 3.0, 2, variant="complex")
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert np.allclose(loaded.a0, problem.a0, atol=0)
    assert np.allclose(loaded.op.coeff, problem.op.coeff, atol=0)
    assert loaded.op.alpha == problem.op.alpha


def test_json_roundtrip_general_vec(tmp_path):
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    problem = Problem(a0=np.diag([0.0, 1.0, 2.0]), op=GeneralVec(matrix=mat), p=1)
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert np.allclose(loaded.op.matrix, mat, atol=0)


def test_json_rejects_invalid(tmp_path):
    import json

    path = tmp_path / "bad.json"
    base = {
        "n": 2,
        "p": 1,
        "A0": [[0.0, 1.0], [0.0, 0.0]],
        "operator": {"kind": "hadamard", "mask": [[0.0, 0.0], [0.0, 0.0]]},
    }
    path.write_text(json.dumps(base))
    with pytest.raises(ValueError):
        load_problem(path)  # non-Hermitian A0

    bad_shape = dict(base, A0=[[0.0, 0.0], [0.0, 0.0]])
    bad_shape["operator"] = {"kind": "hadamard", "mask": [[0.0]]}
    path.write_text(json.dumps(bad_shape))
    with pytest.raises(ValueError):
        load_problem(path)

    missing = {"n": 2, "p": 1}
    path.write_text(json.dumps(missing))
    with pytest.raises(ValueError):
        load_problem(path)

    unknown = dict(base, A0=[[0.0, 0.0], [0.0, 0.0]])
    unknown["operator"] = {"kind": "toeplitz"}
    path.write_text(json.dumps(unknown))
    with pytest.raises(ValueError):
        load_problem(path)


def decode_matrix_per_entry(data, name):
    """The entry-by-entry JSON matrix decoder that ``_decode_matrix`` replaced."""
    def decode_entry(entry):
        if isinstance(entry, (int, float)):
            return complex(entry)
        if isinstance(entry, (list, tuple)) and len(entry) == 2:
            return complex(entry[0], entry[1])
        raise ValueError(f"{name}: entries must be numbers or [re, im] pairs")

    a = np.array([[decode_entry(entry) for entry in row] for row in data])
    if a.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if np.all(a.imag == 0):
        return a.real
    return a


DECODER_INPUTS = {
    "real": [[1.0, -2.5], [3, 4e-300]],
    "complex": [[[1.0, 0.0], [2.0, -1.5]], [[2.0, 1.5], [-3.0, 0.0]]],
    "pairs-with-zero-imag": [[[1.0, 0.0], [2.0, -0.0]], [[2.0, 0.0], [3.0, 0.0]]],
    "mixed": [[1.0, [2.0, -1.5]], [[2.0, 1.5], 3]],
    "mixed-real": [[1.0, [2.0, 0.0]], [[2.0, 0.0], 3]],
    "signed-zero-real": [[-0.0, 0.0], [0.0, -0.0]],
    "signed-zero-complex": [[[-0.0, -0.0], [0.0, -0.0]], [[-0.0, 1.0], [0.0, 0.0]]],
}


@pytest.mark.parametrize("data", DECODER_INPUTS.values(), ids=DECODER_INPUTS.keys())
def test_decode_matrix_matches_the_per_entry_decoder(data):
    got = _decode_matrix(data, "A0")
    want = decode_matrix_per_entry(data, "A0")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


@pytest.mark.parametrize(
    "data",
    [
        [["1.0", 2.0], [2.0, 3.0]],
        [[[1.0, 2.0, 3.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
        [[[1.0, 2.0, 3.0], [1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]],
        [[1.0, [2.0, 3.0, 4.0]], [[2.0, 1.0], 3.0]],
        [[None, 1.0], [1.0, 0.0]],
        [[1.0, 2.0], [3.0]],
        [1.0, 2.0],
    ],
    ids=["string", "triple-mixed", "triples", "mixed-triple", "null", "ragged", "vector"],
)
def test_decode_matrix_rejects_malformed_entries(data):
    with pytest.raises(ValueError, match="A0"):
        _decode_matrix(data, "A0")


def test_load_problem_reads_a_file_that_mixes_numbers_and_pairs(tmp_path):
    import json

    path = tmp_path / "mixed.json"
    payload = {
        "n": 2,
        "p": 1,
        "A0": [[0.0, [1.0, -0.5]], [[1.0, 0.5], 2]],
        "operator": {"kind": "hadamard", "mask": [[1.0, [0.0, 0.0]], [0.0, 1.0]]},
    }
    path.write_text(json.dumps(payload))
    problem = load_problem(path)
    assert np.array_equal(problem.a0, [[0.0, 1.0 - 0.5j], [1.0 + 0.5j, 2.0]])
    assert not np.iscomplexobj(problem.op.mask)
    assert np.array_equal(problem.op.mask, np.eye(2))


def lprime_operators(n, rng):
    real = rng.normal(size=(n, n))
    cplx = real + 1j * rng.normal(size=(n, n))
    big = rng.normal(size=(n * n, n * n))
    return {
        "hadamard-symmetric": HadamardMask(mask=(real + real.T) / 2.0),
        "hadamard-nonsymmetric": HadamardMask(mask=real),
        "hadamard-complex-hermitian": HadamardMask(mask=(cplx + cplx.conj().T) / 2.0),
        "hadamard-complex": HadamardMask(mask=cplx),
        # nonzero above the diagonal only: S comes from the mirrored entries
        "hadamard-strictly-upper": HadamardMask(mask=np.triu(real, 1)),
        "diagonal-map": DiagonalMap(coeff=real, alpha=2.5),
        "diagonal-map-negative-alpha": DiagonalMap(coeff=real, alpha=-0.3),
        # the dense vec matrix of a random map does not preserve Hermiticity
        "general-vec-real": GeneralVec(matrix=big),
        "general-vec-complex": GeneralVec(matrix=big + 1j * rng.normal(size=(n * n, n * n))),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize(
    "name",
    [
        "hadamard-symmetric",
        "hadamard-nonsymmetric",
        "hadamard-complex-hermitian",
        "hadamard-complex",
        "hadamard-strictly-upper",
        "diagonal-map",
        "diagonal-map-negative-alpha",
        "general-vec-real",
        "general-vec-complex",
    ],
)
def test_assemble_Lprime_equals_the_basis_loop(name, n):
    op = lprime_operators(n, np.random.default_rng(n))[name]
    got = assemble_Lprime(op, n)
    loop = lprime_by_basis_loop(op, n)
    support, rows = lprime_support(op), op.image_rows()
    assert got.dtype == np.result_type(*vars(op).values(), float)
    assert got.shape == (rows.size, support.size)
    assert np.array_equal(scatter_rows(got, rows, n), loop[:, support])
    assert not np.any(np.delete(loop, support, axis=1))


def scatter_rows(block, rows, n):
    """L'[T, S] put back into the n^2 rows of vec."""
    out = np.zeros((n * n, block.shape[1]), dtype=block.dtype)
    out[rows] = block
    return out


def random_operator(kind, n, rng, density):
    """An operator of ``kind`` whose mask, coefficients or matrix keep each
    entry with probability ``density`` (1: dense)."""
    def sparse(shape):
        return rng.normal(size=shape) * (rng.uniform(size=shape) < density)

    if kind == "hadamard":
        return HadamardMask(mask=sparse((n, n)) + 1j * sparse((n, n)))
    if kind == "diagonal_map":
        return DiagonalMap(coeff=sparse((n, n)), alpha=float(rng.uniform(-3.0, 3.0)))
    return GeneralVec(matrix=sparse((n * n, n * n)) + 1j * sparse((n * n, n * n)))


@pytest.mark.parametrize("density", [1.0, 0.3])
@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_lprime_vanishes_off_its_image_rows(kind, density):
    rng = np.random.default_rng(int(density * 10) + len(kind))
    for n in (2, 3, 5, 7):
        op = random_operator(kind, n, rng, density)
        rows, support = op.image_rows(), lprime_support(op)
        assert np.all(np.diff(rows) > 0) and rows.size <= n * n
        loop = lprime_by_basis_loop(op, n)
        # L(E_s) vanishes off T for every s in S, and L'[T, S] is L' there bit for bit
        assert not np.any(np.delete(loop[:, support], rows, axis=0))
        assert np.array_equal(scatter_rows(assemble_Lprime(op, n), rows, n), loop[:, support])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_lprime_vec_is_L_of_each_vec_basis_matrix_on_its_image_rows(n):
    rng = np.random.default_rng(40 + n)
    ops = [*lprime_operators(n, rng).values(),
           *(random_operator(kind, n, rng, density)
             for kind in OPERATOR_KINDS for density in (1.0, 0.3))]
    every = np.arange(n * n)
    for op in ops:
        rows = op.image_rows()
        want = np.zeros((n * n, n * n), dtype=complex)  # column c: vec(L(E_c))
        for c in every:
            basis = np.zeros(n * n)
            basis[c] = 1.0
            want[:, c] = apply_L(op, basis.reshape(n, n, order="F")).ravel(order="F")
        got = op.lprime_vec(every)
        assert got.shape == (rows.size, n * n)
        assert np.array_equal(got, want[rows])
        # L writes only T and reads only T: the contract of lprime_support
        assert not np.any(np.delete(want, rows, axis=0))
        assert not np.any(np.delete(want, rows, axis=1))


def test_assemble_Lprime_checks_the_dimension():
    with pytest.raises(ValueError):
        assemble_Lprime(HadamardMask(mask=np.ones((3, 3))), 4)
    with pytest.raises(ValueError):
        assemble_Lprime(GeneralVec(matrix=np.ones((9, 8))), 3)

"""Unit tests for Jacobian assembly, the convergence factor and the bound ladder."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scfconv import (
    GapStructure,
    ScfOptions,
    analyze_problem,
    assemble_jacobian,
    bound_c2,
    bound_cyclic,
    bound_gap_all,
    bound_liu,
    bound_rank_truncated,
    build_illustrative,
    build_laplacian,
    convergence_factor,
    cyclic_spectral_radii,
    divided_difference_matrix,
    estimate_rate,
    gap_structure,
    jacobian_fd,
    ladder,
    locate_fixed_point,
    max_column_relative_error,
    realified_jacobian_fd,
    vech,
    vech_index,
)
from scfconv.matops import ChemicalPotentialError, ZeroGapError
from scfconv.problems import HadamardMask, Problem, apply_L

from scfconv import analysis, scf

from conftest import (
    FILTERS,
    OPERATOR_KINDS,
    d_eff_on,
    dense_d_eff,
    gap_members,
    jacobian_fd_loop,
    lprime_by_basis_loop,
    operator_problem,
    random_hermitian,
    random_operator_problem,
    realified_jacobian_fd_loop,
    selector_T,
    solved_random_instances,
    symmetrize_S,
)


def solved(problem, **kw):
    bundle, plain = locate_fixed_point(problem, ScfOptions(**kw))
    return bundle, plain, assemble_jacobian(bundle, problem.op)


def test_gap_structure_ordering_and_pairs():
    lam = np.array([1.0, 1.16, 10.0])
    gaps = gap_structure(lam, divided_difference_matrix(lam, 1))
    assert gaps.count == 2
    assert np.allclose(gaps.cross_gaps, [0.16, 9.0], atol=1e-14)
    assert list(zip(gaps.occ.tolist(), gaps.virt.tolist())) == [(0, 1), (0, 2)]
    assert gaps.delta(1) == pytest.approx(0.16)
    assert gaps.delta(3) == np.inf
    assert list(zip(gaps.a[:2].tolist(), gaps.b[:2].tolist())) == [(1, 0), (0, 1)]
    assert list(zip(gaps.a[:4].tolist(), gaps.b[:4].tolist())) == [(1, 0), (0, 1), (2, 0), (0, 2)]
    with pytest.raises(ValueError):
        gaps.delta(0)


def test_gap_structure_equally_spaced():
    lam = np.arange(6, dtype=float)
    gaps = gap_structure(lam, divided_difference_matrix(lam, 2))
    assert gaps.count == 8
    assert np.all(np.diff(gaps.cross_gaps) >= 0)
    assert (gaps.occ[0], gaps.virt[0]) == (1, 2)
    # omega(q) = (a[:2q], b[:2q]): 2q distinct pairs, each set holding the one before
    assert gaps.a.size == gaps.b.size == 2 * gaps.count
    ab = list(zip(gaps.a.tolist(), gaps.b.tolist()))
    omega = [set(ab[: 2 * q]) for q in range(gaps.count + 1)]
    for q in range(1, gaps.count + 1):
        assert len(omega[q]) == 2 * q and omega[q] >= omega[q - 1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(3, 9))
def test_gap_table_lists_every_cross_pair_once_in_gap_order(data, n):
    # small integers times 1/4: exact ties between cross gaps and between levels
    levels = sorted(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    p = data.draw(st.integers(1, n - 1))
    lam = 0.25 * (np.array(levels, dtype=float) + (np.arange(n) >= p))  # lambda_p < lambda_p+1
    gaps = gap_structure(lam, divided_difference_matrix(lam, p))
    pairs = list(zip(gaps.occ.tolist(), gaps.virt.tolist()))
    assert sorted(pairs) == [(i, j) for i in range(p) for j in range(p, n)]
    keys = list(zip(gaps.cross_gaps.tolist(), *zip(*pairs)))
    assert all(first < second for first, second in zip(keys, keys[1:]))
    assert np.array_equal(gaps.cross_gaps, np.abs(lam[gaps.virt] - lam[gaps.occ]))
    for q in range(gaps.count + 1):
        both = [pair for i, j in pairs[:q] for pair in ((j, i), (i, j))]
        assert list(zip(gaps.a[: 2 * q].tolist(), gaps.b[: 2 * q].tolist())) == both


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 12), start=st.floats(-1e3, 1e3),
       spacing=st.one_of(st.integers(1, 4).map(float), st.floats(1e-3, 1e3)))
def test_the_step_table_by_r_keeps_the_order_by_gap(data, n, start, spacing):
    # equally spaced: exact ties between gaps, and gaps that differ by an ulp
    # whose correctly rounded 1/gap ties
    p = data.draw(st.integers(1, n - 1))
    lam = start + spacing * np.arange(n)
    assume(np.all(np.diff(lam) > 0))
    gaps = gap_structure(lam, divided_difference_matrix(lam, p))
    occ, virt = np.repeat(np.arange(p), n - p), np.tile(np.arange(p, n), p)
    cross = np.abs(lam[virt] - lam[occ])
    order = np.lexsort((virt, occ, cross))
    assert not gaps.diagonal and gaps.count == p * (n - p)
    assert np.array_equal(gaps.occ, occ[order]) and np.array_equal(gaps.virt, virt[order])
    assert np.array_equal(gaps.cross_gaps, cross[order])


def test_gap_structure_rejects_a_degenerate_spectrum():
    lam = np.array([0.0, 1.0, 1.0, 2.0])
    with pytest.raises(ZeroGapError):
        gap_structure(lam, divided_difference_matrix(lam, 2))


def test_gap_structure_laplacian_reference_case():
    problem = build_laplacian(7, 10.0, 3, variant="real")
    bundle, _, _ = solved(problem)
    gaps = gap_structure(bundle.lambdas, divided_difference_matrix(bundle.lambdas, 3))
    omega3 = list(zip(gaps.a[:6].tolist(), gaps.b[:6].tolist()))
    assert omega3 == [(3, 2), (2, 3), (3, 1), (1, 3), (4, 2), (2, 4)]


def test_jacobian_matches_fd_illustrative():
    problem = build_illustrative(0.1)
    bundle, _, jb = solved(problem)
    fd = jacobian_fd(problem, bundle.p_star)
    assert max_column_relative_error(jb.dense(), fd) <= 1e-6


def test_jacobian_matches_fd_random():
    problem, bundle = solved_random_instances(1)[0]
    jb = assemble_jacobian(bundle, problem.op)
    fd = jacobian_fd(problem, bundle.p_star)
    assert max_column_relative_error(jb.dense(), fd) <= 1e-6


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(OPERATOR_KINDS), n=st.integers(3, 6), seed=st.integers(0, 2**16),
       filter_name=st.sampled_from(sorted(FILTERS)))
def test_jacobian_matches_fd_on_random_problems(kind, n, seed, filter_name):
    problem = random_operator_problem(kind, n, seed)
    try:
        bundle, _ = locate_fixed_point(problem, ScfOptions(max_iter=800, **FILTERS[filter_name]))
    except (ZeroGapError, ChemicalPotentialError):
        bundle = None
    assume(bundle is not None and bundle.converged)
    lam = bundle.lambdas  # an open gap: the FD steps stay far from a level crossing
    assume(lam[problem.p] - lam[problem.p - 1] > 1e-2 * max(1.0, np.abs(lam).max()))
    jb = assemble_jacobian(bundle, problem.op)
    fd = jacobian_fd(problem, bundle.p_star, filter=bundle.filter, beta=bundle.beta)
    assert max_column_relative_error(jb.dense(), fd) <= 1e-6


def test_jacobian_zero_for_linear_problem():
    n, p = 4, 2
    a0 = np.diag(np.arange(n, dtype=float))
    problem = Problem(a0=a0, op=HadamardMask(mask=np.zeros((n, n))), p=p)
    bundle, _, jb = solved(problem)
    assert np.allclose(jb.dense(), 0.0, atol=1e-14)
    assert convergence_factor(jb.dense()) == 0.0


def test_dense_and_structured_assembly_agree():
    problem = build_laplacian(9, 5.0, 4, variant="complex")
    bundle, _ = locate_fixed_point(problem)
    lp = lprime_by_basis_loop(problem.op, problem.n)
    structured = assemble_jacobian(bundle, problem.op)
    x = bundle.x
    k1 = np.kron(x.conj(), x)
    k2 = np.kron(x.T, x.conj().T)
    vec_r = structured.r.ravel(order="F")
    dense = selector_T(problem.n) @ (k1 * vec_r[None, :]) @ (k2 @ lp)
    assert np.allclose(dense, structured.dense(), atol=1e-14)


def test_phase_invariance():
    problem = build_illustrative(0.15)
    bundle, _, jb = solved(problem)
    rng = np.random.default_rng(11)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=problem.n))
    rotated = assemble_jacobian(
        type(bundle)(
            p_star=bundle.p_star,
            x=bundle.x * phases[None, :],
            lambdas=bundle.lambdas,
            history=[],
            converged=True,
            p=bundle.p,
        ),
        problem.op,
    )
    assert np.allclose(rotated.dense(), jb.dense(), atol=1e-13)


def sparse_mask_problem() -> Problem:
    """A complex Hermitian mask on the diagonal and the (0, 3) pair only, so
    S is a proper subset of the vech positions."""
    rng = np.random.default_rng(4)
    n = 5
    mask = np.diag(rng.uniform(0.1, 0.3, size=n)).astype(complex)
    mask[3, 0] = 0.2 + 0.1j
    mask[0, 3] = np.conj(mask[3, 0])
    a0 = random_hermitian(rng, n, scale=0.1) + np.diag(np.arange(n, dtype=float))
    return Problem(a0=a0, op=HadamardMask(mask=mask), p=2)


def test_cyclic_spectral_radii_agree():
    for problem, filter_name in itertools.product(
        (build_illustrative(0.2), sparse_mask_problem()), FILTERS
    ):
        _, _, jb = solved(problem, **FILTERS[filter_name])
        assert jb.support.size < jb.m and jb.c > 1e-3
        # under the Fermi filter D_eff carries the rank-one Fermi-level shift
        assert (np.diagonal(jb.r).sum() != 0) == (filter_name == "fermi")
        radii = cyclic_spectral_radii(jb)
        assert radii[0] == jb.c
        assert max(radii) - min(radii) <= 1e-10 * max(1.0, max(radii))


def test_convergence_factor_matches_measured_rate():
    problem = build_illustrative(0.2)
    bundle, plain, jb = solved(problem)
    rho = convergence_factor(jb.dense())
    rate = estimate_rate(plain.errors_to_fixed)
    assert abs(rate - rho) <= 0.05 * rho


def test_bound_c2_dominates_c():
    for eps in (0.05, 0.1, 0.2):
        _, _, jb = solved(build_illustrative(eps))
        assert convergence_factor(jb.dense()) <= bound_c2(jb.dense()) + 1e-12


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_bound_c2_scales_with_its_matrix_across_the_double_range(scale, kind):
    # the Gram matrix of the unscaled entries would under- or overflow
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 5))
    if kind == "complex":
        a = a + 1j * rng.standard_normal((9, 5))
    for m in (a, a.T):
        assert bound_c2(scale * m) == pytest.approx(scale * np.linalg.norm(m, 2), rel=1e-14)


def test_bound_naive_reference_value():
    _, _, jb = solved(build_illustrative(0.0))
    assert jb.c_naive == pytest.approx(625.0, rel=1e-12)


def test_bound_gap_zero_equals_naive():
    problem = build_illustrative(0.1)
    bundle, _, jb = solved(problem)
    gaps = jb.gaps
    naive = np.linalg.norm(lprime_by_basis_loop(problem.op, problem.n), 2) / gaps.delta(1)
    assert bound_gap_all(jb)[0] == pytest.approx(naive, rel=1e-14)


def test_bound_gap_explicit_formula():
    problem = build_illustrative(0.1)
    bundle, _, jb = solved(problem)
    gaps = jb.gaps
    x = jb.x

    def pair_term(i, j, gap):
        a = np.linalg.norm(
            apply_L(problem.op, symmetrize_S(np.outer(x[:, j], x[:, i].conj())))
        )
        b = np.linalg.norm(
            apply_L(problem.op, symmetrize_S(np.outer(x[:, i], x[:, j].conj())))
        )
        return (a + b) / gap

    norm_lp = np.linalg.norm(lprime_by_basis_loop(problem.op, problem.n), 2)
    expected_q1 = norm_lp / gaps.delta(2) + pair_term(0, 1, gaps.delta(1))
    assert bound_gap_all(jb)[1] == pytest.approx(expected_q1, rel=1e-12)
    # full q: no leading term, both pair contributions
    expected_q2 = pair_term(0, 1, gaps.delta(1)) + pair_term(0, 2, gaps.delta(2))
    assert bound_gap_all(jb)[2] == pytest.approx(expected_q2, rel=1e-12)
    assert bound_gap_all(jb).shape == (3,)


def test_bound_gap_family_is_cumulative():
    problem, bundle = solved_random_instances(3)[2]
    jb = assemble_jacobian(bundle, problem.op)
    gaps = jb.gaps
    family = bound_gap_all(jb)
    n = problem.n
    lp = lprime_by_basis_loop(problem.op, n)
    # the column norms of L' T (conj(X) kron X) at vec(occ, virt) and vec(virt, occ)
    col = np.linalg.norm(lp @ selector_T(n) @ np.kron(jb.x.conj(), jb.x), axis=0)
    terms = (col[gaps.occ + n * gaps.virt] + col[gaps.virt + n * gaps.occ]) / gaps.cross_gaps
    norm_lp = np.linalg.norm(lp, 2)
    for q in range(gaps.count + 1):
        lead = 0.0 if q == gaps.count else norm_lp / gaps.delta(q + 1)
        assert family[q] == pytest.approx(lead + terms[:q].sum(), rel=1e-12)


def test_bound_cyclic_matches_dense_products():
    problem, bundle = solved_random_instances(2)[1]
    n = problem.n
    lp = lprime_by_basis_loop(problem.op, n)
    jb = assemble_jacobian(bundle, problem.op)
    c2a, c2b = bound_cyclic(jb)
    k1 = np.kron(jb.x.conj(), jb.x)
    k2 = np.kron(jb.x.T, jb.x.conj().T)
    lpt = lp @ selector_T(n)
    vec_r = jb.r.ravel(order="F")
    dense_a = vec_r[:, None] * (k2 @ lpt)
    dense_b = lpt @ (k1 * vec_r[None, :])
    assert c2a == pytest.approx(np.linalg.norm(dense_a, 2), rel=1e-12)
    assert c2b == pytest.approx(np.linalg.norm(dense_b, 2), rel=1e-12)


def test_bound_cyclic_column_identity():
    problem = build_illustrative(0.1)
    bundle, _, jb = solved(problem)
    n = problem.n
    r = jb.r
    lpt = lprime_by_basis_loop(problem.op, n) @ selector_T(n)
    k1 = np.kron(jb.x.conj(), jb.x)
    dense_b = lpt @ (k1 * r.ravel(order="F")[None, :])
    for a in range(n):
        for b in range(n):
            col = dense_b[:, b * n + a]
            outer = np.outer(jb.x[:, a], jb.x[:, b].conj())
            expected = r[a, b] * apply_L(problem.op, symmetrize_S(outer)).ravel(order="F")
            assert np.allclose(col, expected, atol=1e-12)


def test_bound_cyclic_zero_operator():
    problem = Problem(
        a0=np.diag([0.0, 1.0, 3.0]), op=HadamardMask(mask=np.zeros((3, 3))), p=1
    )
    _, _, jb = solved(problem)
    assert bound_cyclic(jb) == (0.0, 0.0)


def test_bound_rank_truncated_full_recovers_c2():
    problem = build_illustrative(0.2)
    bundle, _, jb = solved(problem)
    gaps = jb.gaps
    c2 = bound_c2(jb.dense())
    assert bound_rank_truncated(jb, [gaps.count])[0] == pytest.approx(c2, rel=1e-12)
    with pytest.raises(ValueError):
        bound_rank_truncated(jb, [0])


def test_bound_rank_truncated_matches_dense_truncation():
    problem, bundle = solved_random_instances(4)[3]
    n = problem.n
    lp = lprime_by_basis_loop(problem.op, n)
    jb = assemble_jacobian(bundle, problem.op)
    gaps = jb.gaps
    k = max(1, gaps.count // 2)
    # dense oracle: zero out every entry of D outside omega(k), reassemble
    keep = np.zeros((n, n))
    keep[gaps.a[: 2 * k], gaps.b[: 2 * k]] = 1.0
    vec_r_trunc = (jb.r * keep).ravel(order="F")
    k1 = np.kron(jb.x.conj(), jb.x)
    k2 = np.kron(jb.x.T, jb.x.conj().T)
    t = selector_T(n)
    dense = t @ (k1 * vec_r_trunc[None, :]) @ (k2 @ lp)
    assert bound_rank_truncated(jb, [k])[0] == pytest.approx(
        np.linalg.norm(dense, 2), rel=1e-11
    )


def test_bound_rank_truncated_takes_unsorted_repeated_and_sparse_ks():
    problem = build_laplacian(8, 10.0, 3, variant="real")
    bundle, _, jb = solved(problem)
    gaps = jb.gaps
    # columns a_t = R_ab vech(x_a x_b^H) and rows b_t = W[a, b, S] in omega order
    pairs = list(zip(gaps.a, gaps.b))
    a = np.stack(
        [jb.r[i, j] * vech(np.outer(jb.x[:, i], jb.x[:, j].conj())) for i, j in pairs], axis=1
    )
    b = np.stack([jb.w[:, i, j] for i, j in pairs])
    ks = [gaps.count - 1, 1, gaps.count, 1, 5]
    got = bound_rank_truncated(jb, ks)
    want = [np.linalg.norm(a[:, : 2 * k] @ b[: 2 * k], 2) for k in ks]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(OPERATOR_KINDS), n=st.integers(3, 6), seed=st.integers(0, 2**16),
       filter_name=st.sampled_from(sorted(FILTERS)), data=st.data())
def test_tilde_is_the_jacobian_on_the_first_members_of_the_gap_table(
    kind, n, seed, filter_name, data
):
    problem = random_operator_problem(kind, n, seed)
    try:
        bundle, _ = locate_fixed_point(problem, ScfOptions(max_iter=800, **FILTERS[filter_name]))
    except (ZeroGapError, ChemicalPotentialError):
        bundle = None
    assume(bundle is not None and bundle.converged)
    jb = assemble_jacobian(bundle, problem.op)
    count = jb.gaps.count
    k = data.draw(st.integers(1, max(1, count - 1)))
    row = ladder(problem, jb, ["c2", f"tilde:{k}", f"tilde:{count}"])
    assert row[f"tilde:{count}"] == pytest.approx(row["c2"], rel=1e-12)
    x = jb.x
    middle = d_eff_on(dense_d_eff(jb.r), gap_members(jb.gaps, n)[:k])
    dense = (selector_T(n) @ np.kron(x.conj(), x) @ middle @ np.kron(x.T, x.conj().T)
             @ lprime_by_basis_loop(problem.op, n))
    assert row[f"tilde:{k}"] == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)


def test_bound_liu_values():
    problem = build_laplacian(10, 3.0, 4, variant="real")
    bundle, _, _ = solved(problem)
    gaps = gap_structure(bundle.lambdas, divided_difference_matrix(bundle.lambdas, problem.p))
    val = bound_liu(problem, gaps.delta(1))
    norm_inv = np.linalg.norm(np.linalg.inv(problem.a0), 2)
    assert val == pytest.approx(2.0 * 3.0 * np.sqrt(10) * norm_inv / gaps.delta(1))
    # linear in alpha
    problem2 = build_laplacian(10, 6.0, 4, variant="real")
    assert bound_liu(problem2, gaps.delta(1)) == pytest.approx(2.0 * val)
    with pytest.raises(ValueError):
        bound_liu(build_illustrative(0.1), 0.16)


def test_fermi_jacobian_sharp_limit():
    problem = build_illustrative(0.1)
    bundle, _, jb = solved(problem)
    rho_step = convergence_factor(jb.dense())
    for beta, rel in ((1e3, 0.02), (1e4, 1e-3)):
        jf = assemble_jacobian(replace(bundle, filter="fermi", beta=beta), problem.op)
        assert convergence_factor(jf.dense()) == pytest.approx(rho_step, rel=rel)


def test_fermi_jacobian_vanishes_for_flat_occupations():
    problem = build_illustrative(0.1)
    bundle, _, jb = solved(problem)
    # at vanishing beta the occupations are flat and the Jacobian collapses;
    # mu must be supplied where the search's bracket half-width (1 + ln n) / beta
    # overflows, since no chemical potential is bracketed there
    flat = replace(bundle, filter="fermi", beta=1e-8)
    jf = assemble_jacobian(replace(flat, mu=float(bundle.lambdas.mean())), problem.op)
    assert np.abs(jf.dense()).max() < 1e-6
    with pytest.raises(ChemicalPotentialError):
        assemble_jacobian(replace(flat, beta=1e-310), problem.op)


def test_fermi_jacobian_rejects_bad_beta():
    problem = build_illustrative(0.1)
    bundle, _, jb = solved(problem)
    with pytest.raises(ValueError):
        assemble_jacobian(replace(bundle, filter="fermi", beta=0.0), problem.op)
    with pytest.raises(ValueError):  # also with mu given, where no mu search runs
        assemble_jacobian(replace(bundle, filter="fermi", beta=-1.0, mu=0.5), problem.op)


def test_realified_spectral_radius_matches_complex():
    problem = build_laplacian(6, 8.0, 2, variant="complex", h=0.25)
    bundle, _, jb = solved(problem)
    rho = convergence_factor(jb.dense())
    rho_real = convergence_factor(realified_jacobian_fd(problem, bundle.p_star))
    assert rho_real == pytest.approx(rho, rel=1e-5)


@pytest.mark.parametrize("filter_name", FILTERS)
@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_fd_oracles_equal_their_reference_loops(monkeypatch, kind, filter_name):
    problem = operator_problem(kind)
    kw = FILTERS[filter_name]
    bundle, _ = locate_fixed_point(problem, ScfOptions(**kw))
    n = problem.n
    m = n * (n + 1) // 2
    # chunks of three columns (six in the realified oracle): several per oracle
    monkeypatch.setattr(analysis, "FD_CHUNK_BYTES", 16 * 4 * n * n * 3)
    fd = jacobian_fd(problem, bundle.p_star, **kw)
    assert np.array_equal(fd, jacobian_fd_loop(problem, bundle.p_star, **kw))
    j_real = realified_jacobian_fd(problem, bundle.p_star, **kw)
    loop = realified_jacobian_fd_loop(problem, bundle.p_star, **kw)
    assert np.array_equal(j_real[:, m:], loop[:, m:])
    offdiag = np.flatnonzero(vech(~np.eye(n, dtype=bool)))
    assert np.array_equal(j_real[:, :m], np.concatenate([fd.real, fd[offdiag].imag]))
    # the real half, now by the five-point stencil, still agrees with the loop's
    assert np.allclose(j_real[:, :m], loop[:, :m], rtol=0, atol=1e-8)


def test_realified_jacobian_dimension():
    problem = build_illustrative(0.1)
    bundle, _, _ = solved(problem)
    j_real = realified_jacobian_fd(problem, bundle.p_star)
    assert j_real.shape == (9, 9)  # n^2 real coordinates on the Hermitian manifold


def test_sign_flip_preserves_norm_quantities():
    _, _, jb = solved(build_illustrative(0.2))
    assert convergence_factor(-jb.dense()) == pytest.approx(convergence_factor(jb.dense()))
    assert bound_c2(-jb.dense()) == pytest.approx(bound_c2(jb.dense()))


def test_divided_difference_norm_identity():
    problem, bundle = solved_random_instances(1)[0]
    jb = assemble_jacobian(bundle, problem.op)
    gaps = jb.gaps
    d_norm = np.abs(jb.r).max()
    assert d_norm * gaps.delta(1) == pytest.approx(1.0, rel=1e-12)


def test_analyze_problem_report_consistency():
    problem = build_illustrative(0.1)
    report, bundle, jb = analyze_problem(problem, q_max=2, fd_check=True)
    assert report.converged
    values = report.values
    assert values["c"] <= values["c2"] + 1e-12
    assert values["gap:0"] == pytest.approx(values["naive"], rel=1e-12)
    assert report.fd_check <= 1e-6
    assert report.measured_rate == pytest.approx(values["c"], rel=0.05)
    payload = report.to_dict()
    assert payload["n"] == 3 and payload["p"] == 1
    assert len(payload["deltas"]) == 2
    assert payload["c_tilde"][-1][0] == 2
    assert payload["c_tilde"][-1][1] == pytest.approx(values["c2"], rel=1e-12)
    assert payload["pairs"][:1] == [[1, 2]]
    assert payload["c_liu"] is None


def test_analyze_problem_includes_liu_for_laplacian():
    problem = build_laplacian(8, 2.0, 3, variant="real")
    report, _, _ = analyze_problem(problem, q_max=1)
    assert report.values["liu"] is not None
    assert report.values["liu"] >= report.values["naive"] - 1e-12


def test_max_column_relative_error_basics():
    a = np.eye(3)
    assert max_column_relative_error(a, a) == 0.0
    b = a.copy()
    b[0, 0] += 1e-3
    assert max_column_relative_error(b, a) == pytest.approx(1e-3, rel=1e-10)


@pytest.mark.parametrize("beta", [5.0, 20.0, 100.0])
def test_fermi_jacobian_matches_fd_of_the_fermi_map(beta):
    # at the Fermi fixed point, against the FD Jacobian of the Fermi map itself
    problem = build_illustrative(0.1)
    bundle, _ = locate_fixed_point(problem, ScfOptions(filter="fermi", beta=beta))
    assert bundle.converged
    jf = assemble_jacobian(bundle, problem.op)
    assert jf.filter == "fermi"
    fd = jacobian_fd(problem, bundle.p_star, filter="fermi", beta=beta)
    assert max_column_relative_error(jf.dense(), fd) <= 1e-6
    assert jf.c == pytest.approx(convergence_factor(fd), rel=1e-6)


def test_fermi_jacobian_with_every_fprime_underflowed_is_finite():
    problem = build_laplacian(8, 10.0, 3, variant="real")
    bundle, _ = locate_fixed_point(problem, ScfOptions(filter="fermi", beta=5.0))
    assert bundle.converged
    jf = assemble_jacobian(bundle, problem.op)
    assert not np.any(np.diagonal(jf.r))  # sum of f' is exactly 0: no Fermi-level shift
    assert np.all(np.isfinite(jf.dense()))
    fd = jacobian_fd(problem, bundle.p_star, filter="fermi", beta=5.0)
    assert max_column_relative_error(jf.dense(), fd) <= 1e-6


def test_analyze_under_fermi_reports_the_fermi_map_only():
    problem = build_illustrative(0.1)
    report, bundle, jb = analyze_problem(problem, ScfOptions(filter="fermi", beta=20.0))
    assert jb.filter == "fermi" and bundle.mu is not None
    assert report.values["c"] == jb.c and report.values["c2"] == jb.c2
    payload = report.to_dict()
    c = payload["c"]
    assert all(c <= payload[key] < np.inf for key in ("c2a", "c2b", "c_naive"))
    assert c <= min(payload["c_gap"])
    assert payload["c2"] <= payload["c_naive"] == payload["c_gap"][0]
    # the table's pairs, every a < b with R_ab != 0, and the diagonal block of D_eff
    assert jb.gaps.diagonal and len(payload["pairs"]) == len(payload["deltas"]) == 3
    assert len(payload["c_gap"]) == jb.gaps.count + 1 == len(payload["pairs"]) + 2
    assert payload["c_tilde"][-1] == [jb.gaps.count, pytest.approx(payload["c2"], rel=1e-12)]
    assert payload["c_liu"] is None  # a Laplacian bound of the step map


def assert_bound_chain(problem, jb):
    """c <= c2a, c2b and every c_gap[q], and c <= c2 <= c_naive, all finite;
    nothing on the way divides by zero (a sum of f' that is 0 included)."""
    tokens = ["c", "c2", "c2a", "c2b", "naive", *(f"gap:{q}" for q in range(jb.gaps.count + 1))]
    with np.errstate(divide="raise", invalid="raise"):
        row = ladder(problem, jb, tokens)
    assert all(np.isfinite(value) for value in row.values()), row
    c = row.pop("c")
    for token, bound in row.items():
        assert c <= bound * (1 + 1e-12), (token, c, bound)
    assert row["c2"] <= row["naive"] * (1 + 1e-12)


# The illustrative problem and both Laplacians (n=20, p=7) under the Fermi filter
FERMI_GRID = [
    *(("illustrative", eps, beta) for eps in (0.01, 0.1, 0.3) for beta in (5.0, 20.0, 100.0)),
    *((f"laplacian-{variant}", alpha, beta) for variant in ("real", "complex")
      for alpha in (1e3, 3e4, 1e5) for beta in (0.05, 1.0, 20.0)),
]


@pytest.mark.parametrize("family, value, beta", FERMI_GRID,
                         ids=[f"{f}-{v:g}-beta{b:g}" for f, v, b in FERMI_GRID])
def test_the_bound_chain_holds_on_the_fermi_grid(family, value, beta):
    if family == "illustrative":
        problem = build_illustrative(value)
    else:
        problem = build_laplacian(20, value, 7, variant=family.split("-")[1])
    bundle, _ = locate_fixed_point(problem, ScfOptions(filter="fermi", beta=beta))
    assert bundle.converged
    assert_bound_chain(problem, assemble_jacobian(bundle, problem.op))


def test_the_bound_chain_holds_with_every_fprime_underflowed():
    problem = build_laplacian(8, 10.0, 3, variant="real")
    bundle, _ = locate_fixed_point(problem, ScfOptions(filter="fermi", beta=5.0))
    jb = assemble_jacobian(bundle, problem.op)
    assert not np.any(np.diagonal(jb.r))  # sum of f' is exactly 0: no Fermi-level shift
    assert_bound_chain(problem, jb)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(OPERATOR_KINDS), n=st.integers(3, 7), seed=st.integers(0, 2**16),
       beta=st.sampled_from([None, 0.5, 2.0, 10.0]))
def test_the_bound_chain_holds_on_random_problems(kind, n, seed, beta):
    problem = random_operator_problem(kind, n, seed)
    opts = ScfOptions(max_iter=800, **({} if beta is None else {"filter": "fermi", "beta": beta}))
    try:
        bundle, _ = locate_fixed_point(problem, opts)
    except (ZeroGapError, ChemicalPotentialError):
        bundle = None
    assume(bundle is not None and bundle.converged)
    jb = assemble_jacobian(bundle, problem.op)
    assert_bound_chain(problem, jb)
    # Column s of J[:, S] is the vech of the Hermitian X M_s X^H, and c2a's Gram
    # matrix is that of the M_s: c2a^2 = lambda_max(2 Re(J^H J) - G_d), G_d the
    # Gram matrix of J's n diagonal rows, so c2a <= sqrt(2) c2.  The rest,
    # 2 Re(J^H J) - G_d - J^H J, is the conjugate of the Gram matrix of J's
    # rows below the diagonal, so c2 <= c2a.
    c2a, _ = bound_cyclic(jb)
    j, on = jb.j_s, vech_index(n) % (n + 1) == 0
    gram = 2.0 * (j.conj().T @ j).real - j[on].conj().T @ j[on]
    root = np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))
    assert abs(root - c2a) <= 1e-12 * c2a, (root, c2a)
    assert jb.c2 <= c2a * (1 + 1e-12) and c2a <= np.sqrt(2.0) * jb.c2 * (1 + 1e-12)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(OPERATOR_KINDS), n=st.integers(3, 7), seed=st.integers(0, 2**16),
       beta=st.sampled_from([None, 0.5, 2.0, 10.0]))
def test_c2_stays_below_every_c_gap_on_random_problems(kind, n, seed, beta):
    # observed, not derived: the gap family bounds ||L' T K1 D_eff||, not ||J||
    problem = random_operator_problem(kind, n, seed)
    opts = ScfOptions(max_iter=800, **({} if beta is None else {"filter": "fermi", "beta": beta}))
    try:
        bundle, _ = locate_fixed_point(problem, opts)
    except (ZeroGapError, ChemicalPotentialError):
        bundle = None
    assume(bundle is not None and bundle.converged)
    jb = assemble_jacobian(bundle, problem.op)
    c_gap = bound_gap_all(jb)
    assert jb.c2 <= c_gap.min() * (1 + 1e-12), (jb.c2, c_gap)


REPORT_KEYS = ["n", "p", "converged", "c", "c2", "c2a", "c2b", "c_naive", "c_gap", "c_liu",
               "c_tilde", "deltas", "pairs", "measured_rate", "fd_check"]
QUANTITY_KEYS = REPORT_KEYS[3:11]


@pytest.mark.parametrize("filter_name", FILTERS)
@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_the_analyze_report_is_the_ladder_row(kind, filter_name):
    problem = operator_problem(kind)
    report, _, jb = analyze_problem(problem, ScfOptions(**FILTERS[filter_name]))
    payload = report.to_dict()
    assert list(payload) == REPORT_KEYS
    count = jb.gaps.count
    gap_tokens = [f"gap:{q}" for q in range(count + 1)]
    tilde_tokens = [f"tilde:{k}" for k in range(1, count + 1)]
    row = ladder(problem, jb, ["c", "c2", "c2a", "c2b", "naive", "liu", *gap_tokens,
                               *tilde_tokens])
    step = filter_name == "step"
    assert {key: payload[key] for key in QUANTITY_KEYS} == {
        "c": row["c"], "c2": row["c2"], "c2a": row["c2a"], "c2b": row["c2b"],
        "c_naive": row["naive"],
        "c_gap": [row[t] for t in gap_tokens],
        "c_liu": row["liu"],
        "c_tilde": [[k, row[f"tilde:{k}"]] for k in range(1, count + 1)],
    }
    assert None not in (row["c2a"], row["c2b"], row["naive"], *payload["c_gap"])
    assert len(payload["pairs"]) == len(payload["deltas"]) == count - jb.gaps.diagonal
    assert jb.gaps.diagonal == (not step and bool(np.diagonal(jb.r).any()))
    if step:
        assert count == problem.p * (problem.n - problem.p)


def test_an_unconverged_report_has_every_quantity_null(monkeypatch):
    monkeypatch.setattr(scf, "FALLBACK_DAMPINGS", ())
    report, bundle, jb = analyze_problem(build_illustrative(0.1), ScfOptions(max_iter=2))
    assert not bundle.converged and jb is None
    payload = report.to_dict()
    assert list(payload) == REPORT_KEYS
    assert payload["converged"] is False
    assert all(payload[key] is None for key in QUANTITY_KEYS)

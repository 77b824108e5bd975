"""Unit tests for the half-vectorization algebra and filter kernels."""

from decimal import Decimal, Overflow, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scfconv.matops import (
    GAP_TOL,
    ChemicalPotentialError,
    ZeroGapError,
    divided_difference_matrix,
    fermi_chemical_potential,
    fermi_occupations,
    require_hermitian,
    spectral_filter_density,
    triangular_dim,
    vech,
    vech_index,
    vech_inv,
)

from conftest import fermi_chemical_potential_loop, random_hermitian, selector_T, symmetrize_S


def test_vech_small_examples():
    assert np.array_equal(vech(np.eye(2)), [1.0, 0.0, 1.0])
    w = np.array([[0.0, 0.3], [0.3, 0.0]])
    assert np.array_equal(vech(w), [0.0, 0.3, 0.0])


def test_vech_ordering_is_column_major_lower():
    w = np.arange(9, dtype=float).reshape(3, 3)
    # columns of the lower triangle: (w00, w10, w20), (w11, w21), (w22)
    assert np.array_equal(vech(w), [0.0, 3.0, 6.0, 4.0, 7.0, 8.0])


def test_vech_roundtrip_hermitian():
    rng = np.random.default_rng(0)
    w = random_hermitian(rng, 4)
    assert np.allclose(vech(vech_inv(vech(w))), vech(w), atol=1e-15)


def test_vech_inv_transpose_completion():
    v = np.zeros(3, dtype=complex)
    v[1] = 1.0 + 2.0j
    w = vech_inv(v)
    # symmetric, not conjugate-symmetric, completion
    assert w[0, 1] == w[1, 0] == 1.0 + 2.0j


def test_vech_inv_basis_elements():
    e1 = np.zeros(3)
    e1[0] = 1.0
    assert np.array_equal(vech_inv(e1), [[1.0, 0.0], [0.0, 0.0]])
    e2 = np.zeros(3)
    e2[1] = 1.0
    assert np.array_equal(vech_inv(e2), [[0.0, 1.0], [1.0, 0.0]])


def test_vech_inv_rejects_non_triangular_length():
    with pytest.raises(ValueError):
        vech_inv(np.zeros(4))
    with pytest.raises(ValueError):
        triangular_dim(4)


def test_selector_matches_definition():
    assert np.array_equal(selector_T(1), [[1.0]])
    expected = np.array(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    )
    assert np.array_equal(selector_T(2), expected)
    rng = np.random.default_rng(1)
    w = rng.normal(size=(5, 5))
    assert np.array_equal(selector_T(5) @ w.ravel(order="F"), vech(w))


def test_vech_index_matches_selector():
    n = 6
    t = selector_T(n)
    assert np.array_equal(np.argmax(t, axis=1), vech_index(n))


def test_symmetrize_fixed_points_and_kernel():
    sym = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert np.array_equal(symmetrize_S(sym), sym)
    upper = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(symmetrize_S(upper), np.zeros((2, 2)))


def test_symmetrize_outer_product_against_basis_sum():
    rng = np.random.default_rng(2)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    y = rng.normal(size=4) + 1j * rng.normal(size=4)
    w = np.outer(x, y.conj())
    # sum-over-basis oracle: S(W) = sum_j vech(W)_j * vech_inv(e_j)
    m = 10
    acc = np.zeros((4, 4), dtype=complex)
    v = vech(w)
    for j in range(m):
        ej = np.zeros(m)
        ej[j] = 1.0
        acc += v[j] * vech_inv(ej)
    assert np.allclose(symmetrize_S(w), acc, atol=1e-14)
    assert np.allclose(symmetrize_S(symmetrize_S(w)), symmetrize_S(w), atol=1e-14)


def test_require_hermitian_rejects():
    with pytest.raises(ValueError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        require_hermitian(np.zeros((2, 3)))


def test_spectral_filter_density_diag():
    b = np.diag([1.0, 1.16, 10.0])
    p1 = spectral_filter_density(b, 1)[0]
    assert np.allclose(p1, np.diag([1.0, 0.0, 0.0]), atol=1e-15)


def test_spectral_filter_density_zero_gap():
    with pytest.raises(ZeroGapError):
        spectral_filter_density(np.eye(3), 1)


def test_spectral_filter_density_against_brute_force():
    rng = np.random.default_rng(3)
    b = random_hermitian(rng, 6)
    p = spectral_filter_density(b, 2)[0]
    lam, x = np.linalg.eigh(b)
    x1 = x[:, np.argsort(lam)[:2]]
    assert np.allclose(p, x1 @ x1.conj().T, atol=1e-13)
    assert np.allclose(p @ p, p, atol=1e-13)
    assert abs(np.trace(p).real - 2.0) < 1e-13
    assert np.allclose(p, p.conj().T, atol=1e-14)


def test_spectral_filter_density_invalid_p():
    with pytest.raises(ValueError):
        spectral_filter_density(np.diag([1.0, 2.0]), 2)


def test_fermi_occupations_limits():
    lam = np.array([0.0, 10.0])
    f = fermi_occupations(lam, beta=100.0, mu=5.0)
    assert abs(f[0] - 1.0) < 1e-4
    assert f[1] < 1e-4
    # no overflow for extreme arguments
    assert fermi_occupations(np.array([1e6]), beta=1e6, mu=0.0)[0] == 0.0


def test_fermi_chemical_potential_trace():
    lam = np.array([1.0, 2.0, 3.0])
    for beta in (1.0, 10.0, 500.0):
        mu = fermi_chemical_potential(lam, beta, 1)
        assert abs(fermi_occupations(lam, beta, mu).sum() - 1.0) <= 1e-12


def test_fermi_chemical_potential_rejects_bad_beta():
    with pytest.raises(ValueError):
        fermi_chemical_potential(np.array([0.0, 1.0]), -1.0, 1)


def test_fermi_density_trace_and_range():
    rng = np.random.default_rng(4)
    b = random_hermitian(rng, 5)
    dens = spectral_filter_density(b, 2, beta=7.0)[0]
    assert abs(np.trace(dens).real - 2.0) <= 1e-12
    occ = np.linalg.eigvalsh(dens)
    assert np.all(occ > -1e-14)
    assert np.all(occ < 1.0 + 1e-14)


def test_fermi_density_sharp_limit_matches_step():
    b = np.diag([0.0, 1.0, 3.0])
    sharp = spectral_filter_density(b, 1, beta=200.0)[0]
    assert np.allclose(sharp, spectral_filter_density(b, 1)[0], atol=1e-8)


@pytest.mark.parametrize("beta", [None, 5.0], ids=["step", "fermi"])
def test_the_kernel_on_a_stack_is_each_single_call_and_its_filter_formula(beta):
    rng = np.random.default_rng(11)
    n, p = 6, 2
    stack = np.stack([np.diag(np.arange(n, dtype=float)) + random_hermitian(rng, n, scale=0.3)
                      for _ in range(3)])
    density, lam, x, mu = got = spectral_filter_density(stack, p, beta=beta)
    for k in range(3):
        for part, want in zip(got, spectral_filter_density(stack[k], p, beta=beta)):
            assert part is None if want is None else np.array_equal(part[k], want)
    if beta is None:
        assert mu is None
        want = x[..., :p] @ x[..., :p].conj().swapaxes(-2, -1)
    else:
        assert np.array_equal(mu, fermi_chemical_potential(lam, beta, p))
        f = fermi_occupations(lam, beta, mu[..., None])
        want = (x * f[..., None, :]) @ x.conj().swapaxes(-2, -1)
    assert np.array_equal(density, want)


def test_divided_difference_step_values():
    lam = np.array([1.0, 1.16, 10.0])
    r = divided_difference_matrix(lam, 1)
    expected = np.zeros((3, 3))
    expected[0, 1] = -1.0 / 0.16
    expected[0, 2] = -1.0 / 9.0
    expected = expected + expected.T
    assert np.allclose(r, expected, atol=1e-14)


def test_divided_difference_step_structure():
    lam = np.linspace(0.0, 4.0, 5)
    for p in (1, 2, 3, 4):
        r = divided_difference_matrix(lam, p)
        assert np.count_nonzero(r) == 2 * p * (5 - p)
        assert np.allclose(r, r.T, atol=1e-15)
        assert abs(r.min() + 1.0 / (lam[p] - lam[p - 1])) < 1e-14


def test_divided_difference_step_zero_gap():
    with pytest.raises(ZeroGapError):
        divided_difference_matrix(np.array([0.0, 1.0, 1.0]), 2)


def step_verdict(lam, p):
    """Whether the step filter's divided differences of ``lam`` raise "zero gap"."""
    try:
        divided_difference_matrix(lam, p)
    except ZeroGapError:
        return True
    return False


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 6), near=st.floats(0.0, 2.0))
def test_the_zero_gap_verdict_does_not_change_with_the_spectrum_scale(data, n, near):
    p = data.draw(st.integers(1, n - 1))
    lam = np.sort(data.draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False),
                                     min_size=n, max_size=n)))
    # lambda_p+1 at ``near`` times the tolerance above lambda_p: both verdicts occur
    lam[p] = lam[p - 1] + near * GAP_TOL * np.abs(lam).max()
    lam = np.sort(lam)
    gap, top = lam[p] - lam[p - 1], np.abs(lam).max()
    values = np.abs(np.array([*lam, gap, GAP_TOL * top]))
    nonzero = values[values > 0]
    assume(nonzero.size and nonzero.min() >= np.finfo(float).tiny)
    _, e = np.frexp(nonzero)
    # every entry, the gap and the tolerance stay normal, and no difference overflows
    k = data.draw(st.integers(-1021 - int(e.min()), 1022 - int(e.max())))
    assert step_verdict(np.ldexp(lam, k), p) == step_verdict(lam, p)


def test_divided_difference_fermi_matches_direct():
    lam = np.array([0.0, 0.5, 2.0, 3.0])
    beta = 5.0
    mu = fermi_chemical_potential(lam, beta, 2)
    r = divided_difference_matrix(lam, 2, beta=beta, mu=mu)
    f = fermi_occupations(lam, beta, mu)
    for i in range(4):
        for j in range(4):
            if i == j:
                expected = -beta * f[i] * (1.0 - f[i])
            else:
                expected = (f[i] - f[j]) / (lam[i] - lam[j])
            assert abs(r[i, j] - expected) < 1e-13


def test_divided_difference_fermi_near_degenerate():
    lam = np.array([1.0, 1.0 + 1e-13, 2.0])
    r = divided_difference_matrix(lam, 2, beta=2.0)
    assert np.isfinite(r).all()


def fermi_divided_differences_40_digits(lam, beta, mu):
    """R_ab = (f_a - f_b) / (lambda_a - lambda_b) of the Fermi occupations at
    the given doubles, f' on the diagonal and at exact ties, in 40-digit
    decimal arithmetic."""
    n = len(lam)
    out = np.empty((n, n))
    with localcontext() as ctx:
        ctx.prec = 40
        ctx.traps[Overflow] = False  # exp of a huge argument is Infinity: f = 0
        b, m = Decimal(beta), Decimal(mu)
        x = [Decimal(v) for v in lam]
        f = [1 / (1 + (b * (v - m)).exp()) for v in x]
        for a in range(n):
            for c in range(n):
                if x[a] == x[c]:
                    out[a, c] = float(-b * f[a] * (1 - f[a]))
                else:
                    out[a, c] = float((f[a] - f[c]) / (x[a] - x[c]))
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    p_frac=st.floats(0.0, 1.0),
    log_beta=st.floats(-3.0, 12.0),
    log_scale=st.floats(-3.0, 3.0),
)
def test_fermi_divided_differences_match_a_40_digit_evaluation(seed, n, p_frac, log_beta,
                                                               log_scale):
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(size=n) * 10.0**log_scale
    near = rng.uniform(size=n) < 0.4  # near-ties, down to below one ulp
    gaps[near] *= 10.0 ** rng.uniform(-17.0, -6.0, size=near.sum())
    gaps[rng.uniform(size=n) < 0.1] = 0.0  # exact ties
    lam = np.cumsum(gaps) - rng.uniform(0.0, 2.0) * gaps.sum()
    p = min(1 + int(p_frac * (n - 1)), n - 1)
    beta = 10.0**log_beta
    try:
        mu = fermi_chemical_potential(lam, beta, p)
    except ChemicalPotentialError:
        mu = None
    assume(mu is not None)
    want = fermi_divided_differences_40_digits(lam, beta, mu)
    got = divided_difference_matrix(lam, p, beta=beta, mu=mu)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_divided_difference_rejects_unsorted():
    with pytest.raises(ValueError):
        divided_difference_matrix(np.array([1.0, 0.0]), 1)


def test_divided_difference_fermi_tends_to_the_step_matrix_sign_included():
    # at mu mid-gap the cross entries (f_a - f_b) / (lambda_a - lambda_b) of
    # the Fermi occupations tend to those of the step occupations as beta grows
    lam = np.array([0.0, 0.4, 1.5, 2.5, 4.0])
    p = 2
    step = divided_difference_matrix(lam, p)
    cross = np.zeros((5, 5), dtype=bool)
    cross[:p, p:] = cross[p:, :p] = True
    assert np.all(step[cross] < 0) and not step[~cross].any()
    mu = 0.5 * (lam[p - 1] + lam[p])
    errors = [
        np.abs(divided_difference_matrix(lam, p, beta=beta, mu=mu) - step)[cross].max()
        for beta in (5.0, 50.0, 500.0)
    ]
    assert errors[0] > errors[1] > errors[2] and errors[2] < 1e-12


def bisection_mu(lam, beta, p, tol=1e-12, max_iter=200):
    """The chemical potential by plain bisection: the reference for the Newton search."""
    lam = np.sort(np.asarray(lam, dtype=float))
    s = max(1.0, (1.0 + np.log(lam.size)) / beta)
    lo, hi = lam[0] - s, lam[-1] + s
    if fermi_occupations(lam, beta, lo).sum() > p or fermi_occupations(lam, beta, hi).sum() < p:
        raise ChemicalPotentialError("not bracketed")
    for _ in range(max_iter + 1):
        mu = 0.5 * (lo + hi)
        trace = fermi_occupations(lam, beta, mu).sum()
        if abs(trace - p) <= tol:
            return mu
        if trace < p:
            lo = mu
        else:
            hi = mu
    raise ChemicalPotentialError("no convergence")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    p_frac=st.floats(0.0, 1.0),
    log_beta=st.floats(-1.0, 5.0),
    log_scale=st.floats(-2.0, 3.0),
    clustered=st.booleans(),
)
def test_newton_chemical_potential_agrees_with_bisection(
    seed, n, p_frac, log_beta, log_scale, clustered
):
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=n) * 10.0**log_scale
    if clustered:  # near-degenerate levels around the Fermi level
        lam = np.round(lam, 1)
    p = min(1 + int(p_frac * (n - 1)), n - 1)
    beta = 10.0**log_beta
    outcomes = []
    for search in (fermi_chemical_potential, bisection_mu):
        try:
            mu = search(lam, beta, p)
        except ChemicalPotentialError:
            outcomes.append(None)
        else:
            outcomes.append(abs(fermi_occupations(lam, beta, mu).sum() - p))
    newton, bisection = outcomes
    assert (newton is None) == (bisection is None)
    if newton is not None:
        assert newton <= 1e-12 and bisection <= 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    p_frac=st.floats(0.0, 1.0),
    log_beta=st.floats(-6.0, 3.0),
    log_scale=st.floats(-2.0, 3.0),
)
def test_the_mu_bracket_holds_any_trace_target_down_to_small_beta(
    seed, n, p_frac, log_beta, log_scale
):
    # past lambda_1 - s and lambda_n + s, s = max(1, (1 + ln n) / beta), every
    # occupation is within 1 / (1 + e n) of 0 or 1: the trace is below 1 and above n - 1
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.normal(size=n) * 10.0**log_scale)
    p = min(1 + int(p_frac * (n - 1)), n - 1)
    beta = 10.0**log_beta
    s = max(1.0, (1.0 + np.log(n)) / beta)
    assert fermi_occupations(lam, beta, lam[0] - s).sum() < 1.0
    assert fermi_occupations(lam, beta, lam[-1] + s).sum() > n - 1.0
    mu = fermi_chemical_potential(lam, beta, p)
    assert lam[0] - s <= mu <= lam[-1] + s
    assert abs(fermi_occupations(lam, beta, mu).sum() - p) <= 1e-12


def test_newton_chemical_potential_contract_at_the_edges():
    lam = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ChemicalPotentialError):  # not bracketed
        fermi_chemical_potential(lam, 1.0, 0)
    with pytest.raises(ChemicalPotentialError):  # too few steps for the target
        fermi_chemical_potential(lam, 1.0, 1, tol=1e-15, max_iter=0)
    # a flat gap (every f' underflows) falls back to bisection
    mu = fermi_chemical_potential(np.array([0.0, 1e4]), 1e5, 1)
    assert 0.0 < mu < 1e4



def test_mu_search_ends_on_adjacent_doubles():
    # near 3568 one ulp of mu moves the trace by more than 1e-12: no double
    # meets the tolerance, and the search stops on its bracket of adjacent doubles
    lam = np.array([0.0, 3568.0, 3568.1, 4000.0])
    mu = fermi_chemical_potential(lam, 20.0, 2)

    def residual(m):
        return abs(fermi_occupations(lam, 20.0, m).sum() - 2)

    assert 3568.0 < mu < 3568.1
    assert residual(mu) > 1e-12
    assert residual(mu) <= min(residual(np.nextafter(mu, -np.inf)),
                               residual(np.nextafter(mu, np.inf)))
    assert fermi_chemical_potential_loop(lam, 20.0, 2) == mu
    assert np.array_equal(fermi_chemical_potential(np.stack([lam, lam + 1.0]), 20.0, 2),
                          [mu, fermi_chemical_potential(lam + 1.0, 20.0, 2)])

@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    n=st.integers(2, 12),
    p_frac=st.floats(0.0, 1.0),
    beta=st.sampled_from([5.0, 20.0, 100.0]),
    log_scale=st.floats(-2.0, 2.0),
    clustered=st.booleans(),
)
def test_chemical_potential_of_a_stack_equals_its_rows_one_at_a_time(
    seed, shape, n, p_frac, beta, log_scale, clustered
):
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=(*shape, n)) * 10.0**log_scale
    if clustered:  # near-degenerate levels around the Fermi level
        lam = np.round(lam, 1)
    p = min(1 + int(p_frac * (n - 1)), n - 1)
    mu = fermi_chemical_potential(lam, beta, p)
    assert mu.shape == tuple(shape)
    for member in np.ndindex(*shape):
        want = fermi_chemical_potential_loop(lam[member], beta, p)
        assert mu[member] == want
        assert fermi_chemical_potential(lam[member], beta, p) == want


def test_a_failing_row_of_a_stack_is_named_with_its_single_row_message():
    # at beta = 0.5 a flat spectrum at 1e17 cannot hold p = 1 on its bracket, whose
    # ends round back to 1e17; a wide one can
    wide, flat = np.array([0.0, 10.0, 20.0, 30.0]), np.full(4, 1e17)
    stack = np.stack([[wide, wide, flat], [flat, wide, wide]])
    with pytest.raises(ChemicalPotentialError) as single:
        fermi_chemical_potential_loop(flat, 0.5, 1)
    with pytest.raises(ChemicalPotentialError) as caught:
        fermi_chemical_potential(stack, 0.5, 1)
    assert str(caught.value) == str(single.value)
    assert "not bracketed" in str(caught.value)
    assert caught.value.member == (0, 2)
    with pytest.raises(ChemicalPotentialError) as caught:
        spectral_filter_density(np.stack([np.diag(wide), np.diag(flat)]), 1, beta=0.5)
    assert caught.value.member == (1,)
    # a row that runs out of steps is named the same way
    with pytest.raises(ChemicalPotentialError, match="did not reach") as caught:
        fermi_chemical_potential(np.stack([wide, wide]), 1.0, 1, tol=1e-15, max_iter=0)
    assert caught.value.member == (0,)
    with pytest.raises(ChemicalPotentialError) as caught:
        fermi_chemical_potential(flat, 0.5, 1)
    assert caught.value.member is None
    # a spectrum with a NaN never meets the target, as in the scalar search
    broken = np.array([0.0, 1.0, np.nan, 3.0])
    with pytest.raises(ChemicalPotentialError) as single:
        fermi_chemical_potential_loop(broken, 5.0, 1)
    with pytest.raises(ChemicalPotentialError) as caught:
        fermi_chemical_potential(np.stack([wide, broken]), 5.0, 1)
    assert str(caught.value) == str(single.value) and caught.value.member == (1,)

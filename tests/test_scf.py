"""Unit tests for the fixed-point iteration and rate estimation."""

import csv
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfconv import (
    HadamardMask,
    Problem,
    ScfOptions,
    ZeroGapError,
    assemble_jacobian,
    build_illustrative,
    build_laplacian,
    estimate_rate,
    locate_fixed_point,
    locate_fixed_points,
    scf_solve,
    scf_step,
    spectral_filter_density,
)
from scfconv.cli import main
from scfconv import scf
from scfconv.matops import ChemicalPotentialError
from scfconv.scf import (
    FALLBACK_DAMPINGS,
    FALLBACK_MAX_ITER,
    STALL_SPREAD,
    STALL_STEPS,
    RateEstimationError,
    measured_rate,
)

from conftest import (
    FILTERS,
    OPERATOR_KINDS,
    locate_fixed_point_loop,
    operator_problem,
    random_hermitian,
    scf_solve_loop,
)


def zero_nonlinearity_problem(n=5, p=2, seed=0):
    rng = np.random.default_rng(seed)
    a0 = np.diag(np.arange(n, dtype=float)) + random_hermitian(rng, n, scale=0.1)
    return Problem(a0=a0, op=HadamardMask(mask=np.zeros((n, n))), p=p)


@pytest.mark.parametrize("kw", [{}, {"filter": "fermi", "beta": 5.0}], ids=["step", "fermi"])
def test_scf_step_names_a_non_hermitian_A_of_P(kw):
    mask = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    problem = Problem(a0=np.diag([0.0, 1.0, 3.0]), op=HadamardMask(mask=mask), p=1)
    full = np.full((3, 3), 1.0 / 3.0)
    # a single P, and a stack whose second member alone gives a non-Hermitian A(P)
    for density in (full, np.stack([np.diag([1.0, 0.0, 0.0]), full])):
        with pytest.raises(ValueError, match=r"A\(P\) is not Hermitian"):
            scf_step(problem, density, **kw)


@pytest.mark.parametrize("filter_name", FILTERS)
@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_scf_step_on_a_stack_equals_single_calls(kind, filter_name):
    problem = operator_problem(kind)
    kw = FILTERS[filter_name]
    start = spectral_filter_density(problem.a0, problem.p)[0]
    rng = np.random.default_rng(2)
    stack = np.stack([start + random_hermitian(rng, problem.n, scale=1e-3) for _ in range(3)])
    stacked = scf_step(problem, stack.reshape(3, 1, problem.n, problem.n), **kw)
    for k in range(3):
        single = scf_step(problem, stack[k], **kw)
        for got, want in zip(stacked, single):
            assert np.array_equal(got[k, 0], want)


def test_scf_step_on_a_stack_names_its_zero_gap_member():
    # A(P) = diag(P_11, 1, 2): P_11 = 1 closes the gap lambda_2 - lambda_1
    problem = Problem(
        a0=np.diag([0.0, 1.0, 2.0]), op=HadamardMask(mask=np.diag([1.0, 0.0, 0.0])), p=1
    )
    stack = np.zeros((3, 3, 3))
    stack[1, 0, 0] = 1.0
    with pytest.raises(ZeroGapError) as single:
        scf_step(problem, stack[1])
    with pytest.raises(ZeroGapError, match=f"^{re.escape(str(single.value))}$") as caught:
        scf_step(problem, stack)
    assert caught.value.member == (1,)


@pytest.mark.parametrize(
    "filter_name, beta, message",
    [
        ("gaussian", None, "unknown filter 'gaussian'"),
        ("fermi", None, "fermi filter requires beta > 0"),
        ("fermi", 0.0, "fermi filter requires beta > 0"),
        ("fermi", float("nan"), "beta must be finite, got nan"),
        ("step", 20.0, "beta is given only with the fermi filter"),
    ],
)
def test_the_options_and_the_step_keep_one_filter_rule(filter_name, beta, message):
    problem = build_illustrative(0.1)
    density = spectral_filter_density(problem.a0, problem.p)[0]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScfOptions(filter=filter_name, beta=beta)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scf_step(problem, density, filter=filter_name, beta=beta)


def test_linear_problem_converges_immediately():
    problem = zero_nonlinearity_problem()
    bundle = scf_solve(problem)
    assert bundle.converged
    assert bundle.iterations <= 2
    assert np.allclose(
        bundle.p_star, spectral_filter_density(problem.a0, problem.p)[0], atol=1e-14
    )


def test_scf_step_stationary_at_fixed_point():
    problem = build_illustrative(0.0)
    e11 = np.zeros((3, 3))
    e11[0, 0] = 1.0
    nxt, lam, x = scf_step(problem, e11)
    assert np.allclose(nxt, e11, atol=1e-14)
    assert np.all(np.diff(lam) >= 0)
    assert np.allclose(x @ np.diag(lam) @ x.conj().T, problem.apply(e11), atol=1e-12)


def test_scf_solve_self_consistency_and_history():
    problem = build_illustrative(0.2)
    bundle = scf_solve(problem)
    assert bundle.converged
    psi, _, _ = scf_step(problem, bundle.p_star)
    assert np.linalg.norm(psi - bundle.p_star) <= 1e-12
    assert bundle.history[-1].step_err <= 1e-12
    assert len(bundle.errors_to_fixed) == bundle.iterations
    for rec in bundle.history:
        assert rec.gap == pytest.approx(rec.lambda_p1 - rec.lambda_p)


def test_iterates_are_projectors():
    problem = build_illustrative(0.2)
    density = spectral_filter_density(problem.a0, problem.p)[0]
    for _ in range(10):
        density, _, _ = scf_step(problem, density)
        assert np.allclose(density @ density, density, atol=1e-12)
        assert abs(np.trace(density).real - problem.p) <= 1e-12
        assert np.allclose(density, density.conj().T, atol=1e-13)


def test_damped_solve_finds_same_fixed_point():
    problem = build_illustrative(0.2)
    plain = scf_solve(problem)
    damped = scf_solve(problem, opts=ScfOptions(damping=0.5, max_iter=2000))
    assert damped.converged
    assert np.linalg.norm(plain.p_star - damped.p_star) <= 1e-10


def test_non_convergence_returns_bundle():
    problem = build_illustrative(0.2)
    bundle = scf_solve(problem, opts=ScfOptions(max_iter=3))
    assert not bundle.converged
    assert bundle.iterations == 3


def test_locate_fixed_point_plain_when_convergent():
    problem = build_illustrative(0.1)
    bundle, plain = locate_fixed_point(problem)
    assert bundle is plain
    assert bundle.damping == 1.0


def test_zero_gap_reports_iterate_index():
    a0 = np.diag([0.0, 2.0, 3.0])
    mask = np.diag([2.0, 0.0, 0.0])
    problem = Problem(a0=a0, op=HadamardMask(mask=mask), p=1)
    # the start density of A0 is e11, so A(P_0) = diag(2, 2, 3) has no gap
    with pytest.raises(ZeroGapError, match="iterate 0"):
        scf_solve(problem)


def test_options_validation():
    with pytest.raises(ValueError):
        ScfOptions(damping=0.0)
    with pytest.raises(ValueError):
        ScfOptions(damping=1.5)
    with pytest.raises(ValueError):
        ScfOptions(tol=-1.0)
    with pytest.raises(ValueError):
        ScfOptions(filter="gaussian")
    with pytest.raises(ValueError):
        ScfOptions(filter="fermi")  # missing beta


def test_fermi_solve_trace():
    problem = build_laplacian(8, 1.0, 3, variant="real")
    bundle = scf_solve(problem, opts=ScfOptions(filter="fermi", beta=50.0))
    assert bundle.converged
    assert abs(np.trace(bundle.p_star).real - 3.0) <= 1e-10
    assert bundle.mu is not None


def test_estimate_rate_exact_geometric():
    errors = 0.5 ** np.arange(15)
    assert estimate_rate(errors) == pytest.approx(0.5, rel=1e-12)


def test_estimate_rate_noisy_geometric():
    rng = np.random.default_rng(5)
    errors = 0.9 ** np.arange(40) * np.exp(rng.normal(0, 0.01, size=40))
    assert estimate_rate(errors) == pytest.approx(0.9, rel=0.02)


def test_estimate_rate_ignores_floor_noise():
    errors = np.concatenate([0.3 ** np.arange(20), np.full(10, 1e-17)])
    assert estimate_rate(errors) == pytest.approx(0.3, rel=1e-6)


def test_estimate_rate_too_short():
    with pytest.raises(RateEstimationError):
        estimate_rate([1.0, 0.5, 0.25])


# The sweep grids of the benchmark: Laplacian complex n=30, p=15 over alpha,
# and the illustrative problem under Fermi (beta=20) over eps.  Plain SCF
# diverges above alpha ~ 2e5 and below eps ~ 0.1.  The two slowest convergent
# cells are Fermi eps=0.126 (grid point, 239 steps) and alpha=2.1e5 (151).
ALPHA_CELLS = [("laplacian", float(a)) for a in np.geomspace(1e4, 5e5, 10)] + [
    ("laplacian", 2.1e5)
]
EPS_CELLS = [("fermi", float(e)) for e in np.geomspace(1e-3, 0.5, 10)]


def sweep_cell(kind, value):
    if kind == "laplacian":
        return build_laplacian(30, value, 15, variant="complex"), ScfOptions()
    return build_illustrative(value), ScfOptions(filter="fermi", beta=20.0)


def coupled_hadamard_problem(seed, coupling):
    """Unit-spaced A0 with a Hermitian mask of strength ``coupling``; plain SCF
    diverges on more than half of them for coupling in [0.3, 8]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    a0 = np.diag(np.arange(n) + rng.uniform(-0.3, 0.3, size=n)) + random_hermitian(rng, n, 0.1)
    mask = coupling * random_hermitian(rng, n) / np.sqrt(n)
    return Problem(a0=a0, op=HadamardMask(mask=mask), p=int(rng.integers(1, n)))


def full_length_locate(problem, opts):
    """``locate_fixed_point`` with every run taken to its max_iter."""
    plain = scf_solve(problem, opts=replace(opts, damping=1.0))
    if plain.converged:
        return plain, plain
    for theta in FALLBACK_DAMPINGS:
        damped = scf_solve(problem, opts=replace(opts, damping=theta, max_iter=FALLBACK_MAX_ITER))
        if damped.converged:
            return damped, plain
    return plain, plain


@pytest.mark.parametrize("kind,value", ALPHA_CELLS + EPS_CELLS)
def test_stopping_stalled_runs_changes_no_result(kind, value):
    problem, opts = sweep_cell(kind, value)
    bundle, plain = locate_fixed_point(problem, opts)
    ref_bundle, ref_plain = full_length_locate(problem, opts)
    assert plain.converged == ref_plain.converged
    assert measured_rate(plain) == measured_rate(ref_plain)
    assert bundle.converged == ref_bundle.converged
    assert bundle.damping == ref_bundle.damping
    assert np.array_equal(bundle.p_star, ref_bundle.p_star)
    if ref_plain.converged:
        assert plain.iterations == ref_plain.iterations


def assert_same_bundle(got, want):
    """Every field of two FixedPointBundles, bit for bit."""
    assert got.history == want.history
    for name in ("p_star", "x", "lambdas"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert (got.converged, got.damping, got.mu) == (want.converged, want.damping, want.mu)
    if want.errors_to_fixed is None:
        assert got.errors_to_fixed is None
    else:
        assert np.array_equal(got.errors_to_fixed, want.errors_to_fixed)


@pytest.mark.parametrize("cells", [ALPHA_CELLS, EPS_CELLS], ids=["alpha", "eps-fermi"])
def test_locating_a_grid_in_lockstep_equals_each_cell_alone(cells):
    problems, opts = zip(*(sweep_cell(kind, value) for kind, value in cells))
    located = list(locate_fixed_points(list(problems), opts[0]))
    assert len(located) == len(cells)
    assert any(bundle.damping < 1.0 for bundle, _ in located)  # fallbacks ran too
    for problem, (bundle, plain) in zip(problems, located):
        want_bundle, want_plain = locate_fixed_point_loop(problem, opts[0])
        assert_same_bundle(bundle, want_bundle)
        assert_same_bundle(plain, want_plain)
        assert (bundle is plain) == (want_bundle is want_plain)
        alone_bundle, alone_plain = locate_fixed_point(problem, opts[0])
        assert_same_bundle(alone_bundle, want_bundle)
        assert_same_bundle(alone_plain, want_plain)


def assert_each_entry_as_alone(problems, opts=None):
    """Each entry of ``locate_fixed_points(problems)`` is what ``locate_fixed_point``
    gives on its problem alone: the same pair, or an error of the same type and
    message.  Returns the entries."""
    located = list(locate_fixed_points(problems, opts))
    assert len(located) == len(problems)
    for problem, entry in zip(problems, located):
        try:
            want = locate_fixed_point(problem, opts)
        except Exception as exc:
            assert type(entry) is type(exc) and str(entry) == str(exc)
            continue
        assert_same_bundle(entry[0], want[0])
        assert_same_bundle(entry[1], want[1])
    return located


def test_lockstep_stops_at_the_first_failing_problem_with_its_own_error():
    # A(P) = diag(P_11, 1, 2) + A0: the middle problem's start closes the gap.
    # It leaves the stack with the error it raises alone; the others go on.
    def problem(shift):
        return Problem(a0=np.diag([shift, 1.0, 2.0]),
                       op=HadamardMask(mask=np.diag([1.0, 0.0, 0.0])), p=1)

    # A0 of the problem at shift 1 has a zero gap of its own, at the start.
    good, bad, other = problem(-0.5), problem(0.0), problem(-0.25)
    first, middle, at_start, last = assert_each_entry_as_alone([good, bad, problem(1.0), other])
    assert isinstance(middle, ZeroGapError) and isinstance(at_start, ZeroGapError)
    assert str(middle).startswith("zero gap at SCF iterate 0: zero gap: lambda_p")
    assert str(at_start).startswith("zero gap: lambda_p")
    assert first[0].converged and last[0].converged


@pytest.mark.parametrize(
    "problems, opts",
    [
        # A(P) = diag(P_11 + shift, 1, 2): the middle start closes the gap at iterate 0
        ([Problem(a0=np.diag([shift, 1.0, 2.0]), op=HadamardMask(mask=np.diag([1.0, 0.0, 0.0])),
                  p=1) for shift in (-0.5, 0.0, -0.25)], ScfOptions()),
        # at beta = 1e-310 no member brackets mu at iterate 0: (1 + ln n) / beta overflows
        ([build_illustrative(eps) for eps in (0.1, 0.2)], ScfOptions(filter="fermi", beta=1e-310)),
    ],
    ids=["zero-gap", "mu-not-bracketed"],
)
def test_a_lockstep_failure_has_the_single_run_message_and_no_member(problems, opts):
    failed = 0
    for problem, entry in zip(problems, locate_fixed_points(problems, opts)):
        try:
            scf_solve_loop(problem, replace(opts, max_iter=1))
        except (ZeroGapError, ChemicalPotentialError) as exc:
            assert type(entry) is type(exc)
            assert str(entry) == str(exc)
            assert entry.member is None
            failed += 1
    assert failed >= 1


def test_a_member_whose_final_mu_fails_leaves_the_others_as_alone(monkeypatch):
    # The mu search of the middle cell's A(P*) fails; its steps all pass.  The
    # plain runs converge in 93, 136 and 392 steps: the last cell is still
    # in the stack when the middle one fails.
    problems = [build_illustrative(eps) for eps in (0.3, 0.2, 0.1)]
    opts = ScfOptions(filter="fermi", beta=20.0)
    final = locate_fixed_point(problems[1], opts)[0].lambdas
    search = scf.fermi_chemical_potential

    def failing_at_final(lam, beta, p):
        if np.array_equal(lam, final):
            raise ChemicalPotentialError("mu search failed at the final A(P*)")
        return search(lam, beta, p)

    monkeypatch.setattr(scf, "fermi_chemical_potential", failing_at_final)
    first, middle, last = assert_each_entry_as_alone(problems, opts)
    assert isinstance(middle, ChemicalPotentialError)
    assert str(middle) == "mu search failed at the final A(P*)"
    assert first[0].converged and last[0].converged


def test_a_damped_bundle_of_locate_keeps_no_errors_and_a_damped_solve_keeps_them():
    problem, opts = sweep_cell("fermi", 0.0316)
    bundle, plain = locate_fixed_point(problem, opts)
    assert bundle.converged and bundle.damping < 1.0
    assert bundle.errors_to_fixed is None
    assert plain.errors_to_fixed is None  # unconverged
    bundle, plain = locate_fixed_point(build_illustrative(0.2))
    assert plain.converged and bundle is plain
    assert plain.errors_to_fixed is None  # a plain run of locate keeps no iterates either
    solved = scf_solve(build_illustrative(0.2), opts=ScfOptions(damping=0.5, max_iter=2000))
    assert solved.converged
    assert len(solved.errors_to_fixed) == solved.iterations


def test_each_damping_takes_the_unconverged_cells_of_a_batch_as_one_stack(monkeypatch):
    problems, opts = zip(*(sweep_cell(kind, value) for kind, value in EPS_CELLS))
    calls = []

    def spy(batch, opts, stall):
        calls.append((opts.damping, len(batch)))
        return run_batch(batch, opts, stall)

    run_batch = scf._run_batch
    monkeypatch.setattr(scf, "_run_batch", spy)
    located = list(locate_fixed_points(list(problems), opts[0]))
    unconverged = sum(not plain.converged for _, plain in located)
    assert unconverged == 7
    assert all(bundle.converged for bundle, _ in located)
    assert calls == [(1.0, len(problems)), (FALLBACK_DAMPINGS[0], unconverged)]
    # no fallback converges in 30 steps: each damping takes all seven at once
    calls.clear()
    monkeypatch.setattr(scf, "FALLBACK_MAX_ITER", 30)
    list(locate_fixed_points(list(problems), opts[0]))
    assert calls == [(1.0, len(problems)), *((theta, unconverged) for theta in FALLBACK_DAMPINGS)]


def test_a_cell_whose_fallbacks_all_run_to_their_cap_stays_small():
    # Plain SCF and every fallback run their whole cap here (500 + 3 x 5000
    # steps at n = 8): the 15000 damped iterates took 7.8 MB when kept
    problem = coupled_hadamard_problem(0, 3.0)
    tracemalloc.start()
    try:
        bundle, plain = locate_fixed_point(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not bundle.converged and plain.iterations == ScfOptions().max_iter
    assert peak < 4e6


def test_the_peak_of_a_plain_locate_run_does_not_grow_with_its_step_count(monkeypatch):
    # Plain SCF converges here in 421 steps; capped at 100 it stops unconverged.
    # The 321 steps more would store 4.6 MB of iterates if the run kept them.
    n = 30
    problem = build_laplacian(n, 2.5e5, 15, variant="complex")
    monkeypatch.setattr(scf, "FALLBACK_DAMPINGS", ())
    peaks, steps = [], []
    for cap in (100, 500):
        tracemalloc.start()
        try:
            _, plain = locate_fixed_point(problem, ScfOptions(max_iter=cap))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        steps.append((plain.iterations, plain.converged))
    assert steps == [(100, False), (421, True)]
    assert peaks[1] - peaks[0] < 10 * 16 * n * n  # less than ten iterates' worth


@pytest.mark.parametrize("theta", [0.05, None], ids=["0.05", "optimal"])
def test_the_step_errors_of_a_damped_run_shrink_at_the_damped_factor(theta):
    # Linear mixing P -> (1 - theta) P + theta Psi(P) has the Jacobian
    # (1 - theta) I + theta J, whose spectral radius on the vech space is
    # max(1 - theta, max_i |1 - theta + theta lambda_i|) over the eigenvalues
    # lambda_i of J[S, S] (J vanishes off S).  Plain SCF diverges here (c > 1);
    # theta* = 2 / (2 + c) is the best damping when the lambda_i lie in [-c, 0].
    problem = build_laplacian(30, 5e5, 15, variant="complex")
    bundle, _ = locate_fixed_point(problem)
    jb = assemble_jacobian(bundle, problem.op)
    theta = theta or 2.0 / (2.0 + jb.c)
    lam = np.linalg.eigvals(jb.j_s[jb.support])
    rho = max(1.0 - theta, float(np.abs(1.0 - theta + theta * lam).max()))
    run = scf_solve(problem, opts=ScfOptions(damping=theta, max_iter=3000))
    assert run.converged
    assert abs(estimate_rate([rec.step_err for rec in run.history]) - rho) <= 1e-3


@pytest.mark.parametrize("kind,value", [("laplacian", 5e5), ("fermi", 0.0316)])
def test_divergent_plain_run_stops_early_and_damping_still_converges(kind, value):
    problem, opts = sweep_cell(kind, value)
    bundle, plain = locate_fixed_point(problem, opts)
    assert not plain.converged
    assert plain.iterations < opts.max_iter
    steps = np.array([rec.step_err for rec in plain.history])
    flat = [
        steps[k - STALL_STEPS:k].max() <= (1 + STALL_SPREAD) * steps[k - STALL_STEPS:k].min()
        for k in range(STALL_STEPS, plain.iterations + 1)
    ]
    assert flat[-1] and not any(flat[:-1])
    assert bundle.converged
    assert bundle.damping < 1.0


def test_a_run_that_drifts_for_many_steps_before_it_converges_is_not_stopped():
    # Plain SCF on this problem moves away from its start, its step error
    # growing from 0.15 to 1.2, then converges in 113 steps.  Its step error
    # makes no new smallest value for more than STALL_STEPS steps on the way.
    problem = coupled_hadamard_problem(1692024465, 5.2966306704797175)
    full = scf_solve(problem)
    steps = np.array([rec.step_err for rec in full.history])
    assert full.converged
    new_minimum = np.flatnonzero(steps < np.minimum.accumulate(np.r_[np.inf, steps[:-1]]))
    assert np.diff(new_minimum).max() > STALL_STEPS
    bundle, plain = locate_fixed_point(problem)
    assert plain.converged and bundle is plain
    assert plain.iterations == full.iterations
    assert np.array_equal(plain.p_star, full.p_star)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    coupling=st.floats(0.3, 8.0),
)
def test_stop_keeps_the_converged_flag_on_random_hadamard_problems(seed, coupling):
    problem = coupled_hadamard_problem(seed, coupling)
    try:
        full = scf_solve(problem)
    except ZeroGapError:
        return
    with pytest.MonkeyPatch.context() as patch:  # hypothesis takes no function fixture
        patch.setattr(scf, "FALLBACK_DAMPINGS", ())
        _, plain = locate_fixed_point(problem)
    assert plain.converged == full.converged
    if full.converged:
        assert np.array_equal(plain.p_star, full.p_star)


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(1e-3, 1.0), beta=st.sampled_from([5.0, 20.0, 100.0]))
def test_stop_keeps_the_converged_flag_on_the_fermi_illustrative_family(eps, beta):
    problem = build_illustrative(eps)
    opts = ScfOptions(filter="fermi", beta=beta)
    full = scf_solve(problem, opts=opts)
    with pytest.MonkeyPatch.context() as patch:  # hypothesis takes no function fixture
        patch.setattr(scf, "FALLBACK_DAMPINGS", ())
        _, plain = locate_fixed_point(problem, opts)
    assert plain.converged == full.converged
    if full.converged:
        assert np.array_equal(plain.p_star, full.p_star)


def test_solve_runs_a_divergent_cell_to_max_iter(tmp_path):
    out = tmp_path / "history.csv"
    code = main(["solve", "--family", "illustrative", "--eps", "0.0316", "--filter", "fermi",
                 "--beta", "20", "--out", str(out)])
    assert code == 2
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == ScfOptions().max_iter

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

import glvortex as gv
from glvortex import diagnostics
from glvortex.diagnostics import quantization_rhs, second_variation_matrix
from glvortex.grid import quadrature_upto
from glvortex.solver import Profile, SolveReport
from conftest import case_inputs
from oracles import (hessian_band_loop, min_eig_bisection, radial_energy,
                     scalar_gl_profile, scalar_hessian_min_eig)


def make_profile(grid, params, degrees, f_plus, f_minus):
    report = SolveReport(iterations=(0,), final_residual=0.0,
                         tolerance=1e-10, wall_time=0.0)
    return Profile(grid=grid, params=params, degrees=degrees,
                   f_plus=np.asarray(f_plus, float),
                   f_minus=np.asarray(f_minus, float), report=report)


@pytest.fixture(scope="module")
def ground_state():
    grid = gv.build_grid(30.0, 600)
    params = gv.CouplingParams(1, 1, 0, 1, 1)
    ones = np.ones(601)
    return make_profile(grid, params, gv.DegreePair(0, 0), ones, ones)


def test_energy_of_ground_state_is_zero(ground_state):
    # zero up to the squared roundoff of the derivative stencil weights
    assert abs(radial_energy(ground_state)) < 1e-25
    assert abs(radial_energy(ground_state, 10.0)) < 1e-25


def test_energy_grows_logarithmically(reference_profiles):
    # decoupled single vortex: E(R) ~ (n^2 t^2 / 2) ln R + const, so a
    # linear fit of E against ln R over [20, 80] has slope 1/2
    prof = reference_profiles["classical"]
    radii = np.array([20.0, 30.0, 40.0, 60.0, 80.0])
    energies = [radial_energy(prof, R) for R in radii]
    slope = np.polyfit(np.log(radii), energies, 1)[0]
    assert slope == pytest.approx(0.5, rel=0.05)


def test_energy_decreases_toward_minimizer(reference_profiles):
    # local minimizer: random admissible perturbations raise the energy,
    # and the converged profile lies below its initial ansatz
    prof = reference_profiles["bpos"]
    base = radial_energy(prof)
    assert base > 0
    rng = np.random.default_rng(17)
    for _ in range(5):
        vp = rng.normal(size=prof.f_plus.shape) * 1e-3
        vm = rng.normal(size=prof.f_minus.shape) * 1e-3
        vp[0] = vm[0] = vp[-1] = vm[-1] = 0.0
        bumped = make_profile(prof.grid, prof.params, prof.degrees,
                              prof.f_plus + vp, prof.f_minus + vm)
        assert radial_energy(bumped) > base
    fp0, fm0 = gv.initial_guess(prof.grid, prof.params, prof.degrees)
    ansatz = make_profile(prof.grid, prof.params, prof.degrees, fp0, fm0)
    assert base < radial_energy(ansatz)


def test_pohozaev_zero_for_ground_state(ground_state):
    assert gv.pohozaev_residual(ground_state, 20.0) == pytest.approx(0.0,
                                                                     abs=1e-14)


def test_pohozaev_decays_with_radius(reference_profiles):
    prof = reference_profiles["classical"]
    res = [abs(gv.pohozaev_residual(prof, R)) for R in (5.0, 20.0, 40.0, 80.0)]
    assert res[0] > res[1] > res[2] > res[3]
    assert res[-1] < 0.01  # within 1% of the quantized value 1


def test_pohozaev_consistent_with_quantization(reference_profiles):
    # at R_max the scaling identity and the quantization defect differ by
    # exactly the boundary flux term: same identity, two evaluations
    for prof in reference_profiles.values():
        q = gv.quantization_check(prof)
        poh = gv.pohozaev_residual(prof)
        r = prof.grid.nodes
        h = r[-1] - r[-2]
        flux = 0.0
        for f in (prof.f_plus, prof.f_minus):
            df = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
            flux += (r[-1] * df) ** 2
        assert poh - flux == pytest.approx(q.lhs - q.rhs, abs=1e-10)


def test_pohozaev_boundary_slope_on_geometric_grid():
    # f = 1 - c exp(-r/L) on a coarse stretched grid: the boundary term
    # misses the exact [R f'(R)]^2 only by the error d of the quadratic
    # one-sided stencil, |d| <= max|f'''| h2 (h1 + h2) / 6 over its nodes
    grid = gv.build_grid(40.0, 200, "geometric", 1.01)
    r, L, c = grid.nodes, 10.0, (1.0, 0.5)
    fp, fm = (1 - ci * np.exp(-r / L) for ci in c)
    prof = make_profile(grid, gv.CouplingParams(1, 1, 0.5, 1, 1),
                        gv.DegreePair(1, 1), fp, fm)
    R, h1, h2 = r[-1], r[-2] - r[-3], r[-1] - r[-2]
    slope = np.array(c) * np.exp(-R / L) / L
    d = np.array(c) * np.exp(-r[-3] / L) / L ** 3 * h2 * (h1 + h2) / 6
    bulk = quadrature_upto(grid, diagnostics._potential_quartic(prof), R)
    exact = np.sum((R * slope) ** 2) + bulk - quantization_rhs(prof)
    tol = np.sum(R ** 2 * (2 * slope * d + d ** 2))
    assert abs(gv.pohozaev_residual(prof) - exact) <= tol


def test_quantization_rhs_values(ground_state):
    grid = ground_state.grid
    p = gv.CouplingParams(1, 1, 0.3, 1, 2)
    prof = make_profile(grid, p, gv.DegreePair(1, 1),
                        np.ones(601), np.full(601, 2.0))
    assert quantization_rhs(prof) == pytest.approx(5.0)
    assert quantization_rhs(ground_state) == 0.0


def test_quantization_higher_degrees():
    grid = gv.build_grid(40.0, 1600)
    params = gv.CouplingParams(1, 1, 0.3, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(2, 1), grid)
    q = gv.quantization_check(prof)
    assert q.rhs == pytest.approx(5.0)
    assert q.relative_gap < 0.01


def test_amplitude_bound_ground_state_margin(ground_state):
    # Lambda^2 equals t_+^2 + t_-^2 here, so the constant state has margin 0
    assert gv.amplitude_bound_check(ground_state) == pytest.approx(0.0,
                                                                   abs=1e-14)


def test_amplitude_bound_on_solves(reference_profiles):
    for prof in reference_profiles.values():
        assert gv.amplitude_bound_check(prof) >= -1e-8


def test_amplitude_bound_overshoot_constrains_sum(reference_profiles):
    prof = reference_profiles["overshoot"]
    assert np.max(prof.f_minus) > prof.params.t_minus  # one component exceeds
    assert gv.amplitude_bound_check(prof) >= -1e-8     # the sum does not


def test_hessian_positive_at_constant_state(ground_state):
    p = gv.CouplingParams(1.4, 0.9, -0.5, 1.2, 0.8)
    grid = ground_state.grid
    prof = make_profile(grid, p, gv.DegreePair(0, 0),
                        np.full(601, p.t_plus), np.full(601, p.t_minus))
    eig = gv.second_variation_min_eig(prof)
    pot = 2.0 * np.array([[p.A_plus * p.t_plus ** 2,
                           p.B * p.t_plus * p.t_minus],
                          [p.B * p.t_plus * p.t_minus,
                           p.A_minus * p.t_minus ** 2]])
    pot_min = np.linalg.eigvalsh(pot)[0]
    lam_s = gv.derived_bounds(p).lambda_s
    assert pot_min >= 2 * lam_s * min(p.t_plus, p.t_minus) ** 2 - 1e-12
    assert eig > 0
    assert eig >= pot_min - 1e-10  # gradient part only adds


def test_hessian_matches_scalar_oracle():
    grid = gv.build_grid(40.0, 2000)
    params = gv.CouplingParams(1, 1, 0, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 0), grid)
    lib = gv.second_variation_min_eig(prof)
    oracle_f = scalar_gl_profile(1.0, 1.0, 1, grid.nodes)
    oracle = scalar_hessian_min_eig(1.0, 1.0, 1, oracle_f, grid.nodes)
    assert oracle < 2.0  # the decoupled partner block sits at 2 A t^2
    assert lib == pytest.approx(oracle, abs=1e-4)


def test_hessian_positive_on_solves(reference_profiles):
    for prof in reference_profiles.values():
        assert gv.second_variation_min_eig(prof) >= -1e-8


def test_hessian_symmetric_by_construction():
    grid = gv.build_grid(20.0, 64)
    params = gv.CouplingParams(1, 1, 0.5, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 0), grid)
    band, masses = second_variation_matrix(prof)
    ndof = band.shape[1]
    dense = np.zeros((ndof, ndof))
    dense[np.arange(ndof), np.arange(ndof)] = band[2]
    for k in (1, 2):
        rows = np.arange(ndof - k)
        dense[rows, rows + k] = band[2 - k, k:]
        dense[rows + k, rows] = band[2 - k, k:]
    assert np.array_equal(dense, dense.T)
    assert np.all(masses > 0)


def test_hessian_dof_layout():
    grid = gv.build_grid(20.0, 64)
    params = gv.CouplingParams(1, 1, 0.5, 1, 1)
    ones = np.ones(65)
    origin_mass = grid.nodes[1] ** 2 / 8
    for degrees, expect in (((1, 1), 2 * 64 - 2), ((1, 0), 2 * 64 - 1),
                            ((0, 1), 2 * 64 - 1), ((0, 0), 2 * 64)):
        prof = make_profile(grid, params, gv.DegreePair(*degrees), ones, ones)
        band, masses = second_variation_matrix(prof)
        assert band.shape == (3, expect) and masses.shape == (expect,)
        # origin unknowns survive only for zero winding, R_max never does
        kept_origin = sum(n == 0 for n in degrees)
        assert np.sum(masses == origin_mass) == kept_origin
        assert np.all(masses[-2:] == grid.weights[-2])
    # (0, 1): the dropped origin unknown of the minus component sits between
    # the two plus unknowns it separates, which couple at offset one
    prof = make_profile(grid, params, gv.DegreePair(0, 1), ones, ones)
    band, _ = second_variation_matrix(prof)
    assert band[1, 1] == pytest.approx(-0.5, rel=1e-14)  # -r_{1/2} / h_0
    assert band[0, 2] == 0.0


def _random_profile(grid, params, degrees, seed):
    rng = np.random.default_rng(seed)
    n = grid.N + 1
    return make_profile(grid, params, gv.DegreePair(*degrees),
                        params.t_plus * rng.uniform(0.05, 1.5, n),
                        params.t_minus * rng.uniform(0.05, 1.5, n))


@pytest.mark.parametrize("degrees", [(1, 1), (1, 0), (0, 1), (0, 0)])
def test_hessian_matches_loop_assembly(degrees):
    params = gv.CouplingParams(1.3, 0.8, -0.6, 1.1, 0.9)
    for N in (40, 250):
        prof = _random_profile(gv.build_grid(15.0, N), params, degrees, N)
        band, masses = second_variation_matrix(prof)
        ref_band, ref_masses = hessian_band_loop(prof)
        assert band.shape == ref_band.shape
        assert (np.max(np.abs(band - ref_band))
                <= 1e-12 * np.max(np.abs(ref_band)))
        assert np.allclose(masses, ref_masses, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind,stretch", [("uniform", None),
                                          ("geometric", 1.03)])
@pytest.mark.parametrize("degrees", [(1, 1), (1, 0), (0, 1), (0, 0)])
def test_mass_weighted_jacobian_is_symmetric(kind, stretch, degrees):
    # the lower band of diag(m) J mirrors the upper band the Hessian keeps
    grid = gv.build_grid(20.0, 96, kind, stretch)
    params = gv.CouplingParams(1.3, 0.8, 0.6, 1.1, 0.9)
    prof = _random_profile(grid, params, degrees, 7)
    _, masses = second_variation_matrix(prof)
    ab = gv.jacobian(prof)
    n = ab.shape[1]
    J = np.zeros((n, n))
    for k in range(-2, 3):  # ab[2 - k, j] = J[j - k, j]
        cols = np.arange(max(k, 0), n + min(k, 0))
        J[cols - k, cols] = ab[2 - k, cols]
    keep = np.delete(np.arange(2 * grid.N),
                     [c for c, w in enumerate(degrees) if w != 0])
    K = masses[:, None] * J[np.ix_(keep, keep)]
    assert np.max(np.abs(K - K.T)) <= 1e-12 * np.max(np.abs(K))


@st.composite
def admissible_profiles(draw, max_winding=3):
    """Admissible coefficients, windings 0-max_winding, a uniform or
    geometric grid and positive (generally unsolved, so possibly indefinite)
    arrays.

    The smallest spacing stays above 0.03 so the Hessian's norm, which
    sets the roundoff of both eigensolvers compared, stays near 1e4."""
    A_plus = draw(st.floats(0.2, 4.0))
    A_minus = draw(st.floats(0.2, 4.0))
    B = draw(st.floats(-0.95, 0.95)) * np.sqrt(A_plus * A_minus)
    params = gv.CouplingParams(A_plus, A_minus, B, draw(st.floats(0.3, 2.0)),
                               draw(st.floats(0.3, 2.0)))
    degrees = (draw(st.integers(0, max_winding)),
               draw(st.integers(0, max_winding)))
    N = draw(st.integers(24, 160))
    R_max = draw(st.floats(6.0, 30.0))
    if draw(st.booleans()):
        grid = gv.build_grid(R_max, N)
    else:
        grid = gv.build_grid(R_max, N, "geometric",
                             draw(st.floats(1.001, 1.1)))
    assume(grid.nodes[1] >= 0.03)
    return _random_profile(grid, params, degrees,
                           draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(prof=admissible_profiles(), where=st.floats(0.0, 1.0))
def test_min_eig_matches_dense_eigh(prof, where):
    band, masses = second_variation_matrix(prof)
    K = np.diag(band[2])
    for k in (1, 2):
        K += np.diag(band[2 - k, k:], k) + np.diag(band[2 - k, k:], -k)
    ref = scipy.linalg.eigh(K, np.diag(masses), eigvals_only=True,
                            subset_by_index=[0, 0])[0]
    lam = gv.second_variation_min_eig(prof)
    assert abs(lam - ref) <= 1e-9 * max(1.0, abs(ref))
    # sweep records an unusable profile through EigenFailure
    bad = prof.f_plus.copy()
    bad[1 + int(where * (prof.grid.N - 2))] = np.nan
    with pytest.raises(gv.EigenFailure):
        gv.second_variation_min_eig(
            make_profile(prof.grid, prof.params, prof.degrees, bad,
                         prof.f_minus))


def _scaled_band(prof):
    """S = M^{-1/2} K M^{-1/2} in upper banded storage, and ||S||_inf."""
    band, masses = second_variation_matrix(prof)
    scale = np.sqrt(masses)
    sym = band / masses
    for k in (1, 2):
        sym[2 - k, k:] = band[2 - k, k:] / (scale[k:] * scale[:-k])
    rows = np.abs(sym[2])
    for k in (1, 2):
        rows[k:] += np.abs(sym[2 - k, k:])
        rows[:-k] += np.abs(sym[2 - k, k:])
    return sym, float(np.max(rows))


def _agreement_tol(prof, lam):
    """max(1e-11 |lambda|, 2 eps ||S||_inf) with S = M^{-1/2} K M^{-1/2}:
    each eigensolver is accurate to roundoff in S."""
    eps = np.finfo(float).eps
    return max(1e-11 * abs(lam), 2.0 * eps * _scaled_band(prof)[1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(prof=admissible_profiles())
def test_min_eig_matches_bisection(prof):
    # the draws are unsolved arrays, so lambda_min may be negative and
    # need not be an isolated bound state
    lam = gv.second_variation_min_eig(prof)
    assert abs(lam - min_eig_bisection(prof)) <= _agreement_tol(prof, lam)


def _dense(sym):
    S = np.diag(sym[2])
    for k in (1, 2):
        S += np.diag(sym[2 - k, k:], k) + np.diag(sym[2 - k, k:], -k)
    return S


@settings(max_examples=60, deadline=None, derandomize=True)
@given(prof=admissible_profiles(max_winding=5))
def test_quotient_bounds_bracket_dense_eigh(prof):
    # positive arrays make D S D a Z-matrix, so min (D S u)/(D u) <= lambda
    # <= max (D S u)/(D u) for every D u > 0; high windings make the lowest
    # mode, the sharpest such u, steep near the origin
    sym, norm = _scaled_band(prof)
    minus = diagnostics._retained_unknowns(prof) % 2 == 1
    flip = np.where(minus & (prof.params.B > 0), -1.0, 1.0)
    for k in (1, 2):
        assert np.all(sym[2 - k, k:] * flip[k:] * flip[:-k] <= 0)
    lams, vecs = scipy.linalg.eigh(_dense(sym))
    lam = lams[0]
    slack = 2.0 * np.finfo(float).eps * norm
    seen = []
    cw = diagnostics._collatz_wielandt

    def spy(*args):
        seen.append(cw(*args))
        return seen[-1]
    with mock.patch.object(diagnostics, "_collatz_wielandt", spy):
        gv.second_variation_min_eig(prof)
    assert seen and seen[0] is not None  # the start vector is positive
    mode = flip * np.abs(vecs[:, 0])
    seen.append(cw(flip, mode, diagnostics._band_matvec(sym, mode)))
    for bounds in filter(None, seen):
        assert bounds[0] <= lam + slack
        assert bounds[1] >= lam - slack


@pytest.mark.parametrize("case", ["bpos", "bneg", "asym"])
def test_min_eig_without_z_pattern(case):
    # f_- -> -f_- leaves the energy and the spectrum alone but turns the
    # coupling entries of D S D positive: the bracket moves by
    # factorizations only
    params, degrees = case_inputs(case)
    prof = gv.continuation_solve(params, degrees, gv.build_grid(20.0, 200))
    prof = make_profile(prof.grid, params, degrees, prof.f_plus,
                        -prof.f_minus)
    ref = scipy.linalg.eigvalsh(_dense(_scaled_band(prof)[0]))[0]
    with mock.patch.object(diagnostics, "_collatz_wielandt",
                           wraps=diagnostics._collatz_wielandt) as cw:
        lam = gv.second_variation_min_eig(prof)
    cw.assert_not_called()
    assert abs(lam - ref) <= _agreement_tol(prof, lam)


def test_sweep_report_min_eig_matches_bisection():
    params, degrees = case_inputs("bpos")
    b_values = [0.0, 0.2, 0.4, 0.6, 0.8]
    results = gv.continuation_sweep(params, degrees, b_values,
                                    gv.build_grid(40.0, 800))
    records = diagnostics.sweep_report(params, degrees, b_values,
                                       results)["records"]
    for rec, prof in zip(records, results):
        assert rec["converged"]
        lam = rec["hessian_min_eig"]
        assert abs(lam - min_eig_bisection(prof)) <= _agreement_tol(prof, lam)


def _count_factorizations(monkeypatch):
    """A list that grows by one entry per banded Cholesky factorization."""
    calls = []
    dpbtrf = diagnostics.dpbtrf

    def spy(*args, **kwargs):
        calls.append(1)
        return dpbtrf(*args, **kwargs)
    monkeypatch.setattr(diagnostics, "dpbtrf", spy)
    return calls


def test_min_eig_factorization_count(reference_profiles, monkeypatch):
    # bisection to the same width takes about 51 factorizations
    calls = _count_factorizations(monkeypatch)
    for prof in reference_profiles.values():
        calls.clear()
        lam = gv.second_variation_min_eig(prof)
        assert len(calls) <= 8
        assert abs(lam - min_eig_bisection(prof)) <= _agreement_tol(prof, lam)


def test_min_eig_equal_coefficients(monkeypatch):
    # equal coefficients and windings decouple f_+ + f_- from f_+ - f_-; a
    # start vector with no weight on the lower of the two would leave the
    # loop to bisect
    params, degrees = case_inputs("bpos")
    prof = gv.continuation_solve(params, degrees, gv.build_grid(20.0, 200))
    band, masses = second_variation_matrix(prof)
    K = np.diag(band[2])
    for k in (1, 2):
        K += np.diag(band[2 - k, k:], k) + np.diag(band[2 - k, k:], -k)
    ref = scipy.linalg.eigh(K, np.diag(masses), eigvals_only=True,
                            subset_by_index=[0, 0])[0]
    calls = _count_factorizations(monkeypatch)
    lam = gv.second_variation_min_eig(prof)
    assert len(calls) <= 8
    assert abs(lam - ref) <= _agreement_tol(prof, lam)


def test_monotonicity_classes(reference_profiles, coarse_grid):
    label = gv.monotonicity_classify(reference_profiles["bneg"])
    assert label is gv.MonotonicityLabel.BothNondecreasing

    params, _ = case_inputs("bpos")
    prof = gv.continuation_solve(params, gv.DegreePair(1, 0), coarse_grid)
    label = gv.monotonicity_classify(prof)
    assert label is gv.MonotonicityLabel.PlusUpMinusDown

    prof = reference_profiles["overshoot"]
    label = gv.monotonicity_classify(prof)
    assert label is gv.MonotonicityLabel.NonMonotoneMinus
    # the minus component falls somewhere by more than the slope tolerance
    # (and rises elsewhere, or it would be nonincreasing)
    r, f = prof.grid.nodes, prof.f_minus
    slopes = (f[2:] - f[:-2]) / (r[2:] - r[:-2])
    tol = 1e-6 * prof.params.t_minus / prof.grid.R_max
    assert np.min(slopes) < -tol and np.max(slopes) > tol


def test_monotonicity_classical_degenerate_minus(reference_profiles):
    # at zero interaction the n=0 partner is constant, which counts as
    # nondecreasing under the tolerance
    label = gv.monotonicity_classify(reference_profiles["classical"])
    assert label is gv.MonotonicityLabel.BothNondecreasing


def test_classifier_stable_under_tolerance_halving(reference_profiles):
    for prof in reference_profiles.values():
        a = gv.monotonicity_classify(prof, slope_tol=1e-6)
        b = gv.monotonicity_classify(prof, slope_tol=5e-7)
        assert a is b


def test_overshoot_agrees_with_tail_sign(reference_profiles):
    # a component with positive leading tail coefficient approaches its
    # modulus from above, so it cannot be monotone
    prof = reference_profiles["overshoot"]
    _, a_minus = gv.leading_coeffs(prof.params, prof.degrees)
    assert a_minus > 0
    label = gv.monotonicity_classify(prof)
    assert label is gv.MonotonicityLabel.NonMonotoneMinus


def test_near_origin_order_on_reference(reference_profiles):
    for name, prof in reference_profiles.items():
        orders = gv.near_origin_order(prof)
        assert orders[0] == pytest.approx(prof.degrees.n_plus, abs=0.05)
        assert orders[1] == pytest.approx(prof.degrees.n_minus, abs=0.05)


def test_quantization_gap_shrinks_with_domain():
    # gap ~ C1/R_max^2 (untracked tail) + C2 h^2 (quadrature/discretization);
    # along a ladder at fixed h the tail term dominates first, so doubling
    # R_max cuts the gap by nearly 4 before the h^2 floor takes over
    params = gv.CouplingParams(1, 1, 0.5, 1, 1)
    deg = gv.DegreePair(1, 1)
    gaps = []
    for R_max, N in ((20.0, 1000), (40.0, 2000), (80.0, 4000)):
        prof = gv.continuation_solve(params, deg, gv.build_grid(R_max, N))
        gaps.append(gv.quantization_check(prof).relative_gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert 2.2 <= gaps[0] / gaps[1] <= 4.5


def test_verify_suite_passes_and_flags_corruption(reference_profiles):
    prof = reference_profiles["bpos"]
    checks = diagnostics.verify(prof)
    assert all(set(c) == {"check", "value", "target", "tolerance", "pass"}
               for c in checks)
    by_name = {c["check"]: c for c in checks}
    assert all(c["pass"] for c in checks), checks
    assert by_name["hessian_min_eig"]["value"] > 1e-4
    assert by_name["residual_norm"]["tolerance"] == 1e-10

    def failed(**arrays):
        return {c["check"] for c in diagnostics.verify(replace(prof, **arrays))
                if not c["pass"]}

    # one node moved by 1e-6 leaves the discrete equation unsolved there
    bumped = prof.f_plus.copy()
    bumped[500] += 1e-6
    assert failed(f_plus=bumped) == {"residual_norm"}
    negative = prof.f_minus.copy()
    negative[1] = -1e-3
    assert {"residual_norm", "positivity_min"} <= failed(f_minus=negative)


def test_solve_verify_and_sweep_report_do_not_warn():
    # a solve and the checks that re-evaluate its profile issue no warning
    # of any category
    params, degrees = case_inputs("bpos")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = gv.continuation_solve(params, degrees, gv.build_grid(20.0, 400))
        diagnostics.verify(prof)
        diagnostics.sweep_report(params, degrees, [params.B], [prof])

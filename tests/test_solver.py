import gc
import json
import math
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import solve_banded

import glvortex as gv
from glvortex import diagnostics, solver
from glvortex.solver import SolveOptions, _BandLU, _DiscreteSystem
from conftest import case_inputs
from oracles import scalar_gl_profile, uniqueness_probe


def params_of(*vals):
    return gv.CouplingParams(*vals)


def eight_steps(params, degrees, grid):
    """The profile at params.B reached through eight equal B-steps, or None
    if any step fails.  Steps that coincide once rounded to 12 decimals
    (all eight at B = 0) are one value, the last of them."""
    steps = {round(b, 12): b for b in (params.B * k / 8 for k in range(1, 9))}
    path = gv.continuation_sweep(params, degrees, list(steps.values()), grid)
    return None if any(isinstance(p, Exception) for p in path) else path[-1]


def test_initial_guess_is_finite_at_large_winding(reference_profiles,
                                                  recwarn):
    # r^n overflows at n = 400, but the base r^2/(r^2 + c) of the guess lies
    # in [0, 1); the five reference sets still take the same Newton
    # iterations per continuation stage from it
    g = gv.build_grid(20.0, 200)
    fp, fm = gv.initial_guess(g, params_of(1, 1, 0, 1, 1),
                              gv.DegreePair(400, 1))
    assert np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))
    assert fp[0] == 0.0 and np.all((0.0 <= fp) & (fp < 1.0))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert {name: prof.report.iterations
            for name, prof in reference_profiles.items()} == {
        "classical": (4,), "bpos": (4, 3), "bneg": (4, 3), "asym": (4, 4),
        "overshoot": (4, 4)}


def test_initial_guess_shapes():
    g = gv.build_grid(20.0, 100)
    fp, fm = gv.initial_guess(g, params_of(1, 1, 0, 1, 1), gv.DegreePair(0, 0))
    assert np.all(fp == 1.0) and np.all(fm == 1.0)

    fp, _ = gv.initial_guess(g, params_of(1, 1, 0, 1, 1), gv.DegreePair(1, 0))
    i = np.argmin(np.abs(g.nodes - 1.0))
    assert fp[i] == pytest.approx(1 / np.sqrt(2), rel=1e-12)
    assert fp[0] == 0.0
    assert fp[-1] == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("kind", ["uniform", "geometric"])
def test_large_windings_solve_from_the_ansatz(kind):
    # the ansatz's core n/(A t^2) rises over the vortex core's width
    # n/(t sqrt(A)) and carries the decoupled tail's r^-2 coefficient
    # -n^2/(2 A t), so windings 6..20 solve at B = 0 and along both
    # continuation chains in a few Newton iterations per stage
    grid = (gv.build_grid(40.0, 800) if kind == "uniform"
            else gv.build_grid(40.0, 900, "geometric", 1.005))
    params = params_of(1.5, 1.0, 0.0, 0.8, 1.0)
    r = grid.nodes[-1]
    for n in range(6, 21):
        deg = gv.DegreePair(n, 1)
        f0 = gv.initial_guess(grid, params, deg)
        a = -n * n / (2 * params.A_plus * params.t_plus)
        assert r * r * (f0[0, -1] - params.t_plus) == pytest.approx(
            a, rel=n * n / r ** 2)
        out = gv.continuation_sweep(params, deg, [0.0, 0.5, -0.9], grid)
        for prof in out:
            assert isinstance(prof, gv.Profile), (n, prof)
            assert max(prof.report.iterations) <= 7


def test_residual_zero_for_constant_states():
    g = gv.build_grid(30.0, 400)
    params = params_of(1.5, 0.8, 0.3, 1.1, 0.9)
    deg = gv.DegreePair(0, 0)
    sys = _DiscreteSystem(g, params, deg)
    t_state = np.array([np.full(401, params.t_plus),
                        np.full(401, params.t_minus)])
    gp, gm = sys.residual(t_state)
    assert np.max(np.abs(gp)) == 0.0
    assert np.max(np.abs(gm)) == 0.0
    # the zero function solves every row but the far one, which asks for
    # the modulus: its residual there is -t rhs[N]
    for g_k, rhs, t in zip(sys.residual(np.zeros((2, 401))), sys.op.rhs,
                           (params.t_plus, params.t_minus)):
        assert np.all(g_k[:-1] == 0.0)
        assert g_k[-1] == -t * rhs[-1] != 0.0


def test_residual_matches_analytic_defect_of_ansatz():
    # f_plus = r/sqrt(r^2+1), f_minus = 1, B = 0: the plus residual is the
    # scalar defect, computed here from hand derivatives of the ansatz
    g = gv.build_grid(30.0, 1600)
    params = params_of(1, 1, 0, 1, 1)
    deg = gv.DegreePair(1, 0)
    sys = _DiscreteSystem(g, params, deg)
    r = g.nodes
    fp = r / np.sqrt(r ** 2 + 1)
    fm = np.ones_like(r)
    gp, gm = sys.residual(np.array([fp, fm]))
    ri = r[1:-1]
    gpp = (ri ** 2 + 1) ** -1.5
    gppp = -3 * ri * (ri ** 2 + 1) ** -2.5
    fpi = fp[1:-1]
    defect = -gppp - gpp / ri + fpi / ri ** 2 + (fpi ** 2 - 1) * fpi
    # pointwise agreement to O(h^2) away from the axis (the first nodes see
    # the O(h u''') axis truncation, which the r dr weight suppresses)
    away = ri >= 0.5
    assert np.max(np.abs(gp[1:-1][away] - defect[away])) < 3e-4
    assert np.max(np.abs(gp[1:-1])) > 0.1  # genuinely nonzero defect
    assert np.max(np.abs(gm[1:-1])) < 1e-14


@pytest.mark.parametrize("kind", ["uniform", "geometric"])
def test_jacobian_matches_finite_differences(kind):
    g = gv.build_grid(20.0, 96, kind, 1.02 if kind == "geometric" else None)
    params = params_of(1.2, 0.9, 0.4, 1.0, 0.8)
    deg = gv.DegreePair(1, 1)
    sys = _DiscreteSystem(g, params, deg)
    rng = np.random.default_rng(5)
    fp = np.abs(rng.normal(0.8, 0.1, 97))
    fm = np.abs(rng.normal(0.7, 0.1, 97))
    ab = sys.jacobian_banded(np.array([fp, fm]))
    n = 2 * 97
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - 2), min(n, i + 3)):
            dense[i, j] = ab[2 + i - j, j]

    h = 1e-6
    for _ in range(20):
        vp = rng.normal(size=97)
        vm = rng.normal(size=97)
        gp1, gm1 = sys.residual(np.array([fp + h * vp, fm + h * vm]))
        gp0, gm0 = sys.residual(np.array([fp - h * vp, fm - h * vm]))
        fd = np.empty(194)
        fd[0::2] = (gp1 - gp0) / (2 * h)
        fd[1::2] = (gm1 - gm0) / (2 * h)
        v = np.empty(194)
        v[0::2] = vp
        v[1::2] = vm
        jv = dense @ v
        assert np.max(np.abs(jv - fd)) <= 1e-6 * max(1.0, np.max(np.abs(jv)))


def test_jacobian_decouples_at_zero_interaction(monkeypatch):
    g = gv.build_grid(20.0, 64)
    sys = _DiscreteSystem(g, params_of(1, 1, 0, 1, 1), gv.DegreePair(1, 1))
    f = gv.initial_guess(g, params_of(1, 1, 0, 1, 1), gv.DegreePair(1, 1))
    ab = sys.jacobian_banded(f)
    assert np.max(np.abs(ab[1, 1::2])) == 0.0  # plus-row cross entries
    assert np.max(np.abs(ab[3, 0::2])) == 0.0  # minus-row cross entries
    # the one symmetric tridiagonal system dpttrf factors is diag(m) times
    # the band's entries, bit for bit, with m the operator's row masses:
    # component k's block at nodes k(N+1) ... k(N+1) + N, and a zero
    # off-diagonal entry at the junction of the two blocks
    seen = []

    def spy(d, e, **kwargs):
        seen.append((d.copy(), e.copy()))
        return dpttrf(d, e, **kwargs)

    dpttrf = solver.dpttrf
    monkeypatch.setattr(solver, "dpttrf", spy)
    lu = _BandLU(g.N + 1)
    lu.ab[:] = np.nan
    lu.factor(sys, f)
    (d, e), = seen
    n = g.N + 1
    assert e.shape == (2 * n - 1,) and e[n - 1] == 0.0
    for k, mass in enumerate(sys.op.mass):
        assert np.array_equal(d[k * n:k * n + n], mass * ab[2, k::2])
        assert np.array_equal(e[k * n:k * n + n - 1],
                              mass[:-1] * ab[0, 2 + k::2])


def test_jacobian_blocks_at_constant_state():
    g = gv.build_grid(20.0, 64)
    params = params_of(1.3, 0.9, 0.5, 1.1, 0.8)
    sys = _DiscreteSystem(g, params, gv.DegreePair(0, 0))
    f = np.array([np.full(65, params.t_plus), np.full(65, params.t_minus)])
    ab = sys.jacobian_banded(f)
    i = 30  # interior node: potential blocks on top of the stencil diagonal
    lap_diag = sys.op.diag[0, i]
    assert ab[2, 2 * i] == pytest.approx(
        lap_diag + 2 * params.A_plus * params.t_plus ** 2, rel=1e-13)
    assert ab[1, 2 * i + 1] == pytest.approx(
        2 * params.B * params.t_plus * params.t_minus, rel=1e-13)


def test_newton_zero_degrees_immediate():
    g = gv.build_grid(30.0, 300)
    params = params_of(1, 1, 0.5, 1, 1)
    f0 = gv.initial_guess(g, params, gv.DegreePair(0, 0))
    prof = gv.newton_solve(f0, g, params, gv.DegreePair(0, 0))
    assert prof.report.iterations[0] <= 1
    assert np.array_equal(prof.f[0], np.ones(301))
    assert np.array_equal(prof.f[1], np.ones(301))


def test_newton_converges_from_ansatz_within_ten_iterations(default_grid):
    params = params_of(1, 1, 0, 1, 1)
    deg = gv.DegreePair(1, 1)
    f0 = gv.initial_guess(default_grid, params, deg)
    prof = gv.newton_solve(f0, default_grid, params, deg)
    assert prof.report.iterations[0] <= 10
    assert prof.report.final_residual <= 1e-10


def test_decoupled_solve_matches_scalar_oracle():
    grid = gv.build_grid(40.0, 6400)
    params = params_of(1, 1, 0, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 0), grid)
    oracle = scalar_gl_profile(1.0, 1.0, 1, grid.nodes)
    assert np.max(np.abs(prof.f[0] - oracle)) < 1e-6
    assert np.max(np.abs(prof.f[1] - 1.0)) < 1e-12


def test_continuation_single_step_at_zero_interaction(coarse_grid):
    params = params_of(1, 1, 0, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 1), coarse_grid)
    assert len(prof.report.iterations) == 1


def test_continuation_matches_direct_solve(coarse_grid):
    params = params_of(1, 1, 0.5, 1, 1)
    deg = gv.DegreePair(1, 1)
    cont = gv.continuation_solve(params, deg, coarse_grid)
    f0 = gv.initial_guess(coarse_grid, params, deg)
    direct = gv.newton_solve(f0, coarse_grid, params, deg)
    assert np.max(np.abs(cont.f[0] - direct.f[0])) < 1e-9
    assert np.max(np.abs(cont.f[1] - direct.f[1])) < 1e-9


def test_continuation_near_hypothesis_boundary(coarse_grid):
    params = params_of(1, 4, 1.9, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 1), coarse_grid)
    assert prof.report.final_residual <= 1e-10


def test_continuation_path_monotone_for_negative_interaction(coarse_grid):
    # the sweep through B = -0.9 k/8 walks the path of eight equal steps,
    # none of them halved: B = 0 and the 8 steps, one stage each
    params = params_of(1, 1, -0.9, 1, 1)
    b_values = [-0.9 * k / 8 for k in range(9)]
    path = gv.continuation_sweep(params, gv.DegreePair(1, 1), b_values,
                                 coarse_grid)
    assert [p.params.B for p in path] == b_values
    assert [len(p.report.iterations) for p in path] == [1] * 9
    for step in path:
        assert (gv.monotonicity_classify(step)
                is gv.MonotonicityLabel.BothNondecreasing)
    # one direct predicted step reaches the same profile
    prof = gv.continuation_solve(params, gv.DegreePair(1, 1), coarse_grid)
    assert np.max(np.abs(path[-1].f[0] - prof.f[0])) <= 1e-9
    assert np.max(np.abs(path[-1].f[1] - prof.f[1])) <= 1e-9


def test_amplitude_bound_holds_on_converged_profiles(coarse_grid):
    for vals, deg in [((1, 1, 0.5, 1, 1), (1, 1)),
                      ((1, 4, 1.5, 1, 1), (1, 1)),
                      ((2, 1, 0.8, 1, 0.7), (1, 1))]:
        params = params_of(*vals)
        prof = gv.continuation_solve(params, gv.DegreePair(*deg), coarse_grid)
        lam_plus, lam_minus = gv.derived_bounds(params)
        assert np.max(prof.f[0] ** 2) <= lam_plus + 1e-8
        assert np.max(prof.f[1] ** 2) <= lam_minus + 1e-8


def test_near_origin_exponent(coarse_grid):
    params = params_of(1, 1, 0.5, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(2, 1), coarse_grid)
    orders = gv.near_origin_order(prof)
    assert orders[0] == pytest.approx(2.0, abs=0.05)
    assert orders[1] == pytest.approx(1.0, abs=0.05)


def test_grid_refinement_second_order():
    params = params_of(1, 1, 0.5, 1, 1)
    deg = gv.DegreePair(1, 1)
    sols = {}
    for N in (500, 1000, 2000):
        grid = gv.build_grid(40.0, N)
        sols[N] = gv.continuation_solve(params, deg, grid)
    d_coarse = np.max(np.abs(sols[500].f[0] - sols[1000].f[0][::2]))
    d_fine = np.max(np.abs(sols[1000].f[0] - sols[2000].f[0][::2]))
    assert d_coarse / d_fine == pytest.approx(4.0, rel=0.15)


@pytest.mark.parametrize("name, slope_row_errors", [
    ("bpos", (3.75e-7, 1.14e-8)), ("asym", (7.35e-6, 2.03e-7))])
def test_far_row_truncation_error(name, slope_row_errors):
    # at h = 0.02 the sup distance to the R_max = 320 solve on the same
    # nodes is at most 0.55 of the slope row f'(R) = -2a/R^3's (the numbers
    # given, at R_max = 20 and 40): the tail row leaves a defect -2b/R^4 in
    # R f' where the slope row left -4b/R^4
    params, degrees = case_inputs(name)
    ref = gv.continuation_solve(params, degrees, gv.build_grid(320.0, 16000))
    for R_max, slope_row_error in zip((20.0, 40.0), slope_row_errors):
        N = round(R_max / 0.02)
        prof = gv.continuation_solve(params, degrees, gv.build_grid(R_max, N))
        error = max(np.max(np.abs(prof.f[0] - ref.f[0][:N + 1])),
                    np.max(np.abs(prof.f[1] - ref.f[1][:N + 1])))
        assert error <= 0.55 * slope_row_error


def test_tangent_is_the_derivative_of_the_solution_path():
    # J f' = -dG/dB at bpos against the central difference of the profiles
    # at B = 0.5 +- 1e-4: the far row does not move with B, so the tangent
    # is exact (the slope row's datum moved with a(B): error 3.25e-5)
    grid, degrees = gv.build_grid(20.0, 400), gv.DegreePair(1, 1)
    params = params_of(1, 1, 0.5, 1, 1)
    prof = gv.continuation_solve(params, degrees, grid)
    sys = _DiscreteSystem(grid, params, degrees)
    lu = _BandLU(grid.N + 1)
    f = prof.f
    lu.factor(sys, f)
    tangent = -lu.solve(sys.residual_dB(f))
    delta = 1e-4
    up, down = (gv.continuation_solve(replace(params, B=0.5 + s * delta),
                                      degrees, grid) for s in (1, -1))
    for x, f_up, f_down in zip(tangent, up.f, down.f):
        assert np.max(np.abs(x - (f_up - f_down) / (2 * delta))) <= 1e-8


def test_uniqueness_probe_cases(coarse_grid):
    d = uniqueness_probe(params_of(1, 1, 0, 1, 1), gv.DegreePair(1, 0),
                         coarse_grid, seed_count=3)
    assert d <= 1e-8
    d = uniqueness_probe(params_of(2, 1, 0.8, 1, 0.7), gv.DegreePair(1, 1),
                         coarse_grid, seed_count=3)
    assert d <= 1e-8


def test_uniqueness_probe_zero_degrees(coarse_grid):
    params = params_of(1, 1, 0.3, 1, 1)
    d = uniqueness_probe(params, gv.DegreePair(0, 0), coarse_grid,
                         seed_count=3)
    assert d <= 1e-10


def test_no_convergence_carries_diagnostics(monkeypatch):
    g = gv.build_grid(30.0, 300)
    params = params_of(1, 1, 0.5, 1, 1)
    deg = gv.DegreePair(1, 1)
    f0 = gv.initial_guess(g, params, deg)
    monkeypatch.setattr(solver, "_MAX_NEWTON_ITERS", 1)
    opts = SolveOptions(tolerance=1e-12)
    with pytest.raises(gv.NoConvergence) as info:
        gv.newton_solve(f0, g, params, deg, opts)
    exc = info.value
    assert exc.f is not None and len(exc.history) >= 1
    assert exc.history[-1] > 1e-12


def test_solve_options_validation():
    # values as a JSON config can spell them: booleans, strings and
    # fractions are not numbers or counts
    for bad in ({"tolerance": 0.0}, {"tolerance": True},
                {"tolerance": "1e-10"}, {"tolerance": float("inf")}):
        with pytest.raises(ValueError):
            SolveOptions(**bad)
    # the backtracking factor and the Newton iteration cap are fixed, a leg
    # first tries one step, and there is one far row
    for gone in ({"damping": 0.5}, {"max_newton_iters": 50},
                 {"continuation_steps": 1}, {"far_field": "robin"}):
        with pytest.raises(TypeError):
            SolveOptions(**gone)
    assert SolveOptions(tolerance=1).tolerance == 1


def test_profile_json_roundtrip(coarse_grid):
    params = params_of(1, 1, 0.5, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 1), coarse_grid)
    text = gv.profile_to_json(prof)
    back = gv.profile_from_json(text)
    assert np.array_equal(back.f[0], prof.f[0])
    assert np.array_equal(back.f[1], prof.f[1])
    assert back.params == prof.params
    assert back.degrees == prof.degrees
    assert back.report == prof.report
    assert np.array_equal(back.grid.nodes, prof.grid.nodes)
    # a second serialization is byte-identical
    assert gv.profile_to_json(back) == text


def _refuse_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def _small_profile(f_plus, f_minus):
    return gv.Profile(grid=gv.build_grid(8.0, 16),
                      params=params_of(1, 1, 0.5, 1, 1),
                      degrees=gv.DegreePair(1, 1),
                      f=np.array((f_plus, f_minus)),
                      report=gv.SolveReport((3, 2), 4.5e-13, 1e-10, 0.25))


def _spy_stdlib_json(mp):
    """Calls of stdlib json's parser, through every name solver reaches."""
    calls = []
    def spy(real):
        return lambda *a, **kw: calls.append(a) or real(*a, **kw)
    mp.setattr(json, "loads", spy(json.loads))
    mp.setattr(solver, "parse_json", spy(solver.parse_json))
    return calls


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1e-05, 1e16,
                0.1, 1e15, 123456789012345680.0]
_finite_arrays = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=17, max_size=17)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(f_plus=_finite_arrays, f_minus=_finite_arrays)
@example(f_plus=_EDGE_FLOATS + [1.0] * 5,
         f_minus=_EDGE_FLOATS[::-1] + [2.0] * 5)
def test_profile_json_floats_roundtrip_bit_for_bit(f_plus, f_minus):
    prof = _small_profile(np.array(f_plus), np.array(f_minus))
    text = gv.profile_to_json(prof)
    # orjson reads writer output: stdlib json is never asked
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_stdlib_json(mp)
        back = gv.profile_from_json(text)
    assert calls == []
    for a, b in ((back.f[0], prof.f[0]), (back.f[1], prof.f[1])):
        assert a.tobytes() == b.tobytes()
    assert back.report == prof.report and back.params == prof.params
    # strict JSON that the stdlib reads to the same values
    obj = json.loads(text, parse_constant=_refuse_constant)
    for key, row in zip(("f_plus", "f_minus"), prof.f):
        assert np.array(obj[key]).tobytes() == row.tobytes()
    # the stdlib's own text form (", " separators, 1e-05 exponents) loads to
    # the same profile, which serializes to the same text
    legacy = gv.profile_from_json(json.dumps(obj))
    assert legacy.f[0].tobytes() == prof.f[0].tobytes()
    assert legacy.f[1].tobytes() == prof.f[1].tobytes()
    assert gv.profile_to_json(legacy) == text


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_profile_json_refuses_non_finite_numbers(bad):
    ok = np.ones(17)
    hole = ok.copy()
    hole[5] = bad
    prof = _small_profile(ok, ok)
    gv.profile_to_json(prof)
    grid = prof.grid
    # construction refuses t_+ = inf, as t_+^2 leaves the float range; set
    # past it, the writer still refuses the number
    with pytest.raises(gv.HypothesisViolation, match="t_plus"):
        replace(prof.params, t_plus=np.inf)
    infinite_t = replace(prof.params)
    object.__setattr__(infinite_t, "t_plus", np.inf)
    for broken in (_small_profile(hole, ok), _small_profile(ok, hole),
                   replace(prof, report=replace(prof.report,
                                                final_residual=bad)),
                   replace(prof, report=replace(prof.report, wall_time=bad)),
                   replace(prof, params=infinite_t),
                   replace(prof, grid=replace(grid, nodes=np.append(
                       grid.nodes[:-1], np.inf)))):
        with pytest.raises(ValueError, match="finite"):
            gv.profile_to_json(broken)


def test_profile_json_with_converged_field_loads(coarse_grid):
    # files written while the report still carried its always-true
    # "converged" field load to the same profile
    params = params_of(1, 1, 0.5, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 1), coarse_grid)
    obj = json.loads(gv.profile_to_json(prof))
    rep = obj["report"]
    assert list(rep) == ["iterations", "final_residual", "tolerance",
                         "wall_time"]
    obj["report"] = {"iterations": rep["iterations"],
                     "final_residual": rep["final_residual"],
                     "tolerance": rep["tolerance"], "converged": True,
                     "wall_time": rep["wall_time"]}
    back = gv.profile_from_json(json.dumps(obj))
    assert back.report == prof.report
    assert np.array_equal(back.f[0], prof.f[0])
    assert np.array_equal(back.f[1], prof.f[1])


def test_profile_json_rejects_mismatched_arrays(coarse_grid):
    params = params_of(1, 1, 0.5, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 1), coarse_grid)
    for key in ("f_plus", "f_minus"):
        obj = json.loads(gv.profile_to_json(prof))
        obj[key] = obj[key][:-1]
        # the package's message, not numpy's about an inhomogeneous shape
        with pytest.raises(ValueError, match="N matching the arrays"):
            gv.profile_from_json(json.dumps(obj))


def test_profile_json_rejects_a_non_object_and_negative_iterations():
    with pytest.raises(ValueError, match="must be a JSON object"):
        gv.profile_from_json("[]")
    obj = json.loads(gv.profile_to_json(_small_profile(np.ones(17),
                                                       np.ones(17))))
    obj["report"]["iterations"] = [3, -1]
    with pytest.raises(ValueError, match="list of iteration counts"):
        gv.profile_from_json(json.dumps(obj))


class _Token(str):
    """A bare token that JSON text holds in place of a value."""


def _profile_text(f_plus, f_minus, edit=None):
    """Writer output of a small profile; edit = (path, value) replaces the
    value at that key path, a _Token by its bare text."""
    text = gv.profile_to_json(_small_profile(np.array(f_plus),
                                             np.array(f_minus)))
    if edit is None:
        return text
    path, value = edit
    obj = json.loads(text)
    *parents, last = path
    node = obj
    for key in parents:
        node = node[key]
    node[last] = "@token@" if isinstance(value, _Token) else value
    text = json.dumps(obj)
    if isinstance(value, _Token):
        text = text.replace('"@token@"', value)
    return text


def _read(text):
    """profile_from_json's result in comparable form: every field with its
    types, the arrays by their bytes, or the exception's type and message."""
    try:
        p = gv.profile_from_json(text)
    except Exception as exc:
        return type(exc), str(exc)
    typed = [(type(v), repr(v)) for v in
             (*astuple(p.params), *astuple(p.degrees), *p.report.iterations,
              *astuple(p.report)[1:], *p.grid.as_dict().values())]
    return typed, p.f.dtype, p.f.shape, p.f.tobytes(), p.grid.nodes.tobytes()


def _read_by_stdlib(text):
    """_read with orjson refusing every text, so stdlib json parses it."""
    def refuse(text):
        raise orjson.JSONDecodeError("refused", "", 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver.orjson, "loads", refuse)
        return _read(text)


# every place a value of the file is read from, and values on which orjson
# and stdlib json differ: integers beyond 64 bits (orjson's floats) and
# beyond the float range, tokens orjson refuses, entries of the wrong type
_PLACES = [("params", k) for k in ("A_plus", "A_minus", "B", "t_plus",
                                   "t_minus")] + [
    ("degrees", "n_plus"), ("degrees", "n_minus"), ("grid", "R_max"),
    ("grid", "N"), ("grid", "kind"), ("grid", "stretch"),
    ("report", "final_residual"), ("report", "tolerance"),
    ("report", "wall_time"), ("report", "iterations", 1), ("f_plus", 3),
    ("f_minus", 0), ("far_field",), ("unknown",)]
_EDGE_VALUES = [
    2 ** 63, 2 ** 64, 2 ** 64 + 1, -2 ** 63 - 1, 10 ** 30, 2 ** 63 - 1,
    -2 ** 63, 10 ** 308, 10 ** 400, -10 ** 400, 2.0 ** 63, 1e308,
    _Token("NaN"), _Token("Infinity"), _Token("-Infinity"), _Token("1e400"),
    _Token("-1e400"), _Token("1e-400"), _Token("-0"), _Token("-0.0"),
    _Token("1E+2"), True, None, "0.5", "\ud800", [2 ** 64], {"n": 2 ** 64}]
_TEXT_EDITS = {
    "bom": lambda t: "\ufeff" + t,
    "whitespace": lambda t: " \n\t\r" + t + "\r\n \t",
    "trailing_garbage": lambda t: t + "x",
    "trailing_value": lambda t: t + " {}",
    # stdlib json keeps the last of a duplicate key
    "duplicate_params": lambda t: t.replace(
        "{", '{"params":{"A_plus":2,"A_minus":1,"B":0,"t_plus":1,'
        '"t_minus":1},', 1),
    "duplicate_big_params": lambda t: t.replace(
        "}", '},"params":{"A_plus":18446744073709551616,"A_minus":1.0,'
        '"B":0.5,"t_plus":1.0,"t_minus":1.0}', 1),
    "lone_surrogate_key": lambda t: t.replace("{", '{"\\ud800":1,', 1),
    "raw_lone_surrogate": lambda t: t.replace("{", '{"x":"\ud800",', 1),
    "nested_under_bound": lambda t: t.replace(
        "{", '{"x":' + "[" * 50 + "]" * 50 + ",", 1),
    "nested_over_bound": lambda t: t.replace(
        "{", '{"x":' + "[" * 70 + "]" * 70 + ",", 1),
    "not_an_object": lambda t: "[18446744073709551616]",
}
_ONES = [1.0] * 17


def test_profile_json_edge_files_read_as_stdlib_json_reads_them():
    # orjson parses a profile file only where it agrees with stdlib json:
    # the same profile, field types included, or the same error
    texts = [_profile_text(_ONES, _ONES, (place, value))
             for place in _PLACES for value in _EDGE_VALUES]
    base = _profile_text(_EDGE_FLOATS + [1.0] * 5,
                         _EDGE_FLOATS[::-1] + [-0.0] * 5)
    texts += [edit(base) for edit in _TEXT_EDITS.values()]
    for text in texts:
        assert _read(text) == _read_by_stdlib(text), text[:200]


@pytest.mark.parametrize("place", [("params", "A_plus"),
                                   ("report", "wall_time"),
                                   ("grid", "R_max"), ("unknown",)])
def test_big_integers_stay_on_orjson_path(place):
    # orjson reads 2^64 as a float and stdlib json as an int; each field
    # has one type, so orjson reads such a file alone, to the profile the
    # stdlib read gives
    text = _profile_text(_ONES, _ONES, (place, 2 ** 64))
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_stdlib_json(mp)
        read = _read(text)
    assert calls == []
    assert isinstance(read[0], list)    # a profile, not an error
    assert read == _read_by_stdlib(text)


_json_values = st.one_of(
    st.sampled_from(_EDGE_VALUES), st.none(), st.booleans(),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.floats(), st.text(max_size=3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(f_plus=_finite_arrays, f_minus=_finite_arrays,
       edit=st.none() | st.tuples(st.sampled_from(_PLACES), _json_values))
@example(f_plus=_EDGE_FLOATS + [1.0] * 5,
         f_minus=_EDGE_FLOATS[::-1] + [-0.0] * 5, edit=None)
@example(f_plus=_ONES, f_minus=_ONES, edit=(("f_plus", 0), _Token("NaN")))
@example(f_plus=_ONES, f_minus=_ONES,
         edit=(("report", "wall_time"), 2 ** 64))
def test_profile_json_reads_as_stdlib_json_reads(f_plus, f_minus, edit):
    text = _profile_text(f_plus, f_minus, edit)
    assert _read(text) == _read_by_stdlib(text)


def test_writer_output_is_read_by_orjson(reference_profiles):
    texts = {name: gv.profile_to_json(p)
             for name, p in reference_profiles.items()}
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_stdlib_json(mp)
        for name, text in texts.items():
            back = gv.profile_from_json(text)
            assert back.f.tobytes() == reference_profiles[name].f.tobytes()
    assert calls == []


def test_warm_start_keeps_positivity_check(coarse_grid):
    # converged profiles are nonnegative without ever being projected
    params = params_of(1, 4, 1.5, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 1), coarse_grid)
    assert float(np.min(prof.f[0])) >= -1e-9
    assert float(np.min(prof.f[1])) >= -1e-9


def test_jacobian_of_profile_is_banded(coarse_grid):
    params = params_of(1, 1, 0.5, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 1), coarse_grid)
    ab = gv.jacobian(prof)
    assert ab.shape == (5, 2 * (coarse_grid.N + 1))
    assert np.all(np.isfinite(ab))


def test_solve_on_geometric_grid():
    # stretched meshes resolve the core with fewer nodes; the solution must
    # agree with a fine uniform solve
    params = params_of(1, 1, 0.5, 1, 1)
    deg = gv.DegreePair(1, 1)
    geo = gv.build_grid(40.0, 900, "geometric", 1.005)
    uni = gv.build_grid(40.0, 4000)
    prof_geo = gv.continuation_solve(params, deg, geo)
    prof_uni = gv.continuation_solve(params, deg, uni)
    interp = np.interp(geo.nodes, uni.nodes, prof_uni.f[0])
    assert np.max(np.abs(prof_geo.f[0] - interp)) < 5e-4
    assert gv.quantization_check(prof_geo).relative_gap < 0.01


def _refined_band_solve(ab, rhs):
    """The solution of the banded system (l, u) = (2, 2) by iterative
    refinement of solve_banded's, with residuals and iterate in long
    double: accurate well below double roundoff in the solution."""
    J = ab.astype(np.longdouble)
    x = solve_banded((2, 2), ab, rhs).astype(np.longdouble)
    for _ in range(4):
        res = rhs - J[2] * x            # J[i, j] = ab[2 + i - j, j]
        for k in (1, 2):
            res[k:] -= J[2 + k, :-k] * x[:-k]
            res[:-k] -= J[2 - k, k:] * x[k:]
        x += solve_banded((2, 2), ab, res.astype(float))
    return x


@pytest.mark.parametrize("degrees", [(1, 1), (1, 0), (0, 1)])
@pytest.mark.parametrize("kind", ["uniform", "geometric"])
def test_band_lu_step_matches_solve_banded(degrees, kind):
    # the in-place step, dpttrf/dpttrs on the two decoupled tridiagonal
    # systems at B = 0 and dgbtrf/dgbtrs on the coupled band, against
    # scipy's solve_banded on the same Jacobians.  One buffer starts as NaN
    # and is reused over several iterates of each system in turn, as in a
    # sweep, so every entry a factorization reads must be rewritten.  A
    # pinned row 2^e u(0) = 0 outweighs its column, so no pivoting moves it
    # and its step entry is g / 2^e exactly.  On the geometric grid the
    # coupled step also meets a long-double refined solve to 2e-14: a
    # pinned row that pivoting swapped below the next row would cost that
    # row's unknown about a digit there
    if kind == "uniform":
        grid = gv.build_grid(30.0, 400)
    else:
        grid = gv.build_grid(30.0, 300, "geometric", 1.01)
    deg = gv.DegreePair(*degrees)
    lu = _BandLU(grid.N + 1)
    lu.ab[:] = np.nan
    lu.rhs[:] = np.nan
    rng = np.random.default_rng(11)
    extended = np.finfo(np.longdouble).eps < np.finfo(float).eps
    for B in (0.0, 0.6, 0.0):
        params = params_of(1.3, 0.8, B, 1.1, 0.9)
        sys = _DiscreteSystem(grid, params, deg)
        # interleaved per node, as the band orders the unknowns
        pinned = sys.op.pinned.T.ravel()
        pot = sys.op.pot.T.ravel()
        assert pinned.any()
        f = gv.initial_guess(grid, params, deg)
        for _ in range(3):
            # + 0.01 moves the pinned values off 0 too, so the rhs has
            # nonzero pinned entries
            f = f * (1.0 + 0.2 * rng.random(f.shape)) + 0.01
            g = sys.residual(f)
            lu.factor(sys, f)
            step = lu.solve(g).T.ravel()
            rhs = g.T.ravel()
            ab = sys.jacobian_banded(f)
            ref = solve_banded((2, 2), ab, rhs)
            assert np.array_equal(step[pinned], rhs[pinned] / pot[pinned])
            assert (np.max(np.abs(step - ref))
                    <= 1e-13 * np.max(np.abs(ref)))
            if B and kind == "geometric" and extended:
                exact = _refined_band_solve(ab, rhs)
                assert (np.max(np.abs(step - exact))
                        <= 2e-14 * np.max(np.abs(exact)))


def test_band_lu_failures_raise_singular_jacobian():
    # matrix column 5 is node 2 of the f_minus component: at B = 0 its
    # diagonal entry set to -1 makes the f_minus block indefinite, so
    # dpttrf meets a pivot < 0 there (LAPACK's 1-based row N + 4 of the two
    # blocks end to end); zeroed on the coupled band, it gives dgbtrf an
    # exact zero pivot
    g = gv.build_grid(10.0, 20)
    deg = gv.DegreePair(1, 1)
    for B, message in ((0.0, r"dpttrf info 24 \(not positive definite\)"),
                       (0.5, r"dgbtrf info \d+ \(zero pivot\)")):
        params = params_of(1, 1, B, 1, 1)
        sys = _DiscreteSystem(g, params, deg)
        if B == 0.0:
            diagonal = sys.jacobian_diagonal

            def indefinite(f, out=None):
                out = diagonal(f, out)
                out[1, 2] = -1.0
                return out

            sys.jacobian_diagonal = indefinite
        else:
            assemble = sys.jacobian_banded

            def zero_column(f, out):
                assemble(f, out)
                out[:, 5] = 0.0     # the whole of matrix column 5

            sys.jacobian_banded = zero_column
        lu = _BandLU(g.N + 1)
        with pytest.raises(gv.SingularJacobian, match=message):
            lu.factor(sys, np.ones((2, 21)))
        assert not lu.factored
        # a start with a NaN or an inf in either row is refused as
        # non-finite before either factorization reads it
        for k, bad in ((0, np.nan), (1, np.nan), (0, np.inf)):
            start = np.ones((2, 21))
            start[k] = bad
            with pytest.raises(gv.SingularJacobian, match="non-finite"):
                gv.newton_solve(start, g, params, deg)


def _two_block_step(op, diagonal, g):
    """The step of the decoupled system factored and solved per component:
    one dpttrf/dpttrs pair on each block's K = diag(m) J, with a pinned
    row's step eliminated from the right-hand side of the row below."""
    steps = []
    for k, rhs in enumerate(g):
        mass = op.mass[k]
        d, e, b = mass * diagonal[k], (mass * op.upper[k])[:-1], mass * rhs
        if op.pinned[k, 0]:
            b[1] -= mass[1] * op.lower[k, 1] * (b[0] / d[0])
        d, e, info = solver.dpttrf(d, e)
        assert info == 0
        x, info = solver.dpttrs(d, e, b)
        assert info == 0
        steps.append(x)
    return np.array(steps)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_nodes=st.integers(3, 60), seed=st.integers(0, 2 ** 32 - 1),
       pinned=st.tuples(st.booleans(), st.booleans()))
def test_one_tridiagonal_step_matches_two_block_steps(n_nodes, seed, pinned):
    # the one dpttrf/dpttrs call on both blocks end to end gives, bit for
    # bit, the step of one call per block: random masses and rows whose
    # K = diag(m) J is strictly diagonally dominant with a positive
    # diagonal, so positive definite, upper[N] = 0 as the operator's rows
    # have, and optionally a pinned origin row 2^e u(0) = 0 of mass 1 and
    # no upper entry above a lower entry in the row below
    rng = np.random.default_rng(seed)
    mass = rng.uniform(0.1, 10.0, (2, n_nodes))
    lower, upper = rng.uniform(-2.0, 2.0, (2, 2, n_nodes))
    lower[:, 0] = upper[:, -1] = 0.0
    for k in np.flatnonzero(pinned):
        mass[k, 0], upper[k, 0] = 1.0, 0.0
    off = np.abs(mass * upper)
    off[:, 1:] += off[:, :-1].copy()
    diagonal = (off + rng.uniform(0.1, 1.0)) * rng.uniform(1.0, 3.0) / mass
    for k in np.flatnonzero(pinned):
        diagonal[k, 0] = 2.0 ** math.frexp(abs(lower[k, 1]))[1]
    op = SimpleNamespace(lower=lower, upper=upper, mass=mass,
                         pinned=np.array(pinned)[:, None] & (
                             np.arange(n_nodes) == 0))
    lu = _BandLU(n_nodes)
    lu.ab[:] = np.nan
    g = rng.standard_normal((2, n_nodes))
    # the system at B = 0 as the factorization reads it: coefficients,
    # rows, diagonal
    rows = SimpleNamespace(
        params=params_of(1, 1, 0, 1, 1), op=op,
        jacobian_diagonal=lambda f, out: np.copyto(out, diagonal))
    lu.factor(rows, None)
    assert lu.factored
    step = lu.solve(g)
    want = _two_block_step(op, diagonal, g)
    assert step.tobytes() == want.tobytes()
    for k in np.flatnonzero(pinned):
        assert step[k, 0] == g[k, 0] / diagonal[k, 0]


@pytest.mark.parametrize("degrees", [(1, 1), (1, 0), (0, 3)])
def test_one_tridiagonal_step_on_a_geometric_grid(degrees):
    # the same on a geometric grid's B = 0 Jacobians along the Newton
    # iterates of a solve from the ansatz, pinned entries exactly g / 2^e
    grid = gv.build_grid(40.0, 900, "geometric", 1.005)
    params, deg = params_of(1.3, 0.8, 0.0, 1.1, 0.9), gv.DegreePair(*degrees)
    sys = _DiscreteSystem(grid, params, deg)
    lu = _BandLU(grid.N + 1)
    f = gv.initial_guess(grid, params, deg)
    for _ in range(4):
        g = sys.residual(f)
        lu.factor(sys, f)
        step = lu.solve(g).copy()
        want = _two_block_step(sys.op, sys.jacobian_diagonal(f), g)
        assert step.tobytes() == want.tobytes()
        pinned = sys.op.pinned
        assert np.array_equal(step[pinned], g[pinned] / sys.op.pot[pinned])
        f = f - step


def test_decoupled_newton_iteration_factors_once(monkeypatch):
    # every Newton iteration at B = 0 makes one dpttrf and one dpttrs call
    # and no band call; the factorization writes d and e into the band
    # buffer, so a B = 0 factor and step allocate no float array of size N
    calls = []

    def spy(name):
        routine = getattr(solver, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)
        return counted

    for name in ("dpttrf", "dpttrs", "dgbtrf", "dgbtrs"):
        monkeypatch.setattr(solver, name, spy(name))
    grid = gv.build_grid(40.0, 1200)
    for degrees in ((1, 0), (1, 1), (2, 3)):
        calls.clear()
        prof = gv.continuation_solve(params_of(1, 1, 0, 1, 1),
                                     gv.DegreePair(*degrees), grid)
        iters, = prof.report.iterations
        assert iters > 0
        assert calls == ["dpttrf", "dpttrs"] * iters
    # at N = 40000 numpy's cast buffers (at most 8192 entries) and the
    # step's finiteness mask stay below one float row of N entries
    big = gv.build_grid(40.0, 40000)
    sys = _DiscreteSystem(big, params_of(1, 1, 0, 1, 1), gv.DegreePair(1, 1))
    f = gv.initial_guess(big, sys.params, sys.degrees)
    g = sys.residual(f)
    lu = _BandLU(big.N + 1)
    assert all(np.shares_memory(row, lu.ab) for row in lu.diagonals)
    lu.factor(sys, f)
    lu.solve(g)
    tracemalloc.start()
    try:
        lu.factor(sys, f)
        lu.solve(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * big.N
    for B in (0.0, 0.5):
        sys = _DiscreteSystem(big, params_of(1, 1, B, 1, 1), sys.degrees)
        lu.factor(sys, f)
        assert lu.factored
    assert lu.ipiv.shape == (2 * big.N + 2,)


@pytest.mark.parametrize("grid", [gv.build_grid(80.0, 4000),
                                  gv.build_grid(80.0, 1500, "geometric",
                                                1.003)],
                         ids=["default", "geometric"])
def test_ansatz_matrix_is_positive_definite(grid):
    # at the ansatz every row's potential n^2/r^2 + A (3 f0^2 - t^2) is at
    # least ln(3) A t^2 on top of a weakly diagonally dominant stencil, so
    # the B = 0 matrix K = diag(m) J factors for every winding 0 ... 30
    params = params_of(1.3, 0.8, 0.0, 1.1, 0.9)
    lu = _BandLU(grid.N + 1)
    for n in range(31):
        deg = gv.DegreePair(n, 30 - n)
        sys = _DiscreteSystem(grid, params, deg)
        lu.factor(sys, gv.initial_guess(grid, params, deg))
        assert lu.factored


@st.composite
def census_inputs(draw):
    """Admissible coefficients with A and t within a decade of 1,
    |B| / sqrt(A_+ A_-) <= 0.99, windings 0-5 and a uniform or geometric
    grid of at most 400 cells."""
    A_plus, A_minus, t_plus, t_minus = (10.0 ** draw(st.floats(-1.0, 1.0))
                                        for _ in range(4))
    B = draw(st.floats(-0.99, 0.99)) * math.sqrt(A_plus * A_minus)
    degrees = gv.DegreePair(draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    N, R_max = draw(st.integers(100, 400)), draw(st.floats(20.0, 80.0))
    stretch = draw(st.sampled_from([None, 1.005, 1.01]))
    grid = gv.build_grid(R_max, N, "geometric" if stretch else "uniform",
                         stretch)
    return params_of(A_plus, A_minus, B, t_plus, t_minus), degrees, grid


@settings(max_examples=60, deadline=None, derandomize=True)
@given(census_inputs())
def test_decoupled_factorizations_succeed_on_admissible_draws(inputs):
    # a census of every B = 0 factorization of a continuation solve: each
    # meets a positive definite matrix, whether or not the solve converges
    # (an ansatz that solves the system, n = 0 for both, factors nothing)
    params, degrees, grid = inputs
    infos = []

    def counted(*args, **kwargs):
        *out, info = factor(*args, **kwargs)
        infos.append(info)
        return (*out, info)

    factor = solver.dpttrf
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "dpttrf", counted)
        try:
            gv.continuation_solve(params, degrees, grid)
        except gv.NoConvergence:
            pass
    assert set(infos) <= {0}


def test_decoupled_stages_factor_no_band(coarse_grid, monkeypatch):
    # at B = 0 the Jacobian is factored as one symmetric tridiagonal
    # system: a classical solve calls no dgbtrf, and in a sweep only the
    # stages at B != 0 do, and only the stage at B = 0 calls dpttrf
    stages, band, tridiagonal = [], [], []
    newton = solver._newton

    def spy_newton(sys, *args):
        stages.append(sys.params.B)
        return newton(sys, *args)

    def spy(calls, factor):
        def counted(*args, **kwargs):
            calls.append(stages[-1])
            return factor(*args, **kwargs)
        return counted

    monkeypatch.setattr(solver, "_newton", spy_newton)
    monkeypatch.setattr(solver, "dgbtrf", spy(band, solver.dgbtrf))
    monkeypatch.setattr(solver, "dpttrf", spy(tridiagonal, solver.dpttrf))
    gv.continuation_solve(params_of(1, 1, 0, 1, 1), gv.DegreePair(1, 0),
                          coarse_grid)
    assert band == [] and set(tridiagonal) == {0.0}
    out = gv.continuation_sweep(params_of(1, 1, 0, 1, 1), gv.DegreePair(1, 1),
                                [0.3, 0.0, -0.3], coarse_grid)
    assert all(isinstance(p, gv.Profile) for p in out)
    assert band and 0.0 not in band
    assert set(tridiagonal) == {0.0}


def test_pinned_origin_values_are_exact(reference_profiles):
    # u(0) = 0 is a pinned row 2^e u(0) = 0 that no LU pivoting moves, so
    # every Newton step keeps it exact
    for prof in reference_profiles.values():
        for n, f in zip((prof.degrees.n_plus, prof.degrees.n_minus),
                        prof.f):
            if n != 0:
                assert f[0] == 0.0


def test_operators_assembled_once_per_solve_and_sweep(monkeypatch):
    # the rows belong to the grid object, counted here on fresh grids (a
    # fixture grid carries rows between tests): a (1, 1) sweep assembles
    # the pair's rows once for all its B and both components and its
    # records none, a (1, 0) solve its pair's rows once, and so does
    # verify of a profile read back from JSON, on a grid of its own
    built = []
    construct = gv.RadialOperator

    def spy(*args, **kwargs):
        built.append(1)
        return construct(*args, **kwargs)

    monkeypatch.setattr("glvortex.grid.RadialOperator", spy)
    params, deg = params_of(1, 1, 0.5, 1, 1), gv.DegreePair(1, 1)
    b_values = [round(-0.9 + 0.1 * k, 12) for k in range(19)]
    out = gv.continuation_sweep(params, deg, b_values,
                                gv.build_grid(40.0, 1200))
    assert all(isinstance(p, gv.Profile) for p in out)
    assert len(built) == 1
    diagnostics.sweep_report(params, deg, b_values, out)
    assert len(built) == 1
    monkeypatch.setattr(solver, "_MAX_NEWTON_ITERS", 4)
    prof = gv.continuation_solve(params_of(1, 4, 1.9, 1, 1),
                                 gv.DegreePair(1, 0),
                                 gv.build_grid(40.0, 1200))
    assert len(prof.report.iterations) > 2      # halved steps
    assert len(built) == 2
    for profile in (out[-1], prof):
        built.clear()
        diagnostics.verify(gv.profile_from_json(gv.profile_to_json(profile)))
        assert len(built) == 1


def _spy_newton(monkeypatch):
    """Record (B, iterations or None on failure) of every Newton run."""
    runs = []
    newton = solver._newton

    def spy(sys, lu, f, options):
        try:
            iters, norm = newton(sys, lu, f, options)
        except (gv.NoConvergence, gv.SingularJacobian) as exc:
            runs.append((sys.params.B, None, exc.iterations))
            raise
        runs.append((sys.params.B, iters, iters))
        return iters, norm

    monkeypatch.setattr(solver, "_newton", spy)
    return runs


def test_failed_step_is_halved_and_converges(coarse_grid, monkeypatch):
    # four Newton iterations do not reach B = 1.9 in one predicted step from
    # B = 0, but do from B = 0.95
    params = params_of(1, 4, 1.9, 1, 1)
    deg = gv.DegreePair(1, 1)
    runs = _spy_newton(monkeypatch)
    monkeypatch.setattr(solver, "_MAX_NEWTON_ITERS", 4)
    prof = gv.continuation_solve(params, deg, coarse_grid)
    assert runs[1][:2] == (1.9, None)      # the full step fails
    converged = [b for b, it, _ in runs if it is not None]
    assert converged[:2] == [0.0, 0.95]
    assert converged[-1] == prof.params.B == 1.9
    assert prof.report.final_residual <= 1e-10
    # one report entry per attempted stage, the failed one included
    assert prof.report.iterations == tuple(n for _, _, n in runs)
    ref = eight_steps(params, deg, coarse_grid)
    assert np.max(np.abs(prof.f[0] - ref.f[0])) <= 1e-9
    assert np.max(np.abs(prof.f[1] - ref.f[1])) <= 1e-9


def test_report_counts_iterations_of_failed_attempts(monkeypatch):
    # the full step stalls in the line search after 20 iterations, the
    # halved steps converge; the report lists all four stages
    A_plus, A_minus = 2.0, 1.0
    params = params_of(A_plus, A_minus, -0.99 * np.sqrt(A_plus * A_minus),
                       1.0, 0.7)
    runs = _spy_newton(monkeypatch)
    prof = gv.continuation_solve(params, gv.DegreePair(5, 1),
                                 gv.build_grid(80.0, 4000))
    assert prof.report.iterations == (5, 20, 4, 9)
    assert [it for _, it, _ in runs] == [5, None, 4, 9]
    assert sum(prof.report.iterations) == sum(n for _, _, n in runs) == 38


def test_sweep_failure_restarts_its_chain(coarse_grid, monkeypatch):
    # every stage at B = 0.2 fails, so the leg to 0.2 fails after its
    # halvings; the chain goes on from the B = 0 profile and tangent, which
    # is exactly a fresh sweep, and the negative chain is untouched
    params = params_of(1, 1, 0, 1, 1)
    deg = gv.DegreePair(1, 1)
    newton = solver._newton

    def fail_at(sys, lu, f, options):
        if sys.params.B == 0.2:
            raise gv.NoConvergence("forced")
        return newton(sys, lu, f, options)

    monkeypatch.setattr(solver, "_newton", fail_at)
    b_values = [0.4, 0.1, -0.1, 0.2, 0.3]
    out = gv.continuation_sweep(params, deg, b_values, coarse_grid)
    monkeypatch.setattr(solver, "_newton", newton)
    assert isinstance(out[3], gv.NoConvergence)
    assert out[3].B_value == 0.2
    fresh = gv.continuation_sweep(params, deg, [0.3, 0.4], coarse_grid)
    for got, want in ((out[4], fresh[0]), (out[0], fresh[1])):
        assert np.array_equal(got.f, want.f)
    for i in (0, 1, 2, 4):
        ref = gv.continuation_solve(params_of(1, 1, b_values[i], 1, 1), deg,
                                    coarse_grid)
        assert out[i].params.B == b_values[i]
        assert np.max(np.abs(out[i].f - ref.f)) <= 1e-8


def test_sweep_profiles_share_no_memory(coarse_grid, monkeypatch):
    # each stage solves in place on a state array of its own, which its
    # profile takes over: no two profiles of a sweep share memory, none
    # shares the solve buffers, and each profile holds after the later
    # stages, failed ones included, the arrays it was made with
    made, buffers = {}, []
    profile, band_lu = solver._profile, solver._BandLU

    def spy_profile(*args):
        out = profile(*args)
        made[id(out.f)] = out.f.copy()
        return out

    def spy_lu(n_nodes):
        buffers.append(band_lu(n_nodes))
        return buffers[-1]

    monkeypatch.setattr(solver, "_profile", spy_profile)
    monkeypatch.setattr(solver, "_BandLU", spy_lu)
    runs = _spy_newton(monkeypatch)
    monkeypatch.setattr(solver, "_MAX_NEWTON_ITERS", 4)
    out = gv.continuation_sweep(params_of(1, 4, 0, 1, 1), gv.DegreePair(1, 1),
                                [1.9, -0.5, 0.0, 1.2], coarse_grid)
    assert all(isinstance(p, gv.Profile) for p in out)
    assert (1.9, None) in [run[:2] for run in runs]     # a halved step
    (lu,) = buffers
    arrays = [p.f for p in out]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:] + [lu.ab, lu.rhs]:
            assert not np.shares_memory(a, b)
    for p in out:
        assert p.f.tobytes() == made[id(p.f)].tobytes()


@pytest.mark.parametrize("b_values", [[0.3, 0.3, 0.0, 0.0],
                                      [0.2, -0.1, 0.2 + 1e-13]])
def test_sweep_refuses_repeated_values(b_values, coarse_grid, monkeypatch):
    # a repeat would share its profile's arrays with the first one and
    # report no iterations; values merging at 12 decimals count as repeats,
    # as the sweep config's rule has them
    runs = _spy_newton(monkeypatch)
    with pytest.raises(ValueError, match="coincide"):
        gv.continuation_sweep(params_of(1, 1, 0.5, 1, 1), gv.DegreePair(1, 1),
                              b_values, coarse_grid)
    assert runs == []


def test_empty_sweep_solves_nothing(coarse_grid, monkeypatch):
    # no values: no band buffer is allocated and no B = 0 solve runs
    buffers = []
    monkeypatch.setattr(solver, "_BandLU",
                        lambda n_nodes: buffers.append(n_nodes))
    runs = _spy_newton(monkeypatch)
    assert gv.continuation_sweep(params_of(1, 1, 0.5, 1, 1),
                                 gv.DegreePair(1, 1), [], coarse_grid) == []
    assert (buffers, runs) == ([], [])


def test_profile_state_is_one_two_row_array(coarse_grid):
    # every way to a Profile gives f as one C-contiguous float64 (2, N+1)
    # array, row 0 f_plus and row 1 f_minus
    params, deg = params_of(1, 1, 0.5, 1, 1), gv.DegreePair(1, 1)
    solved = gv.continuation_solve(params, deg, coarse_grid)
    swept = gv.continuation_sweep(params, deg, [-0.2, 0.0, 0.3], coarse_grid)
    loaded = gv.profile_from_json(gv.profile_to_json(solved))
    # written before the state became one array: its rows are its lists
    path = Path(__file__).parent / "data" / "slope_row_bpos_n200.json"
    old = gv.profile_from_json(path.read_text())
    for prof in (solved, *swept, loaded, old):
        assert isinstance(prof, gv.Profile)
        assert prof.f.shape == (2, prof.grid.N + 1)
        assert prof.f.dtype == np.float64
        assert prof.f.flags.c_contiguous
    obj = json.loads(path.read_text())
    for row, key in zip(old.f, ("f_plus", "f_minus")):
        assert row.tobytes() == np.array(obj[key], dtype=float).tobytes()
        assert row.tolist() == obj[key]


def test_sweep_failure_at_zero_interaction_is_every_entry(coarse_grid,
                                                         monkeypatch):
    monkeypatch.setattr(solver, "_MAX_NEWTON_ITERS", 3)
    out = gv.continuation_sweep(params_of(1, 4, 0, 1, 1), gv.DegreePair(1, 1),
                                [0.5, -0.5, 0.0], coarse_grid)
    assert all(isinstance(r, gv.NoConvergence) for r in out)
    assert out[0] is out[1] is out[2] and out[0].B_value == 0.0


def test_failure_at_zero_interaction_is_not_retried(coarse_grid, monkeypatch):
    built = []

    class Counting(_DiscreteSystem):
        def __init__(self, grid, params, *args):
            built.append(params.B)
            super().__init__(grid, params, *args)

    monkeypatch.setattr(solver, "_DiscreteSystem", Counting)
    monkeypatch.setattr(solver, "_MAX_NEWTON_ITERS", 3)
    with pytest.raises(gv.NoConvergence) as info:
        gv.continuation_solve(params_of(1, 4, 1.9, 1, 1), gv.DegreePair(1, 1),
                              coarse_grid)
    assert info.value.B_value == 0.0
    assert built == [0.0]
    assert len(info.value.history) == 4


@pytest.mark.parametrize("error", [gv.NoConvergence, gv.SingularJacobian])
def test_step_halving_is_capped(coarse_grid, monkeypatch, error):
    tried = []
    newton = solver._newton

    def fail_off_zero(sys, lu, f, options):
        if sys.params.B != 0.0:
            tried.append(sys.params.B)
            raise error("forced")
        return newton(sys, lu, f, options)

    monkeypatch.setattr(solver, "_newton", fail_off_zero)
    with pytest.raises(error) as info:
        gv.continuation_solve(params_of(1, 1, 0.5, 1, 1), gv.DegreePair(1, 1),
                              coarse_grid)
    assert tried == [0.5 / 2 ** k for k in range(solver._MAX_HALVINGS + 1)]
    assert info.value.B_value == tried[-1]


@pytest.mark.parametrize("error", [gv.NoConvergence, gv.SingularJacobian])
def test_failures_leave_no_reference_cycles(coarse_grid, monkeypatch, error):
    # a raised or returned failure must not pin the frames of the failed
    # solve, and with them its buffers, until the cycle collector runs
    newton = solver._newton

    def fail_above(sys, lu, f, options):
        if sys.params.B > 0.3:
            raise error("forced")
        return newton(sys, lu, f, options)

    monkeypatch.setattr(solver, "_newton", fail_above)
    params, deg = params_of(1, 1, 0.5, 1, 1), gv.DegreePair(1, 1)
    caught = []
    gc.collect()
    gc.disable()
    try:
        for iters in (1, solver._MAX_NEWTON_ITERS):
            monkeypatch.setattr(solver, "_MAX_NEWTON_ITERS", iters)
            try:
                gv.continuation_solve(params, deg, coarse_grid)
            except (gv.NoConvergence, gv.SingularJacobian) as exc:
                caught.append(type(exc))
        out = gv.continuation_sweep(params, deg, [0.5, 0.2, -0.2],
                                    coarse_grid)
        caught.append(type(out[0]))
        del out
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert caught == [gv.NoConvergence, error, error]


@pytest.mark.parametrize("B, degrees", [(0.5, (1, 1)), (0.0, (1, 0))])
def test_stalled_line_search_stops_once_the_iterate_is_unmoved(B, degrees,
                                                               monkeypatch):
    # a tolerance under the roundoff floor stalls the line search; once a
    # halved step leaves the iterate unchanged bit for bit, every shorter
    # one does too, so stopping there gives the failure of halving down to
    # the smallest step, from fewer residual evaluations
    grid = gv.build_grid(20.0, 200)
    params, deg = params_of(1, 1, B, 1, 1), gv.DegreePair(*degrees)
    evals = []
    residual = _DiscreteSystem.residual

    def counted(self, *args):
        evals.append(1)
        return residual(self, *args)

    monkeypatch.setattr(_DiscreteSystem, "residual", counted)
    failures = []
    for _ in range(2):
        evals.clear()
        with pytest.raises(gv.NoConvergence,
                           match="line search stalled") as info:
            gv.newton_solve(gv.initial_guess(grid, params, deg), grid,
                            params, deg, SolveOptions(tolerance=1e-16))
        failures.append((info.value, len(evals)))
        # the unmoved test is np.array_equal, which nothing else in the
        # solve calls
        monkeypatch.setattr(solver.np, "array_equal", lambda *args: False)
    (early, early_evals), (late, late_evals) = failures
    assert str(early) == str(late)
    assert early.history == late.history
    assert early.f.tobytes() == late.f.tobytes()
    assert early_evals < late_evals


def test_positivity_failure_carries_history():
    # from a negative constant start Newton converges to the negative
    # constant state, which the positivity check rejects
    g = gv.build_grid(30.0, 300)
    start = np.full((2, 301), -0.8)
    with pytest.raises(gv.NoConvergence, match="positivity") as info:
        gv.newton_solve(start, g, params_of(1, 1, 0.5, 1, 1),
                        gv.DegreePair(0, 0))
    history = info.value.history
    assert len(history) >= 2
    assert history[-1] <= 1e-10 < history[0]
    assert np.all(info.value.f[0] < 0)


@st.composite
def admissible_params(draw):
    """Admissible coefficients up to |B| = 0.99 sqrt(A+ A-)."""
    A_plus = draw(st.floats(0.2, 4.0))
    A_minus = draw(st.floats(0.2, 4.0))
    B = draw(st.floats(-0.99, 0.99)) * np.sqrt(A_plus * A_minus)
    return gv.CouplingParams(A_plus, A_minus, B, draw(st.floats(0.3, 2.0)),
                             draw(st.floats(0.3, 2.0)))


@st.composite
def admissible_cases(draw):
    """Admissible coefficients, windings 0-5, and a uniform grid of at most
    600 nodes."""
    params = draw(admissible_params())
    degrees = gv.DegreePair(draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    grid = gv.build_grid(draw(st.floats(10.0, 40.0)),
                         draw(st.integers(100, 600)))
    return params, degrees, grid


def _solve_or_none(params, degrees, grid, options):
    try:
        return gv.continuation_solve(params, degrees, grid, options)
    except (gv.NoConvergence, gv.SingularJacobian):
        return None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=admissible_cases())
def test_predicted_step_matches_eight_steps(case):
    # the positive solution is unique on the admissible set, so the default
    # predicted step and eight equal steps reach the same profile
    one = _solve_or_none(*case, SolveOptions())
    eight = eight_steps(*case)
    assert (one is None) == (eight is None)
    if one is not None:
        assert np.max(np.abs(one.f[0] - eight.f[0])) <= 1e-8
        assert np.max(np.abs(one.f[1] - eight.f[1])) <= 1e-8


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=admissible_cases())
def test_amplitude_bound_holds_on_admissible_solves(case):
    # the maximum principle bounds every positive solution of the discrete
    # rows, the far row included, however coarse the grid
    prof = gv.continuation_solve(*case)
    assert gv.amplitude_bound_check(prof) >= -1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=admissible_cases(),
       ratios=st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=4))
def test_sweep_matches_one_solve_per_value(case, ratios):
    params, degrees, grid = case
    b_values = [r * np.sqrt(params.A_plus * params.A_minus) for r in ratios]
    # repeated values are refused (test_sweep_refuses_repeated_values)
    assume(len({round(b, 12) for b in b_values}) == len(b_values))
    swept = gv.continuation_sweep(params, degrees, b_values, grid)
    assert len(swept) == len(b_values)
    for b, got in zip(b_values, swept):
        want = _solve_or_none(replace(params, B=b), degrees, grid,
                              SolveOptions())
        assert isinstance(got, gv.Profile) == (want is not None)
        if want is not None:
            assert got.params.B == b
            assert np.max(np.abs(got.f[0] - want.f[0])) <= 1e-8
            assert np.max(np.abs(got.f[1] - want.f[1])) <= 1e-8


@settings(max_examples=100, deadline=None, derandomize=True)
@given(start=admissible_params(), target=admissible_params(),
       degrees=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       R_max=st.floats(5.0, 2000.0), seed=st.integers(0, 2 ** 32 - 1))
def test_system_on_cached_rows_matches_a_fresh_grid(start, target, degrees,
                                                    R_max, seed):
    # a system on rows its grid already holds (from a system at `start`)
    # gives, bit for bit, the system on a fresh grid of the same spec; the
    # two grids share no rows, and shared rows are read-only
    grid, fresh = gv.build_grid(R_max, 64), gv.build_grid(R_max, 64)
    deg = gv.DegreePair(*degrees)
    first = _DiscreteSystem(grid, start, deg)
    sys = _DiscreteSystem(grid, target, deg)
    new = _DiscreteSystem(fresh, target, deg)
    f = np.random.default_rng(seed).uniform(0.0, 2.0, (2, 65))
    for got, want in zip(
            (sys.residual(f), sys.residual_dB(f), sys.jacobian_banded(f)),
            (new.residual(f), new.residual_dB(f), new.jacobian_banded(f))):
        assert got.tobytes() == want.tobytes()
    assert sys.op is first.op
    # the stack's rows are the per-winding rows, row k for component k
    for k, n in enumerate(degrees):
        single = gv.radial_operator(grid, (n,))
        for rows in ("lower", "upper", "pot", "rhs", "pinned", "diag"):
            assert (getattr(sys.op, rows)[k].tobytes()
                    == getattr(single, rows)[0].tobytes())
    for op, other in ((sys.op, new.op), *(
            (gv.radial_operator(grid, (n,)),
             gv.radial_operator(fresh, (n,)))
            for n in degrees)):
        for rows in ("lower", "upper", "pot", "rhs", "pinned", "diag"):
            assert not np.shares_memory(getattr(op, rows),
                                        getattr(other, rows))
            with pytest.raises(ValueError, match="read-only"):
                getattr(op, rows)[-1] = 0


def test_sup_norm_propagates_a_nan_from_either_component():
    # Python's max drops a NaN that is not its first argument
    assert np.isnan(solver._sup_norm(np.array([[1.0], [np.nan]])))
    assert np.isnan(solver._sup_norm(np.array([[np.nan], [1.0]])))
    assert solver._sup_norm(np.array([[-3.0, 1.0], [2.0, 0.0]])) == 3.0

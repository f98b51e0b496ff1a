import gc
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import solve_banded

import glvortex as gv
from glvortex import diagnostics, solver
from glvortex.solver import SolveOptions, _BandLU, _DiscreteSystem
from oracles import scalar_gl_profile, uniqueness_probe


def params_of(*vals):
    return gv.CouplingParams(*vals)


def eight_steps(params, degrees, grid):
    """The profile at params.B reached through eight equal B-steps, or None
    if any step fails."""
    path = gv.continuation_sweep(params, degrees,
                                 [params.B * k / 8 for k in range(1, 9)], grid)
    return None if any(isinstance(p, Exception) for p in path) else path[-1]


def test_initial_guess_shapes():
    g = gv.build_grid(20.0, 100)
    fp, fm = gv.initial_guess(g, params_of(1, 1, 0, 1, 1), gv.DegreePair(0, 0))
    assert np.all(fp == 1.0) and np.all(fm == 1.0)

    fp, _ = gv.initial_guess(g, params_of(1, 1, 0, 1, 1), gv.DegreePair(1, 0))
    i = np.argmin(np.abs(g.nodes - 1.0))
    assert fp[i] == pytest.approx(1 / np.sqrt(2), rel=1e-12)
    assert fp[0] == 0.0
    assert fp[-1] == pytest.approx(1.0, abs=5e-3)


def test_residual_zero_for_constant_states():
    g = gv.build_grid(30.0, 400)
    params = params_of(1.5, 0.8, 0.3, 1.1, 0.9)
    deg = gv.DegreePair(0, 0)
    sys = _DiscreteSystem(g, params, deg)
    t_state = (np.full(401, params.t_plus), np.full(401, params.t_minus))
    gp, gm = sys.residual(*t_state)
    assert np.max(np.abs(gp)) == 0.0
    assert np.max(np.abs(gm)) == 0.0
    # the zero function also solves the discrete system when degrees vanish
    gp, gm = sys.residual(np.zeros(401), np.zeros(401))
    assert np.max(np.abs(gp)) == 0.0
    assert np.max(np.abs(gm)) == 0.0


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
    gp, gm = sys.residual(fp, fm)
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
    ab = sys.jacobian_banded(fp, fm)
    n = 2 * 97
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - 2), min(n, i + 3)):
            dense[i, j] = ab[2 + i - j, j]

    h = 1e-6
    for _ in range(20):
        vp = rng.normal(size=97)
        vm = rng.normal(size=97)
        gp1, gm1 = sys.residual(fp + h * vp, fm + h * vm)
        gp0, gm0 = sys.residual(fp - h * vp, fm - h * vm)
        fd = np.empty(194)
        fd[0::2] = (gp1 - gp0) / (2 * h)
        fd[1::2] = (gm1 - gm0) / (2 * h)
        v = np.empty(194)
        v[0::2] = vp
        v[1::2] = vm
        jv = dense @ v
        assert np.max(np.abs(jv - fd)) <= 1e-6 * max(1.0, np.max(np.abs(jv)))


def test_jacobian_decouples_at_zero_interaction():
    g = gv.build_grid(20.0, 64)
    sys = _DiscreteSystem(g, params_of(1, 1, 0, 1, 1), gv.DegreePair(1, 1))
    fp, fm = gv.initial_guess(g, params_of(1, 1, 0, 1, 1), gv.DegreePair(1, 1))
    ab = sys.jacobian_banded(fp, fm)
    assert np.max(np.abs(ab[1, 1::2])) == 0.0  # plus-row cross entries
    assert np.max(np.abs(ab[3, 0::2])) == 0.0  # minus-row cross entries


def test_jacobian_blocks_at_constant_state():
    g = gv.build_grid(20.0, 64)
    params = params_of(1.3, 0.9, 0.5, 1.1, 0.8)
    sys = _DiscreteSystem(g, params, gv.DegreePair(0, 0))
    fp = np.full(65, params.t_plus)
    fm = np.full(65, params.t_minus)
    ab = sys.jacobian_banded(fp, fm)
    i = 30  # interior node: potential blocks on top of the stencil diagonal
    lap_diag = sys.ops[0].diag[i]
    assert ab[2, 2 * i] == pytest.approx(
        lap_diag + 2 * params.A_plus * params.t_plus ** 2, rel=1e-13)
    assert ab[1, 2 * i + 1] == pytest.approx(
        2 * params.B * params.t_plus * params.t_minus, rel=1e-13)


def test_newton_zero_degrees_immediate():
    g = gv.build_grid(30.0, 300)
    params = params_of(1, 1, 0.5, 1, 1)
    fp, fm = gv.initial_guess(g, params, gv.DegreePair(0, 0))
    prof = gv.newton_solve(fp, fm, g, params, gv.DegreePair(0, 0))
    assert prof.report.iterations[0] <= 1
    assert np.array_equal(prof.f_plus, np.ones(301))
    assert np.array_equal(prof.f_minus, np.ones(301))


def test_newton_converges_from_ansatz_within_ten_iterations(default_grid):
    params = params_of(1, 1, 0, 1, 1)
    deg = gv.DegreePair(1, 1)
    fp, fm = gv.initial_guess(default_grid, params, deg)
    prof = gv.newton_solve(fp, fm, default_grid, params, deg)
    assert prof.report.iterations[0] <= 10
    assert prof.report.final_residual <= 1e-10


def test_decoupled_solve_matches_scalar_oracle():
    grid = gv.build_grid(40.0, 6400)
    params = params_of(1, 1, 0, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 0), grid)
    oracle = scalar_gl_profile(1.0, 1.0, 1, grid.nodes)
    assert np.max(np.abs(prof.f_plus - oracle)) < 1e-6
    assert np.max(np.abs(prof.f_minus - 1.0)) < 1e-12


def test_continuation_single_step_at_zero_interaction(coarse_grid):
    params = params_of(1, 1, 0, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 1), coarse_grid)
    assert len(prof.report.iterations) == 1


def test_continuation_matches_direct_solve(coarse_grid):
    params = params_of(1, 1, 0.5, 1, 1)
    deg = gv.DegreePair(1, 1)
    cont = gv.continuation_solve(params, deg, coarse_grid)
    fp, fm = gv.initial_guess(coarse_grid, params, deg)
    direct = gv.newton_solve(fp, fm, coarse_grid, params, deg)
    assert np.max(np.abs(cont.f_plus - direct.f_plus)) < 1e-9
    assert np.max(np.abs(cont.f_minus - direct.f_minus)) < 1e-9


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
    assert np.max(np.abs(path[-1].f_plus - prof.f_plus)) <= 1e-9
    assert np.max(np.abs(path[-1].f_minus - prof.f_minus)) <= 1e-9


def test_amplitude_bound_holds_on_converged_profiles(coarse_grid):
    for vals, deg in [((1, 1, 0.5, 1, 1), (1, 1)),
                      ((1, 4, 1.5, 1, 1), (1, 1)),
                      ((2, 1, 0.8, 1, 0.7), (1, 1))]:
        params = params_of(*vals)
        prof = gv.continuation_solve(params, gv.DegreePair(*deg), coarse_grid)
        bound = gv.derived_bounds(params).Lambda_sq
        assert np.max(prof.f_plus ** 2 + prof.f_minus ** 2) <= bound + 1e-8


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
    d_coarse = np.max(np.abs(sols[500].f_plus - sols[1000].f_plus[::2]))
    d_fine = np.max(np.abs(sols[1000].f_plus - sols[2000].f_plus[::2]))
    assert d_coarse / d_fine == pytest.approx(4.0, rel=0.15)


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


def test_no_convergence_carries_diagnostics():
    g = gv.build_grid(30.0, 300)
    params = params_of(1, 1, 0.5, 1, 1)
    deg = gv.DegreePair(1, 1)
    fp, fm = gv.initial_guess(g, params, deg)
    opts = SolveOptions(max_newton_iters=1, tolerance=1e-12)
    with pytest.raises(gv.NoConvergence) as info:
        gv.newton_solve(fp, fm, g, params, deg, opts)
    exc = info.value
    assert exc.f_plus is not None and len(exc.history) >= 1
    assert exc.history[-1] > 1e-12


def test_solve_options_validation():
    # values as a JSON config can spell them: booleans, strings and
    # fractions are not numbers or counts
    for bad in ({"tolerance": 0.0}, {"tolerance": True},
                {"tolerance": "1e-10"}, {"tolerance": float("inf")},
                {"max_newton_iters": 2.5}, {"max_newton_iters": -1},
                {"max_newton_iters": True}):
        with pytest.raises(ValueError):
            SolveOptions(**bad)
    # the backtracking factor is fixed, a leg first tries one step, and the
    # far row is the slope row
    for gone in ({"damping": 0.5}, {"continuation_steps": 1},
                 {"far_field": "robin"}):
        with pytest.raises(TypeError):
            SolveOptions(**gone)
    assert SolveOptions(tolerance=1, max_newton_iters=0).tolerance == 1


def test_profile_json_roundtrip(coarse_grid):
    params = params_of(1, 1, 0.5, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 1), coarse_grid)
    text = gv.profile_to_json(prof)
    back = gv.profile_from_json(text)
    assert np.array_equal(back.f_plus, prof.f_plus)
    assert np.array_equal(back.f_minus, prof.f_minus)
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
                      degrees=gv.DegreePair(1, 1), f_plus=f_plus,
                      f_minus=f_minus,
                      report=gv.SolveReport((3, 2), 4.5e-13, 1e-10, 0.25))


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
    back = gv.profile_from_json(text)
    for a, b in ((back.f_plus, prof.f_plus), (back.f_minus, prof.f_minus)):
        assert a.tobytes() == b.tobytes()
    assert back.report == prof.report and back.params == prof.params
    # strict JSON that the stdlib reads to the same values
    obj = json.loads(text, parse_constant=_refuse_constant)
    for key in ("f_plus", "f_minus"):
        assert np.array(obj[key]).tobytes() == getattr(prof, key).tobytes()
    # the stdlib's own text form (", " separators, 1e-05 exponents) loads to
    # the same profile, which serializes to the same text
    legacy = gv.profile_from_json(json.dumps(obj))
    assert legacy.f_plus.tobytes() == prof.f_plus.tobytes()
    assert legacy.f_minus.tobytes() == prof.f_minus.tobytes()
    assert gv.profile_to_json(legacy) == text


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_profile_json_refuses_non_finite_numbers(bad):
    ok = np.ones(17)
    hole = ok.copy()
    hole[5] = bad
    prof = _small_profile(ok, ok)
    gv.profile_to_json(prof)
    grid = prof.grid
    for broken in (replace(prof, f_plus=hole), replace(prof, f_minus=hole),
                   replace(prof, report=replace(prof.report,
                                                final_residual=bad)),
                   replace(prof, report=replace(prof.report, wall_time=bad)),
                   replace(prof, params=replace(prof.params, t_plus=np.inf)),
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
    assert np.array_equal(back.f_plus, prof.f_plus)
    assert np.array_equal(back.f_minus, prof.f_minus)


def test_profile_json_rejects_mismatched_arrays(coarse_grid):
    params = params_of(1, 1, 0.5, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 1), coarse_grid)
    obj = json.loads(gv.profile_to_json(prof))
    obj["f_plus"] = obj["f_plus"][:-1]
    with pytest.raises(ValueError):
        gv.profile_from_json(json.dumps(obj))


def test_warm_start_keeps_positivity_check(coarse_grid):
    # converged profiles are nonnegative without ever being projected
    params = params_of(1, 4, 1.5, 1, 1)
    prof = gv.continuation_solve(params, gv.DegreePair(1, 1), coarse_grid)
    assert float(np.min(prof.f_plus)) >= -1e-9
    assert float(np.min(prof.f_minus)) >= -1e-9


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
    interp = np.interp(geo.nodes, uni.nodes, prof_uni.f_plus)
    assert np.max(np.abs(prof_geo.f_plus - interp)) < 5e-4
    assert gv.quantization_check(prof_geo).relative_gap < 0.01


@pytest.mark.parametrize("degrees", [(1, 1), (1, 0), (0, 1)])
@pytest.mark.parametrize("kind", ["uniform", "geometric"])
def test_band_lu_step_matches_solve_banded(degrees, kind):
    # the in-place dgbtrf/dgbtrs step against scipy's solve_banded on the
    # same Jacobians; the buffers start as NaN and are reused over several
    # iterates, as in a solve, so every band entry must be rewritten.  A
    # pinned row is an identity row, so its entry is the rhs's exactly,
    # where the pivoted reference carries roundoff
    if kind == "uniform":
        grid = gv.build_grid(30.0, 400)
    else:
        grid = gv.build_grid(30.0, 300, "geometric", 1.01)
    params = params_of(1.3, 0.8, 0.6, 1.1, 0.9)
    deg = gv.DegreePair(*degrees)
    sys = _DiscreteSystem(grid, params, deg)
    pinned = np.column_stack([op.pinned for op in sys.ops]).ravel()
    assert pinned.any()
    lu = _BandLU(grid.N + 1)
    lu.ab[:] = np.nan
    lu.rhs[:] = np.nan
    rng = np.random.default_rng(11)
    fp, fm = gv.initial_guess(grid, params, deg)
    for _ in range(3):
        fp = fp * (1.0 + 0.2 * rng.random(fp.shape))
        fm = fm * (1.0 + 0.2 * rng.random(fm.shape))
        gp, gm = sys.residual(fp, fm)
        lu.factor(sys, fp, fm)
        step = lu.solve(gp, gm)
        rhs = np.empty(2 * (grid.N + 1))
        rhs[0::2] = gp
        rhs[1::2] = gm
        ref = solve_banded((2, 2), sys.jacobian_banded(fp, fm), rhs)
        assert np.array_equal(step[pinned], rhs[pinned])
        assert (np.max(np.abs(step - ref)[~pinned])
                <= 1e-13 * np.max(np.abs(ref)))


def test_band_lu_failures_raise_singular_jacobian():
    g = gv.build_grid(10.0, 20)
    params = params_of(1, 1, 0, 1, 1)
    deg = gv.DegreePair(1, 1)
    sys = _DiscreteSystem(g, params, deg)
    assemble = sys.jacobian_banded

    def zero_column(f_plus, f_minus, out):
        assemble(f_plus, f_minus, out)
        out[:, 5] = 0.0     # the whole of matrix column 5

    sys.jacobian_banded = zero_column
    lu = _BandLU(g.N + 1)
    with pytest.raises(gv.SingularJacobian, match="zero pivot"):
        lu.factor(sys, np.ones(21), np.ones(21))
    assert lu.ipiv is None
    # a NaN start gives a non-finite Newton step
    nan = np.full(21, np.nan)
    with pytest.raises(gv.SingularJacobian, match="non-finite"):
        gv.newton_solve(nan, nan, g, params, deg)


def test_pinned_origin_values_are_exact(reference_profiles):
    # u(0) = 0 is an identity row of J, so every Newton step keeps it exact
    for prof in reference_profiles.values():
        for n, f in ((prof.degrees.n_plus, prof.f_plus),
                     (prof.degrees.n_minus, prof.f_minus)):
            if n != 0:
                assert f[0] == 0.0


def test_operators_assembled_once_per_solve_and_sweep(monkeypatch):
    # the rows belong to the grid object, counted here on fresh grids (a
    # fixture grid carries rows between tests): a (1, 1) sweep assembles
    # one operator for all its B and both components and its records none,
    # a (1, 0) solve two, and verify of a profile read back from JSON, on
    # a grid of its own, one per distinct winding
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
    prof = gv.continuation_solve(params_of(1, 4, 1.9, 1, 1),
                                 gv.DegreePair(1, 0),
                                 gv.build_grid(40.0, 1200),
                                 SolveOptions(max_newton_iters=4))
    assert len(prof.report.iterations) > 2      # halved steps
    assert len(built) == 3
    for profile, windings in ((out[-1], 1), (prof, 2)):
        built.clear()
        diagnostics.verify(gv.profile_from_json(gv.profile_to_json(profile)))
        assert len(built) == windings


def _spy_newton(monkeypatch):
    """Record (B, iterations or None on failure) of every Newton run."""
    runs = []
    newton = solver._newton

    def spy(sys, lu, f_plus, f_minus, options):
        try:
            iters, norm = newton(sys, lu, f_plus, f_minus, options)
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
    prof = gv.continuation_solve(params, deg, coarse_grid,
                                 SolveOptions(max_newton_iters=4))
    assert runs[1][:2] == (1.9, None)      # the full step fails
    converged = [b for b, it, _ in runs if it is not None]
    assert converged[:2] == [0.0, 0.95]
    assert converged[-1] == prof.params.B == 1.9
    assert prof.report.final_residual <= 1e-10
    # one report entry per attempted stage, the failed one included
    assert prof.report.iterations == tuple(n for _, _, n in runs)
    ref = eight_steps(params, deg, coarse_grid)
    assert np.max(np.abs(prof.f_plus - ref.f_plus)) <= 1e-9
    assert np.max(np.abs(prof.f_minus - ref.f_minus)) <= 1e-9


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

    def fail_at(sys, lu, f_plus, f_minus, options):
        if sys.params.B == 0.2:
            raise gv.NoConvergence("forced")
        return newton(sys, lu, f_plus, f_minus, options)

    monkeypatch.setattr(solver, "_newton", fail_at)
    b_values = [0.4, 0.1, -0.1, 0.2, 0.3]
    out = gv.continuation_sweep(params, deg, b_values, coarse_grid)
    monkeypatch.setattr(solver, "_newton", newton)
    assert isinstance(out[3], gv.NoConvergence)
    assert out[3].B_value == 0.2
    fresh = gv.continuation_sweep(params, deg, [0.3, 0.4], coarse_grid)
    for got, want in ((out[4], fresh[0]), (out[0], fresh[1])):
        assert np.array_equal(got.f_plus, want.f_plus)
        assert np.array_equal(got.f_minus, want.f_minus)
    for i in (0, 1, 2, 4):
        ref = gv.continuation_solve(params_of(1, 1, b_values[i], 1, 1), deg,
                                    coarse_grid)
        assert out[i].params.B == b_values[i]
        assert np.max(np.abs(out[i].f_plus - ref.f_plus)) <= 1e-8
        assert np.max(np.abs(out[i].f_minus - ref.f_minus)) <= 1e-8


def test_sweep_failure_at_zero_interaction_is_every_entry(coarse_grid):
    out = gv.continuation_sweep(params_of(1, 4, 0, 1, 1), gv.DegreePair(1, 1),
                                [0.5, -0.5, 0.0], coarse_grid,
                                SolveOptions(max_newton_iters=3))
    assert all(isinstance(r, gv.NoConvergence) for r in out)
    assert out[0] is out[1] is out[2] and out[0].B_value == 0.0


def test_failure_at_zero_interaction_is_not_retried(coarse_grid, monkeypatch):
    built = []

    class Counting(_DiscreteSystem):
        def __init__(self, grid, params, *args):
            built.append(params.B)
            super().__init__(grid, params, *args)

    monkeypatch.setattr(solver, "_DiscreteSystem", Counting)
    with pytest.raises(gv.NoConvergence) as info:
        gv.continuation_solve(params_of(1, 4, 1.9, 1, 1), gv.DegreePair(1, 1),
                              coarse_grid, SolveOptions(max_newton_iters=3))
    assert info.value.B_value == 0.0
    assert built == [0.0]
    assert len(info.value.history) == 4


@pytest.mark.parametrize("error", [gv.NoConvergence, gv.SingularJacobian])
def test_step_halving_is_capped(coarse_grid, monkeypatch, error):
    tried = []
    newton = solver._newton

    def fail_off_zero(sys, lu, f_plus, f_minus, options):
        if sys.params.B != 0.0:
            tried.append(sys.params.B)
            raise error("forced")
        return newton(sys, lu, f_plus, f_minus, options)

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

    def fail_above(sys, lu, f_plus, f_minus, options):
        if sys.params.B > 0.3:
            raise error("forced")
        return newton(sys, lu, f_plus, f_minus, options)

    monkeypatch.setattr(solver, "_newton", fail_above)
    params, deg = params_of(1, 1, 0.5, 1, 1), gv.DegreePair(1, 1)
    caught = []
    gc.collect()
    gc.disable()
    try:
        for options in (SolveOptions(), SolveOptions(max_newton_iters=1)):
            try:
                gv.continuation_solve(params, deg, coarse_grid, options)
            except (gv.NoConvergence, gv.SingularJacobian) as exc:
                caught.append(type(exc))
        out = gv.continuation_sweep(params, deg, [0.5, 0.2, -0.2],
                                    coarse_grid)
        caught.append(type(out[0]))
        del out
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert caught == [error, gv.NoConvergence, error]


def test_positivity_failure_carries_history():
    # from a negative constant start Newton converges to the negative
    # constant state, which the positivity check rejects
    g = gv.build_grid(30.0, 300)
    start = np.full(301, -0.8)
    with pytest.raises(gv.NoConvergence, match="positivity") as info:
        gv.newton_solve(start, start, g, params_of(1, 1, 0.5, 1, 1),
                        gv.DegreePair(0, 0))
    history = info.value.history
    assert len(history) >= 2
    assert history[-1] <= 1e-10 < history[0]
    assert np.all(info.value.f_plus < 0)


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
        assert np.max(np.abs(one.f_plus - eight.f_plus)) <= 1e-8
        assert np.max(np.abs(one.f_minus - eight.f_minus)) <= 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=admissible_cases(),
       ratios=st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=4))
def test_sweep_matches_one_solve_per_value(case, ratios):
    params, degrees, grid = case
    b_values = [r * np.sqrt(params.A_plus * params.A_minus) for r in ratios]
    swept = gv.continuation_sweep(params, degrees, b_values, grid)
    assert len(swept) == len(b_values)
    for b, got in zip(b_values, swept):
        want = _solve_or_none(replace(params, B=b), degrees, grid,
                              SolveOptions())
        assert isinstance(got, gv.Profile) == (want is not None)
        if want is not None:
            assert got.params.B == b
            assert np.max(np.abs(got.f_plus - want.f_plus)) <= 1e-8
            assert np.max(np.abs(got.f_minus - want.f_minus)) <= 1e-8


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
    fp, fm = np.random.default_rng(seed).uniform(0.0, 2.0, (2, 65))
    for got, want in zip(
            (*sys.residual(fp, fm), *sys.residual_dB(fp, fm),
             sys.jacobian_banded(fp, fm)),
            (*new.residual(fp, fm), *new.residual_dB(fp, fm),
             new.jacobian_banded(fp, fm))):
        assert got.tobytes() == want.tobytes()
    assert all(a is b for a, b in zip(sys.ops, first.ops))
    assert (sys.ops[0] is sys.ops[1]) == (deg.n_plus == deg.n_minus)
    for op, other in zip(sys.ops, new.ops):
        for rows in ("lower", "upper", "pot", "rhs", "pinned", "diag"):
            assert not np.shares_memory(getattr(op, rows),
                                        getattr(other, rows))
            with pytest.raises(ValueError, match="read-only"):
                getattr(op, rows)[-1] = 0

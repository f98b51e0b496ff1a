import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import glvortex as gv
import oracles
from glvortex import asymptotics
from glvortex.asymptotics import (_defect_cubics, envelope_check,
                                  leading_coeffs_exact, second_coeffs_exact,
                                  select_envelope, tail_fit)
from glvortex.solver import Profile, SolveReport
from conftest import case_inputs


def random_rational_params(rng, with_degrees=True):
    """A coupling set satisfying the strict hypothesis, all entries rational."""
    A_plus = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 12)))
    A_minus = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 12)))
    bound = (A_plus * A_minus)
    while True:
        B = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 12)))
        if B * B < bound:
            break
    t_plus = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 8)))
    t_minus = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 8)))
    params = gv.CouplingParams(A_plus, A_minus, B, t_plus, t_minus)
    if not with_degrees:
        return params
    degrees = gv.DegreePair(int(rng.integers(0, 4)), int(rng.integers(0, 4)))
    return params, degrees


def synthetic_profile(grid, params, degrees, tail):
    r = np.maximum(grid.nodes, 1e-9)
    fp = params.t_plus + tail.a_plus / r ** 2 + tail.b_plus / r ** 4
    fm = params.t_minus + tail.a_minus / r ** 2 + tail.b_minus / r ** 4
    report = SolveReport(iterations=(0,), final_residual=0.0, tolerance=1e-10,
                         wall_time=0.0)
    return Profile(grid=grid, params=params, degrees=degrees, f_plus=fp,
                   f_minus=fm, report=report)


# ---------------------------------------------------------------------------
# closed forms


def test_leading_coeffs_examples():
    p = gv.CouplingParams(1, 1, 0, 1, 1)
    t = gv.leading_coeffs(p, gv.DegreePair(1, 1))
    assert (t.a_plus, t.a_minus) == (-0.5, -0.5)
    t = gv.leading_coeffs(p, gv.DegreePair(1, 0))
    assert (t.a_plus, t.a_minus) == (-0.5, 0.0)
    a_plus, a_minus = leading_coeffs_exact(gv.CouplingParams(1, 4, 1.5, 1, 1),
                                           gv.DegreePair(1, 1))
    assert a_plus == Fraction(-5, 7)
    assert a_minus == Fraction(1, 7)


def test_second_coeffs_decoupled_reduction():
    p = gv.CouplingParams(1, 1, 0, 1, 1)
    t = gv.second_coeffs(p, gv.DegreePair(1, 0))
    assert t.b_plus == pytest.approx(-9 / 8)
    assert t.b_minus == 0.0
    t = gv.second_coeffs(p, gv.DegreePair(2, 0))
    assert t.b_plus == pytest.approx(-6.0)
    # general decoupled scaling: b = -(8n^2+n^4)/(8 A^2 t^3)
    p = gv.CouplingParams(2, 3, 0, 1.5, 0.5)
    t = gv.second_coeffs(p, gv.DegreePair(1, 2))
    assert t.b_plus == pytest.approx(-9 / (8 * 4 * 1.5 ** 3))
    assert t.b_minus == pytest.approx(-48 / (8 * 9 * 0.5 ** 3))


def test_degrees_zero_tail_vanishes():
    rng = np.random.default_rng(2)
    for _ in range(10):
        params = random_rational_params(rng, with_degrees=False)
        t = gv.second_coeffs(params, gv.DegreePair(0, 0))
        assert t.a_plus == t.a_minus == t.b_plus == t.b_minus == 0.0


def test_tail_coefficients_satisfy_the_equations_symbolically():
    # substitute t + a/r^2 + b/r^4 into the coupled system with sympy and
    # check the r^-2 and r^-4 coefficients cancel identically
    sympy = pytest.importorskip("sympy")
    r = sympy.symbols("r", positive=True)
    rng = np.random.default_rng(9)
    for _ in range(5):
        params, degrees = random_rational_params(rng)
        a = leading_coeffs_exact(params, degrees)
        b = second_coeffs_exact(params, degrees)
        vals = [sympy.Rational(x.numerator, x.denominator)
                for x in (*a, *b)]
        tp, tm = (sympy.Rational(params.t_plus.numerator,
                                 params.t_plus.denominator),
                  sympy.Rational(params.t_minus.numerator,
                                 params.t_minus.denominator))
        Ap = sympy.Rational(params.A_plus.numerator, params.A_plus.denominator)
        Am = sympy.Rational(params.A_minus.numerator,
                            params.A_minus.denominator)
        B = sympy.Rational(params.B.numerator, params.B.denominator)
        fp = tp + vals[0] / r ** 2 + vals[2] / r ** 4
        fm = tm + vals[1] / r ** 2 + vals[3] / r ** 4
        lhs_p = (-sympy.diff(fp, r, 2) - sympy.diff(fp, r) / r
                 + degrees.n_plus ** 2 / r ** 2 * fp
                 + (Ap * (fp ** 2 - tp ** 2) + B * (fm ** 2 - tm ** 2)) * fp)
        lhs_m = (-sympy.diff(fm, r, 2) - sympy.diff(fm, r) / r
                 + degrees.n_minus ** 2 / r ** 2 * fm
                 + (Am * (fm ** 2 - tm ** 2) + B * (fp ** 2 - tp ** 2)) * fm)
        for lhs in (lhs_p, lhs_m):
            # lhs is a Laurent polynomial in r with powers -18..-2; scale it
            # up and read the r^-2 and r^-4 coefficients off the polynomial
            poly = sympy.Poly(sympy.expand(lhs * r ** 18), r)
            assert poly.coeff_monomial(r ** 16) == 0
            assert poly.coeff_monomial(r ** 14) == 0
            assert poly.degree() <= 16


def test_leading_sign_rule():
    rng = np.random.default_rng(21)
    for _ in range(60):
        params, degrees = random_rational_params(rng)
        a_plus, a_minus = leading_coeffs_exact(params, degrees)
        np2, nm2 = degrees.n_plus ** 2, degrees.n_minus ** 2
        assert (a_plus > 0) == (params.B * nm2 > params.A_minus * np2)
        assert (a_minus > 0) == (params.B * np2 > params.A_plus * nm2)


# ---------------------------------------------------------------------------
# defect series


def expand_defect_series(params, degrees, a, b, c, R):
    """The package's defect series of w = t + a/r^2 + b/r^4 + c R^6/r^6."""
    R = Fraction(R)
    return tuple(cubics.series(R ** 6, R)
                 for cubics in _defect_cubics(params, degrees, a, b, c))


def test_series_vanishing_orders_exact():
    rng = np.random.default_rng(33)
    for _ in range(20):
        params, degrees = random_rational_params(rng)
        a = leading_coeffs_exact(params, degrees)
        b = second_coeffs_exact(params, degrees)
        c = (Fraction(1, 3), Fraction(-2, 7))
        ser_p, ser_m = expand_defect_series(params, degrees, a, b, c, 4)
        assert ser_p.coefficients[:2] == (0, 0)
        assert ser_m.coefficients[:2] == (0, 0)
        assert isinstance(ser_p.coefficients[2], Fraction)


def test_series_zero_for_exact_constant():
    params = gv.CouplingParams(1, 2, Fraction(1, 2), 1, 3)
    degrees = gv.DegreePair(0, 0)
    zero = (Fraction(0), Fraction(0))
    ser_p, ser_m = expand_defect_series(params, degrees, zero, zero, zero, 8)
    assert all(c == 0 for c in ser_p.coefficients)
    assert all(c == 0 for c in ser_m.coefficients)


def test_series_leading_term_approaches_envelope_value():
    # M_6 -> +-2 delta t as R grows, at rate R^-6
    params = gv.CouplingParams(1, 1, Fraction(1, 2), 1, 1)
    degrees = gv.DegreePair(1, 1)
    a = leading_coeffs_exact(params, degrees)
    b = second_coeffs_exact(params, degrees)
    delta = Fraction(1, 4)
    c = (delta * 2, delta * -2)  # Step-1 amplitudes for these parameters
    gaps = []
    for R in (100, 1000):
        ser_p, ser_m = expand_defect_series(params, degrees, a, b, c, R)
        gaps.append((abs(ser_p.coefficients[2] - 2 * delta),
                     abs(ser_m.coefficients[2] + 2 * delta)))
    for i in range(2):
        assert float(gaps[0][i]) < 1e-8
        assert gaps[1][i] * 10 ** 6 == pytest.approx(float(gaps[0][i]),
                                                     rel=1e-6)


SPARSE_POLY = [Fraction(1, 8), Fraction(-9, 4096), Fraction(0),
               Fraction(3, 256), Fraction(0), Fraction(0), Fraction(1, 4096)]


def test_sturm_count_against_numpy_roots():
    # sparse polynomial that once tripped the remainder reduction
    assert oracles.sturm_roots_open_unit(SPARSE_POLY) == 0

    rng = np.random.default_rng(12)
    for _ in range(200):
        deg = int(rng.integers(2, 8))
        coeffs = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                  for _ in range(deg + 1)]
        if not any(coeffs) or coeffs[-1] == 0:
            continue
        p0 = sum(float(c) for c in coeffs)
        p1 = float(coeffs[0])
        if p1 == 0 or p0 == 0:
            continue
        roots = np.roots([float(c) for c in reversed(coeffs)])
        real = roots[np.abs(roots.imag) < 1e-9].real
        inside = real[(real > 1e-9) & (real < 1 - 1e-9)]
        # skip clustered roots that float root-finding cannot certify
        if len(inside) and np.min(np.abs(np.subtract.outer(
                inside, inside) + np.eye(len(inside)))) < 1e-6:
            continue
        assert oracles.sturm_roots_open_unit(coeffs) == len(np.unique(
            np.round(inside, 9)))


def from_roots(roots, lead=Fraction(1)):
    """Ascending coefficients of lead * prod (s - root)."""
    p = [Fraction(lead)]
    for root in roots:
        p = [(p[i - 1] if i else 0) - root * (p[i] if i < len(p) else 0)
             for i in range(len(p) + 1)]
    return p


def test_sturm_chain_known_roots():
    third, half = Fraction(1, 3), Fraction(1, 2)
    known = [  # (polynomial, distinct roots in (0, 1))
        (SPARSE_POLY, 0),
        (from_roots([third, third, half]), 2),
        (from_roots([Fraction(1, 4)] * 3, lead=-7), 1),
        (from_roots([third, third, 2 * third, 2 * third, -1]), 2),
        (from_roots([Fraction(1, 5), Fraction(1, 5), 3, 3, Fraction(7, 8)]), 2),
        (from_roots([Fraction(-1, 2), Fraction(3, 2)] * 2), 0),
        ([Fraction(1), Fraction(-1), Fraction(1)], 0),    # s^2 - s + 1
    ]
    for p, count in known:
        assert oracles.sturm_roots_open_unit(p) == count

    # products with repeated rational factors: the count is known exactly
    rng = np.random.default_rng(17)
    for _ in range(150):
        roots = [Fraction(int(rng.integers(-3, 12)), int(rng.integers(1, 9)))
                 for _ in range(int(rng.integers(1, 4)))]
        chosen = [roots[int(rng.integers(0, len(roots)))]
                  for _ in range(int(rng.integers(2, 7)))]
        if 0 in chosen or 1 in chosen:
            continue
        p = from_roots(chosen, lead=int(rng.integers(1, 5)
                                        * rng.choice([-1, 1])))
        assert oracles.sturm_roots_open_unit(p) == len(
            {root for root in chosen if 0 < root < 1})


def test_m6_dominance_fixes_the_series_sign():
    # the package's certificate: with M_2 = M_4 = 0, the dominance bounds
    # leave the whole series the sign of M_6 on (0, 1], which the oracle's
    # Sturm chain confirms, also with every bound attained
    rng = np.random.default_rng(5)
    for trial in range(300):
        m6 = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 9)))
        m6 *= int(rng.choice([-1, 1]))
        series = [Fraction(0), Fraction(0), m6]
        for k in range(4, 10):
            bound = abs(m6) / (5 if k in (6, 9) else 20)
            frac = (1 if trial % 3 == 0
                    else Fraction(int(rng.integers(0, 101)), 100))
            series.append(bound * frac * int(rng.choice([-1, 1])))
        assert asymptotics._m6_dominates(series)
        sign = 1 if m6 > 0 else -1
        assert oracles.series_sign_definite(series, sign)
        assert not oracles.series_sign_definite(series, -sign)


def test_sign_definiteness_checker():
    def series(*coeffs):
        out = [Fraction(0)] * 9
        for k, v in enumerate(coeffs):
            out[k] = Fraction(v)
        return out

    definite = oracles.series_sign_definite
    assert definite(series(0, 0, 1, 1), +1)       # s^3(1+s)
    assert not definite(series(0, 0, 1, 1), -1)
    assert not definite(series(0, 0, 1, -1), +1)  # root at s=1
    assert not definite(series(0, 0, 1, -2), +1)  # crosses inside
    assert definite(series(0, 0, -1, Fraction(1, 2)), -1)
    assert definite(series(), +1)                 # zero series
    assert definite(series(), -1)
    # no real roots in (0,1): s^2 - s + 1 scaled into the tail slots
    assert definite(series(0, 1, -1, 1), +1)


# ---------------------------------------------------------------------------
# envelope selection and checking


def test_envelope_base_amplitudes():
    spec = select_envelope(gv.CouplingParams(1, 1, 0.5, 1, 1),
                           gv.DegreePair(1, 1))
    assert (spec.kappa_plus, spec.kappa_minus) == pytest.approx((2.0, 2.0))
    assert spec.envelope_c("minus", "upper") == spec.delta * 2.0
    assert spec.envelope_c("minus", "lower") == -spec.delta * 2.0
    assert [br for br, _ in spec.series] == ["upper_plus_lower_minus",
                                             "lower_plus_upper_minus"]
    spec = select_envelope(gv.CouplingParams(1, 1, -0.5, 1, 1),
                           gv.DegreePair(1, 1))
    assert (spec.kappa_plus, spec.kappa_minus) == pytest.approx((2.0, 2.0))
    assert [br for br, _ in spec.series] == ["upper_both", "lower_both"]
    spec = select_envelope(gv.CouplingParams(1, 4, 1.5, 1, 2),
                           gv.DegreePair(1, 1))
    # (A_mp + B) / ((A_+ A_- - B^2) t_pm) for B >= 0
    assert (spec.kappa_plus, spec.kappa_minus) == pytest.approx(
        (5.5 / 1.75, 2.5 / 3.5))


def test_envelope_contains_profile(reference_profiles):
    for name in ("bpos", "bneg"):
        prof = reference_profiles[name]
        spec = select_envelope(prof.params, prof.degrees)
        chk = envelope_check(prof, spec)
        assert chk.passed, (name, chk)
        assert chk.worst_margin >= 0


def test_envelope_boundary_ordering(reference_profiles):
    prof = reference_profiles["bpos"]
    spec = select_envelope(prof.params, prof.degrees)
    r = prof.grid.nodes
    beyond = r >= spec.R
    bounds = gv.envelope_bounds(spec, prof.params, prof.degrees,
                                np.array([spec.R]))
    for comp, f in (("plus", prof.f_plus), ("minus", prof.f_minus)):
        lower_at_R, upper_at_R = (side[0] for side in bounds[comp])
        assert upper_at_R > np.max(f[beyond])
        assert lower_at_R < f[beyond][0]


def test_envelope_bounds_float64_for_fraction_params():
    # exact dyadic parameters: the same numbers as floats, so the same bounds
    exact = gv.CouplingParams(1, 2, Fraction(1, 2), 1, Fraction(3, 4))
    floats = gv.CouplingParams(1.0, 2.0, 0.5, 1.0, 0.75)
    degrees = gv.DegreePair(1, 1)
    r = np.linspace(8.0, 40.0, 9)
    got = gv.envelope_bounds(select_envelope(exact, degrees), exact, degrees, r)
    want = gv.envelope_bounds(select_envelope(floats, degrees), floats,
                              degrees, r)
    for comp in ("plus", "minus"):
        for g, w in zip(got[comp], want[comp]):
            assert g.dtype == np.float64
            assert np.array_equal(g, w)


def test_envelope_check_fails_on_corrupted_spec(reference_profiles):
    prof = reference_profiles["bpos"]
    spec = select_envelope(prof.params, prof.degrees)
    bad = dataclasses.replace(spec, kappa_plus=-spec.kappa_plus,
                              kappa_minus=-spec.kappa_minus)
    chk = envelope_check(prof, bad)
    assert not chk.passed
    assert chk.worst_margin < 0


def test_envelope_decoupled_case_both_families(reference_profiles):
    # at zero interaction both branches certify at one candidate and the
    # envelopes sandwich
    prof = reference_profiles["classical"]
    for br in ("upper_plus_lower_minus", "lower_plus_upper_minus"):
        assert oracles.verify_envelope_pair(prof.params, prof.degrees,
                                            Fraction(1, 16), 32, br)
    spec = select_envelope(prof.params, prof.degrees, (32,),
                           (Fraction(1, 16),))
    assert envelope_check(prof, spec).passed
    spec = select_envelope(prof.params, prof.degrees)
    assert envelope_check(prof, spec).passed


def test_selection_failed_when_budget_exhausted():
    p = gv.CouplingParams(1, 1, 0.5, 1, 1)
    with pytest.raises(gv.SelectionFailed):
        select_envelope(p, gv.DegreePair(1, 1), r_candidates=(2,),
                        delta_candidates=(Fraction(1, 2),))


def test_candidate_decisions_match_oracle_per_branch():
    # rejections too, not only the first certified pair: the package's
    # decision at one candidate is the oracle's Sturm-based decision on
    # every branch of the family
    decisions = set()
    for name in ("bpos", "bneg"):
        params, degrees = case_inputs(name)
        branches = [br for br, _, _ in
                    oracles.BRANCHES[oracles.envelope_family(params)]]
        for R in (8, 32):
            for k in range(1, 7):
                delta = Fraction(1, 2 ** k)
                want = all(oracles.verify_envelope_pair(params, degrees,
                                                        delta, R, br)
                           for br in branches)
                try:
                    select_envelope(params, degrees, (R,), (delta,))
                    got = True
                except gv.SelectionFailed:
                    got = False
                assert got == want, (name, R, k)
                decisions.add(got)
    assert decisions == {True, False}


@pytest.mark.parametrize("order", [0, 1])
def test_selection_fails_when_a_tail_coefficient_is_off(monkeypatch, order):
    # a or b off by 1/1000 leaves M_2 or M_4 nonzero: no candidate may pass,
    # although the same budget certifies the exact closed forms
    params, degrees = case_inputs("bpos")
    budget = ((32,), (Fraction(1, 32),))
    select_envelope(params, degrees, *budget)
    exact = (leading_coeffs_exact, second_coeffs_exact)[order]

    def off(*args):
        plus, minus = exact(*args)
        return plus + Fraction(1, 1000), minus
    monkeypatch.setattr(asymptotics, exact.__name__, off)
    with pytest.raises(gv.SelectionFailed, match="inconsistent"):
        select_envelope(params, degrees, *budget)
    with pytest.raises(gv.SelectionFailed):
        select_envelope(params, degrees)


POSITIVE = st.one_of(st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)),
                     st.floats(0.1, 10.0))


@st.composite
def admissible_inputs(draw):
    """A+-, t+- > 0 rational or float, B / sqrt(A+ A-) in [-0.99, 0.99],
    windings 0..5."""
    Ap, Am, tp, tm = (draw(POSITIVE) for _ in range(4))
    ratio = Fraction(draw(st.integers(-99, 99)), 100)
    if isinstance(Ap * Am, Fraction):
        B = ratio * Fraction(math.sqrt(Ap * Am)).limit_denominator(100)
    else:
        B = float(ratio) * math.sqrt(Ap * Am)
    assume(B * B < Ap * Am)
    degrees = gv.DegreePair(draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    return gv.CouplingParams(Ap, Am, B, tp, tm), degrees


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=admissible_inputs())
def test_select_envelope_matches_oracle(case):
    params, degrees = case
    try:
        want = oracles.select_envelope(params, degrees)
    except gv.SelectionFailed:
        with pytest.raises(gv.SelectionFailed):
            select_envelope(params, degrees)
        return
    spec = select_envelope(params, degrees)
    assert (spec.delta, spec.R, spec.kappa_plus, spec.kappa_minus) == want
    # the certified series are the full expansion at the chosen pair
    kp, km = oracles.envelope_amplitudes(params)
    signs = {br: (sp, sm) for fam in oracles.BRANCHES.values()
             for br, sp, sm in fam}
    delta = Fraction(spec.delta)
    a = leading_coeffs_exact(params, degrees)
    b = second_coeffs_exact(params, degrees)
    assert len(spec.series) == 2
    for branch, (plus, minus) in spec.series:
        sp, sm = signs[branch]
        assert (plus.coefficients, minus.coefficients) == oracles.defect_series(
            params, degrees, a, b, (sp * delta * kp, sm * delta * km), spec.R)


# ---------------------------------------------------------------------------
# tail fitting


def test_tail_fit_exact_on_synthetic_data():
    grid = gv.build_grid(80.0, 2000)
    params = gv.CouplingParams(1, 1, 0.5, 1, 1)
    degrees = gv.DegreePair(1, 1)
    tail = gv.TailExpansion(a_plus=-0.4, a_minus=-0.3, b_plus=2.0,
                            b_minus=-1.5)
    prof = synthetic_profile(grid, params, degrees, tail)
    fit = tail_fit(prof, (20.0, 60.0))
    assert fit.a_plus == pytest.approx(tail.a_plus, abs=1e-10)
    assert fit.a_minus == pytest.approx(tail.a_minus, abs=1e-10)
    assert fit.b_plus == pytest.approx(tail.b_plus, abs=1e-8)
    assert fit.b_minus == pytest.approx(tail.b_minus, abs=1e-8)
    # the C_1 estimate multiplies float roundoff by r^6; tiny means < 1e-4
    assert fit.c1_plus < 1e-4 and fit.c1_minus < 1e-4


def test_tail_fit_recovers_closed_forms(reference_profiles):
    prof = reference_profiles["classical"]
    fit = tail_fit(prof, (20.0, 60.0))
    assert fit.a_plus == pytest.approx(-0.5, rel=0.01)
    assert fit.b_plus == pytest.approx(-1.125, rel=0.05)
    assert abs(fit.a_minus) < 1e-6
    assert abs(fit.b_minus) < 1e-3


def test_tail_fit_random_parameters_match_closed_forms():
    rng = np.random.default_rng(4)
    grid = gv.build_grid(60.0, 1500)
    for _ in range(2):
        A_plus, A_minus = rng.uniform(0.8, 2.0, 2)
        B = rng.uniform(-0.6, 0.6) * math.sqrt(A_plus * A_minus)
        params = gv.CouplingParams(A_plus, A_minus, B, 1.0, 1.0)
        degrees = gv.DegreePair(1, 1)
        prof = gv.continuation_solve(params, degrees, grid)
        fit = tail_fit(prof, (15.0, 45.0))
        closed = gv.second_coeffs(params, degrees)
        assert fit.a_plus == pytest.approx(closed.a_plus, rel=0.01)
        assert fit.a_minus == pytest.approx(closed.a_minus, rel=0.01)


def test_tail_fit_window_validation(reference_profiles):
    prof = reference_profiles["classical"]
    with pytest.raises(gv.IllConditionedFit, match="nodes"):
        tail_fit(prof, (60.0, 60.2))
    with pytest.raises(gv.IllConditionedFit, match="beyond"):
        tail_fit(prof, (20.0, 100.0))
    with pytest.raises(gv.IllConditionedFit, match="close in"):
        tail_fit(prof, (0.5, 30.0))


def test_derivative_tail_check_window_validation(reference_profiles):
    # the same window rules as tail_fit: no silent clipping at R_max
    prof = reference_profiles["classical"]
    with pytest.raises(gv.IllConditionedFit, match="beyond"):
        oracles.derivative_tail_check(prof, (20.0, 100.0))
    with pytest.raises(gv.IllConditionedFit, match="nodes"):
        oracles.derivative_tail_check(prof, (60.0, 60.2))
    assert (oracles.derivative_tail_check(prof)
            == oracles.derivative_tail_check(prof, (20.0, 60.0)))


def test_derivative_tail_check_synthetic():
    grid = gv.build_grid(80.0, 2000)
    params = gv.CouplingParams(1, 1, 0, 1, 1)
    degrees = gv.DegreePair(1, 0)
    closed = gv.second_coeffs(params, degrees)
    prof = synthetic_profile(grid, params, degrees, closed)
    c2p, c2m = oracles.derivative_tail_check(prof, (20.0, 60.0))
    # d/dr of b/r^4 is -4b/r^5, so the empirical constant sits near 4|b|
    assert c2p == pytest.approx(4 * abs(closed.b_plus), rel=0.05)
    assert c2m < 1e-4  # a flat component, up to r^5-amplified roundoff


def test_derivative_tail_on_solved_profile(reference_profiles):
    prof = reference_profiles["classical"]
    r = prof.grid.nodes
    df = np.gradient(prof.f_plus, r, edge_order=2)
    i = int(np.argmin(np.abs(r - 40.0)))
    assert df[i] * r[i] ** 3 == pytest.approx(1.0, rel=0.02)  # -2 a_plus
    c2p, c2m = oracles.derivative_tail_check(prof)
    assert np.isfinite(c2p) and np.isfinite(c2m)


def test_derivative_tail_zero_degrees():
    grid = gv.build_grid(80.0, 2000)
    params = gv.CouplingParams(1, 1, 0.5, 1, 1)
    degrees = gv.DegreePair(0, 0)
    prof = synthetic_profile(grid, params, degrees,
                             gv.TailExpansion(0.0, 0.0, 0.0, 0.0))
    c2p, c2m = oracles.derivative_tail_check(prof)
    assert c2p < 1e-6 and c2m < 1e-6  # flat profiles, roundoff only

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import glvortex as gv
import oracles
from glvortex import asymptotics
from glvortex.asymptotics import (_defect_cubics, envelope_check,
                                  select_envelope, tail_fit)
from glvortex.solver import Profile, SolveReport
from conftest import case_inputs, package_certifies, run_cli


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
    assert gv.leading_coeffs(p, gv.DegreePair(1, 1)) == (-0.5, -0.5)
    assert gv.leading_coeffs(p, gv.DegreePair(1, 0)) == (-0.5, 0.0)
    (a_plus, a_minus), _ = oracles.closed_form_tail(
        gv.CouplingParams(1, 4, 1.5, 1, 1), gv.DegreePair(1, 1))
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
        a, b = oracles.closed_form_tail(params, degrees)
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
        (a_plus, a_minus), _ = oracles.closed_form_tail(params, degrees)
        np2, nm2 = degrees.n_plus ** 2, degrees.n_minus ** 2
        assert (a_plus > 0) == (params.B * nm2 > params.A_minus * np2)
        assert (a_minus > 0) == (params.B * np2 > params.A_plus * nm2)


# ---------------------------------------------------------------------------
# defect series


def expand_defect_series(params, degrees, a, b, c, R):
    """The package's defect series of w = t + a/r^2 + b/r^4 + c R^6/r^6."""
    R = Fraction(R)
    return tuple(cubics.series(R ** 6, R)
                 for cubics in _defect_cubics(oracles.exact_inputs(params),
                                              degrees, (*a, *b), c))


def test_series_vanishing_orders_exact():
    rng = np.random.default_rng(33)
    for _ in range(20):
        params, degrees = random_rational_params(rng)
        a, b = oracles.closed_form_tail(params, degrees)
        c = (Fraction(1, 3), Fraction(-2, 7))
        ser_p, ser_m = expand_defect_series(params, degrees, a, b, c, 4)
        assert ser_p[:2] == (0, 0)
        assert ser_m[:2] == (0, 0)
        assert isinstance(ser_p[2], Fraction)


def test_series_zero_for_exact_constant():
    params = gv.CouplingParams(1, 2, Fraction(1, 2), 1, 3)
    degrees = gv.DegreePair(0, 0)
    zero = (Fraction(0), Fraction(0))
    ser_p, ser_m = expand_defect_series(params, degrees, zero, zero, zero, 8)
    assert all(c == 0 for c in ser_p)
    assert all(c == 0 for c in ser_m)


def test_series_leading_term_approaches_envelope_value():
    # M_6 -> +-2 delta t as R grows, at rate R^-6
    params = gv.CouplingParams(1, 1, Fraction(1, 2), 1, 1)
    degrees = gv.DegreePair(1, 1)
    a, b = oracles.closed_form_tail(params, degrees)
    delta = Fraction(1, 4)
    c = (delta * 2, delta * -2)  # Step-1 amplitudes for these parameters
    gaps = []
    for R in (100, 1000):
        ser_p, ser_m = expand_defect_series(params, degrees, a, b, c, R)
        gaps.append((abs(ser_p[2] - 2 * delta),
                     abs(ser_m[2] + 2 * delta)))
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
        margin = envelope_check(prof, spec)
        assert margin >= 0, (name, margin)


def test_envelope_boundary_ordering(reference_profiles):
    prof = reference_profiles["bpos"]
    spec = select_envelope(prof.params, prof.degrees)
    r = prof.grid.nodes
    beyond = r >= spec.R
    bounds = gv.envelope_bounds(spec, np.array([spec.R]))
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
    got = gv.envelope_bounds(select_envelope(exact, degrees), r)
    want = gv.envelope_bounds(select_envelope(floats, degrees), r)
    for comp in ("plus", "minus"):
        for g, w in zip(got[comp], want[comp]):
            assert g.dtype == np.float64
            assert np.array_equal(g, w)


def test_envelope_check_fails_on_corrupted_spec(reference_profiles):
    prof = reference_profiles["bpos"]
    spec = select_envelope(prof.params, prof.degrees)
    bad = dataclasses.replace(spec, kappa_plus=-spec.kappa_plus,
                              kappa_minus=-spec.kappa_minus)
    assert envelope_check(prof, bad) < 0


def test_envelope_decoupled_case_both_families(reference_profiles):
    # at zero interaction both branches certify at one hand-picked pair,
    # (1/16, 32), and the envelopes sandwich there as at the selected pair
    prof = reference_profiles["classical"]
    for br in ("upper_plus_lower_minus", "lower_plus_upper_minus"):
        assert oracles.verify_envelope_pair(prof.params, prof.degrees,
                                            Fraction(1, 16), 32, br)
    spec = select_envelope(prof.params, prof.degrees)
    assert envelope_check(prof, spec) >= 0
    by_hand = dataclasses.replace(spec, delta=1 / 16, R=32.0, series=())
    assert envelope_check(prof, by_hand) >= 0


def test_candidate_decisions_match_oracle_per_branch():
    # rejections too, not only the selected pair: the package's exact
    # decision at one (delta, R) is the oracle's Sturm-based decision on
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
                got = package_certifies(params, degrees, delta * R ** 6, R)
                assert got == want, (name, R, k)
                decisions.add(got)
    assert decisions == {True, False}


@pytest.mark.parametrize("order", [0, 1])
def test_selection_fails_when_a_tail_coefficient_is_off(monkeypatch, order):
    # a or b off by 1/1000 leaves M_2 or M_4 nonzero: selection refuses the
    # expansion as inconsistent, although it certifies the exact closed forms
    params, degrees = case_inputs("bpos")
    select_envelope(params, degrees)
    exact = asymptotics.second_coeffs_exact

    def off(*args):                 # a_plus (order 0) or b_plus (order 1)
        tail = list(exact(*args))
        tail[2 * order] += Fraction(1, 1000)
        return tuple(tail)
    monkeypatch.setattr(asymptotics, "second_coeffs_exact", off)
    with pytest.raises(gv.SelectionFailed, match="inconsistent"):
        select_envelope(params, degrees)


def test_envelope_sandwich_near_the_hypothesis_boundary(default_grid):
    # at B = 0.9 the smallest certified radius lies between 64 and
    # R_max = 80, and the solved profile lies inside that sandwich
    params = gv.CouplingParams(1.0, 1.0, 0.9, 1.0, 1.0)
    degrees = gv.DegreePair(1, 0)
    assert 64 < select_envelope(params, degrees).R < 80
    prof = gv.continuation_solve(params, degrees, default_grid)
    checks = {c["check"]: c for c in gv.verify(prof)}
    assert checks["envelope_sandwich"]["pass"], checks["envelope_sandwich"]


POSITIVE = st.one_of(st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)),
                     st.floats(0.1, 10.0))


# non-dyadic floats and rationals with odd denominators: inputs whose exact
# values carry long denominators through the expansion
NON_DYADIC = st.one_of(
    st.sampled_from([0.1, 0.7]),
    st.builds(Fraction, st.integers(1, 40), st.integers(0, 6).map(
        lambda k: 2 * k + 1)),
    st.floats(0.1, 10.0))


@st.composite
def admissible_inputs(draw, positive=POSITIVE):
    """A+-, t+- > 0 rational or float, B / sqrt(A+ A-) in [-0.99, 0.99],
    windings 0..5."""
    Ap, Am, tp, tm = (draw(positive) for _ in range(4))
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
    # selection never fails on the admissible set; the oracle's Sturm chain
    # proves the selected (delta, R) on both branches of the family, and the
    # package's exact certificate rejects the same u = delta R^6 at R - 1
    params, degrees = case
    spec = select_envelope(params, degrees)
    delta, R = Fraction(spec.delta), int(spec.R)
    assert R == spec.R >= 1 and delta > 0
    for br, _, _ in oracles.BRANCHES[oracles.envelope_family(params)]:
        assert oracles.verify_envelope_pair(params, degrees, delta, R, br)
    assert not package_certifies(params, degrees, delta * R ** 6, R - 1)
    kp, km = oracles.envelope_amplitudes(params)
    assert (spec.kappa_plus, spec.kappa_minus) == (float(kp), float(km))
    # the certified series are the full expansion at the chosen pair
    signs = {br: (sp, sm) for fam in oracles.BRANCHES.values()
             for br, sp, sm in fam}
    a, b = oracles.closed_form_tail(params, degrees)
    assert len(spec.series) == 2
    for branch, (plus, minus) in spec.series:
        sp, sm = signs[branch]
        assert (plus, minus) == oracles.defect_series(
            params, degrees, a, b, (sp * delta * kp, sm * delta * km), spec.R)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=admissible_inputs(NON_DYADIC),
       u=st.fractions(-1000, 1000, max_denominator=99),
       R=st.fractions(1, 300, max_denominator=9))
@example(case=case_inputs("asym"), u=Fraction(7, 3), R=Fraction(41))
@example(case=(gv.CouplingParams(Fraction(5, 3), 0.7, Fraction(-5, 7), 0.1,
                                 Fraction(11, 9)), gv.DegreePair(0, 5)),
         u=Fraction(-2, 5), R=Fraction(13, 3))
def test_envelope_tables_match_the_oracle_expansion(case, u, R):
    # the package's integer tables, read as series at any (u, R), are the
    # oracle's Fraction expansion on both branches of the family; the
    # second branch's tables are the first's read at -u, so this pins that
    # mirror for either sign of B
    params, degrees = case
    tail, kappa, tables = asymptotics._envelope_tables(params, degrees)
    kp, km = oracles.envelope_amplitudes(params)
    assert kappa == (kp, km)
    a, b = oracles.closed_form_tail(params, degrees)
    assert tail == (*a, *b)
    family = oracles.BRANCHES[oracles.envelope_family(params)]
    assert list(tables) == [br for br, _, _ in family]
    for br, sp, sm in family:
        (plus, req_plus), (minus, req_minus) = tables[br]
        assert (req_plus, req_minus) == (sp, sm)
        for cubics in (plus, minus):        # reduced, as over the rationals
            assert cubics.den > 0
            assert math.gcd(cubics.den, *sum(cubics.num, ())) == 1
        delta = u / R ** 6
        want = oracles.defect_series(params, degrees, a, b,
                                     (sp * delta * kp, sm * delta * km), R)
        got = tuple(cubics.series(u, R) for cubics in (plus, minus))
        assert got == want


def test_one_defect_expansion_per_selection(monkeypatch):
    # both branches come from one expansion, and reading the certified
    # series expands nothing again
    calls = []
    expand = asymptotics._defect_cubics

    def counted(*args):
        calls.append(args)
        return expand(*args)
    monkeypatch.setattr(asymptotics, "_defect_cubics", counted)
    for name in ("bpos", "bneg", "asym"):
        spec = select_envelope(*case_inputs(name))
        assert len(spec.series) == 2
        assert len(calls) == 1, name
        calls.clear()


def counted_calls(monkeypatch, name) -> list:
    """The argument tuples of every call to asymptotics.<name> from now on."""
    calls, original = [], getattr(asymptotics, name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(asymptotics, name, counted)
    return calls


def test_one_closed_form_tail_per_command(monkeypatch, reference_profiles,
                                          tmp_path, capsys):
    # the exact (a, b) is computed once per verify and per asymptotics
    # report, and the inputs are converted to rationals once per selection:
    # the tail checks, the sandwich and the report read the spec's tail
    tails = counted_calls(monkeypatch, "second_coeffs_exact")
    conversions = counted_calls(monkeypatch, "_exact_params")
    gv.verify(reference_profiles["asym"])
    assert len(tails) == 1
    config = tmp_path / "asym.json"
    params, degrees = case_inputs("asym")
    config.write_text(json.dumps({
        "version": 1, "params": dataclasses.asdict(params),
        "degrees": dataclasses.asdict(degrees)}))
    tails.clear()
    code, out, _ = run_cli(capsys, "asymptotics", "--config", str(config))
    assert code == 0
    assert json.loads(out)["R"] is not None
    assert len(tails) == 1
    for name in ("bpos", "bneg", "asym"):
        conversions.clear()
        select_envelope(*case_inputs(name))
        assert len(conversions) == 1, name


def test_a_failed_selection_still_reports_the_closed_form_tail(
        monkeypatch, reference_profiles, tmp_path, capsys):
    # no admissible input fails selection; if one did, verify's tail checks
    # and the asymptotics report would read second_coeffs instead
    def fail(*args):
        raise gv.SelectionFailed("inconsistent defect")
    prof = reference_profiles["bpos"]
    want = gv.verify(prof)
    monkeypatch.setattr(asymptotics, "select_envelope", fail)
    got = gv.verify(prof)
    assert got[:-1] == want[:-1]
    assert got[-1] == {"check": "envelope_sandwich",
                       "value": "inconsistent defect", "target": None,
                       "tolerance": None, "pass": False}
    config = tmp_path / "bpos.json"
    config.write_text(json.dumps({
        "version": 1, "params": dataclasses.asdict(prof.params),
        "degrees": dataclasses.asdict(prof.degrees)}))
    code, out, _ = run_cli(capsys, "asymptotics", "--config", str(config))
    assert code == 0
    assert json.loads(out) == {
        **dataclasses.asdict(gv.second_coeffs(prof.params, prof.degrees)),
        "delta": None, "R": None, "M_coefficients": None,
        "selection_error": "inconsistent defect"}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=admissible_inputs(),
       r=st.lists(st.floats(1.0, 1e4), min_size=1, max_size=6))
def test_the_spec_carries_the_closed_form_tail(case, r):
    # the spec's expansion is second_coeffs field for field, and its
    # envelopes are t + a/r^2 + b/r^4 +- delta kappa R^6/r^6 evaluated from
    # second_coeffs, bit for bit
    params, degrees = case
    spec = select_envelope(params, degrees)
    closed = gv.second_coeffs(params, degrees)
    assert spec.tail == closed
    assert dataclasses.astuple(spec.tail) == dataclasses.astuple(closed)
    assert (spec.t_plus, spec.t_minus) == (float(params.t_plus),
                                           float(params.t_minus))
    r = np.array(r)
    got = gv.envelope_bounds(spec, r)
    for comp, t, a, b, kappa in (
            ("plus", params.t_plus, closed.a_plus, closed.b_plus,
             spec.kappa_plus),
            ("minus", params.t_minus, closed.a_minus, closed.b_minus,
             spec.kappa_minus)):
        base = float(t) + a / r ** 2 + b / r ** 4
        for side, sgn in zip(got[comp], (-1.0, 1.0)):
            want = base + sgn * spec.delta * kappa * spec.R ** 6 / r ** 6
            assert side.dtype == np.float64
            assert np.array_equal(side, want)


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
    assert isinstance(fit, gv.TailExpansion)
    assert fit.a_plus == pytest.approx(tail.a_plus, abs=1e-10)
    assert fit.a_minus == pytest.approx(tail.a_minus, abs=1e-10)
    assert fit.b_plus == pytest.approx(tail.b_plus, abs=1e-8)
    assert fit.b_minus == pytest.approx(tail.b_minus, abs=1e-8)
    # the fitted two-term tail leaves only float roundoff, which r^6
    # amplifies over the window; tiny means < 1e-4
    r = grid.nodes
    window = (r >= 20.0) & (r <= 60.0)
    rr = r[window]
    for f, t, a, b in ((prof.f_plus, params.t_plus, fit.a_plus, fit.b_plus),
                       (prof.f_minus, params.t_minus, fit.a_minus,
                        fit.b_minus)):
        resid = f[window] - t - a / rr ** 2 - b / rr ** 4
        assert np.max(np.abs(resid) * rr ** 6) < 1e-4


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

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import glvortex as gv
from glvortex.model import bec_from_json, coupling_from_json


def test_validate_accepts_valid_sets():
    for vals in [(1, 1, 0.5, 1, 1), (2, 2, -1.2, 1, 0.7), (1, 4, 1.5, 1, 1)]:
        p = gv.CouplingParams(*vals)
        assert gv.validate(p) is p


def test_validate_rejects_equality_case():
    with pytest.raises(gv.HypothesisViolation, match="B\\^2 < A_plus\\*A_minus"):
        gv.validate(gv.CouplingParams(1, 1, 1.0, 1, 1))


@pytest.mark.parametrize("vals,name", [
    ((-1, 1, 0, 1, 1), "A_plus"),
    ((1, 0, 0, 1, 1), "A_minus"),
    ((1, 1, 0, -2, 1), "t_plus"),
    ((1, 1, 0, 1, 0), "t_minus"),
    ((1, 1, 1.5, 1, 1), "B"),
])
def test_validate_names_failed_inequality(vals, name):
    with pytest.raises(gv.HypothesisViolation, match=name):
        gv.validate(gv.CouplingParams(*vals))


def test_derived_bounds_examples():
    b = gv.derived_bounds(gv.CouplingParams(2, 2, 1, 1, 1))
    assert b.lambda_s == pytest.approx(1.0, abs=1e-15)
    assert b.M == pytest.approx(3.0)
    assert b.Lambda_sq == pytest.approx(2.0)

    b = gv.derived_bounds(gv.CouplingParams(1, 1, 0, 1, 1))
    assert (b.lambda_s, b.M, b.Lambda_sq) == pytest.approx((1.0, 1.0, 2.0))


def test_derived_bounds_against_eigen_solver():
    p = gv.CouplingParams(1, 4, -1, 1, 2)
    b = gv.derived_bounds(p)
    assert b.lambda_s == pytest.approx((5 - math.sqrt(13)) / 2, rel=1e-14)
    oracle = np.linalg.eigvalsh(np.array([[1.0, -1.0], [-1.0, 4.0]]))[0]
    assert b.lambda_s == pytest.approx(oracle, rel=1e-13)


def test_lambda_s_positive_and_below_diagonal():
    rng = np.random.default_rng(7)
    for _ in range(200):
        A_plus, A_minus = rng.uniform(0.1, 5.0, 2)
        B = rng.uniform(-1, 1) * math.sqrt(A_plus * A_minus) * 0.999
        p = gv.CouplingParams(A_plus, A_minus, B, 1.0, 1.0)
        b = gv.derived_bounds(p)
        assert b.lambda_s > 0
        assert b.lambda_s <= min(A_plus, A_minus) + 1e-12
        assert b.Lambda_sq <= p.t_plus ** 2 + p.t_minus ** 2 + 1e-12


def test_lambda_s_perturbation_bound():
    rng = np.random.default_rng(11)
    delta = 1e-3
    for _ in range(50):
        A_plus, A_minus = rng.uniform(0.5, 3.0, 2)
        B = rng.uniform(-0.9, 0.9) * math.sqrt(A_plus * A_minus)
        base = gv.derived_bounds(
            gv.CouplingParams(A_plus, A_minus, B, 1, 1)).lambda_s
        for bumped in [(A_plus + delta, A_minus, B),
                       (A_plus, A_minus + delta, B),
                       (A_plus, A_minus, B + delta)]:
            pert = gv.derived_bounds(
                gv.CouplingParams(*bumped, 1, 1)).lambda_s
            assert abs(pert - base) <= 2 * delta + 1e-12


def test_bec_to_gl_symmetric_case():
    params, eps = gv.bec_to_gl(gv.BecParams(1, 1, 1, 1, 0, 1, 1, hbar=1))
    assert params == gv.CouplingParams(1, 1, 0, 1, 1)
    assert eps == pytest.approx(1.0)


def test_bec_to_gl_symmetric_interaction():
    params, _ = gv.bec_to_gl(gv.BecParams(1, 1, 2, 2, 1, 3, 3, hbar=1))
    assert params.t_plus ** 2 == pytest.approx(1.0)
    assert params.t_minus ** 2 == pytest.approx(1.0)
    assert params.B == 1.0


def test_bec_to_gl_mass_asymmetry():
    params, eps = gv.bec_to_gl(gv.BecParams(4, 1, 1, 1, 0, 1, 1, hbar=1))
    assert params.A_plus == pytest.approx(4.0)
    assert params.A_minus == pytest.approx(0.25)
    assert params.t_plus ** 2 == pytest.approx(0.5)
    assert params.t_minus ** 2 == pytest.approx(2.0)
    assert eps == pytest.approx(4.0 ** -0.25)


def test_bec_to_gl_recovers_chemical_potentials():
    # the stationary equations force A t^2 combinations equal to the
    # rescaled chemical potentials; inverting the map must return the inputs
    rng = np.random.default_rng(3)
    for _ in range(50):
        m1, m2 = rng.uniform(0.5, 4.0, 2)
        g1, g2 = rng.uniform(0.5, 3.0, 2)
        g12 = rng.uniform(-0.9, 0.9) * math.sqrt(g1 * g2)
        mu1, mu2 = rng.uniform(1.0, 4.0, 2)
        bec = gv.BecParams(m1, m2, g1, g2, g12, mu1, mu2, hbar=1)
        try:
            params, _ = gv.bec_to_gl(bec)
        except gv.NonPositiveDensity:
            continue
        gv.validate(params)  # output always satisfies the coupling hypothesis
        tp2, tm2 = params.t_plus ** 2, params.t_minus ** 2
        mu1_back = (params.A_plus * tp2 + params.B * tm2) * math.sqrt(m2 / m1)
        mu2_back = (params.B * tp2 + params.A_minus * tm2) * math.sqrt(m1 / m2)
        assert mu1_back == pytest.approx(mu1, rel=1e-12)
        assert mu2_back == pytest.approx(mu2, rel=1e-12)


def test_bec_to_gl_rejects_bad_interactions():
    with pytest.raises(gv.HypothesisViolation):
        gv.bec_to_gl(gv.BecParams(1, 1, 1, 1, 1.5, 1, 1))
    with pytest.raises(gv.NonPositiveDensity):
        gv.bec_to_gl(gv.BecParams(1, 1, 1, 1, 0.5, 0.1, 3.0))


def test_normalize_degrees():
    # a negative winding conjugates its component; the CLI test of a config
    # with n = (-1, 1) checks that the profile is the (1, 1) one
    assert gv.normalize_degrees(1, -1) == gv.DegreePair(1, 1)
    assert gv.normalize_degrees(0, 0) == gv.DegreePair(0, 0)
    assert gv.normalize_degrees(-3, 2) == gv.DegreePair(3, 2)


def test_degree_pair_rejects_negative():
    with pytest.raises(ValueError):
        gv.DegreePair(-1, 0)


def test_json_parsers_strict():
    obj = {"A_plus": 1, "A_minus": 1, "B": 0.5, "t_plus": 1, "t_minus": 1}
    assert coupling_from_json(obj) == gv.CouplingParams(1, 1, 0.5, 1, 1)
    with pytest.raises(ValueError, match="expected keys"):
        coupling_from_json({**obj, "extra": 1})
    with pytest.raises(ValueError, match="expected keys"):
        coupling_from_json({k: obj[k] for k in list(obj)[:-1]})

    bec = {"m1": 1, "m2": 1, "g1": 1, "g2": 1, "g12": 0,
           "mu1": 1, "mu2": 1, "hbar": 1}
    assert bec_from_json(bec) == gv.BecParams(1, 1, 1, 1, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        bec_from_json({**bec, "g13": 0})


@pytest.mark.parametrize("value", [None, "0.5", True, float("nan"), [0.5]])
def test_coupling_json_needs_finite_numbers(value):
    obj = {"A_plus": 1, "A_minus": 1, "B": value, "t_plus": 1, "t_minus": 1}
    with pytest.raises(ValueError, match="finite numbers"):
        coupling_from_json(obj)
    with pytest.raises(ValueError, match="JSON object"):
        coupling_from_json(list(obj))


def test_validate_exact_on_rational_inputs():
    # comparisons stay exact when fields are rationals
    p = gv.CouplingParams(Fraction(1), Fraction(1), Fraction(1, 2),
                          Fraction(1), Fraction(1))
    assert gv.validate(p) is p
    with pytest.raises(gv.HypothesisViolation):
        gv.validate(gv.CouplingParams(Fraction(1), Fraction(1), Fraction(1),
                                      Fraction(1), Fraction(1)))


def _admissible(A_plus, A_minus, B, t_plus, t_minus) -> bool:
    return (A_plus > 0 and A_minus > 0 and t_plus > 0 and t_minus > 0
            and B * B < A_plus * A_minus)


_F = Fraction
_RATIONALS = st.fractions(-3, 3, max_denominator=6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(A_plus=_RATIONALS, A_minus=_RATIONALS, B=_RATIONALS, t_plus=_RATIONALS,
       t_minus=_RATIONALS, on_boundary=st.booleans())
@example(_F(0), _F(1), _F(0), _F(1), _F(1), False)
@example(_F(1), _F(1), _F(0), _F(1), _F(0), False)
@example(_F(1), _F(-1), _F(0), _F(1), _F(1), False)
@example(_F(1), _F(1), _F(0), _F(-1, 2), _F(1), False)
@example(_F(2), _F(0), _F(-3, 2), _F(1), _F(1), True)
@example(_F(4, 3), _F(0), _F(2, 3), _F(1, 5), _F(2), True)
def test_construction_succeeds_exactly_on_admissible_set(
        A_plus, A_minus, B, t_plus, t_minus, on_boundary):
    if on_boundary and A_plus != 0:
        A_minus = B * B / A_plus        # B^2 = A_plus*A_minus exactly
    values = (A_plus, A_minus, B, t_plus, t_minus)
    if _admissible(*values):
        p = gv.CouplingParams(*values)
        assert dataclasses.astuple(p) == values
    else:
        with pytest.raises(gv.HypothesisViolation):
            gv.CouplingParams(*values)


_ADMISSIBLE = {"A_plus": 1.0, "A_minus": 1.0, "B": 0.5,
               "t_plus": 1.0, "t_minus": 1.0}


def _profile_text(coupling: dict) -> str:
    """A well-formed profile file but for its coupling parameters."""
    n = 16
    return json.dumps({
        "params": coupling, "degrees": {"n_plus": 1, "n_minus": 1},
        "grid": {"R_max": 8.0, "N": n, "kind": "uniform", "stretch": None},
        "f_plus": [1.0] * (n + 1), "f_minus": [1.0] * (n + 1),
        "report": {"iterations": [0], "final_residual": 0.0,
                   "tolerance": 1e-10, "wall_time": 0.0}})


# every way a coefficient record is made, from the five coupling values;
# the condensate map takes them at unit masses, where A_pm = g_1,2 and
# B = g12, with chemical potentials that give t_pm = 1 at the admissible set
_MAKERS = {
    "direct": lambda c: gv.CouplingParams(**c),
    "replace": lambda c: dataclasses.replace(
        gv.CouplingParams(**_ADMISSIBLE), **c),
    "coupling_from_json": coupling_from_json,
    "bec_to_gl": lambda c: gv.bec_to_gl(gv.BecParams(
        1, 1, c["A_plus"], c["A_minus"], c["B"], 1.5, 1.5)),
    "profile_from_json": lambda c: gv.profile_from_json(_profile_text(c)),
}


@pytest.mark.parametrize("change", [{"B": 1.0}, {"B": -1.5},
                                    {"A_minus": -1.0}])
@pytest.mark.parametrize("way", sorted(_MAKERS))
def test_every_way_of_making_params_enforces_hypothesis(way, change):
    _MAKERS[way](_ADMISSIBLE)
    with pytest.raises(gv.HypothesisViolation):
        _MAKERS[way]({**_ADMISSIBLE, **change})

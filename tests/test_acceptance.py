"""Acceptance suite: every quantitative claim at its stated tolerance.

Each test covers one criterion and prints a one-line verdict; the reference
profiles live on the default production grid (R_max = 80, N = 4000, Robin
far field, residual tolerance 1e-10).
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import glvortex as gv
from glvortex.asymptotics import envelope_check, select_envelope, tail_fit
from glvortex.solver import SolveOptions
from conftest import CASES, case_inputs, package_certifies
from oracles import (closed_form_tail, defect_series, envelope_amplitudes,
                     scalar_gl_profile, uniqueness_probe)


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_quantization(reference_profiles):
    prof = reference_profiles["classical"]
    q = gv.quantization_check(prof)
    assert q.rhs == pytest.approx(1.0)
    assert abs(q.lhs - q.rhs) / q.rhs <= 0.005
    assert prof.report.wall_time <= 10.0
    gaps = [q.relative_gap]
    for name in ("bpos", "bneg"):
        p = reference_profiles[name]
        q = gv.quantization_check(p)
        assert q.rhs == pytest.approx(2.0)
        assert abs(q.lhs - q.rhs) / q.rhs <= 0.01
        assert p.report.wall_time <= 10.0
        gaps.append(q.relative_gap)
    report("1 quantization", f"relative gaps {[f'{g:.2e}' for g in gaps]}")


def test_criterion_02_pohozaev(reference_profiles):
    worst = 0.0
    for name, prof in reference_profiles.items():
        rhs = max(gv.quantization_check(prof).rhs, 1.0)
        res = abs(gv.pohozaev_residual(prof))
        assert res / rhs <= 0.01, name
        worst = max(worst, res / rhs)
        decay = [abs(gv.pohozaev_residual(prof, R)) for R in (20.0, 40.0, 80.0)]
        assert decay[0] > decay[1] > decay[2], (name, decay)
    report("2 pohozaev", f"worst relative residual {worst:.2e}, "
                         "decay monotone over R in {20, 40, 80}")


def test_criterion_03_tail_coefficients(reference_profiles):
    worst_a = worst_b = 0.0
    for name, prof in reference_profiles.items():
        fit = tail_fit(prof, (20.0, 60.0))
        closed = gv.second_coeffs(prof.params, prof.degrees)
        for got, want, kind, t in (
                (fit.a_plus, closed.a_plus, "a", prof.params.t_plus),
                (fit.a_minus, closed.a_minus, "a", prof.params.t_minus),
                (fit.b_plus, closed.b_plus, "b", prof.params.t_plus),
                (fit.b_minus, closed.b_minus, "b", prof.params.t_minus)):
            if kind == "a":
                tol = max(0.01 * abs(want), 1e-4 * t)
            else:
                tol = max(0.05 * abs(want), 1e-2 * t)
            assert abs(got - want) <= tol, (name, kind, got, want)
            if abs(want) > 1e-12:
                rel = abs(got - want) / abs(want)
                if kind == "a":
                    worst_a = max(worst_a, rel)
                else:
                    worst_b = max(worst_b, rel)
    report("3 tail coefficients",
           f"worst a error {worst_a:.2%} (<=1%), worst b error {worst_b:.2%} "
           "(<=5%) across the five parameter sets")


def test_criterion_04_symbolic_vanishing():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        A_plus = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 16)))
        A_minus = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 16)))
        B = Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 16)))
        if not B * B < A_plus * A_minus:
            continue
        t_plus = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 10)))
        t_minus = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 10)))
        params = gv.CouplingParams(A_plus, A_minus, B, t_plus, t_minus)
        degrees = gv.DegreePair(int(rng.integers(0, 4)),
                                int(rng.integers(0, 4)))
        a, b = closed_form_tail(params, degrees)
        kp, km = envelope_amplitudes(params)
        c = (Fraction(1, 2) * kp, -Fraction(1, 2) * km)
        ser_p, ser_m = defect_series(params, degrees, a, b, c,
                                     Fraction(int(rng.integers(2, 64))))
        assert ser_p[:2] == ser_m[:2] == (0, 0)
        checked += 1
    report("4 symbolic vanishing",
           "M_2 = M_4 = 0 exactly for 100 random rational parameter sets")


def test_criterion_05_envelopes(reference_profiles):
    details = []
    for name in ("bpos", "bneg"):
        prof = reference_profiles[name]
        spec = select_envelope(prof.params, prof.degrees)
        margin = envelope_check(prof, spec)
        assert margin >= 0, (name, margin)
        details.append(f"{name}: delta={spec.delta}, R={spec.R}, "
                       f"margin={margin:.1e}")

    # uniformity: one (delta, R) certified and sandwiching for every B
    degrees = gv.DegreePair(1, 1)
    b_values = (-0.4, -0.2, 0.2, 0.4)
    specs = {B: select_envelope(gv.CouplingParams(1, 1, B, 1, 1), degrees)
             for B in b_values}
    delta_c = min(Fraction(s.delta) for s in specs.values())
    r_c = max(s.R for s in specs.values())
    for B in b_values:
        params = gv.CouplingParams(1, 1, B, 1, 1)
        # the exact certificate holds at the common pair
        assert package_certifies(params, degrees, delta_c * Fraction(r_c) ** 6,
                                 r_c), B
        prof = gv.continuation_solve(params, degrees,
                                     reference_profiles["bpos"].grid)
        common = dataclasses.replace(specs[B], delta=float(delta_c), R=r_c)
        margin = envelope_check(prof, common)
        assert margin >= 0, (B, margin)
    report("5 envelopes", "; ".join(details)
           + f"; uniform pair delta={float(delta_c)}, R={r_c} over B={b_values}")


def test_criterion_06_amplitude_bound(reference_profiles):
    margins = {}
    for name, prof in reference_profiles.items():
        m = gv.amplitude_bound_check(prof)
        assert m >= -1e-8, name
        margins[name] = m
    assert np.max(reference_profiles["overshoot"].f_minus) > 1.0
    report("6 amplitude bound",
           f"min margin {min(margins.values()):.2e} over all cases, "
           "including the overshoot case")


def test_criterion_07_monotonicity(reference_profiles, default_grid):
    # (i) negative interaction: both profiles nondecreasing along the sweep
    degrees = gv.DegreePair(1, 1)
    start = gv.initial_guess(default_grid, gv.CouplingParams(1, 1, 0, 1, 1),
                             degrees)
    prev = start
    for b in [round(-0.1 * k, 12) for k in range(1, 10)]:
        params = gv.CouplingParams(1, 1, b, 1, 1)
        prof = gv.newton_solve(prev[0], prev[1], default_grid, params, degrees)
        assert (gv.monotonicity_classify(prof)
                is gv.MonotonicityLabel.BothNondecreasing), b
        prev = (prof.f_plus, prof.f_minus)

    # (ii) positive interaction with a trivial second degree
    params, _ = case_inputs("bpos")
    prof = gv.continuation_solve(params, gv.DegreePair(1, 0), default_grid)
    assert (gv.monotonicity_classify(prof)
            is gv.MonotonicityLabel.PlusUpMinusDown)

    # (iii) small positive interaction stays monotone
    for b in (0.1, 0.2):
        prof = gv.continuation_solve(gv.CouplingParams(1, 1, b, 1, 1),
                                     degrees, default_grid)
        assert (gv.monotonicity_classify(prof)
                is gv.MonotonicityLabel.BothNondecreasing), b

    # the overshoot case is non-monotone exactly in the component whose
    # leading tail coefficient is positive
    prof = reference_profiles["overshoot"]
    a_plus, a_minus = gv.leading_coeffs(prof.params, prof.degrees)
    assert a_minus > 0 > a_plus
    assert (gv.monotonicity_classify(prof)
            is gv.MonotonicityLabel.NonMonotoneMinus)
    report("7 monotonicity", "B<0 sweep nondecreasing; (1,0) splits up/down; "
           "small B>0 nondecreasing; overshoot flags the a>0 component")


def test_criterion_08_uniqueness(default_grid):
    worst = 0.0
    for name in CASES:
        params, degrees = case_inputs(name)
        d = uniqueness_probe(params, degrees, default_grid, seed_count=3)
        assert d <= 1e-8, (name, d)
        worst = max(worst, d)
    report("8 uniqueness", f"3-seed max pairwise distance {worst:.2e} <= 1e-8")


def test_criterion_09_second_variation(reference_profiles):
    eigs = {}
    for name, prof in reference_profiles.items():
        eig = gv.second_variation_min_eig(prof)
        assert eig >= -1e-8, name
        eigs[name] = eig
    assert eigs["bpos"] > 1e-4
    report("9 second variation",
           f"min eigenvalues {dict((k, f'{v:.3f}') for k, v in eigs.items())}")


def test_criterion_10_scalar_oracle():
    grid = gv.build_grid(40.0, 12800)
    params = gv.CouplingParams(1, 1, 0, 1, 1)
    devs = {}
    for n in (1, 2):
        prof = gv.continuation_solve(params, gv.DegreePair(n, 0), grid)
        oracle = scalar_gl_profile(1.0, 1.0, n, grid.nodes)
        dev = float(np.max(np.abs(prof.f_plus - oracle)))
        assert dev <= 1e-6, (n, dev)
        assert float(np.max(np.abs(prof.f_minus - 1.0))) <= 1e-12
        devs[n] = dev
    report("10 scalar oracle",
           f"sup deviations {devs[1]:.2e} (n=1), {devs[2]:.2e} (n=2)")


def test_criterion_11_convergence_order():
    params, degrees = case_inputs("bpos")
    sols = {}
    for N in (2000, 4000, 8000):
        grid = gv.build_grid(80.0, N)
        sols[N] = gv.continuation_solve(params, degrees, grid,
                                        SolveOptions(tolerance=1e-10))
    d_coarse = max(
        np.max(np.abs(sols[2000].f_plus - sols[4000].f_plus[::2])),
        np.max(np.abs(sols[2000].f_minus - sols[4000].f_minus[::2])))
    d_fine = max(
        np.max(np.abs(sols[4000].f_plus - sols[8000].f_plus[::2])),
        np.max(np.abs(sols[4000].f_minus - sols[8000].f_minus[::2])))
    assert d_coarse <= 4.5 * d_fine
    report("11 convergence order",
           f"refinement distances {d_coarse:.2e} -> {d_fine:.2e}, "
           f"ratio {d_coarse / d_fine:.2f} (second order)")

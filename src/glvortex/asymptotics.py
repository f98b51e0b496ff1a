"""Far-field expansion of the vortex profiles and certified tail envelopes.

Each profile satisfies f = t + a/r^2 + b/r^4 + O(r^-6) with closed-form a and
b: they are the unique coefficients killing the r^-2 and r^-4 terms when the
two-term tail is substituted into the coupled system.  Around that expansion,
upper/lower comparison functions of the form

    w(r) = t + a/r^2 + b/r^4 +- delta kappa R^6/r^6

become super/subsolutions for r >= R once the defect

    LHS(w) = sum_{k=1..9} M_{2k} (R/r)^{2k}

has a definite sign on r >= R.  The M coefficients are polynomials in the
inputs; with rational inputs the whole construction is carried out in exact
arithmetic, so the certificate is exact, not sampled.  Float inputs are
converted to their exact binary rationals first, so it holds for the
parameters as given.  The certificate is M_2 = M_4 = 0 plus dominance of
M_6: 20|M_2k| <= |M_6| for k = 4, 5, 7, 8 and 5|M_2k| <= |M_6| for k = 6, 9.
Then the higher terms sum to at most 0.6 |M_6| (R/r)^8 < |M_6| (R/r)^6, so
the sign of M_6 is the sign of the whole defect.

The signs come from the comparison structure.  For B >= 0 the system is
cooperative once f_- is reflected, so an upper f_+ envelope pairs with a
lower f_- one; for B < 0 upper pairs with upper.  The amplitude enters only
as +-kappa u with u = delta R^6, so each M_2k = C_k(u) / R^(2k) with C_k a
cubic in u.  The envelope search expands the defect once per branch into
these cubics (fractions.Fraction, then one common denominator) and evaluates
them per candidate (delta, R) in int.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .model import CouplingParams, DegreePair, validate

if TYPE_CHECKING:  # pragma: no cover
    from .solver import Profile


class SelectionFailed(RuntimeError):
    """No (delta, R) pair within the search budget certified the envelope."""


class IllConditionedFit(ValueError):
    """Tail fit window is unusable (too narrow, too close in, or collinear)."""


# ---------------------------------------------------------------------------
# closed-form tail coefficients


@dataclass(frozen=True)
class TailExpansion:
    """Leading (a) and second (b) inverse-square tail coefficients."""

    a_plus: float
    a_minus: float
    b_plus: float = 0.0
    b_minus: float = 0.0


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return Fraction(float(x))


def _exact_params(params: CouplingParams):
    return (_frac(params.A_plus), _frac(params.A_minus), _frac(params.B),
            _frac(params.t_plus), _frac(params.t_minus))


def leading_coeffs_exact(params: CouplingParams, degrees: DegreePair):
    """a_plus, a_minus as exact rationals.

    (a_plus, a_minus) solve the 2x2 linear system that cancels the r^-2
    defect:  A_+ t_+ a_+ + B t_- a_- = -n_+^2 / 2  (and the mirrored row),
    giving a_pm = (B n_mp^2 - A_mp n_pm^2) / (2 (A_+ A_- - B^2) t_pm).
    """
    Ap, Am, B, tp, tm = _exact_params(params)
    np2 = Fraction(degrees.n_plus ** 2)
    nm2 = Fraction(degrees.n_minus ** 2)
    D = Ap * Am - B * B
    a_plus = (B * nm2 - Am * np2) / (2 * D * tp)
    a_minus = (B * np2 - Ap * nm2) / (2 * D * tm)
    return a_plus, a_minus


def second_coeffs_exact(params: CouplingParams, degrees: DegreePair):
    """b_plus, b_minus as exact rationals.

    (b_plus, b_minus) solve the same 2x2 system with right-hand sides
    q_pm = 2 a_pm / t_pm - (A_pm a_pm^2 + B a_mp^2)/2, which cancels the
    r^-4 defect once the r^-2 relation already holds.
    """
    Ap, Am, B, tp, tm = _exact_params(params)
    D = Ap * Am - B * B
    a_plus, a_minus = leading_coeffs_exact(params, degrees)
    q_plus = 2 * a_plus / tp - (Ap * a_plus ** 2 + B * a_minus ** 2) / 2
    q_minus = 2 * a_minus / tm - (Am * a_minus ** 2 + B * a_plus ** 2) / 2
    b_plus = (Am * q_plus - B * q_minus) / (D * tp)
    b_minus = (Ap * q_minus - B * q_plus) / (D * tm)
    return b_plus, b_minus


def leading_coeffs(params: CouplingParams, degrees: DegreePair) -> TailExpansion:
    """Closed-form leading tail coefficients a_pm (b fields left at zero)."""
    validate(params)
    a_plus, a_minus = leading_coeffs_exact(params, degrees)
    return TailExpansion(a_plus=float(a_plus), a_minus=float(a_minus))


def second_coeffs(params: CouplingParams, degrees: DegreePair) -> TailExpansion:
    """Closed-form tail coefficients with both orders filled."""
    validate(params)
    a_plus, a_minus = leading_coeffs_exact(params, degrees)
    b_plus, b_minus = second_coeffs_exact(params, degrees)
    return TailExpansion(a_plus=float(a_plus), a_minus=float(a_minus),
                         b_plus=float(b_plus), b_minus=float(b_minus))


# ---------------------------------------------------------------------------
# defect series of an envelope candidate, in integer arithmetic


def _over_common_denominator(values) -> tuple:
    """(nums, den): integers and one positive denominator with
    values[i] == nums[i] / den exactly."""
    pairs = [(int(v.numerator), int(v.denominator))
             for v in map(Fraction, values)]
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _m6_dominates(m) -> bool:
    """The selection inequalities on m[k-1] = M_2k (or any positive multiple
    of the series): M_6 dominates the higher terms."""
    m6 = abs(m[2])
    return (m6 > 0 and all(20 * abs(m[k - 1]) <= m6 for k in (4, 5, 7, 8))
            and all(5 * abs(m[k - 1]) <= m6 for k in (6, 9)))


@dataclass(frozen=True)
class DefectSeries:
    """Coefficients M_2 .. M_18 of the defect sum_k M_2k (R/r)^(2k).

    Exact rationals in the (exactly rationalized) inputs.  Only even powers
    of R/r occur: the envelope is a polynomial in 1/r^2 and the equation
    preserves that parity.
    """

    component: str
    coefficients: tuple
    R: Fraction

    def as_strings(self) -> dict:
        return {f"M_{2 * (k + 1)}": str(c)
                for k, c in enumerate(self.coefficients)}


def _cubic_basis(u: Fraction) -> tuple:
    """(q^3, p q^2, p^2 q, p^3) for u = p/q: q^3 times (1, u, u^2, u^3)."""
    p, q = int(u.numerator), int(u.denominator)
    return q * q * q, p * q * q, p * p * q, p * p * p


@dataclass(frozen=True)
class _DefectCubics:
    """The defect of one envelope component with its r^-6 amplitude left
    free: the coefficient of x^k (x = 1/r^2) is the cubic
    C_k(u) = sum_j num[k-1][j] u^j / den in u = delta R^6, k = 1..9, and
    M_2k = C_k(u) / R^(2k).  den > 0."""

    component: str
    num: tuple
    den: int

    def scaled(self, basis: tuple) -> list:
        """q^3 den C_k(u) for k = 1..9, from _cubic_basis(u)."""
        return [sum(c * v for c, v in zip(row, basis)) for row in self.num]

    def series(self, u: Fraction, R: Fraction) -> DefectSeries:
        basis = _cubic_basis(u)
        scale = self.den * basis[0]
        return DefectSeries(
            component=self.component, R=R,
            coefficients=tuple(Fraction(c, scale) / R ** (2 * k)
                               for k, c in enumerate(self.scaled(basis), 1)))


def _mul_xu(p, q):
    """Product of polynomials in (x, u) stored as rows p[i][j] of x^i u^j;
    every product formed here stays below u^4."""
    out = [[0] * 4 for _ in range(len(p) + len(q) - 1)]
    for i, prow in enumerate(p):
        for k, qrow in enumerate(q):
            for j, pc in enumerate(prow):
                for jj, qc in enumerate(qrow):
                    if pc and qc:
                        out[i + k][j + jj] += pc * qc
    return out


def _defect_cubics(params: CouplingParams, degrees: DegreePair,
                   a: tuple, b: tuple, g: tuple) -> tuple:
    """Expand the equation defect of the envelope pair

        w_pm(r) = t_pm + a_pm/r^2 + b_pm/r^4 + g_pm u/r^6

    once, as (_DefectCubics for plus, for minus) in the free amplitude u.
    """
    Ap, Am, B, tp, tm = _exact_params(params)
    w = tuple([[t, 0, 0, 0], [_frac(ai), 0, 0, 0], [_frac(bi), 0, 0, 0],
               [0, _frac(gi), 0, 0]]
              for t, ai, bi, gi in zip((tp, tm), a, b, g))
    sq = []                                  # w^2 - t^2 per component
    for w_i, t in zip(w, (tp, tm)):
        sq.append(_mul_xu(w_i, w_i))
        sq[-1][0][0] -= t * t
    out = []
    for i, comp, A, n in ((0, "plus", Ap, degrees.n_plus),
                          (1, "minus", Am, degrees.n_minus)):
        bracket = [[A * s + B * o for s, o in zip(rs, ro)]
                   for rs, ro in zip(sq[i], sq[1 - i])]
        C = _mul_xu(bracket, w[i])
        for k, row in enumerate(w[i]):      # -w'' - w'/r + (n^2/r^2) w
            for j, c in enumerate(row):
                C[k + 1][j] += (n * n - 4 * k * k) * c
        nums, den = _over_common_denominator(c for row in C[1:] for c in row)
        out.append(_DefectCubics(comp, tuple(
            tuple(nums[4 * k:4 * k + 4]) for k in range(9)), den))
    return tuple(out)


def _certified(tables, u: Fraction, R: Fraction) -> bool:
    """Exact certificate of one candidate (delta, R), u = delta R^6, for
    every (_DefectCubics, required defect sign) in tables: M_6 has the
    required sign and dominates M_8 .. M_18.  With M_2 = M_4 = 0 that fixes
    the sign of the whole defect on r >= R (see the module docstring).

    The series are compared as integers m_k = M_2k q^3 den R_num^18, a
    positive multiple of M_2k, so every decision is the rational one.
    """
    basis = _cubic_basis(u)
    rn, rd = int(R.numerator), int(R.denominator)
    r_scale = [rd ** (2 * k) * rn ** (18 - 2 * k) for k in range(1, 10)]
    for cubics, req in tables:
        m = [c * s for c, s in zip(cubics.scaled(basis), r_scale)]
        if (m[2] > 0) != (req > 0) or not _m6_dominates(m):
            return False
    return True


# ---------------------------------------------------------------------------
# envelope selection


@dataclass(frozen=True)
class EnvelopeSpec:
    """A certified choice of r^-6 envelope amplitudes.

    The envelopes of component pm are t + a/r^2 + b/r^4 +- delta kappa_pm
    R^6/r^6, upper with +, lower with -.  kappa_pm > 0 comes from the sign
    of B (see _kappas); delta and R are the certified pair.
    """

    delta: float
    R: float
    kappa_plus: float
    kappa_minus: float
    # ((branch, (DefectSeries plus, DefectSeries minus)), ...): the series
    # select_envelope certified at (delta, R); empty on a hand-built spec
    series: tuple = ()

    def envelope_c(self, component: str, side: str) -> float:
        """Signed r^-6 amplitude (to be scaled by R^6) for one envelope."""
        sgn = 1.0 if side == "upper" else -1.0
        kappa = self.kappa_plus if component == "plus" else self.kappa_minus
        return sgn * self.delta * kappa


# (sign of the f_+ amplitude, sign of the f_- amplitude) of each envelope
# pair, +1 upper / -1 lower.  An upper envelope needs a nonnegative defect
# and a lower one a nonpositive defect, so the pair is also the pair of
# required defect signs.  The flip s keeps the pairs with sign_- = s sign_+.
_BRANCHES = {"upper_plus_lower_minus": (1, -1),
             "lower_plus_upper_minus": (-1, 1),
             "upper_both": (1, 1), "lower_both": (-1, -1)}


def _kappas(params: CouplingParams) -> tuple:
    """The flip s (-1 for B >= 0, +1 for B < 0) and the exact amplitudes
    kappa_pm = (A_mp - s B) / ((A_+ A_- - B^2) t_pm) > 0."""
    Ap, Am, B, tp, tm = _exact_params(params)
    s, D = (-1 if B >= 0 else 1), Ap * Am - B * B
    return s, ((Am - s * B) / (D * tp), (Ap - s * B) / (D * tm))


def select_envelope(params: CouplingParams, degrees: DegreePair,
                    r_candidates=(2, 4, 8, 16, 32, 64),
                    delta_candidates=tuple(Fraction(1, 2 ** k)
                                           for k in range(1, 11))) -> EnvelopeSpec:
    """Search dyadic delta and doubling R for a certified envelope.

    The theory guarantees some (delta, R) works for admissible parameters but
    gives no constructive values; the search (budget: the candidate grid)
    turns "sufficiently large" into a falsifiable procedure.  R is scanned
    outward and delta downward from 1/2, so the first hit has the fattest
    envelope at the smallest workable R.  Both pairs that the sign of B
    selects are certified with the same (delta, R), which is what the
    two-sided sandwich needs.  The defect is expanded once per branch, its
    M_2 = M_4 = 0 checked once, and M_6 dominance evaluated per candidate.
    """
    validate(params)
    s, kappa = _kappas(params)
    a = leading_coeffs_exact(params, degrees)
    b = second_coeffs_exact(params, degrees)
    tables = {br: tuple(zip(_defect_cubics(params, degrees, a, b,
                                           (sp * kappa[0], sm * kappa[1])),
                            (sp, sm)))
              for br, (sp, sm) in _BRANCHES.items() if sm == s * sp}
    every = [t for pair in tables.values() for t in pair]
    # the M_2 and M_4 rows do not involve u: one check covers every candidate
    if not any(c for cub, _ in every for row in cub.num[:2] for c in row):
        for R in r_candidates:
            R_exact = _frac(R)
            for delta in delta_candidates:
                u = _frac(delta) * R_exact ** 6
                if not _certified(every, u, R_exact):
                    continue
                series = tuple((br, tuple(cubics.series(u, R_exact)
                                          for cubics, _ in pair))
                               for br, pair in tables.items())
                return EnvelopeSpec(delta=float(delta), R=float(R),
                                    kappa_plus=float(kappa[0]),
                                    kappa_minus=float(kappa[1]),
                                    series=series)
    raise SelectionFailed(
        f"no (delta, R) certified within the search budget for params={params}, "
        f"degrees={degrees}: either the budget is too small or a defect "
        "coefficient is inconsistent")


# ---------------------------------------------------------------------------
# envelope evaluation against a solved profile


@dataclass(frozen=True)
class EnvelopeCheck:
    passed: bool
    worst_margin: float


def envelope_bounds(spec: EnvelopeSpec, params: CouplingParams,
                    degrees: DegreePair, r) -> dict:
    """{component: (lower, upper)} envelope values at the radii r, from one
    evaluation of the closed-form tail coefficients."""
    tail = second_coeffs(params, degrees)
    out = {}
    for comp, t, a, b in (("plus", params.t_plus, tail.a_plus, tail.b_plus),
                          ("minus", params.t_minus, tail.a_minus,
                           tail.b_minus)):
        # float once: a Fraction t would make every array an object array
        base = float(t) + a / r ** 2 + b / r ** 4
        out[comp] = tuple(base + spec.envelope_c(comp, side) * spec.R ** 6
                          / r ** 6 for side in ("lower", "upper"))
    return out


def envelope_check(profile: "Profile", spec: EnvelopeSpec) -> EnvelopeCheck:
    """Check the two-sided sandwich w_lower <= f <= w_upper on nodes >= R.

    Failure is a reported outcome (passed=False with the offending margin),
    not an error.
    """
    r = profile.grid.nodes
    mask = r >= spec.R - 1e-12
    if not mask.any():
        raise ValueError(f"envelope radius R={spec.R} beyond the grid")
    bounds = envelope_bounds(spec, profile.params, profile.degrees, r[mask])
    worst = min(min(float(np.min(bounds[comp][1] - f)),
                    float(np.min(f - bounds[comp][0])))
                for comp, f in (("plus", profile.f_plus[mask]),
                                ("minus", profile.f_minus[mask])))
    return EnvelopeCheck(passed=worst >= 0.0, worst_margin=worst)


# ---------------------------------------------------------------------------
# tail fitting of solved profiles


@dataclass(frozen=True)
class TailFit:
    """Least-squares tail coefficients of a solved profile with the
    max |residual| * r^6 over the window (an empirical C_1)."""

    a_plus: float
    a_minus: float
    b_plus: float
    b_minus: float
    c1_plus: float
    c1_minus: float


def _tail_window(profile: "Profile", fit_window) -> np.ndarray:
    """Node mask of a tail window inside [0, R_max] holding at least 20
    nodes; the default is [R_max/4, 3 R_max/4]."""
    R_max, r = profile.grid.R_max, profile.grid.nodes
    r_lo, r_hi = (0.25 * R_max, 0.75 * R_max) if fit_window is None \
        else fit_window
    if r_hi > R_max + 1e-12:
        raise IllConditionedFit(f"window end {r_hi} beyond R_max")
    mask = (r >= r_lo) & (r <= r_hi)
    if int(mask.sum()) < 20:
        raise IllConditionedFit(f"window [{r_lo}, {r_hi}] holds only "
                                f"{int(mask.sum())} nodes (need >= 20)")
    return mask


def tail_fit(profile: "Profile", fit_window: tuple | None = None) -> TailFit:
    """Fit (f - t) against {r^-2, r^-4} over the window by weighted least
    squares with weights proportional to r^6.

    The weighting equalizes the untracked O(r^-6) model error across the
    window (it would otherwise bias b from the inner edge); concretely the
    fit runs in the scaled variable (f - t) r^6 = a r^4 + b r^2, which also
    keeps the design matrix well conditioned over windows like [R/4, 3R/4].
    """
    mask = _tail_window(profile, fit_window)
    rr = profile.grid.nodes[mask]
    out = {}
    for comp, f, t in (("plus", profile.f_plus[mask], profile.params.t_plus),
                       ("minus", profile.f_minus[mask], profile.params.t_minus)):
        y = f - t
        if np.max(np.abs(y)) > 0.1 * t:
            raise IllConditionedFit(
                f"window starts too close in: |f_{comp} - t| exceeds 0.1 t")
        design = np.column_stack([rr ** 4, rr ** 2])
        sol, _, rank, sv = np.linalg.lstsq(design, y * rr ** 6, rcond=None)
        if rank < 2 or sv[-1] <= 0 or sv[0] / sv[-1] > 1e12:
            raise IllConditionedFit("tail basis is numerically collinear")
        a, b = float(sol[0]), float(sol[1])
        resid = y - a / rr ** 2 - b / rr ** 4
        out[comp] = (a, b, float(np.max(np.abs(resid) * rr ** 6)))
    return TailFit(a_plus=out["plus"][0], a_minus=out["minus"][0],
                   b_plus=out["plus"][1], b_minus=out["minus"][1],
                   c1_plus=out["plus"][2], c1_minus=out["minus"][2])

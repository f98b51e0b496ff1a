"""Far-field expansion of the vortex profiles and certified tail envelopes.

Each profile satisfies f = t + a/r^2 + b/r^4 + O(r^-6) with closed-form a and
b: they are the unique coefficients killing the r^-2 and r^-4 terms when the
two-term tail is substituted into the coupled system.  Around that expansion,
upper/lower comparison functions of the form

    w(r) = t + a/r^2 + b/r^4 +- delta kappa R^6/r^6

become super/subsolutions for r >= R once the defect

    LHS(w) = sum_{k=1..9} M_{2k} (R/r)^{2k}

has a definite sign on r >= R.  The M coefficients are polynomials in the
inputs, computed in exact arithmetic (a float input as its exact binary
rational), so the certificate is exact, not sampled.  It is M_2 = M_4 = 0
plus dominance of M_6: 20|M_2k| <= |M_6| for k = 4, 5, 7, 8 and
5|M_2k| <= |M_6| for k = 6, 9.  Then the higher terms sum to at most
0.6 |M_6| (R/r)^8 < |M_6| (R/r)^6, so the sign of M_6 is the sign of the
whole defect.

The signs come from the comparison structure.  For B >= 0 the system is
cooperative once f_- is reflected, so an upper f_+ envelope pairs with a
lower f_- one; for B < 0 upper pairs with upper.  The amplitude enters only
as +-kappa u with u = delta R^6, so M_2k = C_k(u) / R^(2k) with C_k a cubic
in u.  The cubics are expanded once per parameter set, in integers over one
common denominator; the second branch flips every amplitude sign, so its
cubics are the first branch's read at -u.  C_3 is linear, so the sign of M_6
bounds u from below, and beyond that bound each dominance inequality bounds
R from below: select_envelope computes the radius instead of searching for
it.

envelope_check returns the sandwich's worst margin (>= 0 iff the profile
lies inside), and tail_fit a TailExpansion, as second_coeffs does.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .model import CouplingParams, DegreePair

if TYPE_CHECKING:  # pragma: no cover
    from .solver import Profile


class SelectionFailed(RuntimeError):
    """M_2 or M_4 of the defect is nonzero, or M_6 has its required sign for
    no amplitude: an inconsistent expansion, never an admissible input."""


class IllConditionedFit(ValueError):
    """Tail fit window is unusable (too narrow, too close in, or collinear)."""


# ---------------------------------------------------------------------------
# closed-form tail coefficients


@dataclass(frozen=True)
class TailExpansion:
    """Leading (a) and second (b) inverse-square tail coefficients, closed
    form or fitted."""

    a_plus: float
    a_minus: float
    b_plus: float
    b_minus: float


def _exact_params(params: CouplingParams) -> tuple:
    """(A_+, A_-, B, t_+, t_-) as exact rationals (a float as its exact
    binary rational): the one conversion every exact computation reads."""
    return tuple(Fraction(v) if isinstance(v, (Fraction, int, np.integer))
                 else Fraction(float(v)) for v in (
                     params.A_plus, params.A_minus, params.B, params.t_plus,
                     params.t_minus))


def _leading_exact(x, degrees: DegreePair) -> tuple:
    """(a_plus, a_minus) from the exact inputs x = _exact_params(params):
    the solution of A_+ t_+ a_+ + B t_- a_- = -n_+^2 / 2 (and the mirrored
    row), the 2x2 linear system that cancels the r^-2 defect."""
    Ap, Am, B, tp, tm = x
    np2, nm2 = degrees.n_plus ** 2, degrees.n_minus ** 2
    D = Ap * Am - B * B
    return ((B * nm2 - Am * np2) / (2 * D * tp),
            (B * np2 - Ap * nm2) / (2 * D * tm))


def second_coeffs_exact(x, degrees: DegreePair) -> tuple:
    """(a_plus, a_minus, b_plus, b_minus) from the exact inputs x: b solves
    a's 2x2 system with right-hand sides q_pm = 2 a_pm / t_pm - (A_pm a_pm^2
    + B a_mp^2)/2, which cancels the r^-4 defect once the r^-2 one is gone.
    """
    Ap, Am, B, tp, tm = x
    D = Ap * Am - B * B
    a_plus, a_minus = _leading_exact(x, degrees)
    q_plus = 2 * a_plus / tp - (Ap * a_plus ** 2 + B * a_minus ** 2) / 2
    q_minus = 2 * a_minus / tm - (Am * a_minus ** 2 + B * a_plus ** 2) / 2
    return (a_plus, a_minus, (Am * q_plus - B * q_minus) / (D * tp),
            (Ap * q_minus - B * q_plus) / (D * tm))


def leading_coeffs(params: CouplingParams, degrees: DegreePair) -> tuple:
    """Closed-form (a_plus, a_minus) as floats: the Robin datum, the sweep
    records and the tail export need no b."""
    a_plus, a_minus = _leading_exact(_exact_params(params), degrees)
    return float(a_plus), float(a_minus)


def second_coeffs(params: CouplingParams, degrees: DegreePair) -> TailExpansion:
    """Closed-form tail coefficients of both orders as floats.  An
    EnvelopeSpec carries the same values as its tail."""
    return TailExpansion(*map(float, second_coeffs_exact(
        _exact_params(params), degrees)))


# ---------------------------------------------------------------------------
# defect series of an envelope candidate, in integer arithmetic


# the dominance inequalities c |M_2k| <= |M_6| as (k, c)
_DOMINANCE = ((4, 20), (5, 20), (6, 5), (7, 20), (8, 20), (9, 5))


def _m6_dominates(m) -> bool:
    """The selection inequalities on m[k-1] = M_2k (or any positive multiple
    of the series): M_6 dominates the higher terms."""
    m6 = abs(m[2])
    return m6 > 0 and all(c * abs(m[k - 1]) <= m6 for k, c in _DOMINANCE)


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

    num: tuple
    den: int

    def scaled(self, basis: tuple) -> list:
        """q^3 den C_k(u) for k = 1..9, from _cubic_basis(u)."""
        return [sum(c * v for c, v in zip(row, basis)) for row in self.num]

    def series(self, u: Fraction, R: Fraction) -> tuple:
        """(M_2, .., M_18) of the defect sum_k M_2k (R/r)^(2k) at u and R,
        as exact rationals.  Only even powers of R/r occur: the envelope is
        a polynomial in 1/r^2 and the equation preserves that parity."""
        basis = _cubic_basis(u)
        return tuple(Fraction(c, self.den * basis[0]) / R ** (2 * k)
                     for k, c in enumerate(self.scaled(basis), 1))

    def mirrored(self) -> _DefectCubics:
        """The cubics C_k(-u): the defect with the amplitude's sign flipped."""
        return _DefectCubics(tuple(
            tuple(-c if j % 2 else c for j, c in enumerate(row))
            for row in self.num), self.den)


def _mul_xu(p: dict, q: dict) -> dict:
    """Product of integer polynomials in (x, u) stored as {(i, j): the
    coefficient of x^i u^j}."""
    out = {}
    for (i, j), c in p.items():
        for (k, m), d in q.items():
            out[i + k, j + m] = out.get((i + k, j + m), 0) + c * d
    return out


def _defect_cubics(x, degrees: DegreePair, tail: tuple, g: tuple) -> tuple:
    """Expand the equation defect of the envelope pair

        w_pm(r) = t_pm + a_pm/r^2 + b_pm/r^4 + g_pm u/r^6

    once, as (_DefectCubics for plus, for minus) in the free amplitude u,
    from the exact inputs x = _exact_params(params), tail = (a_+, a_-, b_+,
    b_-) and g = (g_+, g_-), each an int or a Fraction.

    The expansion runs in integers: every input is scaled by the least
    common denominator L, so the cubic terms carry L^4 and the Laplacian
    terms L, raised to L^4 by L^3; dividing by the gcd of L^4 and the
    coefficients leaves each table reduced, as over the rationals."""
    exact = (*x, *tail, *g)
    L = math.lcm(*(v.denominator for v in exact))
    Ap, Am, B, tp, tm, ap, am, bp, bm, gp, gm = (
        v.numerator * (L // v.denominator) for v in exact)
    w = tuple({(0, 0): t, (1, 0): ai, (2, 0): bi, (3, 1): gi}
              for t, ai, bi, gi in ((tp, ap, bp, gp), (tm, am, bm, gm)))
    sq = []                                  # L^2 (w^2 - t^2) per component
    for w_i, t in zip(w, (tp, tm)):
        sq.append(_mul_xu(w_i, w_i))
        sq[-1][0, 0] -= t * t
    L3, L4 = L ** 3, L ** 4
    out = []
    for i, A, n in ((0, Ap, degrees.n_plus), (1, Am, degrees.n_minus)):
        bracket = {key: A * c + B * sq[1 - i][key]  # the same terms in both
                   for key, c in sq[i].items()}
        C = _mul_xu(bracket, w[i])
        for (k, j), c in w[i].items():       # -w'' - w'/r + (n^2/r^2) w
            C[k + 1, j] = C.get((k + 1, j), 0) + (n * n - 4 * k * k) * L3 * c
        rows = [[C.get((k, j), 0) for j in range(4)] for k in range(1, 10)]
        G = math.gcd(L4, *itertools.chain(*rows))
        out.append(_DefectCubics(tuple(
            tuple(c // G for c in row) for row in rows), L4 // G))
    return tuple(out)


def _certified(tables, u: Fraction, R: Fraction) -> bool:
    """Exact certificate of (delta, R), u = delta R^6, for every
    (_DefectCubics, required defect sign) in tables: M_6 has the required
    sign and dominates M_8 .. M_18, which with M_2 = M_4 = 0 fixes the sign
    of the defect on r >= R.  The series are compared as the integers
    m_k = M_2k q^3 den R_num^18, so every decision is the rational one."""
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


class _CertifiedSeries(Sequence):
    """EnvelopeSpec.series of a selected pair, expanded on first read:
    ((branch, (plus, minus (M_2, .., M_18))), ...) in the order of the
    tables."""

    def __init__(self, tables: dict, u: Fraction, R: Fraction):
        self._args = tables, u, R

    @functools.cached_property
    def _items(self) -> tuple:
        tables, u, R = self._args
        return tuple((br, tuple(cubics.series(u, R) for cubics, _ in pair))
                     for br, pair in tables.items())

    def __getitem__(self, i):
        return self._items[i]

    def __len__(self) -> int:
        return len(self._items)


@dataclass(frozen=True)
class EnvelopeSpec:
    """A certified envelope pair and the far-field expansion it certifies.

    The envelopes of component pm are t_pm + a_pm/r^2 + b_pm/r^4 +- delta
    kappa_pm R^6/r^6, upper with +, lower with -.  t_pm and tail (a_pm and
    b_pm, equal to second_coeffs) are the floats of the exact expansion the
    certificate was proved around, so the spec alone gives the envelopes
    and the closed-form tail.  kappa_pm > 0 comes from the sign of B (see
    _envelope_tables); delta and R are the certified pair.
    """

    delta: float
    R: float
    kappa_plus: float
    kappa_minus: float
    t_plus: float
    t_minus: float
    tail: TailExpansion
    # ((branch, (plus, minus (M_2, .., M_18))), ...) certified; () if
    # hand-built.
    # It follows from the other fields and the inputs, so it is not compared.
    series: Sequence = field(default=(), compare=False, repr=False)

    def envelope_c(self, component: str, side: str) -> float:
        """Signed r^-6 amplitude (to be scaled by R^6) for one envelope."""
        sgn = 1.0 if side == "upper" else -1.0
        kappa = self.kappa_plus if component == "plus" else self.kappa_minus
        return sgn * self.delta * kappa


# (sign of the f_+ amplitude, of the f_- amplitude) per envelope pair, +1
# upper / -1 lower: also the required defect signs, since an upper envelope
# needs a defect >= 0, a lower one <= 0.  The flip s keeps sign_- = s sign_+.
_BRANCHES = {"upper_plus_lower_minus": (1, -1),
             "lower_plus_upper_minus": (-1, 1),
             "upper_both": (1, 1), "lower_both": (-1, -1)}


def _envelope_tables(params: CouplingParams, degrees: DegreePair) -> tuple:
    """(tail, kappa, {branch: ((plus cubics, sign), (minus cubics, sign))})
    from one exact conversion of the inputs: tail is second_coeffs_exact,
    the tables are for the branches of the flip s (-1 for B >= 0, +1 for
    B < 0), with the exact amplitudes kappa_pm = (A_mp - s B) /
    ((A_+ A_- - B^2) t_pm) > 0.  The second branch is the first with every
    sign flipped, i.e. at -u, so one expansion gives both."""
    x = _exact_params(params)
    Ap, Am, B, tp, tm = x
    s, D = (-1 if B >= 0 else 1), Ap * Am - B * B
    kp, km = (Am - s * B) / (D * tp), (Ap - s * B) / (D * tm)
    tail = second_coeffs_exact(x, degrees)
    first, second = (br for br, (sp, sm) in _BRANCHES.items() if sm == s * sp)
    sp, sm = _BRANCHES[first]
    plus, minus = _defect_cubics(x, degrees, tail, (sp * kp, sm * km))
    return tail, (kp, km), {first: ((plus, sp), (minus, sm)),
                            second: ((plus.mirrored(), -sp),
                                     (minus.mirrored(), -sm))}


def _radii(pair, base: Fraction) -> list:
    """[least integer R >= 1 with R^(2k-6) >= c |C_k(u)| / |C_3(u)| for
    every (k, c) in _DOMINANCE] at u = base 2^j, j = 1..48, in float on
    the tables as cubics in 2^j over their largest coefficient.  pair is
    one branch's (plus, minus) tables; the other branch's, at -u, are the
    same floats with the odd powers of u negated."""
    basis, tables = _cubic_basis(base), []
    for cubics, _ in pair:
        rows = [c * v for row in cubics.num for c, v in zip(row, basis)]
        big = max(map(abs, rows))
        tables.append([c / big for c in rows])
    tables += [[-c if j % 2 else c for j, c in enumerate(t)] for t in tables]
    y = 2.0 ** np.arange(1, 49)
    C = np.abs(np.reshape(tables, (-1, 9, 4)) @ [y ** 0, y, y * y, y ** 3])
    bound = np.max([(c * C[:, k - 1] / C[:, 2]) ** (1 / (2 * k - 6))
                    for k, c in _DOMINANCE], axis=(0, 1))
    return [max(1, math.ceil(b)) for b in bound]


def select_envelope(params: CouplingParams, degrees: DegreePair) -> EnvelopeSpec:
    """The certified envelope pair (delta, R) of smallest R over u = delta R^6.

    M_6 = C_3(u) / R^6 has its required sign on every table exactly for
    u > u_0, and each such u certifies at every R above its dominance bounds
    (_radii).  Of u = u_0 2^j (base 1 when u_0 <= 0) the smallest R wins,
    then the largest u; delta = u / R^6 as a float, and the exact _certified
    confirms the pair, R rising by 1 until it does.  Both branches that the
    sign of B selects share (delta, R), as the two-sided sandwich needs."""
    tail, kappa, tables = _envelope_tables(params, degrees)
    every = [t for pair in tables.values() for t in pair]
    if any(c for cub, _ in every for row in cub.num[:2] for c in row) or any(
            cub.num[2][1] * req <= 0 for cub, req in every):
        raise SelectionFailed(f"inconsistent defect for {params}, {degrees}: "
                              "M_2 or M_4 nonzero, or M_6 never of its sign")
    u0 = max(Fraction(-cub.num[2][0], cub.num[2][1]) for cub, _ in every)
    base = u0 if u0 > 0 else Fraction(1)
    radii = _radii(every[:2], base)
    j = min(range(1, 49), key=lambda j: (radii[j - 1], -j))
    u = base * 2 ** j
    for R in itertools.count(radii[j - 1]):  # the float bound may fall short
        delta = Fraction(float(u / R ** 6))
        if _certified(every, delta * R ** 6, Fraction(R)):
            break
    return EnvelopeSpec(float(delta), float(R), *map(float, kappa),
                        float(params.t_plus), float(params.t_minus),
                        TailExpansion(*map(float, tail)),
                        _CertifiedSeries(tables, delta * R ** 6, Fraction(R)))


# ---------------------------------------------------------------------------
# envelope evaluation against a solved profile


def envelope_bounds(spec: EnvelopeSpec, r) -> dict:
    """{component: (lower, upper)} envelope values at the radii r, around
    the expansion the spec certifies."""
    tail, out = spec.tail, {}
    for comp, t, a, b in (("plus", spec.t_plus, tail.a_plus, tail.b_plus),
                          ("minus", spec.t_minus, tail.a_minus, tail.b_minus)):
        base = t + a / r ** 2 + b / r ** 4
        out[comp] = tuple(base + spec.envelope_c(comp, side) * spec.R ** 6
                          / r ** 6 for side in ("lower", "upper"))
    return out


def envelope_sandwich(profile: "Profile", spec: EnvelopeSpec) -> tuple:
    """(r, {component: (w_lower, f, w_upper)}) on the nodes r >= R; raises
    ValueError when no node reaches R."""
    r = profile.grid.nodes
    mask = r >= spec.R - 1e-12
    if not mask.any():
        raise ValueError(f"envelope radius R={spec.R} beyond the grid")
    bounds = envelope_bounds(spec, r[mask])
    return r[mask], {comp: (bounds[comp][0], f[mask], bounds[comp][1])
                     for comp, f in (("plus", profile.f_plus),
                                     ("minus", profile.f_minus))}


def envelope_check(profile: "Profile", spec: EnvelopeSpec) -> float:
    """The worst margin of the two-sided sandwich w_lower <= f <= w_upper
    on the nodes r >= R: the profile lies inside exactly when it is >= 0.
    Failure is this negative margin, not an error."""
    return min(min(float(np.min(hi - f)), float(np.min(f - lo)))
               for lo, f, hi in envelope_sandwich(profile, spec)[1].values())


# ---------------------------------------------------------------------------
# tail fitting of solved profiles


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


def tail_fit(profile: "Profile",
             fit_window: tuple | None = None) -> TailExpansion:
    """Fit (f - t) against {r^-2, r^-4} over the window by weighted least
    squares with weights proportional to r^6.

    The weighting equalizes the untracked O(r^-6) model error across the
    window (it would otherwise bias b from the inner edge); concretely the
    fit runs in the scaled variable (f - t) r^6 = a r^4 + b r^2, which also
    keeps the design matrix well conditioned over windows like [R/4, 3R/4].
    """
    mask = _tail_window(profile, fit_window)
    rr = profile.grid.nodes[mask]
    fits = []
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
        fits.append(sol)
    (a_plus, b_plus), (a_minus, b_minus) = fits
    return TailExpansion(*map(float, (a_plus, a_minus, b_plus, b_minus)))

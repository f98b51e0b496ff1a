"""Quantitative checks on solved profiles.

Quantitative checks are evaluated here at desk scale, each returning the
value `verify` gates on: the scaling (Pohozaev-type) identity, the
quantization of the weighted potential integral, the margin below the
amplitude bound f_pm^2 <= t_pm^2 + max(B, 0) t_mp^2/A_pm that the maximum
principle proves (model.derived_bounds), the smallest eigenvalue of the
second variation, and one monotonicity label per pair.
Everything is a pure function of an immutable Profile.  `verify` runs them,
with the tail and envelope checks of `asymptotics`, as one suite of
pass/fail records; `sweep_report` and `plot_columns` hold the per-B sweep
records and the plot data the command line writes.

The second variation is the solver's Newton Jacobian weighted by the
finite-volume masses.  One shift loop brackets its smallest eigenvalue with
O(N) banded Cholesky factorizations; each that succeeds drives three inverse
iterates: after the flip D = diag(1, -sign B) that makes the system
cooperative, the scaled Hessian is a Z-matrix for positive profiles, and the
Collatz-Wielandt quotients of a positive iterate bound the eigenvalue from
both sides.  The first shift is the gate's tolerance, so a profile that
passes costs one factorization; one that fails goes on shifting below the
tolerance until the bracket is narrow.  The lower end of the bracket is the
certified value `verify` and the sweep records report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import asymptotics
from .grid import quadrature, quadrature_upto, radial_operator
from .lapack import dpbtrf, dpbtrs
from .model import CouplingParams, DegreePair, derived_bounds
from .solver import POSITIVITY_TOL, Profile, jacobian, residual_norm


class EigenFailure(RuntimeError):
    """The second variation has non-finite entries or cannot be factored."""


# the tolerances of `verify`, each overridable in a run config
VERIFY_DEFAULTS = {"residual_tol": 1e-10, "quantization_tol": 0.01,
                   "pohozaev_tol": 0.01, "origin_order_tol": 0.05,
                   "bound_tol": 1e-8, "hessian_tol": 1e-8, "tail_a_rel": 0.01,
                   "tail_b_rel": 0.05}


# ---------------------------------------------------------------------------
# integral identities


def _derivatives(profile: Profile):
    return np.gradient(profile.f, profile.grid.nodes, axis=1, edge_order=2)


def _potential_quartic(profile: Profile):
    """Integrand A_+ x^2 + 2B x y + A_- y^2 with x = f_+^2 - t_+^2 etc."""
    p = profile.params
    x, y = profile.f ** 2 - [[p.t_plus ** 2], [p.t_minus ** 2]]
    return p.A_plus * x * x + 2.0 * p.B * x * y + p.A_minus * y * y


def quantization_rhs(profile: Profile) -> float:
    d, p = profile.degrees, profile.params
    return (d.n_plus ** 2 * p.t_plus ** 2 + d.n_minus ** 2 * p.t_minus ** 2)


@dataclass(frozen=True)
class QuantizationResult:
    lhs: float
    rhs: float
    relative_gap: float


def quantization_check(profile: Profile) -> QuantizationResult:
    """Weighted potential integral against its quantized value.

    For a finite-energy vortex pair the integral of the quartic form
    against r dr equals n_+^2 t_+^2 + n_-^2 t_-^2 exactly (the planar
    version carries an extra 2 pi).  The relative gap is |lhs - rhs|
    over max(rhs, 1) so the zero-degree case stays meaningful.
    """
    lhs = quadrature(profile.grid, _potential_quartic(profile))
    rhs = quantization_rhs(profile)
    gap = abs(lhs - rhs) / max(rhs, 1.0)
    return QuantizationResult(lhs=lhs, rhs=rhs, relative_gap=gap)


def pohozaev_residual(profile: Profile, R: float | None = None) -> float:
    """Defect of the scaling identity on the ball of radius R:

        [R f_+'(R)]^2 + [R f_-'(R)]^2 + int_0^R [quartic] r dr
            - (n_+^2 t_+^2 + n_-^2 t_-^2).

    R snaps to the nearest grid node; the boundary derivative is the
    np.gradient stencil of the slope export (edge_order=2), evaluated on the
    at most five nodes around R.  A NaN R is a ValueError.
    """
    g = profile.grid
    if R is None:
        R = g.R_max
    if math.isnan(R):       # it would snap to the origin node
        raise ValueError("Pohozaev radius R is NaN")
    if R > g.R_max + 1e-12:
        raise ValueError(f"R={R} beyond the grid")
    i = int(np.argmin(np.abs(g.nodes - R)))
    R_node = float(g.nodes[i])
    if i == 0:
        raise ValueError("Pohozaev radius must be positive")
    near = slice(max(i - 2, 0), i + 3)      # every node the stencil reads
    dfp, dfm = np.gradient(profile.f[:, near], g.nodes[near], axis=1,
                           edge_order=2)[:, i - near.start]
    boundary = (R_node * dfp) ** 2 + (R_node * dfm) ** 2
    bulk = quadrature_upto(g, _potential_quartic(profile), R_node)
    return float(boundary + bulk - quantization_rhs(profile))


def amplitude_bound_check(profile: Profile) -> float:
    """The smaller margin Lambda_pm^2 - max_i f_pm^2 below the per-component
    bounds of derived_bounds, which the maximum principle proves; negative
    when a component exceeds its bound."""
    return float(np.min(derived_bounds(profile.params)
                        - np.max(np.square(profile.f), axis=1)))


# ---------------------------------------------------------------------------
# second variation


def _retained_unknowns(profile: Profile):
    """Interleaved (+, -) indices of the unknowns the second variation
    keeps: arange(2N) leaves out both R_max unknowns (2N and 2N + 1), and a
    component with nonzero winding also loses its origin unknown."""
    dropped = [c for c, n in enumerate((profile.degrees.n_plus,
                                        profile.degrees.n_minus)) if n != 0]
    return np.delete(np.arange(2 * profile.grid.N), dropped)


def second_variation_matrix(profile: Profile):
    """The discrete quadratic form of the energy around the profile.

    K = diag(m) J restricted to the retained unknowns, where J is the Newton
    Jacobian of the discrete residual and m the operator's row masses
    (`grid.radial_operator`), the finite-volume mass of each node under
    r dr: r_i hbar_i inside and the exact measure h_0^2/8 of the origin's
    half cell.  This mass turns the conservative stencil into a symmetric
    matrix on any grid, the one the solver factors at B = 0.  Components
    with nonzero winding lose the origin unknown (test functions vanish
    there); both components lose R_max (decaying perturbations).

    Returns (K_band, masses): K_band is the upper symmetric banded storage
    (rows: offset 2, offset 1, diagonal) over the retained unknowns,
    interleaved (+, -) per node, and masses the diagonal metric.
    """
    n_plus, n_minus = profile.degrees.n_plus, profile.degrees.n_minus
    # interleaved per node, as the band orders the unknowns
    mass = radial_operator(profile.grid, (n_plus, n_minus)).mass.T.ravel()
    ab = jacobian(profile)  # ab[2 + i - j, j] = J[i, j]
    # the upper band of diag(m) J over every unknown but R_max's:
    # full[2 - k, j] is K[j - k, j]
    n = ab.shape[1] - 2
    full = ab[:3, :n]
    full[2] *= mass[:n]
    full[1, 1:] *= mass[:n - 1]
    full[0, 2:] *= mass[:n - 2]
    # the dropped origin unknowns lead the interleaved order, except the
    # f_- one alone, which sits between (0, +) and (1, +): its column and
    # its mass give way to (0, +), whose neighbour (1, +) is then one
    # column away
    first = (n_plus != 0) + (n_minus != 0)
    band, masses = full[:, first:], mass[first:n]
    if n_minus and not n_plus:
        band[2, 0], band[1, 1], band[0, 2] = full[2, 0], full[0, 2], 0.0
        masses[0] = mass[0]
    band[1, 0] = band[0, :2] = 0.0    # outside K or on a dropped unknown
    return band, masses


def _band_matvec(sym, u):
    """S u for S in upper symmetric banded storage with two off-diagonals."""
    y = sym[2] * u
    for k in (1, 2):
        y[k:] += sym[2 - k, k:] * u[:-k]
        y[:-k] += sym[2 - k, k:] * u[k:]
    return y


def _collatz_wielandt(flip, u, su):
    """(min q, max q) with q = (D S u) / (D u) for D = diag(flip), or None
    unless D u > 0.  When D S D is a Z-matrix the pair brackets lambda_min
    of S (Collatz-Wielandt)."""
    x = flip * u
    if not np.all(x > 0):
        return None
    q = flip * su / x
    return float(np.min(q)), float(np.max(q))


def second_variation_min_eig(
        profile: Profile,
        hessian_tol: float = VERIFY_DEFAULTS["hessian_tol"]) -> tuple:
    """Certified bracket (lower, upper) of the smallest eigenvalue of the
    second variation in the r-weighted inner product (generalized problem
    K u = lambda M u), and the gate lambda_min >= -hessian_tol decided by
    its first factorization.

    With S = M^{-1/2} K M^{-1/2}, S - shift I has a Cholesky factor exactly
    when shift < lambda_min.  One loop narrows the bracket with one O(N)
    banded factorization per pass.  A factor that exists raises the lower
    end to its shift and drives three steps of inverse iteration from the
    start vector below: rho, the Rayleigh quotient of the last iterate u,
    caps the upper end, and its Collatz-Wielandt quotients q move both ends.
    A factorization that fails lowers the upper end to just below its shift.

    The first shift is sigma = -hessian_tol.  When it factors, the gate
    passes and the loop returns at once with [max(sigma, min q),
    min(rho, max q)], so lower >= -hessian_tol holds by construction.  When
    it does not, lambda_min <= sigma: the lower end drops to the Gershgorin
    bound, and the loop goes on below sigma until the bracket is narrower
    than a relative 1e-12 or eps ||S||_inf, below which the factorization
    cannot tell two shifts apart; lower <= upper < -hessian_tol then holds
    by construction.  Each further shift is rho - 2 ||S u - rho u||, just
    below the eigenvalue that the Krylov-Weinstein bound places within
    ||S u - rho u|| of rho (u is the start vector after the first failure),
    or the midpoint when that shift leaves the bracket or the last
    factorization failed.

    The flip D = diag(1, -sign B) on the (+, -) unknowns (D = I for B <= 0)
    reflects f_- as the paper's comparison argument does.  When both
    off-diagonal bands of D S D are <= 0 (the Z pattern: the Laplacian
    entries always are, the coupling 2B f_+ f_- is once the components are
    positive), D S D is a symmetric Z-matrix, so for every x > 0 the
    Collatz-Wielandt quotients q = (D S D x) / x satisfy min q <= lambda_min
    <= max q.  The start vector is D times the constant pair in the metric;
    it is positive after the flip, and by Perron-Frobenius the lowest mode
    of D S D has no sign change, so the start has weight on that mode.
    Below lambda_min, D S D - shift I is a nonsingular M-matrix whose
    Cholesky factor has nonpositive off-diagonal entries, so each
    triangular solve only adds nonnegative terms: x = D u stays positive in
    floating point too.  Without the Z pattern a passing lower end is sigma.

    In floating point a successful factorization proves shift < lambda_min
    up to its O(eps ||S||) backward error, and a computed quotient q_i is
    off by at most gamma_6 (|S| x)_i / x_i = gamma_6 (|S_ii| + S_ii - q_i):
    at most about 18 eps ||S||_inf at a row that sets an end, since such a
    row has q_i above the Gershgorin bound -||S||_inf.  That is the order of
    the factorization's own error, so no slack is subtracted, and nothing is
    proven beyond that roundoff.  A non-finite hessian_tol is a ValueError.
    """
    if not math.isfinite(hessian_tol):
        raise ValueError(f"hessian_tol must be finite, not {hessian_tol}")
    band, masses = second_variation_matrix(profile)
    if not np.all(np.isfinite(band)):
        raise EigenFailure("second variation has non-finite entries")
    scale = np.sqrt(masses)
    sym = band / masses     # the diagonal is final, both bands are redone
    sym[1, 1:] = band[1, 1:] / (scale[1:] * scale[:-1])
    sym[0, 2:] = band[0, 2:] / (scale[2:] * scale[:-2])
    minus = _retained_unknowns(profile) % 2 == 1
    flip = np.where(minus & (profile.params.B > 0), -1.0, 1.0)
    z_pattern = all(np.all(sym[2 - k, k:] * flip[k:] * flip[:-k] <= 0)
                    for k in (1, 2))
    sigma = shift = -hessian_tol
    hi, floor = math.inf, None      # floor is set once sigma fails
    shifted = np.empty_like(sym, order="F")  # LAPACK layout: factored in place
    u = scale * flip
    while True:
        shifted[:] = sym
        shifted[2] -= shift
        _, info = dpbtrf(shifted, lower=0, overwrite_ab=1)
        if info < 0:
            raise EigenFailure(f"banded Cholesky rejected argument {-info}")
        if info == 0:
            lo = shift
            for _ in range(3):  # rescaled: a far shift cannot underflow u
                u /= np.max(np.abs(u))
                u, _ = dpbtrs(shifted, u, overwrite_b=1)  # the factor
            u /= np.max(np.abs(u))
        else:
            hi = float(np.nextafter(shift, -np.inf))
            if floor is None:   # the gate fails; u is still the start vector
                radius = np.abs(sym[1]) + np.abs(sym[0])
                radius[:-1] += np.abs(sym[1, 1:])
                radius[:-2] += np.abs(sym[0, 2:])
                lo = float(np.min(sym[2] - radius))
                floor = np.finfo(float).eps * float(
                    np.max(np.abs(sym[2]) + radius))
        if info == 0 or shift == sigma:     # a new u, or the start vector
            # numpy sums, not BLAS dot: a threaded ddot can spend
            # milliseconds waking its threads on every call
            u /= np.sqrt(np.sum(u * u))
            su = _band_matvec(sym, u)
            rho = float(np.sum(u * su))
            hi = min(hi, rho)
            bounds = _collatz_wielandt(flip, u, su) if z_pattern else None
            if bounds is not None:
                lo, hi = max(lo, bounds[0]), min(hi, bounds[1])
            if floor is None:   # sigma factored: the gate passes
                return lo, hi
            su -= rho * u
            shift = rho - 2.0 * float(np.sqrt(np.sum(su * su)))
        if hi - lo <= max(1e-12 * max(abs(lo), abs(hi)), floor):
            return min(lo, hi), hi
        if not lo < shift < hi:     # after a failure, shift is above hi
            shift = 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# monotonicity


class MonotonicityLabel(str, Enum):
    BothNondecreasing = "BothNondecreasing"
    PlusUpMinusDown = "PlusUpMinusDown"
    NonMonotonePlus = "NonMonotonePlus"
    NonMonotoneMinus = "NonMonotoneMinus"
    Other = "Other"


def monotonicity_classify(profile: Profile,
                          slope_tol: float = 1e-6) -> MonotonicityLabel:
    """Classify the slope pattern of the two components.

    Discrete slopes (central differences) below -slope_tol * t/R_max or above
    +slope_tol * t/R_max count as genuine; smaller wiggles are discretization
    noise.  A component that violates both one-sided tests is non-monotone.
    """
    r, f, p = profile.grid.nodes, profile.f, profile.params
    slopes = (f[:, 2:] - f[:, :-2]) / (r[2:] - r[:-2])
    tols = slope_tol * np.array([p.t_plus, p.t_minus]) / profile.grid.R_max
    sp, sm = ("up" if low >= -tol else "down" if high <= tol else "non"
              for low, high, tol in zip(np.min(slopes, axis=1),
                                        np.max(slopes, axis=1), tols))
    if sp == "up" and sm == "up":
        return MonotonicityLabel.BothNondecreasing
    if sp == "up" and sm == "down":
        return MonotonicityLabel.PlusUpMinusDown
    if sp == "non" and sm != "non":
        return MonotonicityLabel.NonMonotonePlus
    if sm == "non" and sp != "non":
        return MonotonicityLabel.NonMonotoneMinus
    return MonotonicityLabel.Other


def near_origin_order(profile: Profile) -> tuple:
    """Fitted exponents of log f against log r over the first decade of
    nodes; should match the winding numbers for converged profiles."""
    r = profile.grid.nodes
    lo, hi = r[1], 10.0 * r[1]
    mask = (r >= lo) & (r <= hi)
    out = []
    for f in profile.f:
        sel = mask & (f > 1e-300)
        out.append(float(np.polyfit(np.log(r[sel]), np.log(f[sel]), 1)[0])
                   if sel.sum() >= 3 else math.nan)
    return tuple(out)


# ---------------------------------------------------------------------------
# the verification suite, sweep records and plot data


def verify(profile: Profile, tolerances: dict = VERIFY_DEFAULTS) -> list:
    """The check suite: one {"check", "value", "target", "tolerance",
    "pass"} record per check.  The residual is gated on residual_tol, never
    on the file's own report.  A check that cannot be computed fails with
    the error message as its value, and a non-finite value fails as its
    string ("nan", "inf", "-inf"): strict JSON has neither."""
    checks = []

    def check(name, value, target, tolerance, passed):
        if isinstance(value, float) and not math.isfinite(value):
            value, passed = str(value), False
        checks.append({"check": name, "value": value, "target": target,
                       "tolerance": tolerance, "pass": bool(passed)})

    tol = tolerances
    resnorm = residual_norm(profile)
    check("residual_norm", resnorm, 0.0, tol["residual_tol"],
          resnorm <= tol["residual_tol"])

    low = float(np.min(profile.f))
    check("positivity_min", low, 0.0, POSITIVITY_TOL, low >= -POSITIVITY_TOL)

    margin = amplitude_bound_check(profile)
    check("amplitude_bound_margin", margin, 0.0, tol["bound_tol"],
          margin >= -tol["bound_tol"])

    q = quantization_check(profile)
    check("quantization_gap", q.relative_gap, 0.0, tol["quantization_tol"],
          q.relative_gap <= tol["quantization_tol"])

    poh_rel = abs(pohozaev_residual(profile)) / max(q.rhs, 1.0)
    check("pohozaev_at_R_max", poh_rel, 0.0, tol["pohozaev_tol"],
          poh_rel <= tol["pohozaev_tol"])

    d = profile.degrees
    for comp, got, n in zip(("plus", "minus"), near_origin_order(profile),
                            (d.n_plus, d.n_minus)):
        check(f"near_origin_order_{comp}", got, float(n),
              tol["origin_order_tol"], abs(got - n) <= tol["origin_order_tol"])

    try:    # the certified lower end, >= -hessian_tol exactly on a pass
        eig, _ = second_variation_min_eig(profile, tol["hessian_tol"])
        check("hessian_min_eig", eig, 0.0, tol["hessian_tol"],
              eig >= -tol["hessian_tol"])
    except EigenFailure as exc:
        check("hessian_min_eig", str(exc), None, None, False)

    p, tail = profile.params, None
    try:    # the closed-form tail comes with the certified envelope
        spec = asymptotics.select_envelope(p, profile.degrees)
        tail = spec.tail
        worst = asymptotics.envelope_check(profile, spec)
        sandwich = (worst, 0.0, 0.0, worst >= 0.0)
    except (asymptotics.SelectionFailed,        # inputs far from unit scale
            ValueError) as exc:                 # a grid that ends before R
        sandwich = (str(exc), None, None, False)
    try:    # without a spec, second_coeffs may leave the float range
        tail = tail or asymptotics.second_coeffs(p, profile.degrees)
        fit = asymptotics.tail_fit(profile)
        # relative tolerances, floored for coefficients near zero
        for coeff, rel, floor in (("a", tol["tail_a_rel"], 1e-4),
                                  ("b", tol["tail_b_rel"], 1e-2)):
            for comp, t in (("plus", p.t_plus), ("minus", p.t_minus)):
                name = f"{coeff}_{comp}"
                got, want = getattr(fit, name), getattr(tail, name)
                bound = max(rel * abs(want), floor * t)
                check(f"tail_{name}", got, want, bound, abs(got - want) <= bound)
    except (asymptotics.IllConditionedFit, OverflowError) as exc:
        check("tail_fit", str(exc), None, None, False)

    check("envelope_sandwich", *sandwich)
    return checks


def sweep_report(params: CouplingParams, degrees: DegreePair, b_values,
                 results,
                 hessian_tol: float = VERIFY_DEFAULTS["hessian_tol"]) -> dict:
    """A record per B of continuation_sweep's results (a failed solve or
    Hessian gives "converged": false and the error) and empirical_B0, the
    largest B at which both components are nondecreasing.  A record's
    hessian_min_eig and hessian_min_eig_upper are the ends of the bracket
    second_variation_min_eig certifies at hessian_tol.  Results of another
    length than b_values are a ValueError."""
    records = []
    for b, result in zip(b_values, results, strict=True):
        a = asymptotics.leading_coeffs(replace(params, B=b), degrees)
        record = {"B": b, "converged": False, "class": None,
                  "a_plus": a[0], "a_minus": a[1],
                  "quantization_gap": None, "hessian_min_eig": None,
                  "hessian_min_eig_upper": None}
        if isinstance(result, Profile):
            try:
                lower, upper = second_variation_min_eig(result, hessian_tol)
                record.update({
                    "converged": True,
                    "class": monotonicity_classify(result).value,
                    "quantization_gap": quantization_check(result).relative_gap,
                    "hessian_min_eig": lower,
                    "hessian_min_eig_upper": upper})
            except EigenFailure as exc:
                result = exc
        if not record["converged"]:
            record["error"] = str(result)
        records.append(record)
    nondecr = [r["B"] for r in records if r["class"] == "BothNondecreasing"]
    return {"records": records,
            "empirical_B0": max(nondecr) if nondecr else None}


def plot_columns(profile: Profile, kind: str):
    """(header, columns) of plot data: "profiles", "slopes", "tail" ((f - t)
    r^2 -> a and (f - t - a/r^2) r^4 -> b) or "envelope" (the certified
    sandwich on the nodes r >= R that envelope_check judges; ValueError when
    no node reaches R)."""
    r = profile.grid.nodes
    if kind == "profiles":
        return ["r", "f_plus", "f_minus"], [r, *profile.f]
    if kind == "slopes":
        return ["r", "df_plus", "df_minus"], [r, *_derivatives(profile)]
    if kind == "tail":
        p, mask = profile.params, r > 0
        a = np.array(asymptotics.leading_coeffs(p, profile.degrees))
        rr = r[mask]
        y = profile.f[:, mask] - [[p.t_plus], [p.t_minus]]
        return (["r", "tail2_plus", "tail2_minus", "resid4_plus",
                 "resid4_minus"],
                [rr, *(y * rr ** 2), *((y - a[:, None] / rr ** 2) * rr ** 4)])
    if kind == "envelope":
        spec = asymptotics.select_envelope(profile.params, profile.degrees)
        rr, *sandwich = asymptotics.envelope_sandwich(profile, spec)
        return (["r", "w_lower_plus", "f_plus", "w_upper_plus",
                 "w_lower_minus", "f_minus", "w_upper_minus"],
                [rr, *(rows[k] for k in (0, 1) for rows in sandwich)])
    raise ValueError(f"unknown plot data kind {kind!r}")

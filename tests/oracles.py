"""Independent reference computations used by the test suite.

Everything here is deliberately written against the library's main solve
path: the scalar profile comes from shooting (RK integration plus bisection
on the core slope, matched to a nine-term asymptotic series at a fixed
radius), the scalar Hessian is assembled with plain loops and solved by
a different LAPACK route, and the coupled Hessian band is assembled node by
node.  None of it touches the package's Newton/banded machinery.  The
smallest Hessian eigenvalue is also bisected with one banded Cholesky
factorization per halving, as the package first computed it.  The
envelope proof expands the whole defect in Fractions for one (delta, R),
requires M_6 dominance and proves the sign of the whole series with a
Fraction Sturm root count on (0, 1), where the package relies on
M_2 = M_4 = 0 instead; it derives its own amplitudes and branch signs from
the comparison systems and shares only the closed-form tail coefficients
with the package.  The last section holds checks that no command runs: the
finite-ball energy, the derivative tail constant and the uniqueness probe,
which, unlike the references above, runs the package's own Newton
iteration from several starts.
"""

import itertools
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpbtrf

from glvortex.asymptotics import (_tail_window, leading_coeffs,
                                  second_coeffs_exact)
from glvortex.diagnostics import (EigenFailure, _derivatives,
                                  _potential_quartic, second_variation_matrix)
from glvortex.grid import quadrature_upto
from glvortex.solver import (NoConvergence, SingularJacobian, initial_guess,
                             newton_solve)


def scalar_tail_coeffs(A, t, n, orders=9):
    """Tail coefficients c_2, c_4, ... of the scalar profile
    f = t + sum_k c_2k / r^(2k), by exact rational recurrence.

    Matching the r^(-2m) coefficient of the scalar equation gives
        (n^2 - 4(m-1)^2) c_{2(m-1)} + A * E_m = 0,
    where E_m is the x^m coefficient of (f^2 - t^2) f as a polynomial in
    x = 1/r^2; E_m contains 2 t^2 c_{2m} linearly, which is solved for.
    The series is asymptotic: evaluate it only where the last retained term
    is still shrinking.
    """
    A, t = Fraction(A), Fraction(t)
    n2 = Fraction(n * n)
    c = [t]  # c[k] multiplies x^k
    for m in range(1, orders + 1):
        trial = c + [Fraction(0)]
        sq = [Fraction(0)] * (2 * m + 1)
        for i, ci in enumerate(trial):
            for j, cj in enumerate(trial):
                if i + j <= 2 * m:
                    sq[i + j] += ci * cj
        sq[0] -= t * t
        e_m = Fraction(0)
        for j in range(1, m + 1):
            e_m += sq[j] * trial[m - j]
        c_m = -((n2 - 4 * Fraction((m - 1) ** 2)) * c[m - 1] + A * e_m) \
            / (2 * A * t * t)
        c.append(c_m)
    return [float(v) for v in c[1:]]


def _eval_tail(t, tail, r):
    return t + sum(ck / r ** (2 * (k + 1)) for k, ck in enumerate(tail))


def _shoot_once(A, t, n, c, r_end, rtol=1e-13):
    """Integrate outward from a series start near r = 0; terminal events
    catch trajectories that escape above t or roll over early."""
    r0 = 1e-3
    d = -A * t * t * c / (4.0 * (n + 1.0))
    y0 = [c * r0 ** n + d * r0 ** (n + 2),
          n * c * r0 ** (n - 1) + (n + 2) * d * r0 ** (n + 1)]

    def rhs(r, y):
        f, df = y
        return [df, -df / r + n * n * f / r ** 2 + A * (f * f - t * t) * f]

    def overshoot(r, y):
        return y[0] - t
    overshoot.terminal = True
    overshoot.direction = 1.0

    def peak(r, y):
        return y[1]
    peak.terminal = True
    peak.direction = -1.0

    return solve_ivp(rhs, (r0, r_end), y0, method="DOP853", rtol=rtol,
                     atol=1e-15, dense_output=True,
                     events=(overshoot, peak))


def scalar_gl_profile(A, t, n, r_nodes, r_match=12.0):
    """Scalar vortex profile samples at r_nodes by shooting + tail series.

    The core slope is bisected so that the trajectory lands exactly on the
    asymptotic series at r_match; the shooting error is then bounded by the
    series truncation there (the difference between two members of the
    shooting family decays toward the core), and the instability of outward
    integration never enters.
    """
    if n == 0:
        return np.full_like(np.asarray(r_nodes, float), t)
    tail = scalar_tail_coeffs(A, t, n)
    target = _eval_tail(t, tail, r_match)

    def classify(c):
        sol = _shoot_once(A, t, n, c, r_match)
        if sol.t_events[0].size:
            return "high", sol
        if sol.t_events[1].size:
            return "low", sol
        return ("high", sol) if sol.y[0, -1] > target else ("low", sol)

    scale = t * (np.sqrt(A) * t) ** n
    lo = hi = None
    c = 0.6 * scale
    for _ in range(80):
        kind, _ = classify(c)
        if kind == "low":
            lo = c
            if hi is not None:
                break
            c *= 2.0
        else:
            hi = c
            if lo is not None:
                break
            c *= 0.5
    if lo is None or hi is None:
        raise RuntimeError("failed to bracket the shooting slope")
    sol_star = None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        kind, sol = classify(mid)
        if kind == "low":
            lo = mid
        else:
            hi = mid
        if not sol.t_events[0].size and not sol.t_events[1].size:
            sol_star = sol
    if sol_star is None:
        raise RuntimeError("bisection never reached the match radius")
    reach = sol_star.t[-1]

    r = np.asarray(r_nodes, dtype=float)
    out = np.empty_like(r)
    inner = (r <= min(r_match, reach)) & (r >= sol_star.t[0])
    out[inner] = sol_star.sol(r[inner])[0]
    core = r < sol_star.t[0]
    c_star = 0.5 * (lo + hi)
    d = -A * t * t * c_star / (4.0 * (n + 1.0))
    out[core] = c_star * r[core] ** n + d * r[core] ** (n + 2)
    outer = ~inner & ~core
    out[outer] = _eval_tail(t, tail, r[outer])
    return out


def scalar_hessian_min_eig(A, t, n, f, r_nodes):
    """Smallest eigenvalue of the scalar second-variation operator
    -(1/r)(r u')' + n^2/r^2 + A(3f^2 - t^2) on the given mesh, u(0) = 0
    (n != 0) and u(R) = 0, in the r-weighted inner product.

    Plain-loop tridiagonal assembly, solved by eigh_tridiagonal.
    """
    r = np.asarray(r_nodes, float)
    N = len(r) - 1
    h = np.diff(r)
    start = 1 if n != 0 else 0
    idx = list(range(start, N))
    ndof = len(idx)
    diag = np.zeros(ndof)
    off = np.zeros(ndof - 1)
    # finite-volume masses under r dr
    mid = 0.5 * (r[:-1] + r[1:])
    m = np.empty(N + 1)
    m[0] = 0.5 * mid[0] ** 2
    m[1:-1] = 0.5 * (mid[1:] ** 2 - mid[:-1] ** 2)
    m[-1] = 0.5 * (r[-1] ** 2 - mid[-1] ** 2)
    for k, i in enumerate(idx):
        acc = 0.0
        if i > 0:
            acc += mid[i - 1] / h[i - 1]
        acc += mid[i] / h[i]
        cent = 0.0 if i == 0 else n * n / r[i] ** 2
        pot = A * (3.0 * f[i] ** 2 - t * t)
        diag[k] = acc + m[i] * (cent + pot)
        if k + 1 < ndof:
            off[k] = -mid[i] / h[i]
    scale = np.sqrt(m[start:N])
    diag = diag / m[start:N]
    off = off / (scale[1:] * scale[:-1])
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                            eigvals_only=True)
    return float(vals[0])


def hessian_band_loop(profile):
    """Second variation of the energy assembled node by node, as
    (upper band, masses) over the retained unknowns in the library's layout.

    Plain loops over cells and nodes with dual-cell masses
    (r_{i+1/2}^2 - r_{i-1/2}^2)/2; these equal the library's r_i hbar_i on
    uniform grids, so there the two assemblies must agree to roundoff.
    """
    g, p, d = profile.grid, profile.params, profile.degrees
    r = g.nodes
    N = len(r) - 1
    h = np.diff(r)
    mid = 0.5 * (r[:-1] + r[1:])
    m = np.empty(N + 1)
    m[0] = 0.5 * mid[0] ** 2
    m[1:-1] = 0.5 * (mid[1:] ** 2 - mid[:-1] ** 2)
    m[-1] = 0.5 * (r[-1] ** 2 - mid[-1] ** 2)

    # global index per (component, node); -1 marks a dropped unknown
    gp = [-1] * (N + 1)
    gm = [-1] * (N + 1)
    ndof = 0
    for i in range(N):
        if not (i == 0 and d.n_plus != 0):
            gp[i] = ndof
            ndof += 1
        if not (i == 0 and d.n_minus != 0):
            gm[i] = ndof
            ndof += 1

    band = np.zeros((3, ndof))

    def add(i, j, val):
        if i < 0 or j < 0:
            return
        lo, hi = min(i, j), max(i, j)
        band[2 - (hi - lo), hi] += val

    fp, fm = profile.f
    pot = (p.A_plus * (3.0 * fp ** 2 - p.t_plus ** 2)
           + p.B * (fm ** 2 - p.t_minus ** 2),
           p.A_minus * (3.0 * fm ** 2 - p.t_minus ** 2)
           + p.B * (fp ** 2 - p.t_plus ** 2))
    for comp, gg, n in ((0, gp, d.n_plus), (1, gm, d.n_minus)):
        for i in range(N):
            w = mid[i] / h[i]
            add(gg[i], gg[i], w)
            add(gg[i + 1], gg[i + 1], w)
            add(gg[i], gg[i + 1], -w)
        for i in range(N):
            if gg[i] >= 0:
                cent = 0.0 if i == 0 else n * n / r[i] ** 2
                add(gg[i], gg[i], m[i] * (cent + pot[comp][i]))
    for i in range(N):
        add(gp[i], gm[i], m[i] * 2.0 * p.B * fp[i] * fm[i])

    masses = np.zeros(ndof)
    for i in range(N):
        if gp[i] >= 0:
            masses[gp[i]] = m[i]
        if gm[i] >= 0:
            masses[gm[i]] = m[i]
    return band, masses


def min_eig_bisection(profile):
    """Smallest eigenvalue of the second variation in the r-weighted inner
    product (generalized problem K u = lambda M u).

    With S = M^{-1/2} K M^{-1/2}, S - sigma I has a Cholesky factor exactly
    when sigma < lambda_min, so lambda_min is bisected between the
    Gershgorin lower bound and the smallest diagonal entry (a Rayleigh
    quotient) with one O(N) banded factorization per step.  Bisection stops
    at a relative width of 1e-12, or at eps ||S|| below which the
    factorization cannot tell two shifts apart.
    """
    band, masses = second_variation_matrix(profile)
    if not np.all(np.isfinite(band)):
        raise EigenFailure("second variation has non-finite entries")
    scale = np.sqrt(masses)
    sym = np.zeros_like(band, order="F")  # LAPACK layout: factor in place
    sym[2] = band[2] / masses
    sym[1, 1:] = band[1, 1:] / (scale[1:] * scale[:-1])
    sym[0, 2:] = band[0, 2:] / (scale[2:] * scale[:-2])
    radius = np.abs(sym[1]) + np.abs(sym[0])
    radius[:-1] += np.abs(sym[1, 1:])
    radius[:-2] += np.abs(sym[0, 2:])
    lo = float(np.min(sym[2] - radius))
    hi = float(np.min(sym[2]))
    floor = np.finfo(float).eps * float(np.max(np.abs(sym[2]) + radius))
    shifted = np.empty_like(sym)
    while hi - lo > max(1e-12 * max(abs(lo), abs(hi)), floor):
        sigma = 0.5 * (lo + hi)
        shifted[:] = sym
        shifted[2] -= sigma
        _, info = dpbtrf(shifted, lower=0, overwrite_ab=1)
        if info < 0:
            raise EigenFailure(f"banded Cholesky rejected argument {-info}")
        if info == 0:
            lo = sigma
        else:
            hi = sigma
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# envelope selection as first written: every (delta, R) candidate expands the
# whole defect in Fractions, and sign definiteness uses a Fraction Sturm chain


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def exact_inputs(params):
    """(A_+, A_-, B, t_+, t_-) as exact rationals."""
    return tuple(map(_frac, (params.A_plus, params.A_minus, params.B,
                             params.t_plus, params.t_minus)))


def closed_form_tail(params, degrees):
    """((a_+, a_-), (b_+, b_-)) exact: the package's closed forms, the one
    thing the envelope proof below shares with it."""
    ap, am, bp, bm = second_coeffs_exact(exact_inputs(params), degrees)
    return (ap, am), (bp, bm)


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_rem(num, den):
    num = _poly_trim(list(num))
    den = _poly_trim(list(den))
    dn = len(den) - 1
    lead = den[-1]
    while num and len(num) - 1 >= dn:
        k = len(num) - 1 - dn
        factor = num[-1] / lead
        for i, c in enumerate(den):
            num[k + i] -= factor * c
        num.pop()
        _poly_trim(num)
    return num


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_roots_open_unit(p):
    """Distinct real roots of p in (0, 1) from the Fraction Sturm chain;
    requires p(0) != 0 and p(1) != 0."""
    p = [Fraction(c) for c in p]
    chain = [p, [Fraction(k) * c for k, c in enumerate(p)][1:]]
    while len(chain[-1]) > 0:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return _sign_changes(chain, Fraction(0)) - _sign_changes(chain, Fraction(1))


def series_sign_definite(coeffs, required_sign):
    p = _poly_trim([Fraction(0)] + [Fraction(c) for c in coeffs])
    if not p:
        return True
    m = 0
    while p[m] == 0:
        m += 1
    q = p[m:]
    if (q[0] > 0) != (required_sign > 0):
        return False
    at_one = _poly_eval(q, Fraction(1))
    if at_one == 0 or (at_one > 0) != (required_sign > 0):
        return False
    return not (len(q) > 1 and sturm_roots_open_unit(q) > 0)


def defect_series(params, degrees, a, b, c, R):
    """(M_2..M_18 for plus, for minus) of the envelope pair
    w_pm = t_pm + a_pm/r^2 + b_pm/r^4 + c_pm R^6/r^6, one full expansion."""
    Ap, Am, B, tp, tm = exact_inputs(params)
    R = _frac(R)
    R6 = R ** 6
    w_plus = [tp, _frac(a[0]), _frac(b[0]), _frac(c[0]) * R6]
    w_minus = [tm, _frac(a[1]), _frac(b[1]), _frac(c[1]) * R6]
    out = []
    for w_self, w_other, A, t_self, t_other, n in (
            (w_plus, w_minus, Ap, tp, tm, degrees.n_plus),
            (w_minus, w_plus, Am, tm, tp, degrees.n_minus)):
        C = [Fraction(0)] * 10
        for k, p in enumerate(w_self):
            if k >= 1:
                C[k + 1] -= 4 * Fraction(k * k) * p   # -w'' - w'/r
            C[k + 1] += Fraction(n * n) * p           # (n^2/r^2) w
        sq_self = _poly_mul(w_self, w_self)
        sq_self[0] -= t_self * t_self
        sq_other = _poly_mul(w_other, w_other)
        sq_other[0] -= t_other * t_other
        bracket = [A * u for u in sq_self]
        for k, v in enumerate(sq_other):
            bracket[k] += B * v
        for k, v in enumerate(_poly_mul(bracket, w_self)):
            C[k] += v
        out.append(tuple(C[k] / R ** (2 * k) for k in range(1, 10)))
    return tuple(out)


def _dominance_ok(m):
    m6 = abs(m[2])
    if m6 == 0:
        return False
    return (all(20 * abs(m[k - 1]) <= m6 for k in (4, 5, 7, 8))
            and all(5 * abs(m[k - 1]) <= m6 for k in (6, 9)))


# per family: its branches as (name, sign of c_plus, sign of c_minus); the
# defect of an upper (+1) envelope must be >= 0, of a lower (-1) one <= 0
BRANCHES = {
    "mixed": (("upper_plus_lower_minus", +1, -1),
              ("lower_plus_upper_minus", -1, +1)),
    "hat": (("upper_both", +1, +1), ("lower_both", -1, -1)),
}


def envelope_family(params):
    return "mixed" if params.B >= 0 else "hat"


def envelope_amplitudes(params):
    """|c_plus|, |c_minus| per unit delta: the solution of
    A_+ t_+ c_+ + B t_- c_- = 1,  B t_+ c_+ + A_- t_- c_- = -1 (mixed, B >= 0)
    or = 1 (hat, B < 0), by Cramer's rule."""
    Ap, Am, B, tp, tm = exact_inputs(params)
    rhs_m = -1 if envelope_family(params) == "mixed" else 1
    det = (Ap * tp) * (Am * tm) - (B * tm) * (B * tp)
    c_plus = (Am * tm - B * tm * rhs_m) / det
    c_minus = (Ap * tp * rhs_m - B * tp) / det
    return abs(c_plus), abs(c_minus)


def verify_envelope_pair(params, degrees, delta, R, branch):
    """One candidate, certified from scratch."""
    kp, km = envelope_amplitudes(params)
    _, sp, sm = next(b for fam in BRANCHES.values() for b in fam
                     if b[0] == branch)
    delta = _frac(delta)
    series = defect_series(params, degrees, *closed_form_tail(params, degrees),
                           (sp * delta * kp, sm * delta * km), R)
    for m, req in zip(series, (sp, sm)):
        if m[2] == 0 or (m[2] > 0) != (req > 0):
            return False
        if not _dominance_ok(m) or not series_sign_definite(m, req):
            return False
    return True


# ---------------------------------------------------------------------------
# checks that no command runs


def radial_energy(profile, R=None):
    """Finite-ball energy

        (1/2) int_0^R { |f'|^2 + (n^2/r^2) f^2 + (1/2) [quartic] } r dr

    summed over both components.  The centrifugal term is integrable at the
    origin because f vanishes like r^n there; the node at r = 0 carries zero
    quadrature weight, so its value is set to the limit."""
    g, d = profile.grid, profile.degrees
    R = g.R_max if R is None else R
    if R > g.R_max + 1e-12:
        raise ValueError(f"R={R} beyond the grid")
    dfp, dfm = _derivatives(profile)
    with np.errstate(divide="ignore", invalid="ignore"):
        cent = (d.n_plus ** 2 * profile.f[0] ** 2
                + d.n_minus ** 2 * profile.f[1] ** 2) / g.nodes ** 2
    cent[0] = 0.0
    integrand = dfp ** 2 + dfm ** 2 + cent + 0.5 * _potential_quartic(profile)
    return 0.5 * quadrature_upto(g, integrand, R)


def derivative_tail_check(profile):
    """Empirical constants (C2_plus, C2_minus) of the derivative tail bound:
    max over tail_fit's window of |f' + 2a/r^3| r^5, a from the closed form."""
    r = profile.grid.nodes
    mask = _tail_window(profile)
    return tuple(float(np.max(np.abs(df[mask] + 2.0 * a / r[mask] ** 3)
                              * r[mask] ** 5))
                 for df, a in zip(_derivatives(profile),
                                  leading_coeffs(profile.params,
                                                 profile.degrees)))


def uniqueness_probe(params, degrees, grid, seed_count=3, rng_seed=0):
    """Maximum pairwise sup-norm distance among the profiles Newton reaches
    from distinct starts: the ansatz, a linear ramp to t, then the ansatz
    times random factors in [1, 1.2) (seeded).  A start may fail as long as
    two converge."""
    r = grid.nodes
    ansatz = initial_guess(grid, params, degrees)
    ramp = tuple(np.full_like(r, t) if n == 0
                 else t * np.minimum(r / max(1.0, n / np.sqrt(A) / t), 1.0)
                 for n, t, A in ((degrees.n_plus, params.t_plus, params.A_plus),
                                 (degrees.n_minus, params.t_minus,
                                  params.A_minus)))
    rng = np.random.default_rng(rng_seed)
    starts = [ansatz, ramp] + [
        (ansatz[0] * (1.0 + 0.2 * rng.random(r.shape)),
         ansatz[1] * (1.0 + 0.2 * rng.random(r.shape)))
        for _ in range(seed_count - 2)]
    solutions, errors = [], []
    for f0 in starts:
        try:
            solutions.append(newton_solve(f0, grid, params, degrees))
        except (NoConvergence, SingularJacobian) as exc:
            errors.append(str(exc))
    if len(solutions) < 2:
        raise NoConvergence(f"uniqueness probe: only {len(solutions)} of "
                            f"{seed_count} starts converged ({errors})")
    return max(float(np.max(np.abs(a.f - b.f)))
               for a, b in itertools.combinations(solutions, 2))

"""Damped Newton solver for the coupled radial vortex system.

The far row at R_max fixes each profile's slope to that of its closed-form
tail t + a/r^2 (`asymptotics.leading_coeffs`), so the solve keeps the
algebraic tail the paper proves rather than cutting it off.

The discretized system interleaves the two components per node, so the exact
Jacobian is banded with two sub/super-diagonals and a banded LU solve costs
O(N).  Each B gets its own discrete system on operator rows the grid
holds, and a solve or sweep owns one LAPACK band buffer: each Newton
iteration writes the Jacobian into it, factors it in place (`dgbtrf`) and
solves in one right-hand side (`dgbtrs`).

Globalization is by backtracking on the residual sup-norm plus continuation
in the interaction coefficient B from the decoupled system (B = 0), whose
components are independent scalar Ginzburg-Landau profiles.  One engine,
`continuation_sweep`, steps B for every caller; `continuation_solve` is its
one-target call.  Each leg from a converged B to the next target first
tries one direct step.  Each step starts from the tangent predictor
f + ΔB·ḟ, where J ḟ = -∂G/∂B is solved on the LU of the previous step's
last Newton iteration, so the predictor costs no extra factorization.  A
step that fails is halved and retried from the last converged profile, and
after a success the step length doubles again, up to the whole leg; a step
halved _MAX_HALVINGS times that still fails ends the leg.  The positive
solution is unique on the admissible set, so every path reaches the same
profile.  Positivity is not enforced during iteration, only verified at
convergence: the continuum solution is strictly positive and projections
would break Newton's local theory.

All inputs are immutable; a solve owns its output arrays and its work
buffers, so independent solves can run concurrently.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import orjson
from scipy.linalg.lapack import dgbtrf, dgbtrs

from . import asymptotics
from .grid import (RadialGrid, grid_from_json, legacy_far_field,
                   radial_operator)
from .model import (CouplingParams, DegreePair, coupling_from_json,
                    degrees_from_json, is_integer, is_number, parse_json)


class _SolveFailure(RuntimeError):
    """A failed solve attempt with the iterate it stopped at and its
    residual history; B_value is set by the continuation, at the B where
    the attempt failed."""

    def __init__(self, message, f_plus=None, f_minus=None, history=None,
                 B_value=None):
        super().__init__(message)
        self.f_plus = f_plus
        self.f_minus = f_minus
        self.history = history or []
        self.B_value = B_value

    @property
    def iterations(self) -> int:
        """Newton iterations the attempt completed before it failed."""
        return max(len(self.history) - 1, 0)


class NoConvergence(_SolveFailure):
    """Newton failed; carries the best iterate and the residual history."""


class SingularJacobian(_SolveFailure):
    """The banded LU factorization of the Jacobian broke down, or gave a
    non-finite Newton step."""


# A continuation step is halved at most this many times below the whole
# leg before the failure ends the leg.
_MAX_HALVINGS = 6

# the line search's backtracking factor
_DAMPING = 0.5

# a converged profile may dip this far below zero and still count as positive
POSITIVITY_TOL = 1e-9


@dataclass(frozen=True)
class SolveOptions:
    tolerance: float = 1e-10           # sup-norm of the discrete residual
    max_newton_iters: int = 50

    def __post_init__(self):
        if not (is_number(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be a finite number > 0")
        if not (is_integer(self.max_newton_iters)
                and self.max_newton_iters >= 0):
            raise ValueError("max_newton_iters must be an integer >= 0")


@dataclass(frozen=True)
class SolveReport:
    iterations: tuple            # Newton iterations per attempted stage
    final_residual: float
    tolerance: float
    wall_time: float


@dataclass(frozen=True)
class Profile:
    """A solved pair of radial profiles with its solve metadata."""

    grid: RadialGrid
    params: CouplingParams
    degrees: DegreePair
    f_plus: np.ndarray = field(repr=False)
    f_minus: np.ndarray = field(repr=False)
    report: SolveReport


class _DiscreteSystem:
    """The coupled residual at fixed grid, coefficients and degrees.

    Holds the two single-component operators (radial Laplacian + n^2/r^2 +
    boundary rows), shared with every system on the grid, the interleaved
    indices of their pinned rows, and per component the mask of rows where
    the nonlinear potential term is active (every row not pinned) and the
    far row's right-hand side: the slope -2a/R_max^3 of the tail t + a/r^2.
    """

    def __init__(self, grid: RadialGrid, params: CouplingParams,
                 degrees: DegreePair):
        self.grid, self.params, self.degrees = grid, params, degrees
        self.ops = [radial_operator(grid, n)
                    for n in (degrees.n_plus, degrees.n_minus)]
        self.masks = [~op.pinned for op in self.ops]
        self.pinned = np.flatnonzero(~np.column_stack(self.masks))
        R = grid.R_max
        self.rhs = [op.rhs * (-2.0 * a / R ** 3) for op, a in zip(
            self.ops, asymptotics.leading_coeffs(params, degrees))]

    def residual(self, f_plus, f_minus):
        p = self.params
        v_plus = (p.A_plus * (f_plus ** 2 - p.t_plus ** 2)
                  + p.B * (f_minus ** 2 - p.t_minus ** 2))
        v_minus = (p.A_minus * (f_minus ** 2 - p.t_minus ** 2)
                   + p.B * (f_plus ** 2 - p.t_plus ** 2))
        g_plus = (self.ops[0].apply(f_plus) - self.rhs[0]
                  + self.masks[0] * v_plus * f_plus)
        g_minus = (self.ops[1].apply(f_minus) - self.rhs[1]
                   + self.masks[1] * v_minus * f_minus)
        return g_plus, g_minus

    def residual_dB(self, f_plus, f_minus):
        """Derivative of the residual with respect to B at fixed profiles
        and far data: it leaves out the Robin datum's motion with a(B)."""
        p = self.params
        return (self.masks[0] * (f_minus ** 2 - p.t_minus ** 2) * f_plus,
                self.masks[1] * (f_plus ** 2 - p.t_plus ** 2) * f_minus)

    def jacobian_banded(self, f_plus, f_minus, out=None):
        """Exact Jacobian in scipy solve_banded layout for (l, u) = (2, 2).

        Written into `out` (shape (5, 2N+2), every entry set) when given,
        else into a new array."""
        p = self.params
        ab = np.empty((5, 2 * (self.grid.N + 1))) if out is None else out
        (op_p, op_m), (mask_p, mask_m) = self.ops, self.masks
        ab[2, 0::2] = op_p.diag + mask_p * (
            p.A_plus * (3.0 * f_plus ** 2 - p.t_plus ** 2)
            + p.B * (f_minus ** 2 - p.t_minus ** 2))
        ab[2, 1::2] = op_m.diag + mask_m * (
            p.A_minus * (3.0 * f_minus ** 2 - p.t_minus ** 2)
            + p.B * (f_plus ** 2 - p.t_plus ** 2))
        # sub/super within a component sit two scalar columns away; the
        # first two columns of row 0 and the last two of row 4 lie outside
        # the matrix
        ab[0, :2] = 0.0
        ab[0, 2::2] = op_p.upper[:-1]
        ab[0, 3::2] = op_m.upper[:-1]
        ab[4, -2:] = 0.0
        ab[4, 0:-2:2] = op_p.lower[1:]
        ab[4, 1:-2:2] = op_m.lower[1:]
        # cross-component coupling is diagonal in the node index, so only
        # every other entry of rows 1 and 3 is nonzero
        cross = 2.0 * p.B * f_plus * f_minus
        ab[1, 0::2] = 0.0
        ab[1, 1::2] = mask_p * cross
        ab[3, 0::2] = mask_m * cross
        ab[3, 1::2] = 0.0
        return ab


class _BandLU:
    """The work buffers of one solve: a Fortran-ordered (7, 2N+2) band
    holding the Jacobian in rows 2..6 and its LU fill-in in rows 0..1, as
    LAPACK's `dgbtrf` wants it for (kl, ku) = (2, 2), and one right-hand
    side that `dgbtrs` overwrites with the solution."""

    def __init__(self, n_nodes: int):
        self.ab = np.empty((7, 2 * n_nodes), order="F")
        self.rhs = np.empty(2 * n_nodes)
        self.ipiv = None            # None until a factorization succeeds

    def factor(self, sys, f_plus, f_minus):
        """Assemble the Jacobian at (f_plus, f_minus) and factor it in place."""
        self.ipiv = None
        sys.jacobian_banded(f_plus, f_minus, out=self.ab[2:])
        _, ipiv, info = dgbtrf(self.ab, 2, 2, overwrite_ab=1)
        if info != 0:
            raise SingularJacobian(f"dgbtrf info {info} (zero pivot)")
        self.ipiv = ipiv
        self.pinned = sys.pinned

    def solve(self, g_plus, g_minus):
        """Solve J x = (g_plus, g_minus) interleaved, on the last LU; x is
        the rhs buffer, valid until the next solve."""
        self.rhs[0::2] = g_plus
        self.rhs[1::2] = g_minus
        # pinned rows are identity rows of J: exact entries, not LU roundoff
        pinned = self.rhs[self.pinned]
        dgbtrs(self.ab, 2, 2, self.rhs, self.ipiv, overwrite_b=1)
        self.rhs[self.pinned] = pinned
        if not np.all(np.isfinite(self.rhs)):
            raise SingularJacobian("non-finite solution of the banded system")
        return self.rhs


def initial_guess(grid: RadialGrid, params: CouplingParams,
                  degrees: DegreePair):
    """Ansatz with the correct vanishing order at 0 and limit at infinity:
    f0(r) = t r^n / (r^2 + n^2/(A t^2))^(n/2) for n >= 1, constant t for n = 0."""
    r = grid.nodes
    out = []
    for n, t, A in ((degrees.n_plus, params.t_plus, params.A_plus),
                    (degrees.n_minus, params.t_minus, params.A_minus)):
        if n == 0:
            out.append(np.full_like(r, t))
        else:
            core = n * n / (A * t * t)
            out.append(t * r ** n / (r ** 2 + core) ** (n / 2.0))
    return tuple(out)


def residual(profile: Profile):
    """Discrete residual arrays (G_plus, G_minus) of a profile, boundary
    rows included."""
    sys = _DiscreteSystem(profile.grid, profile.params, profile.degrees)
    return sys.residual(profile.f_plus, profile.f_minus)


def residual_norm(profile: Profile) -> float:
    return _sup_norm(*residual(profile))


def jacobian(profile: Profile):
    """Exact Jacobian of the discrete residual at the profile, as a banded
    matrix in solve_banded layout for (l, u) = (2, 2): the two components
    interleave per node, so each row couples its neighbors, itself, and the
    partner value at the same node."""
    sys = _DiscreteSystem(profile.grid, profile.params, profile.degrees)
    return sys.jacobian_banded(profile.f_plus, profile.f_minus)


def newton_solve(f_plus0, f_minus0, grid: RadialGrid, params: CouplingParams,
                 degrees: DegreePair,
                 options: SolveOptions = SolveOptions()) -> Profile:
    """Damped Newton iteration from the given starting arrays.

    Backtracks the step by the factor _DAMPING whenever the residual sup-norm
    fails to decrease; raises NoConvergence (with the best iterate and the
    residual history) after max_newton_iters, a stalled line search, or a
    converged iterate that is not positive.
    """
    t0 = time.perf_counter()
    sys = _DiscreteSystem(grid, params, degrees)
    f_plus = np.array(f_plus0, dtype=float)
    f_minus = np.array(f_minus0, dtype=float)
    iters, norm = _newton(sys, _BandLU(grid.N + 1), f_plus, f_minus, options)
    return _profile(sys, f_plus, f_minus, (iters,), norm, options, t0)


def _profile(sys, f_plus, f_minus, iterations, norm, options, t0) -> Profile:
    report = SolveReport(iterations=iterations, final_residual=norm,
                         tolerance=options.tolerance,
                         wall_time=time.perf_counter() - t0)
    return Profile(grid=sys.grid, params=sys.params, degrees=sys.degrees,
                   f_plus=f_plus, f_minus=f_minus, report=report)


def _sup_norm(g_plus, g_minus) -> float:
    return float(max(np.max(np.abs(g_plus)), np.max(np.abs(g_minus))))


def _newton(sys, lu: _BandLU, f_plus, f_minus, options):
    """In-place Newton iteration on the LU buffers `lu`, followed by the
    positivity check; returns (iterations, residual norm).  On success `lu`
    holds the LU of the last iteration's Jacobian (none if no iteration
    ran).  A failure carries the residual history: the starting residual
    and one entry per completed iteration."""
    history = []
    g_plus, g_minus = sys.residual(f_plus, f_minus)
    norm = _sup_norm(g_plus, g_minus)
    history.append(norm)
    it = 0
    while not norm <= options.tolerance:        # a NaN residual never passes
        if it == options.max_newton_iters:
            raise NoConvergence(
                f"no convergence after {options.max_newton_iters} iterations "
                f"(residual {norm:.3e}, tolerance {options.tolerance:.1e})",
                f_plus=f_plus.copy(), f_minus=f_minus.copy(), history=history)
        try:
            lu.factor(sys, f_plus, f_minus)
            step = lu.solve(g_plus, g_minus)
        except SingularJacobian as exc:
            exc.args = (f"Newton step failed at iteration {it}: {exc}",)
            exc.history = history
            raise
        alpha = 1.0
        while True:
            cand_plus = f_plus - alpha * step[0::2]
            cand_minus = f_minus - alpha * step[1::2]
            g_plus, g_minus = sys.residual(cand_plus, cand_minus)
            cand_norm = _sup_norm(g_plus, g_minus)
            if cand_norm < norm or cand_norm <= options.tolerance:
                break
            alpha *= _DAMPING
            if alpha < 1e-8:
                raise NoConvergence(
                    f"line search stalled at residual {norm:.3e}",
                    f_plus=f_plus.copy(), f_minus=f_minus.copy(),
                    history=history)
        f_plus[:] = cand_plus
        f_minus[:] = cand_minus
        norm = cand_norm
        history.append(norm)
        it += 1
    # positivity is verified after convergence rather than enforced
    low = min(float(np.min(f_plus)), float(np.min(f_minus)))
    if low < -POSITIVITY_TOL:
        raise NoConvergence(
            f"converged iterate violates positivity (min value {low:.3e})",
            f_plus=f_plus.copy(), f_minus=f_minus.copy(), history=history)
    return it, norm


def continuation_sweep(params: CouplingParams, degrees: DegreePair, b_values,
                       grid: RadialGrid,
                       options: SolveOptions = SolveOptions()) -> list:
    """Solve on grid at every B in b_values, the other coefficients taken
    from params.

    Returns one entry per B, in input order: the Profile, or the
    NoConvergence/SingularJacobian raised at that B.  B = 0 is solved once
    and never retried, so its failure is every entry.  From it one chain
    walks the values B >= 0 and another the values B < 0, each in order of
    |B|, one leg per value; a failed leg sends its chain back to the B = 0
    profile and tangent.  A profile's report lists the Newton iterations of
    every stage attempted since the previous profile returned, failed
    stages included, and the time they took.
    """
    for b in b_values:      # an inadmissible B fails before any solve
        replace(params, B=b)
    lu = _BandLU(grid.N + 1)
    stages = []                 # Newton iterations since the last profile out
    t_out = time.perf_counter()

    def stage(b, f_plus, f_minus, want_tangent):
        """Newton solve at B = b, whose profile takes over the arrays; then,
        when wanted, the tangent there from the kept LU."""
        sys = _DiscreteSystem(grid, replace(params, B=b), degrees)
        iters, tangent = None, None
        try:
            iters, norm = _newton(sys, lu, f_plus, f_minus, options)
            if want_tangent:
                if lu.ipiv is None:     # no Newton iteration factored yet
                    lu.factor(sys, f_plus, f_minus)
                tangent = -lu.solve(*sys.residual_dB(f_plus, f_minus))
        except _SolveFailure as exc:
            lu.ipiv = None      # the LU of a failed iterate predicts nothing
            exc.B_value = b
            stages.append(exc.iterations if iters is None else iters)
            raise
        stages.append(iters)
        return (_profile(sys, f_plus, f_minus, (iters,), norm, options,
                         t_out), tangent)

    def leg(profile, tangent, target, want_tangent):
        # B advances in units of 2^-_MAX_HALVINGS of the leg; `size` is the
        # length of the next step in those units
        unit = 2 ** _MAX_HALVINGS
        b_start = profile.params.B
        pos, size = 0, unit
        while pos < unit:
            size = min(size, unit - pos)
            last = pos + size == unit
            b = (target if last
                 else b_start + (target - b_start) * (pos + size) / unit)
            db = b - profile.params.B
            try:
                next_profile, next_tangent = stage(
                    b, profile.f_plus + db * tangent[0::2],
                    profile.f_minus + db * tangent[1::2],
                    want_tangent or not last)
            except _SolveFailure:
                if size == 1:
                    raise
                size //= 2
                continue
            profile, tangent = next_profile, next_tangent
            pos += size
            size = min(2 * size, unit)
        return profile, tangent

    # a failure is kept without its traceback, whose frames would pin the
    # solve buffers and, through this frame, the results that hold it
    try:
        origin = stage(0.0, *initial_guess(grid, params, degrees),
                       any(b != 0.0 for b in b_values))
    except _SolveFailure as exc:
        return [exc.with_traceback(None)] * len(b_values)
    results = [None] * len(b_values)
    for chain in ([i for i, b in enumerate(b_values) if b >= 0.0],
                  [i for i, b in enumerate(b_values) if b < 0.0]):
        chain.sort(key=lambda i: abs(b_values[i]))
        profile, tangent = origin
        for k, i in enumerate(chain):
            try:
                if b_values[i] != profile.params.B:
                    profile, tangent = leg(profile, tangent, b_values[i],
                                           k + 1 < len(chain))
            except _SolveFailure as exc:
                results[i] = exc.with_traceback(None)
                profile, tangent = origin
                continue
            report = replace(profile.report, iterations=tuple(stages),
                             wall_time=time.perf_counter() - t_out)
            results[i] = replace(profile, report=report)
            stages.clear()
            t_out = time.perf_counter()
    return results


def continuation_solve(params: CouplingParams, degrees: DegreePair,
                       grid: RadialGrid,
                       options: SolveOptions = SolveOptions()) -> Profile:
    """Path-following solve from the decoupled system to params.B: the
    one-target call of continuation_sweep.  A failure propagates as the
    NoConvergence or SingularJacobian tagged with the failing B value."""
    result, = continuation_sweep(params, degrees, [params.B], grid, options)
    if isinstance(result, Profile):
        return result
    try:
        raise result
    finally:
        del result      # the traceback holds this frame


# ---------------------------------------------------------------------------
# persistence


def profile_to_json(profile: Profile) -> str:
    """Serialize a profile as compact strict JSON.

    Floats are written in their shortest round-trip form, so the arrays load
    back bit for bit.  A non-finite number raises ValueError: strict JSON
    has no token for it, and orjson would write null, which
    profile_from_json rejects.
    """
    obj = {
        "params": asdict(profile.params),
        "degrees": asdict(profile.degrees),
        "grid": profile.grid.as_dict(),
        "f_plus": profile.f_plus.tolist(),
        "f_minus": profile.f_minus.tolist(),
        "report": asdict(profile.report),
    }
    rep = obj["report"]
    scalars = (*obj["params"].values(), profile.grid.R_max,
               rep["final_residual"], rep["tolerance"], rep["wall_time"])
    if not (np.isfinite(profile.f_plus).all()
            and np.isfinite(profile.f_minus).all()
            and all(map(math.isfinite, scalars))):
        raise ValueError("a profile file holds finite numbers only")
    # the numpy option takes a numpy.float64 final_residual; .tolist() keeps
    # the arrays off orjson's numpy path, which needs C-contiguous arrays and
    # would write float32 entries in float32's shortest form
    return orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY).decode()


def profile_from_json(text: str) -> Profile:
    """Parse a profile file; every malformed field raises ValueError."""
    # stdlib json, not orjson, which rejects a NaN token: such a file loads
    # and then fails verify
    obj = parse_json(text)
    if not isinstance(obj, dict):
        raise ValueError("a profile must be a JSON object")
    coupling_from_json(obj.get("params"))  # strict keys, numbers, hypothesis
    params = CouplingParams(**obj["params"])  # as written: rewrites match
    degrees = DegreePair(*degrees_from_json(obj.get("degrees")))
    g = obj.get("grid")
    n_nodes = g.get("N") if isinstance(g, dict) else None
    arrays = [obj.get(k) for k in ("f_plus", "f_minus")]
    # exact types: numpy would read "0.5" and true (a bool is an int) as
    # numbers and null as NaN
    if not all(isinstance(a, list) and set(map(type, a)) <= {int, float}
               for a in arrays):
        raise ValueError("f_plus and f_minus must be lists of numbers")
    try:
        f_plus, f_minus = (np.asarray(a, dtype=float) for a in arrays)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError("f_plus and f_minus hold an integer beyond the "
                         "float range") from exc
    # checked before the grid is built, so a huge N allocates nothing
    if not (is_integer(n_nodes)
            and f_plus.shape == f_minus.shape == (n_nodes + 1,)):
        raise ValueError("grid needs an integer N matching the arrays")
    grid = grid_from_json(g)
    legacy_far_field(obj.get("far_field", "robin"))
    rep = obj.get("report")
    if not isinstance(rep, dict):
        raise ValueError("profile field 'report' must be a JSON object")
    iterations = rep.get("iterations")
    numbers = ("final_residual", "tolerance", "wall_time")
    if not (isinstance(iterations, list)
            and all(is_integer(i) and i >= 0 for i in iterations)
            and all(is_number(rep.get(k)) for k in numbers)):
        raise ValueError("report needs a list of iteration counts and "
                         "numbers final_residual, tolerance, wall_time")
    report = SolveReport(tuple(iterations), *(rep[k] for k in numbers))
    return Profile(grid=grid, params=params, degrees=degrees,
                   f_plus=f_plus, f_minus=f_minus, report=report)

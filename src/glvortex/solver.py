"""Damped Newton solver for the coupled radial vortex system.

The far row at R_max imposes R f'(R) + 2 (f(R) - t) = 0, which every tail
t + a/r^2 satisfies whatever a is: the solve keeps the paper's algebraic
tail and reads only the coefficients (A_pm, B, t_pm) and the windings.

The solver carries f = (f_plus, f_minus) as one (2, N+1) state on the
grid's rows for the winding pair.  Interleaved per node, the exact
Jacobian is banded with two sub/super-diagonals and a banded LU solve costs
O(N).  A solve or sweep owns one LAPACK band buffer: each Newton iteration
writes the Jacobian into it, factors it in place (`dgbtrf`) and solves in
one right-hand side (`dgbtrs`).  At B = 0 the Jacobian is one tridiagonal
system, the components' blocks end to end, which the same buffer holds and
one `dgttrf` and one `dgttrs` call factor and solve at a fraction of the
band's cost.

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

from .grid import (RadialGrid, grid_from_json, legacy_far_field,
                   radial_operator)
from .lapack import dgbtrf, dgbtrs, dgttrf, dgttrs
from .model import (CouplingParams, DegreePair, coupling_from_json,
                    degrees_from_json, is_integer, is_number, parse_json)


class _SolveFailure(RuntimeError):
    """A failed solve attempt with the iterate it stopped at and its
    residual history; B_value is set by the continuation, at the B where
    the attempt failed."""

    def __init__(self, message, f=None, history=None, B_value=None):
        super().__init__(message)
        self.f = f      # the failed solve's state, which it no longer updates
        self.history = history or []
        self.B_value = B_value

    @property
    def iterations(self) -> int:
        """Newton iterations the attempt completed before it failed."""
        return max(len(self.history) - 1, 0)


class NoConvergence(_SolveFailure):
    """Newton failed; carries the best iterate and the residual history."""


class SingularJacobian(_SolveFailure):
    """The banded LU factorization of the Jacobian broke down, or the
    Newton state or step is not finite."""


# A continuation step is halved at most this many times below the whole
# leg before the failure ends the leg, and a Newton solve gives up after
# this many iterations.
_MAX_HALVINGS = 6
_MAX_NEWTON_ITERS = 50

# the line search's backtracking factor
_DAMPING = 0.5

# a converged profile may dip this far below zero and still count as positive
POSITIVITY_TOL = 1e-9


@dataclass(frozen=True)
class SolveOptions:
    tolerance: float = 1e-10           # sup-norm of the discrete residual

    def __post_init__(self):
        if not (is_number(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be a finite number > 0")


@dataclass(frozen=True)
class SolveReport:
    iterations: tuple            # Newton iterations per attempted stage
    final_residual: float
    tolerance: float
    wall_time: float


@dataclass(frozen=True)
class Profile:
    """A solved pair of radial profiles with its solve metadata: f is one
    (2, N+1) float64 array, row 0 f_plus and row 1 f_minus."""

    grid: RadialGrid
    params: CouplingParams
    degrees: DegreePair
    f: np.ndarray = field(repr=False)
    report: SolveReport


class _DiscreteSystem:
    """The coupled residual at fixed grid, coefficients and degrees, on
    states f of shape (2, N+1), row k for component k.

    Holds the operator rows (radial Laplacian + n^2/r^2 + boundary rows)
    of the winding pair, row k for component k, shared with every system on
    the grid, the mask of rows where the nonlinear potential term is active
    (every row not pinned) and the far row's right-hand side t rhs[N], the
    one nonzero entry of the operator's column.
    """

    def __init__(self, grid: RadialGrid, params: CouplingParams,
                 degrees: DegreePair):
        self.grid, self.params, self.degrees = grid, params, degrees
        self.op = radial_operator(grid, (degrees.n_plus, degrees.n_minus))
        self.mask = ~self.op.pinned
        p = params
        self.rhs = self.op.rhs[:, -1:] * np.array([[p.t_plus], [p.t_minus]],
                                                  float)
        self.t2 = np.array([[p.t_plus ** 2], [p.t_minus ** 2]], float)
        self.A = np.array([[p.A_plus], [p.A_minus]], float)

    def residual(self, f):
        # V_k = A_k (f_k^2 - t_k^2) + B (f_j^2 - t_j^2), j the partner of k,
        # in place, as fresh (2, N+1) temporaries slow it at large N
        g = self.op.apply(f)
        g[:, -1:] -= self.rhs
        v = np.square(f)
        v -= self.t2
        partner = v[::-1] * self.params.B
        v *= self.A
        v += partner
        v *= self.mask
        v *= f
        g += v
        return g

    def residual_dB(self, f):
        """Derivative of the residual with respect to B at fixed profiles."""
        return self.mask * (np.square(f[::-1]) - self.t2[::-1]) * f

    def jacobian_diagonal(self, f, out=None):
        """The Jacobian's main diagonal at f, shaped as f, written into out
        when given: the operator's diagonal plus, on the rows where the
        potential is active, A_k (3 f_k^2 - t_k^2) + B (f_j^2 - t_j^2)."""
        out = np.square(f, out=out)
        out *= 3.0
        out -= self.t2
        out *= self.A
        if self.params.B:
            partner = np.square(f[::-1])
            partner -= self.t2[::-1]
            partner *= self.params.B
            out += partner
        out *= self.mask
        out += self.op.diag
        return out

    def jacobian_banded(self, f, out=None):
        """Exact Jacobian in scipy solve_banded layout for (l, u) = (2, 2),
        the components interleaved per node.

        Written into `out` (shape (5, 2N+2), every entry set) when given,
        else into a new array."""
        ab = np.empty((5, f.size)) if out is None else out
        # band row i as (2, N+1): its even (f_plus) columns, then its odd
        rows = ab.reshape(5, -1, 2).transpose(0, 2, 1)
        rows[2] = self.jacobian_diagonal(f)  # contiguous, then a strided copy
        # sub/super within a component sit two scalar columns away, and the
        # coupling is diagonal in the node index: every other entry of rows
        # 1 and 3 is zero, as are the columns of rows 0 and 4 outside J
        rows[0, :, 0] = rows[4, :, -1] = rows[1, 0] = rows[3, 1] = 0.0
        rows[0, :, 1:] = self.op.upper[:, :-1]
        rows[4, :, :-1] = self.op.lower[:, 1:]
        rows[1, 1], rows[3, 0] = 2.0 * self.params.B * f[0] * f[1] * self.mask
        return ab


class _BandLU:
    """The work buffers of one solve: one Fortran-ordered (7, 2N+2) band
    and one right-hand side, which the solve overwrites.

    A coupled system interleaves the components per node, so its Jacobian
    is one band with (kl, ku) = (2, 2): `jacobian_banded` writes it into
    rows 2..6, LAPACK's `dgbtrf` factors it in place with its fill-in in
    rows 0..1, and `dgbtrs` solves on it.  At B = 0 the components
    decouple, so the same memory holds one tridiagonal system of 2N+2
    unknowns, the components' diagonals (dl, d, du, du2) end to end, that
    `dgttrf` factors in place and `dgttrs` solves on; its junction entries,
    the rows' lower[0] and upper[N], are 0, so pivoting never crosses them.
    The coefficients pick the path; the two give the same step up to
    roundoff.  A pinned origin row 2^e u(0) = 0 (`grid.radial_operator`)
    outweighs its column, so neither LU moves it and its step entry is
    g / 2^e exactly.
    """

    def __init__(self, n_nodes: int):
        memory = np.empty(14 * n_nodes)
        self.ab = memory.reshape((7, 2 * n_nodes), order="F")
        # the rows lower, diagonal, upper and fill, each (2, n_nodes)
        self.tri = memory[:8 * n_nodes].reshape(4, 2, n_nodes)
        dl, d, du, du2 = self.tri.reshape(4, -1)
        self.diagonals = (dl[1:], d, du[:-1], du2[:-2])
        self.rhs = np.empty(2 * n_nodes)
        self.ipiv = None            # None until a factorization succeeds

    def factor(self, sys, f):
        """Assemble the Jacobian at f and factor it in place."""
        self.ipiv = None
        self.decoupled = sys.params.B == 0.0
        if self.decoupled:
            self.tri[0] = sys.op.lower
            sys.jacobian_diagonal(f, self.tri[1])
            self.tri[2] = sys.op.upper
            dl, d, du, du2 = self.diagonals
            *_, fill, ipiv, info = dgttrf(dl, d, du, overwrite_dl=1,
                                          overwrite_d=1, overwrite_du=1)
            if info != 0:
                raise SingularJacobian(f"dgttrf info {info} (zero pivot)")
            du2[...] = fill
        else:
            sys.jacobian_banded(f, out=self.ab[2:])
            _, ipiv, info = dgbtrf(self.ab, 2, 2, overwrite_ab=1)
            if info != 0:
                raise SingularJacobian(f"dgbtrf info {info} (zero pivot)")
        self.ipiv = ipiv

    def solve(self, g):
        """Solve J x = g on the last LU; returns x, shaped as g, as a view
        of the rhs buffer valid until the next solve."""
        x = (self.rhs.reshape(2, -1) if self.decoupled
             else self.rhs.reshape(-1, 2).T)
        x[...] = g
        if self.decoupled:
            dgttrs(*self.diagonals, self.ipiv, self.rhs, overwrite_b=1)
        else:
            dgbtrs(self.ab, 2, 2, self.rhs, self.ipiv, overwrite_b=1)
        if not np.all(np.isfinite(self.rhs)):
            raise SingularJacobian("non-finite solution of the banded system")
        return x


def initial_guess(grid: RadialGrid, params: CouplingParams,
                  degrees: DegreePair):
    """Ansatz f0(r) = t r^n / (r^2 + c)^(n/2), c = n/(A t^2), for n >= 1 and
    t for n = 0, as the rows (f_plus, f_minus) of one array: it vanishes
    like r^n, and has the decoupled tail's r^-2 coefficient -n^2/(2 A t).
    It is evaluated as t (r^2/(r^2 + c))^(n/2), whose base lies in [0, 1),
    so a large winding neither overflows r^n nor divides inf by inf; an
    A t^2 that underflows to 0 gives c = inf, and f0 = 0."""
    r2 = grid.nodes ** 2
    out = []
    for n, t, A in ((degrees.n_plus, params.t_plus, params.A_plus),
                    (degrees.n_minus, params.t_minus, params.A_minus)):
        core = n / max(A * t * t, math.ulp(0.0))
        out.append(t * (r2 / (r2 + core)) ** (n / 2.0) if n
                   else np.full_like(r2, t))
    return np.array(out)


def residual(profile: Profile):
    """Discrete residual rows (G_plus, G_minus) of a profile, as one array,
    boundary rows included."""
    sys = _DiscreteSystem(profile.grid, profile.params, profile.degrees)
    return sys.residual(profile.f)


def residual_norm(profile: Profile) -> float:
    return _sup_norm(residual(profile))


def jacobian(profile: Profile):
    """Exact Jacobian of the discrete residual at the profile, as a banded
    matrix in solve_banded layout for (l, u) = (2, 2): the two components
    interleave per node, so each row couples its neighbors, itself, and the
    partner value at the same node."""
    sys = _DiscreteSystem(profile.grid, profile.params, profile.degrees)
    return sys.jacobian_banded(profile.f)


def newton_solve(f0, grid: RadialGrid, params: CouplingParams,
                 degrees: DegreePair,
                 options: SolveOptions = SolveOptions()) -> Profile:
    """Damped Newton iteration from the starting rows f0 = (f_plus,
    f_minus), any array-like of shape (2, N+1).

    Backtracks the step by the factor _DAMPING whenever the residual sup-norm
    fails to decrease; raises NoConvergence (with the best iterate and the
    residual history) after _MAX_NEWTON_ITERS, a stalled line search (the
    step fell below 1e-8, or a halved step left the iterate unchanged), or
    a converged iterate that is not positive.
    """
    t0 = time.perf_counter()
    sys = _DiscreteSystem(grid, params, degrees)
    f = np.array(f0, dtype=float)
    iters, norm = _newton(sys, _BandLU(grid.N + 1), f, options)
    return _profile(sys, f, (iters,), norm, options, t0)


def _profile(sys, f, iterations, norm, options, t0) -> Profile:
    report = SolveReport(iterations=iterations, final_residual=norm,
                         tolerance=options.tolerance,
                         wall_time=time.perf_counter() - t0)
    return Profile(grid=sys.grid, params=sys.params, degrees=sys.degrees,
                   f=f, report=report)


def _sup_norm(g) -> float:
    return float(np.max(np.abs(g)))


def _newton(sys, lu: _BandLU, f, options):
    """In-place Newton iteration on the state f and the LU buffers `lu`,
    followed by the positivity check; returns (iterations, residual norm).
    On success `lu` holds the LU of the last iteration's Jacobian (none if
    no iteration ran).  A failure carries the residual history: the
    starting residual and one entry per completed iteration.

    The line search halves the step until the residual sup-norm decreases.
    It stalls when the step falls below 1e-8 of the Newton step, or as soon
    as a halved trial iterate equals the current one bit for bit: rounding
    is monotone, so every shorter step gives that iterate too, and both end
    in the same NoConvergence, the second without the residuals between."""
    if not np.isfinite(f).all():    # refused before an LU misreads it
        raise SingularJacobian("non-finite Newton state at iteration 0")
    history = []
    g = sys.residual(f)
    norm = _sup_norm(g)
    history.append(norm)
    it = 0
    while not norm <= options.tolerance:        # a NaN residual never passes
        if it == _MAX_NEWTON_ITERS:
            raise NoConvergence(
                f"no convergence after {_MAX_NEWTON_ITERS} iterations "
                f"(residual {norm:.3e}, tolerance {options.tolerance:.1e})",
                f=f, history=history)
        try:
            lu.factor(sys, f)
            step = lu.solve(g)
        except SingularJacobian as exc:
            exc.args = (f"Newton step failed at iteration {it}: {exc}",)
            exc.history = history
            raise
        alpha = 1.0
        cand = f - step
        while True:
            g = sys.residual(cand)
            cand_norm = _sup_norm(g)
            if cand_norm < norm or cand_norm <= options.tolerance:
                break
            alpha *= _DAMPING
            cand = step * -alpha
            cand += f
            if alpha < 1e-8 or np.array_equal(cand, f):
                raise NoConvergence(
                    f"line search stalled at residual {norm:.3e}",
                    f=f, history=history)
        f[...] = cand
        norm = cand_norm
        history.append(norm)
        it += 1
    # positivity is verified after convergence rather than enforced
    low = float(np.min(f))
    if not low >= -POSITIVITY_TOL:      # a NaN fails too
        raise NoConvergence(
            f"converged iterate violates positivity (min value {low:.3e})",
            f=f, history=history)
    return it, norm


def continuation_sweep(params: CouplingParams, degrees: DegreePair, b_values,
                       grid: RadialGrid,
                       options: SolveOptions = SolveOptions()) -> list:
    """Solve on grid at every B in b_values, the other coefficients taken
    from params.

    Returns one entry per B, in input order: the Profile, or the
    NoConvergence/SingularJacobian raised at that B.  The values may come in
    any order; an inadmissible one, or two that coincide once rounded to 12
    decimals, are a ValueError before any solve, and no values solve
    nothing.  B = 0 is solved once and never retried, so its failure is
    every entry.  From it one chain walks the values B >= 0 and another the
    values B < 0, each in order of |B|, one leg per value; a failed leg
    sends its chain back to the B = 0 profile and tangent.  A profile's
    report lists the Newton iterations of every stage attempted since the
    previous profile returned, failed stages included, and the time they
    took.  Each stage solves on a state array of its own, so no two
    profiles share memory.
    """
    for b in b_values:      # an inadmissible B fails before any solve
        replace(params, B=b)
    if len({round(b, 12) for b in b_values}) < len(b_values):
        raise ValueError("sweep values coincide once rounded to 12 decimals")
    if len(b_values) == 0:
        return []
    lu = _BandLU(grid.N + 1)
    stages = []                 # Newton iterations since the last profile out
    t_out = time.perf_counter()

    def stage(b, f, want_tangent):
        """Newton solve at B = b in place on the state f, which the
        profile takes; then, when wanted, the tangent from the kept LU."""
        sys = _DiscreteSystem(grid, replace(params, B=b), degrees)
        iters, tangent = None, None
        try:
            iters, norm = _newton(sys, lu, f, options)
            if want_tangent:
                if lu.ipiv is None:     # no Newton iteration factored yet
                    lu.factor(sys, f)
                tangent = -lu.solve(sys.residual_dB(f))
        except _SolveFailure as exc:
            lu.ipiv = None      # the LU of a failed iterate predicts nothing
            exc.B_value = b
            stages.append(exc.iterations if iters is None else iters)
            raise
        stages.append(iters)
        return (_profile(sys, f, (iters,), norm, options, t_out), tangent)

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
                    b, profile.f + db * tangent,
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
        origin = stage(0.0, initial_guess(grid, params, degrees),
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
        "f_plus": profile.f[0].tolist(),
        "f_minus": profile.f[1].tolist(),
        "report": asdict(profile.report),
    }
    rep = obj["report"]
    scalars = (*obj["params"].values(), profile.grid.R_max,
               rep["final_residual"], rep["tolerance"], rep["wall_time"])
    if not (np.isfinite(profile.f).all()
            and all(map(math.isfinite, scalars))):
        raise ValueError("a profile file holds finite numbers only")
    # the numpy option takes a numpy.float64 final_residual; .tolist() keeps
    # the arrays off orjson's numpy path, which needs C-contiguous arrays and
    # would write float32 entries in float32's shortest form
    return orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY).decode()


# a text with at most this many brackets nests no deeper, which keeps
# orjson's parse and _rounded_big_int's walk shallow: orjson 3.8 has no
# depth limit of its own, and deep enough nesting crashes the interpreter
_ORJSON_MAX_BRACKETS = 64


def _rounded_big_int(value) -> bool:
    """Whether value holds a float that orjson may have read from an integer
    literal beyond 64 bits, which stdlib json keeps as an exact int."""
    if isinstance(value, float):
        return abs(value) >= 2.0 ** 63
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        return False
    return any(map(_rounded_big_int, value))


def _load_profile_json(text: str):
    """The JSON value of a profile file, as stdlib json reads it: orjson
    reads it where the two agree, and model.parse_json everywhere else."""
    if text.count("[") + text.count("{") <= _ORJSON_MAX_BRACKETS:
        try:
            obj = orjson.loads(text)
        except orjson.JSONDecodeError:
            # NaN and Infinity tokens, numbers beyond the float range, lone
            # surrogates and trailing text: stdlib json reads some of them
            # (such a file loads and then fails verify) and rejects the
            # rest in its own words
            pass
        else:
            # an int and a float take different paths through the checks
            # and their messages; array entries become float64 either way,
            # to the same value
            if not (isinstance(obj, dict) and _rounded_big_int(
                    [v for k, v in obj.items()
                     if k not in ("f_plus", "f_minus")])):
                return obj
    return parse_json(text)


def profile_from_json(text: str) -> Profile:
    """Parse a profile file; every malformed field raises ValueError."""
    obj = _load_profile_json(text)
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
    # checked before the grid is built, so a huge N allocates nothing, and
    # before numpy stacks the lists, which a ragged pair would make an error
    # about shapes
    if not (is_integer(n_nodes)
            and all(len(a) == n_nodes + 1 for a in arrays)):
        raise ValueError("grid needs an integer N matching the arrays")
    try:
        f = np.array(arrays, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError("f_plus and f_minus hold an integer beyond the "
                         "float range") from exc
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
                   f=f, report=report)

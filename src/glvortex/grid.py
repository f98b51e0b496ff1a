"""Radial meshes on [0, R_max] and the discrete radial operator.

All integrals carry the planar radial measure r dr.  `radial_operator`
assembles the rows of -(1/r)(r u')' + n^2/r^2, conservative at half-nodes,
which makes the operator self-adjoint in the r-weighted inner product: its
row masses m make diag(m) times the rows symmetric.  The solver's residual
evaluates these rows, its Jacobian reads their coefficients, and both the
decoupled Newton matrix and the Hessian are diag(m) times that Jacobian, so
all of them share one discretization.  At r = 0 the removable singularity
for zero winding is handled with a ghost-free one-sided row (the radial
Laplacian of an even function tends to 2 u''(0)); a nonzero winding pins
u(0) = 0 in a row scaled to keep its place under LU pivoting.  The one
far row at R_max imposes R u'(R) + 2 (u(R) - t) = 0, which every tail
t + a/r^2 satisfies (Lentini & Keller's asymptotic boundary condition,
SIAM J. Numer. Anal. 17, 1980).  No row holds boundary data, only the far
row's column rhs for t = 1, so a grid assembles each set of rows once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import is_integer, is_number, json_object


class BadGridSpec(ValueError):
    """Mesh parameters out of range."""


class LengthMismatch(ValueError):
    """Sample array does not match the mesh."""


class BadBoundarySpec(ValueError):
    """Boundary condition incompatible with the winding number."""


@dataclass(frozen=True)
class RadialGrid:
    """Mesh nodes r_0 = 0 < r_1 < ... < r_N = R_max with quadrature weights.

    weights implement the trapezoid rule for integrals of g(r) r dr; their
    sum is exactly R_max^2 / 2 for any node distribution.  Away from the
    origin they are also the finite-volume masses r_i hbar_i that weight
    the second variation's inner product.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    stretch: float | None = None
    # radial_operator's rows on this mesh, by tuple of windings
    _operators: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @property
    def N(self) -> int:
        return len(self.nodes) - 1

    @property
    def R_max(self) -> float:
        return float(self.nodes[-1])

    def as_dict(self):
        return {"R_max": self.R_max, "N": self.N, "kind": self.kind,
                "stretch": self.stretch}


def build_grid(R_max: float, N: int, kind: str = "uniform",
               stretch: float | None = None) -> RadialGrid:
    """Build a radial mesh of N+1 nodes on [0, R_max].

    kind "uniform" spaces nodes evenly; kind "geometric" grows spacings by a
    fixed ratio in (1, 1.1], concentrating nodes near the origin where the
    profiles vary like r^n.  Either kind is BadGridSpec when its first cell
    h0 has h0^3 below the smallest normal double, or when R_max^6 overflows.
    """
    if not R_max > 0:
        raise BadGridSpec(f"R_max must be positive, got {R_max}")
    if N < 16:
        raise BadGridSpec(f"N must be at least 16, got {N}")
    if kind == "uniform":
        if stretch is not None and stretch != 1.0:
            raise BadGridSpec("uniform grid takes no stretch ratio")
        stretch = None
    elif kind == "geometric":
        if stretch is None or not (1.0 < stretch <= 1.1):
            raise BadGridSpec(
                f"geometric stretch ratio must lie in (1, 1.1], got {stretch}")
    else:
        raise BadGridSpec(f"unknown grid kind {kind!r}")
    # spacings h0 q^i with h0 fixed by the endpoint; the first interior row
    # divides by h0 r1 hbar1 ~ h0^3, and tail_fit and envelope_bounds take r^6
    q = float(stretch or 1.0)
    try:
        h0 = R_max / N if q == 1.0 else R_max * (q - 1.0) / (q ** N - 1.0)
        normal = h0 ** 3 >= np.finfo(float).tiny and float(R_max) ** 6 < np.inf
    except OverflowError:       # q^N or R_max^6
        normal = False
    if not normal:
        raise BadGridSpec(f"{N} {kind} cells on [0, {R_max}]: h0^3 underflows "
                          "or R_max^6 overflows")
    if stretch is None:
        nodes = np.linspace(0.0, R_max, N + 1)
    else:
        nodes = np.concatenate(([0.0], np.cumsum(h0 * q ** np.arange(N))))
        nodes[-1] = R_max

    # trapezoid weights for the integrand g(r)*r
    h = np.diff(nodes)
    w = np.zeros_like(nodes)
    w[:-1] += 0.5 * h * nodes[:-1]
    w[1:] += 0.5 * h * nodes[1:]
    return RadialGrid(nodes=nodes, weights=w, kind=kind, stretch=stretch)


def grid_from_json(obj) -> RadialGrid:
    """Build the grid of a JSON object {"R_max", "N", "kind", "stretch"};
    R_max and stretch are read as floats."""
    json_object(obj, ("R_max", "N", "kind", "stretch"), "grid")
    stretch = obj["stretch"]
    if not (is_integer(obj["N"]) and is_number(obj["R_max"])
            and isinstance(obj["kind"], str)
            and (stretch is None or is_number(stretch))):
        raise ValueError("grid needs an integer N, a number R_max, a string "
                         "kind and a number or null stretch")
    return build_grid(float(obj["R_max"]), obj["N"], obj["kind"],
                      None if stretch is None else float(stretch))


def legacy_far_field(value, error=ValueError) -> None:
    """Check the far_field key of older configs and profile files: "robin",
    its one value, selects nothing, as radial_operator has one far row."""
    if value != "robin":
        shown = repr(value) if isinstance(value, str) else "(not a string)"
        raise error(f"far_field {shown}: only the legacy 'robin' is "
                    "accepted, the other far rows were removed")


def quadrature(grid: RadialGrid, samples: np.ndarray) -> float:
    """Trapezoid approximation of the integral of g(r) r dr over the mesh."""
    return quadrature_upto(grid, samples, grid.R_max)


def quadrature_upto(grid: RadialGrid, samples: np.ndarray, R: float) -> float:
    """Trapezoid approximation of the integral of g(r) r dr over the nodes
    with r <= R; a NaN R is a ValueError."""
    if math.isnan(R):       # searchsorted would place it past every node
        raise ValueError("quadrature radius R is NaN")
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.nodes.shape:
        raise LengthMismatch(
            f"expected {grid.nodes.shape[0]} samples, got {samples.shape}")
    i = int(np.searchsorted(grid.nodes, R, side="right")) - 1
    w = grid.weights[:i + 1]
    if 0 < i < grid.N:
        # the cut node keeps only its left half-cell
        w = w.copy()
        w[-1] = 0.5 * (grid.nodes[i] - grid.nodes[i - 1]) * grid.nodes[i]
    # numpy sum, not BLAS dot: a threaded dot wakes its threads every call
    return float(np.sum(w * samples[:i + 1]))


@dataclass(frozen=True)
class RadialOperator:
    """The rows of -(1/r)(r u')' + n^2/r^2 on a mesh, boundary rows included.

    One set of rows for every use: row i reads
        pot[i] u[i] + lower[i] (u[i-1] - u[i]) + upper[i] (u[i+1] - u[i])
    = t rhs[i] for the far modulus t, with lower[0] = upper[N] = 0, so its
    tridiagonal coefficients are (lower, diag, upper) with
    diag = -(lower + upper) + pot.  pot is n^2/r^2 on equation rows, plus
    rhs[N] on the far row, and a power of two on the `pinned` rows, where
    u = 0 replaces the equation.  mass holds the row weights m that make
    diag(m) times the rows symmetric, m[i] upper[i] = m[i+1] lower[i+1] up
    to roundoff: the finite-volume mass r_i hbar_i of the measure r dr at
    interior nodes, r_1^2/8 at an n = 0 origin, m[N-1] upper[N-1] /
    lower[N] on the far row, and 1 on a pinned row, which has no upper
    entry.  The rows of k windings are arrays of shape (k, N+1), row j for
    winding j, some of them broadcast views.
    """

    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    pot: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    pinned: np.ndarray = field(repr=False)
    diag: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)

    def __post_init__(self):
        for rows in vars(self).values():
            rows.flags.writeable = False

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The rows at u, of shape (..., N+1), in difference form, rhs not
        subtracted: unlike a product with diag, constant u cancels exactly."""
        u = np.asarray(u, dtype=float)
        if u.shape[-1:] != self.pot.shape[-1:]:
            raise LengthMismatch("sample length does not match grid")
        out = self.pot * u
        flux = np.diff(u)           # one buffer for both fluxes
        flux *= self.lower[..., 1:]
        out[..., 1:] -= flux
        np.subtract(u[..., 1:], u[..., :-1], out=flux)
        flux *= self.upper[..., :-1]
        out[..., :-1] += flux
        return out


def radial_operator(grid: RadialGrid, windings: tuple) -> RadialOperator:
    """The rows of -(1/r)(r u')' + n^2/r^2 on grid, with its boundary rows,
    row k for the winding n = windings[k].

    The origin row is forced by the winding number: pinned to u(0) = 0 for
    n != 0 (the n^2/r^2 term is singular), one-sided second-order Neumann
    for n = 0.  The pinned row reads 2^e u(0) = 0, 2^e the smallest power
    of two above -lower[1]: partial pivoting keeps it as its own pivot row,
    and an LU solve gives its entry g / 2^e exactly.  The far row is the
    ghost-eliminated R u'(R) + 2 (u(R) - t) = 0; rhs is its column for
    t = 1, which pot[N] also holds, so with n = 0 u = t cancels exactly.
    Rows the windings agree on are views of one row.  The grid keeps the
    rows of the first request, read-only, for every later caller; grids
    built apart share none.
    """
    if windings in grid._operators:
        return grid._operators[windings]
    if min(windings) < 0:
        raise BadBoundarySpec("winding number must be nonnegative")
    # n^2 as a column, one entry for equal windings
    distinct = windings[:1] if len(set(windings)) == 1 else windings
    n2 = np.array([[k * k] for k in distinct], dtype=float)
    r = grid.nodes
    h = np.diff(r)
    lower, upper, rhs = (np.zeros_like(r) for _ in range(3))
    pot = np.zeros((len(n2), len(r)))
    pinned = (n2 != 0) & (r == 0.0)         # the origin rows of n != 0

    rm = 0.5 * (r[:-1] + r[1:])            # half nodes r_{i+1/2}
    hbar = 0.5 * (h[:-1] + h[1:])
    lower[1:-1] = -rm[:-1] / (h[:-1] * r[1:-1] * hbar)
    upper[1:-1] = -rm[1:] / (h[1:] * r[1:-1] * hbar)
    pot[:, 1:] = n2 / r[1:] ** 2
    pot[pinned] = 2.0 ** math.frexp(-lower[1])[1]
    # n = 0, limit row: -(1/r)(r u')'|_0 = -2 u''(0) ~ (4/r1^2)(u0 - u1)
    upper[0] = -4.0 / r[1] ** 2
    upper = np.where(pinned, 0.0, upper)
    # ghost elimination: u_{N+1} = u_{N-1} + 2 h u'(R), keeping the interior
    # stencil second order at the boundary, with u'(R) = (2/R)(t - u_N)
    hN = h[-1]
    c_out = -(r[-1] + 0.5 * hN) / (hN * r[-1] * hN)
    c_in = -(r[-1] - 0.5 * hN) / (hN * r[-1] * hN)
    lower[-1] = c_in + c_out
    rhs[-1] = -c_out * 2.0 * hN * 2.0 / r[-1]
    pot[:, -1] += rhs[-1]
    # the masses that symmetrize the rows: the origin's half cell h_0^2/8
    # for n = 0, 1 on a pinned row, and on the far row the weight that
    # matches its lower entry to the symmetric entry above it
    mass = np.empty_like(pot)
    mass[:, 1:-1] = r[1:-1] * hbar
    mass[:, :1] = np.where(pinned[:, :1], 1.0, r[1] ** 2 / 8.0)
    mass[:, -1] = mass[:, -2] * upper[:, -2] / lower[-1]
    op = grid._operators[windings] = RadialOperator(*(
        np.broadcast_to(a, (len(windings), len(r))) for a in
        (lower, upper, pot, rhs, pinned, -(lower + upper) + pot, mass)))
    return op

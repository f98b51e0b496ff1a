"""Radial meshes on [0, R_max] and discrete radial differential operators.

All integrals carry the planar radial measure r dr.  The second-derivative
stencil discretizes the conservative form -(1/r)(r u')' at half-nodes, which
makes the operator self-adjoint in the r-weighted inner product; Hessian
symmetry downstream is therefore automatic.  At r = 0 the removable
singularity for zero winding is handled with a ghost-free one-sided stencil
(the radial Laplacian of an even function tends to 2 u''(0)).
"""

from __future__ import annotations

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

    @property
    def N(self) -> int:
        return len(self.nodes) - 1

    @property
    def R_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)

    def as_dict(self):
        return {"R_max": self.R_max, "N": self.N, "kind": self.kind,
                "stretch": self.stretch}


def build_grid(R_max: float, N: int, kind: str = "uniform",
               stretch: float | None = None) -> RadialGrid:
    """Build a radial mesh of N+1 nodes on [0, R_max].

    kind "uniform" spaces nodes evenly; kind "geometric" grows spacings by a
    fixed ratio in (1, 1.1], concentrating nodes near the origin where the
    profiles vary like r^n.
    """
    if not R_max > 0:
        raise BadGridSpec(f"R_max must be positive, got {R_max}")
    if N < 16:
        raise BadGridSpec(f"N must be at least 16, got {N}")
    if kind == "uniform":
        if stretch is not None and stretch != 1.0:
            raise BadGridSpec("uniform grid takes no stretch ratio")
        nodes = np.linspace(0.0, R_max, N + 1)
        stretch = None
    elif kind == "geometric":
        if stretch is None or not (1.0 < stretch <= 1.1):
            raise BadGridSpec(
                f"geometric stretch ratio must lie in (1, 1.1], got {stretch}")
        # spacings h0 * q^i with h0 fixed by the endpoint
        q = float(stretch)
        h0 = R_max * (q - 1.0) / (q ** N - 1.0)
        nodes = np.concatenate(([0.0], np.cumsum(h0 * q ** np.arange(N))))
        nodes[-1] = R_max
    else:
        raise BadGridSpec(f"unknown grid kind {kind!r}")

    # trapezoid weights for the integrand g(r)*r
    h = np.diff(nodes)
    w = np.zeros_like(nodes)
    w[:-1] += 0.5 * h * nodes[:-1]
    w[1:] += 0.5 * h * nodes[1:]
    return RadialGrid(nodes=nodes, weights=w, kind=kind, stretch=stretch)


def grid_from_json(obj) -> RadialGrid:
    """Build the grid of a JSON object {"R_max", "N", "kind", "stretch"}."""
    json_object(obj, ("R_max", "N", "kind", "stretch"), "grid")
    if not (is_integer(obj["N"]) and is_number(obj["R_max"])
            and (obj["stretch"] is None or is_number(obj["stretch"]))):
        raise ValueError("grid needs an integer N, a number R_max and a "
                         "number or null stretch")
    return build_grid(obj["R_max"], obj["N"], obj["kind"], obj["stretch"])


def quadrature(grid: RadialGrid, samples: np.ndarray) -> float:
    """Trapezoid approximation of the integral of g(r) r dr over the mesh."""
    return quadrature_upto(grid, samples, grid.R_max)


def quadrature_upto(grid: RadialGrid, samples: np.ndarray, R: float) -> float:
    """Trapezoid approximation of the integral of g(r) r dr over the nodes
    with r <= R."""
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
    return float(np.dot(w, samples[:i + 1]))


def laplacian_coefficients(grid: RadialGrid):
    """Stencil of the (negative) radial Laplacian -(1/r)(r u')' on interior
    nodes, in conservative half-node form.

    Returns (lower, diag, upper) for rows i = 1..N-1, where row i is
        lower[i-1]*u[i-1] + diag[i-1]*u[i] + upper[i-1]*u[i+1].
    """
    r = grid.nodes
    h = np.diff(r)
    rm = 0.5 * (r[:-1] + r[1:])            # half nodes r_{i+1/2}
    ri = r[1:-1]
    hbar = 0.5 * (h[:-1] + h[1:])
    lower = -rm[:-1] / (h[:-1] * ri * hbar)
    upper = -rm[1:] / (h[1:] * ri * hbar)
    diag = -(lower + upper)
    return lower, diag, upper


@dataclass(frozen=True)
class RadialOperator:
    """Tridiagonal discretization of -(1/r)(r u')' + n^2/r^2 with boundary rows.

    bc_zero is "dirichlet" (u(0) = 0) when n != 0 and "neumann" (u'(0) = 0)
    when n = 0.  bc_far is "dirichlet" (row u(R) = prescribed value) or
    "robin" (ghost-eliminated derivative row pinning u'(R_max) =
    -2a/R_max^3 to the tail slope; the inhomogeneous part is reported in
    rhs).

    lower/diag/upper hold the assembled row coefficients (for banded
    factorizations); apply() evaluates the same rows in divided-difference
    (flux) form, so constants and linear tails see exact cancellation
    instead of h^-2-sized roundoff.
    """

    grid: RadialGrid
    n: int
    bc_zero: str
    bc_far: str
    robin_a: float
    lower: np.ndarray = field(repr=False)
    diag: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Row evaluation including boundary rows (rhs not subtracted)."""
        u = np.asarray(u, dtype=float)
        if u.shape != self.grid.nodes.shape:
            raise LengthMismatch("sample length does not match grid")
        r = self.grid.nodes
        h = self.grid.spacings
        rm = 0.5 * (r[:-1] + r[1:])
        flux = rm * (u[1:] - u[:-1]) / h          # r_{i+1/2} u' at half nodes
        hbar = 0.5 * (h[:-1] + h[1:])
        out = np.empty_like(u)
        out[1:-1] = (-(flux[1:] - flux[:-1]) / (r[1:-1] * hbar)
                     + self.n ** 2 / r[1:-1] ** 2 * u[1:-1])
        if self.bc_zero == "dirichlet":
            out[0] = u[0]
        else:
            out[0] = 4.0 / r[1] ** 2 * (u[0] - u[1])
        if self.bc_far == "dirichlet":
            out[-1] = u[-1]
        else:
            # homogeneous part of the ghost row; the prescribed-slope
            # constant lives in rhs, so rows always read apply(u) - rhs
            hN = h[-1]
            flux_out = (r[-1] + 0.5 * hN) * (u[-2] - u[-1]) / hN
            out[-1] = (-(flux_out - flux[-1]) / (r[-1] * hN)
                       + self.n ** 2 / r[-1] ** 2 * u[-1])
        return out


def radial_operator(grid: RadialGrid, n: int, bc_far: str = "dirichlet",
                    robin_a: float = 0.0,
                    dirichlet_value: float = 0.0) -> RadialOperator:
    """Assemble -(1/r)(r u')' + n^2/r^2 with boundary encodings.

    The origin row is forced by the winding number: Dirichlet for n != 0
    (the n^2/r^2 term is singular), one-sided second-order Neumann for
    n = 0 (the singular term is absent exactly then).
    """
    if n < 0:
        raise BadBoundarySpec("winding number must be nonnegative")
    bc_zero = "dirichlet" if n != 0 else "neumann"
    if bc_far not in ("dirichlet", "robin"):
        raise BadBoundarySpec(f"unknown far boundary {bc_far!r}")

    r = grid.nodes
    N = grid.N
    lo, di, up = laplacian_coefficients(grid)
    lower = np.zeros(N + 1)
    diag = np.zeros(N + 1)
    upper = np.zeros(N + 1)
    rhs = np.zeros(N + 1)

    lower[1:-1] = lo
    diag[1:-1] = di + n * n / r[1:-1] ** 2
    upper[1:-1] = up

    if bc_zero == "dirichlet":
        diag[0] = 1.0
    else:
        # limit row: -(1/r)(r u')'|_0 = -2 u''(0) ~ (4/r1^2)(u0 - u1)
        h0 = r[1]
        diag[0] = 4.0 / h0 ** 2
        upper[0] = -4.0 / h0 ** 2

    if bc_far == "dirichlet":
        diag[-1] = 1.0
        rhs[-1] = dirichlet_value
    else:
        # ghost elimination: u_{N+1} = u_{N-1} + 2 h d with d = -2a/R^3,
        # keeping the interior stencil second order at the boundary
        h = r[-1] - r[-2]
        rp = r[-1] + 0.5 * h
        rm = r[-1] - 0.5 * h
        c_out = -rp / (h * r[-1] * h)
        c_in = -rm / (h * r[-1] * h)
        d = -2.0 * robin_a / grid.R_max ** 3
        lower[-1] = c_in + c_out
        diag[-1] = -(c_in + c_out) + n * n / r[-1] ** 2
        rhs[-1] = -c_out * 2.0 * h * d
    return RadialOperator(grid=grid, n=n, bc_zero=bc_zero, bc_far=bc_far,
                          robin_a=robin_a, lower=lower, diag=diag,
                          upper=upper, rhs=rhs)

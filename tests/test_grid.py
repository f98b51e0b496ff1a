import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import glvortex as gv
from glvortex.diagnostics import second_variation_matrix
from glvortex.grid import quadrature_upto
from glvortex.solver import Profile, SolveReport


def test_uniform_nodes():
    g = gv.build_grid(10.0, 100)
    assert np.allclose(g.nodes, 0.1 * np.arange(101), atol=1e-14)
    assert g.nodes[0] == 0.0
    assert g.R_max == 10.0


@pytest.mark.parametrize("kind,stretch", [("uniform", None),
                                          ("geometric", 1.005)])
def test_weight_sum_is_half_rmax_squared(kind, stretch):
    g = gv.build_grid(25.0, 300, kind, stretch)
    assert np.sum(g.weights) == pytest.approx(25.0 ** 2 / 2, rel=1e-12)
    assert np.all(np.diff(g.nodes) > 0)


def test_geometric_grid_concentrates_near_origin():
    g = gv.build_grid(10.0, 100, "geometric", 1.05)
    assert g.nodes[1] < 10.0 / 100
    assert g.nodes[-1] == 10.0


def test_quadrature_cubic_and_order():
    # int_0^10 r^2 * r dr = 10^4 / 4
    errs = []
    for N in (100, 200):
        g = gv.build_grid(10.0, N)
        errs.append(abs(gv.quadrature(g, g.nodes ** 2) - 2500.0))
    assert errs[0] < 0.5
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_quadrature_constant_exact():
    g = gv.build_grid(10.0, 100)
    assert gv.quadrature(g, np.ones(101)) == pytest.approx(50.0, rel=1e-13)


def test_quadrature_linear_positive():
    g = gv.build_grid(5.0, 64)
    f = np.cos(g.nodes) ** 2 + 0.1
    assert gv.quadrature(g, f) > 0
    a = gv.quadrature(g, g.nodes)
    b = gv.quadrature(g, np.ones(65))
    combined = gv.quadrature(g, 2.0 * g.nodes + 3.0 * np.ones(65))
    assert combined == pytest.approx(2 * a + 3 * b, rel=1e-13)


def test_quadrature_upto_truncates():
    g = gv.build_grid(10.0, 200)
    full = gv.quadrature(g, g.nodes ** 2)
    half = quadrature_upto(g, g.nodes ** 2, 5.0)
    assert half == pytest.approx(5.0 ** 4 / 4, rel=1e-3)
    assert quadrature_upto(g, g.nodes ** 2, 10.0) == pytest.approx(full)


def test_quadrature_upto_refuses_a_nan_radius():
    # searchsorted places NaN past every node: the whole-grid integral
    g = gv.build_grid(80.0, 400)
    with pytest.raises(ValueError, match="R is NaN"):
        quadrature_upto(g, np.ones(401), float("nan"))


def test_quadrature_length_mismatch():
    g = gv.build_grid(10.0, 100)
    with pytest.raises(gv.LengthMismatch):
        gv.quadrature(g, np.ones(100))


@pytest.mark.parametrize("args", [
    (0.0, 100, "uniform", None),
    (-3.0, 100, "uniform", None),
    (10.0, 8, "uniform", None),
    (10.0, 100, "geometric", None),
    (10.0, 100, "geometric", 1.2),
    (10.0, 100, "geometric", 1.0),
    (10.0, 100, "chebyshev", None),
    # stretch^N overflows a float
    (80.0, 8000, "geometric", 1.1),
    # h0 = 2e-165: the first interior row would divide by h0 r1 hbar1 ~ 0
    (80.0, 4000, "geometric", 1.1),
    # the same rule on a uniform grid: h0 = 2.5e-103
    (1e-100, 400, "uniform", None),
    # R_max^6 overflows a float; at 1e103 R_max^3 does too
    (1e52, 400, "uniform", None),
    (1e103, 400, "geometric", 1.01),
    (10 ** 400, 400, "uniform", None),
])
def test_bad_grid_specs(args):
    with pytest.raises(gv.BadGridSpec):
        gv.build_grid(*args)


def test_uniform_grid_takes_no_stretch():
    with pytest.raises(gv.BadGridSpec, match="uniform grid takes no stretch"):
        gv.build_grid(10.0, 100, "uniform", stretch=1.05)
    assert gv.build_grid(10.0, 100, "uniform", stretch=1.0).stretch is None


def test_grid_range_edges():
    # R_max^6 = 1e306 and h0^3 = (1e-90 / 16)^3 are normal doubles
    assert gv.build_grid(1e51, 400).R_max == 1e51
    assert gv.build_grid(1e-90, 16).N == 16
    with pytest.raises(gv.BadGridSpec, match="R_max"):
        gv.build_grid(5e51, 400)


def _rows(g, n):
    """Winding n's rows on g as 1-D arrays: row 0 of a one-winding request."""
    op = gv.radial_operator(g, (n,))
    return gv.RadialOperator(*(rows[0] for rows in vars(op).values()))


def test_operator_annihilates_power_solutions():
    # -(1/r)(r u')' + n^2/r^2 annihilates r^n; the conservative stencil
    # reproduces that exactly for n <= 2 and to second order for n = 3
    g = gv.build_grid(8.0, 256)
    for n in (0, 1, 2):
        op = _rows(g, n)
        res = op.apply(g.nodes ** n)[1:-1]
        assert np.max(np.abs(res)) < 1e-10
    sups = []
    for N in (256, 512):
        gN = gv.build_grid(8.0, N)
        op = _rows(gN, 3)
        res = op.apply(gN.nodes ** 3)[1:-1]
        away = gN.nodes[1:-1] >= 1.0
        sups.append(np.max(np.abs(res[away])))
    assert sups[0] / sups[1] == pytest.approx(4.0, rel=0.1)


def test_operator_constant_in_kernel_when_n_zero():
    g = gv.build_grid(8.0, 64)
    op = _rows(g, 0)
    u = np.full(65, 3.7)
    # the difference form cancels a constant exactly, boundary rows included:
    # the far row's pot[N] u[N] is the product rhs[N] t it is solved against
    assert op.apply(u).tobytes() == (3.7 * op.rhs).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(geometric=st.booleans(), stretch=st.floats(1.001, 1.1),
       N=st.integers(16, 200), R_max=st.floats(1.0, 200.0),
       n=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_apply_matches_tridiagonal_rows(geometric, stretch, N, R_max, n,
                                        seed):
    # apply() and the assembled (lower, diag, upper) are one set of rows
    g = (gv.build_grid(R_max, N, "geometric", stretch) if geometric
         else gv.build_grid(R_max, N))
    op = _rows(g, n)
    u = np.random.default_rng(seed).normal(size=N + 1)
    dense = (np.diag(op.diag) + np.diag(op.lower[1:], -1)
             + np.diag(op.upper[:-1], 1))
    scale = (np.abs(op.lower) + np.abs(op.diag) + np.abs(op.upper)) \
        * np.max(np.abs(u))
    assert np.all(np.abs(op.apply(u) - dense @ u) <= 1e-12 * scale)
    assert op.lower[0] == op.upper[-1] == 0.0
    assert list(np.flatnonzero(op.pinned)) == [0] * (n != 0)
    if n != 0:
        # the pinned row's scale is a power of two above row 1's coefficient
        # on u(0), so partial pivoting keeps the row in place
        mantissa, _ = math.frexp(op.pot[0])
        assert mantissa == 0.5 and op.pot[0] > -op.lower[1]
    # rhs is the far row's column for t = 1, no boundary data
    assert list(np.flatnonzero(op.rhs)) == [N]


@pytest.mark.parametrize("windings", [(1, 0), (0, 3), (2, 2)])
def test_stacked_rows_apply_as_each_winding(windings):
    # the rows of a winding pair evaluate a (2, N+1) state bit for bit
    # as each winding's own rows evaluate its row
    g = gv.build_grid(30.0, 300, "geometric", 1.01)
    stack = gv.radial_operator(g, windings)
    assert gv.radial_operator(g, windings) is stack
    u = np.random.default_rng(7).uniform(0.0, 2.0, (2, 301))
    want = [_rows(g, n).apply(row) for n, row in zip(windings, u)]
    assert stack.apply(u).tobytes() == np.array(want).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(windings=st.tuples(st.integers(0, 8), st.integers(0, 8)),
       geometric=st.booleans(), N=st.integers(16, 300),
       R_max=st.floats(1.0, 200.0))
def test_pair_rows_are_the_stacked_winding_rows(windings, geometric, N,
                                                R_max):
    # one pass over a winding pair gives, bit for bit, each winding's own
    # rows stacked; every request is on a fresh grid, so no cached rows
    # answer it, and the pair's request is the one entry it leaves
    def grid():
        return (gv.build_grid(R_max, N, "geometric", 1.01) if geometric
                else gv.build_grid(R_max, N))

    g = grid()
    pair = gv.radial_operator(g, windings)
    assert list(g._operators) == [windings]
    singles = [_rows(grid(), n) for n in windings]
    for rows in ("lower", "upper", "pot", "rhs", "pinned", "diag"):
        got = getattr(pair, rows)
        want = np.stack([getattr(op, rows) for op in singles])
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        if windings[0] == windings[1]:
            # equal windings share one row: a view, no memory of its own
            assert not got.flags.owndata
    # the rows each winding picks on its own, against their formulas
    r = g.nodes
    for k, n in enumerate(windings):
        assert pair.pot[k, 1:-1].tobytes() == (n * n / r[1:-1] ** 2).tobytes()
        assert list(np.flatnonzero(pair.pinned[k])) == [0] * (n != 0)
        if n:
            assert pair.upper[k, 0] == 0.0
            assert pair.pot[k, 0] == 2.0 ** math.frexp(-pair.lower[k, 1])[1]
        else:
            assert pair.upper[k, 0] == -4.0 / r[1] ** 2
            assert pair.pot[k, 0] == 0.0


def _dyadic_mesh(kind):
    """65 nodes on [0, 16], uniform, or r = 32 (i/64)^2 on [0, 32]: every
    node is a dyadic rational, so the mesh is exact on any platform."""
    i = np.arange(65) / 64.0
    nodes = 16.0 * i if kind == "uniform" else 32.0 * i * i
    return gv.RadialGrid(nodes=nodes, weights=np.zeros(65), kind="uniform")


@pytest.mark.parametrize("kind,windings,digest", [
    ("uniform", (1, 1), "505e9922ca4ef6dd"),
    ("uniform", (1, 0), "d5e977191036d37e"),
    ("uniform", (0, 1), "8a93a63bfef43a13"),
    ("uniform", (2, 1), "505dd20f4fb87dcd"),
    ("uniform", (5, 1), "d44dcae695afaa0a"),
    ("uniform", (3, 3), "0d30a690a303b20a"),
    ("uniform", (0, 0), "0d5659ed8fbb8285"),
    ("uniform", (8, 0), "53a90e02b9ba50d8"),
    ("quadratic", (1, 1), "c13258f06545b174"),
    ("quadratic", (1, 0), "ca1cd1d9b216f306"),
    ("quadratic", (0, 1), "d8b066950550133e"),
    ("quadratic", (2, 1), "f463bec06d57cae4"),
    ("quadratic", (5, 1), "3769786390a0beb3"),
    ("quadratic", (3, 3), "27f5bcf12e5d3e03"),
    ("quadratic", (0, 0), "43eccabe9a0510e9"),
    ("quadratic", (8, 0), "1f8b818463335285"),
])
def test_pair_rows_are_pinned_bytes(kind, windings, digest):
    # sha256 of every field's shape, dtype and bytes, as rows assembled one
    # winding at a time and stacked gave them before the one-pass assembly
    op = gv.radial_operator(_dyadic_mesh(kind), windings)
    h = hashlib.sha256()
    for rows in ("lower", "upper", "pot", "rhs", "pinned", "diag"):
        a = np.ascontiguousarray(getattr(op, rows))
        h.update(f"{a.shape}{a.dtype.str}".encode())
        h.update(a.tobytes())
    assert h.hexdigest()[:16] == digest


def test_apply_refuses_a_wrong_length():
    op = _rows(gv.build_grid(10.0, 100), 1)
    with pytest.raises(gv.LengthMismatch):
        op.apply(np.ones(100))


def test_boundary_spec_errors():
    g = gv.build_grid(8.0, 64)
    with pytest.raises(gv.BadBoundarySpec):
        gv.radial_operator(g, (1, -1))


def test_tail_row_consistency():
    # every tail t + a/r^2 satisfies R u'(R) + 2 (u(R) - t) = 0, whatever a
    # is, so solved against t rhs[N] the ghost-eliminated far row reproduces
    # the differential operator's value on it up to the ghost substitution
    # error h^2/3 u''' * (1/h) = h u'''/3; a single O(h) boundary row keeps
    # the assembled solution second order (checked in the solver tests)
    n = 1
    for t, a in ((1.0, -0.5), (0.7, 2.0)):
        for N in (200, 400):
            g = gv.build_grid(40.0, N)
            op = _rows(g, n)
            u = t + a / np.maximum(g.nodes, 1e-30) ** 2
            u[0] = 0.0  # the origin row pins u(0) = 0 for n != 0
            R = g.R_max
            expected = n ** 2 * (t + a / R ** 2) / R ** 2 - 4 * a / R ** 4
            got = op.apply(u)[-1] - op.rhs[-1] * t
            h = 40.0 / N
            uppp = -24.0 * a / R ** 5
            assert got - expected == pytest.approx(h * uppp / 3, rel=0.05)


def test_grid_roundtrip_dict():
    g = gv.build_grid(12.0, 128, "geometric", 1.01)
    g2 = gv.build_grid(**g.as_dict())
    assert np.array_equal(g.nodes, g2.nodes)
    assert np.array_equal(g.weights, g2.weights)


@pytest.mark.parametrize("kind,stretch", [("uniform", None),
                                          ("geometric", 1.02)])
@pytest.mark.parametrize("windings", [(0, 1), (3, 0)])
def test_row_masses_symmetrize_the_rows(kind, stretch, windings):
    # diag(m) times the rows is symmetric to a few ulps on the interior and
    # far rows, m[i] upper[i] = m[i+1] lower[i+1], and at an n = 0 origin:
    # the B = 0 Newton matrix and the Hessian both rely on these masses
    g = gv.build_grid(30.0, 400, kind, stretch)
    op = gv.radial_operator(g, windings)
    above = op.mass[:, :-1] * op.upper[:, :-1]
    below = op.mass[:, 1:] * op.lower[:, 1:]
    gap = np.abs(above - below) / np.spacing(np.abs(below))
    pinned = op.pinned[:, 0]
    assert np.max(gap[~pinned]) <= 4.0
    assert np.max(gap[pinned, 1:]) <= 4.0
    assert np.all(op.mass > 0)
    # a pinned row has mass 1 and no upper entry; an n = 0 origin the half
    # cell's mass
    assert np.all(op.mass[pinned, 0] == 1.0) and np.all(above[pinned, 0] == 0)
    assert np.all(op.mass[~pinned, 0] == g.nodes[1] ** 2 / 8.0)


def test_cell_masses_positive_and_consistent():
    # the second variation's finite-volume masses under r dr, read off the
    # n = 0 component: the origin's half cell, then r_i hbar_i, which is the
    # trapezoid weight on any grid; R_max carries no unknown
    for g in (gv.build_grid(10.0, 100),
              gv.build_grid(10.0, 100, "geometric", 1.02)):
        report = SolveReport(iterations=(0,), final_residual=0.0,
                             tolerance=1e-10, wall_time=0.0)
        prof = Profile(grid=g, params=gv.CouplingParams(1, 1, 0, 1, 1),
                       degrees=gv.DegreePair(0, 0), f=np.ones((2, 101)),
                       report=report)
        m = second_variation_matrix(prof)[1][0::2]
        assert m.shape == (100,)
        assert np.all(m > 0)
        assert m[0] == pytest.approx(g.nodes[1] ** 2 / 8, rel=1e-15)
        assert np.allclose(m[1:], g.weights[1:-1], rtol=1e-12)
        if g.kind == "uniform":
            # the dual cells tile [0, R_max - h/2] exactly
            assert np.sum(m) == pytest.approx((10.0 - 0.05) ** 2 / 2,
                                              rel=1e-12)

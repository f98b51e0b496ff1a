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


def test_operator_annihilates_power_solutions():
    # -(1/r)(r u')' + n^2/r^2 annihilates r^n; the conservative stencil
    # reproduces that exactly for n <= 2 and to second order for n = 3
    g = gv.build_grid(8.0, 256)
    for n in (0, 1, 2):
        op = gv.radial_operator(g, n)
        res = op.apply(g.nodes ** n)[1:-1]
        assert np.max(np.abs(res)) < 1e-10
    sups = []
    for N in (256, 512):
        gN = gv.build_grid(8.0, N)
        op = gv.radial_operator(gN, 3)
        res = op.apply(gN.nodes ** 3)[1:-1]
        away = gN.nodes[1:-1] >= 1.0
        sups.append(np.max(np.abs(res[away])))
    assert sups[0] / sups[1] == pytest.approx(4.0, rel=0.1)


def test_operator_constant_in_kernel_when_n_zero():
    g = gv.build_grid(8.0, 64)
    op = gv.radial_operator(g, 0)
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
    op = gv.radial_operator(g, n)
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
    # the rows stacked per component evaluate a (2, N+1) state bit for bit
    # as each winding's own rows evaluate its row
    g = gv.build_grid(30.0, 300, "geometric", 1.01)
    stack = gv.radial_operator(g, windings)
    assert gv.radial_operator(g, windings) is stack
    u = np.random.default_rng(7).uniform(0.0, 2.0, (2, 301))
    want = [gv.radial_operator(g, n).apply(row) for n, row in zip(windings, u)]
    assert stack.apply(u).tobytes() == np.array(want).tobytes()


def test_apply_refuses_a_wrong_length():
    op = gv.radial_operator(gv.build_grid(10.0, 100), 1)
    with pytest.raises(gv.LengthMismatch):
        op.apply(np.ones(100))


def test_boundary_spec_errors():
    g = gv.build_grid(8.0, 64)
    with pytest.raises(gv.BadBoundarySpec):
        gv.radial_operator(g, -1)


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
            op = gv.radial_operator(g, n)
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

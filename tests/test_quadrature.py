import numpy as np
import pytest

from hmcleod import endpoints as ep
from hmcleod import quadrature as quad
from hmcleod.errors import NonFinite


RULE = quad.QuadratureRule()


def test_unit_segment_constant():
    p = quad.Path((0.0, 1.0))
    val = quad.integrate_path(lambda w: np.ones_like(w), p, RULE)
    assert abs(val - 1.0) < 1e-13


def test_residue_on_unit_circle():
    # counterclockwise square around the origin is homotopic to the circle
    p = quad.Path((1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j), closed=True)
    val = quad.integrate_path(lambda w: 1.0 / w, p, RULE)
    assert abs(val - 2j * np.pi) < 1e-12


def test_polynomial_antiderivative():
    # int_0^(1+i) w^2 dw = (1+i)^3/3, frozen from the antiderivative w^3/3
    p = quad.Path((0.0, 1.0 + 1.0j))
    val = quad.integrate_path(lambda w: w ** 2, p, RULE)
    expected = (1.0 + 1.0j) ** 3 / 3.0
    assert abs(val - expected) < 1e-13


def test_path_reversal_negates():
    p = quad.Path((0.5 + 0.2j, 1.5 - 0.3j, 2.0 + 1.0j))
    f = lambda w: np.exp(w) / (w + 3.0)
    a = quad.integrate_path(f, p, RULE)
    b = quad.integrate_path(f, p.reverse(), RULE)
    assert abs(a + b) < 1e-12


def test_deformation_invariance():
    # two homotopic paths from 0 to 2 avoiding the pole at 1 + 0.2i
    f = lambda w: 1.0 / (w - (1.0 + 0.2j))
    p1 = quad.Path((0.0, 1.0 - 1.0j, 2.0))
    p2 = quad.Path((0.0, 0.5 - 0.4j, 1.5 - 0.7j, 2.0))
    a = quad.integrate_path(f, p1, RULE)
    b = quad.integrate_path(f, p2, RULE)
    assert abs(a - b) < 10 * (RULE.abs_tol + RULE.rel_tol * abs(a))


def test_closed_loop_entire_function_vanishes():
    p = quad.Path((2.0, 2.0j, -2.0, -2.0j), closed=True)
    val = quad.integrate_path(lambda w: np.exp(w) * (w ** 3 - 2.0 * w), p, RULE)
    assert abs(val) < 1e-12


def test_nonfinite_raises():
    p = quad.Path((-1.0, 1.0))
    with pytest.raises(NonFinite):
        quad.integrate_path(lambda w: np.full_like(w, np.nan), p, RULE)


def test_tail_inverse_square():
    val = quad.integrate_tail(lambda w: 1.0 / w ** 2, 1.0, 1.0, RULE)
    assert abs(val - (-1.0)) < 1e-10


def test_tail_zero():
    val = quad.integrate_tail(lambda w: np.zeros_like(w), 2.0, 1.0, RULE)
    assert abs(val) < 1e-14


def test_tail_from_2i_upward():
    # antiderivative -1/w from infinity down to 2i: value i/2
    val = quad.integrate_tail(lambda w: 1.0 / w ** 2, 2.0j, 1.0j, RULE)
    assert abs(val - (-1.0 / 2.0j)) < 1e-10
    assert abs(val - 0.5j) < 1e-10


def test_loop_encloses_simple_pole():
    p, q = -1.0 - 0.5j, 2.0 + 1.0j
    m = 0.5 * (p + q)
    val = quad.loop_around_segment(lambda w: 1.0 / (w - m), p, q)
    assert abs(val - 2j * np.pi) < 1e-11


def test_loop_entire_function():
    val = quad.loop_around_segment(lambda w: np.cos(w) + w ** 2, -1.0, 1.0)
    assert abs(val) < 1e-12


def test_loop_collapses_to_cut_integral():
    # r^2 = (w-a)(w-b) cut on [a, b]: the loop equals -2 int_a^b f dw/r_plus
    a, b = -1.0 + 0.3j, 1.0 + 0.8j
    m, half = 0.5 * (a + b), 0.5 * (b - a)

    def f(w):
        t = (w - m) / half
        return w ** 2 / (half * np.sqrt(t - 1.0) * np.sqrt(t + 1.0))

    loop = quad.loop_around_segment(f, a, b, clearance=0.08)
    # plus-side boundary value along the cut via t = cos(theta):
    # r_plus = i*half*sin(theta), dw = half*dt
    theta, wt = quad.cheb_theta_nodes(400)
    w_nodes = m + half * np.cos(theta)
    cut = np.sum(wt * w_nodes ** 2) / 1j
    assert abs(loop - (-2.0) * cut) < 1e-9


def test_sqrt_start_substitution():
    # int_0^1 w^(-1/2) dw = 2 with the square-root substitution
    p = quad.Path((0.0, 1.0))
    val = quad.integrate_path(lambda w: 1.0 / np.sqrt(w), p, RULE, sqrt_start=True)
    assert abs(val - 2.0) < 1e-12


def test_chain_router_avoids_cuts(pipe_refpoint):
    # from the Abel stage point to Q the straight segment crosses the gap
    e = pipe_refpoint.e
    chain = [(e.A, e.B), (e.B, e.C), (e.C, e.D)]
    router = ep.ChainRouter(e, include_log_cut=False)
    start, end = pipe_refpoint.abel.stage, pipe_refpoint.periods.Q
    assert any(quad.segments_cross(start, end, p, q) for p, q in chain)
    path = router.path(start, end)
    assert path.vertices[0] == start and path.vertices[-1] == end
    assert len(path.segments()) > 1
    for a, b in path.segments():
        for p, q in chain:
            assert not quad.segments_cross(a, b, p, q)
    # a clear straight segment comes back as a single leg
    away = start - (e.B - e.A)
    assert router.path(start, away).vertices == (start, away)

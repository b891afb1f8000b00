import numpy as np
import pytest

from hmcleod import endpoints as ep
from hmcleod import quadrature as quad
from hmcleod import theta as th
from polyline import chain_detour, integrate_polyline


def test_unit_segment_constant():
    # the leg rule from z to p sums dw to p - z
    w, dw = quad.leg_rule(1.0, 0.0)
    assert abs(np.sum(dw) - 1.0) < 1e-13
    assert np.all((w > 0.0) & (w < 1.0))


def test_leg_rule_absorbs_a_square_root_end():
    # int_1^0 dw/sqrt(w) = -2: under w = t^2 the integrand is smooth in t
    w, dw = quad.leg_rule(0.0, 1.0)
    assert abs(np.sum(dw / np.sqrt(w)) + 2.0) < 1e-13


def test_residue_on_unit_circle():
    # counterclockwise square around the origin is homotopic to the circle
    val = integrate_polyline(lambda w: 1.0 / w, (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j))
    assert abs(val - 2j * np.pi) < 1e-12


def test_polynomial_antiderivative():
    # int_0^(1+i) w^2 dw = (1+i)^3/3, frozen from the antiderivative w^3/3
    w, dw = quad.leg_rule(1.0 + 1.0j, 0.0)
    expected = (1.0 + 1.0j) ** 3 / 3.0
    assert abs(np.sum(dw * w ** 2) - expected) < 1e-13


def test_path_reversal_negates():
    verts = (0.5 + 0.2j, 1.5 - 0.3j, 2.0 + 1.0j)
    f = lambda w: np.exp(w) / (w + 3.0)
    a = integrate_polyline(f, verts)
    b = integrate_polyline(f, verts[::-1])
    assert abs(a + b) < 1e-12


def test_deformation_invariance():
    # two homotopic paths from 0 to 2 avoiding the pole at 1 + 0.2i
    f = lambda w: 1.0 / (w - (1.0 + 0.2j))
    a = integrate_polyline(f, (0.0, 1.0 - 1.0j, 2.0))
    b = integrate_polyline(f, (0.0, 0.5 - 0.4j, 1.5 - 0.7j, 2.0))
    assert abs(a - b) < 10 * (1e-12 + 1e-12 * abs(a))


def test_closed_loop_entire_function_vanishes():
    val = integrate_polyline(lambda w: np.exp(w) * (w ** 3 - 2.0 * w), (2.0, 2.0j, -2.0, -2.0j, 2.0))
    assert abs(val) < 1e-12


def test_loop_collapses_to_cut_integral():
    # r^2 = (w-a)(w-b) cut on [a, b]: a closed path around the cut equals
    # -2 int_a^b f dw/r_plus, the identity behind the a-period
    a, b = -1.0 + 0.3j, 1.0 + 0.8j
    m, half = 0.5 * (a + b), 0.5 * (b - a)

    def f(w):
        t = (w - m) / half
        return w ** 2 / (half * np.sqrt(t - 1.0) * np.sqrt(t + 1.0))

    # counterclockwise rectangle 0.08 off the cut, in the frame of the cut
    u, c = half / abs(half), 0.08
    corners = [m + u * complex(x, y) for x, y in
               ((-abs(half) - c, -c), (abs(half) + c, -c),
                (abs(half) + c, c), (-abs(half) - c, c))]
    loop = integrate_polyline(f, corners + corners[:1])
    # plus-side boundary value along the cut via t = cos(theta):
    # r_plus = i*half*sin(theta), dw = half*dt
    theta, wt = quad.cheb_theta_nodes(400)
    w_nodes = m + half * np.cos(theta)
    cut = np.sum(wt * w_nodes ** 2) / 1j
    assert abs(loop - (-2.0) * cut) < 1e-9


def _beyond_a(e):
    """A point beyond A on band 1's line, 0.4 of the shortest chain segment from A."""
    seg = min(abs(e.B - e.A), abs(e.C - e.B), abs(e.D - e.C))
    return e.A - 0.4 * seg * (e.B - e.A) / abs(e.B - e.A)


@pytest.mark.parametrize("x", [-1.5 - 10j, -6 - 10.4347826j, -6 + 10.4347826j],
                         ids=["reference", "folded_lower", "folded_upper"])
def test_dump_legs_cross_no_contour(x, monkeypatch):
    # every leg of the endpoint dump, the Upsilon leg and the legs of
    # Lambda and its cross-check, at the reference point and at the folded
    # chain (D 0.085 from B) in both half-planes: a straight leg from a
    # chain end that crosses no band, the gap or L
    legs = []
    rule = quad.leg_rule

    def recording(p, z):
        legs.append((p, z))
        return rule(p, z)

    monkeypatch.setattr(quad, "leg_rule", recording)
    pipe = th.Genus1Pipeline(x)
    e = pipe.e
    pipe.upsilon_constants()
    ep.jump_lambda(e, pipe.constants)
    assert [p for p, _ in legs] == [e.A, e.A, e.B, e.D]
    c0, c1 = np.array(ep.contours_for(e)).T
    for p, z in legs:
        assert not np.any(quad.segments_cross(p, z, c0, c1))
        # far out, where the 1/w series holds
        assert abs(z) >= 2.5 * max(abs(q) for q in e.points()) + 2.0


def test_abel_value_is_independent_of_the_routed_path(pipe_refpoint):
    # the closed-form A(Q) equals the integral from A out to three points
    # of a far circle and back to Q: dw/R is analytic off the chain and
    # O(1/w^2) at infinity, so no residue is picked up going round it.
    # The leg from A takes the substitution w = A + (s - A) t^2.  Below
    # the axis the closed form takes the detour's representative; above
    # it, the two differ by a lattice vector.
    for pipe in (pipe_refpoint, th.Genus1Pipeline(np.conj(pipe_refpoint.x))):
        e, pd, Q = pipe.e, pipe.periods, pipe.periods.Q
        start = _beyond_a(e)
        inv_r = lambda w: 1.0 / ep.R_eval(w, e, guard=False)
        a_q = pd.nu * integrate_polyline(inv_r, (e.A, *chain_detour(e, start, Q)), sqrt_start=True)
        diff = a_q - pipe.A_Q
        if pipe.x.imag > 0:
            diff = th.reduce_mod_lattice(diff, pd.B_period)
        # measured: 3.7e-13 below the axis and 6.8e-13 above it
        assert abs(diff) <= 1e-12 * max(1.0, abs(a_q))


def test_segments_cross_broadcasts_like_scalar_calls():
    rng = np.random.default_rng(3)

    def points(n):
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    a0, a1, b0, b1 = (points(200) for _ in range(4))
    d = points(20)
    # parallel, collinear (overlapping or not) and end-touching pairs
    a0 = np.r_[a0, d, d, d, d]
    a1 = np.r_[a1, d + 1, d + 1, d + 1, d + 1]
    b0 = np.r_[b0, d + 0.5j, d + 0.5, d + 2, d + 1]
    b1 = np.r_[b1, d + 1 + 0.5j, d + 1.5, d + 3, d + 1 + 1j]
    out = quad.segments_cross(a0, a1, b0, b1)
    scalar = [quad.segments_cross(*args) for args in zip(a0, a1, b0, b1)]
    assert out.dtype == bool and all(type(v) is bool for v in scalar)
    assert out.tolist() == scalar
    assert 0 < out.sum() < 200 and not out[200:].any()
    # broadcasting one segment against many
    assert quad.segments_cross(a0[:, None], a1[:, None], b0[:5], b1[:5]).tolist() == [
        [quad.segments_cross(p, q, u, v) for u, v in zip(b0[:5], b1[:5])]
        for p, q in zip(a0, a1)]

import numpy as np
import pytest

from hmcleod import genus0 as g0
from hmcleod.errors import OnCut, OnCutWarning, WrongRegion

CBRT2 = 2.0 ** (1.0 / 3.0)


def cubic_residual(S, x):
    return abs(S ** 3 + x * S - 2.0j)


def test_solve_S_anchor_values():
    # x = 0: largest real root of T^3 - 2 = 0 is 2^(1/3), S = -i T
    assert abs(g0.solve_S(0.0) - (-1j * CBRT2)) < 1e-14
    # x = 3: T^3 - 3T - 2 = (T-2)(T+1)^2, largest root T = 2
    assert abs(g0.solve_S(3.0) - (-2.0j)) < 1e-13


def test_solve_S_asymptotes():
    assert abs(g0.solve_S(1e4) + 100.0j) <= 0.01
    assert abs(g0.solve_S(-1e4) + 2e-4j) <= 1e-6


def test_cubic_residual_grid():
    rng = np.random.default_rng(7)
    pts = 20.0 * (rng.random(100) - 0.5) + 20.0j * (rng.random(100) - 0.5)
    pts = [x for x in pts if g0.dist_sigma_s(x) > 1e-6]
    for x in pts:
        assert cubic_residual(g0.solve_S(x), x) <= 1e-12


def test_branch_continuity_along_circle():
    angles = np.linspace(-0.65 * np.pi, 0.65 * np.pi, 200)
    xs = 5.0 * np.exp(1j * angles)
    S = g0.solve_S(xs[0])
    for x_prev, x in zip(xs[:-1], xs[1:]):
        S_new = g0.solve_S(x, hint=S)
        dS = -S / (3.0 * S ** 2 + complex(x_prev))
        assert abs(S_new - S) <= 5.0 * abs(dS) * abs(x - x_prev) + 1e-8
        S = S_new


def test_on_cut_warns_and_returns_plus_side():
    x_on = 5.0 * np.exp(2j * np.pi / 3.0)
    with pytest.warns(OnCutWarning):
        S = g0.solve_S(x_on)
    assert np.isfinite(S.real) and np.isfinite(S.imag)
    assert cubic_residual(S, x_on) < 1e-8


def test_genus0_data_at_zero():
    d = g0.genus0_data(0.0)
    assert abs(d.Delta - 2.0 ** (5.0 / 6.0)) < 1e-13
    assert abs(d.a - complex(-0.8908987181403393, -0.6299605249474366)) < 1e-12
    assert abs(d.b - complex(0.8908987181403393, -0.6299605249474366)) < 1e-12


def test_genus0_data_real_x_structure():
    for x in [-6.0, -2.0, 0.0, 1.0, 3.0, 8.0]:
        d = g0.genus0_data(complex(x))
        assert d.S.imag < 0 and abs(d.S.real) < 1e-12
        assert d.Delta.imag == pytest.approx(0.0, abs=1e-12)
        assert d.Delta.real > 0
        assert abs(d.a + np.conj(d.b)) < 1e-12
        assert abs(d.c.real) < 1e-12 and d.c.imag > 0
        assert d.a.real <= d.b.real


def test_c_at_three():
    d = g0.genus0_data(3.0)
    assert abs(d.c - 1.0j) < 1e-13


def test_r_eval_properties():
    d = g0.genus0_data(1.2 - 0.7j)
    # normalization r ~ z
    for z in [1e3, 1e3j, -1e3 + 5j]:
        assert abs(g0.r_eval(z, d) / z - 1.0) < 5e-3
    # defining relation at random points
    rng = np.random.default_rng(3)
    zs = 4.0 * (rng.random(40) - 0.5) + 4.0j * (rng.random(40) - 0.5)
    zs = zs[np.abs(zs - d.a) > 0.2]
    for z in zs:
        try:
            r = g0.r_eval(z, d)
        except OnCut:
            continue
        assert abs(r ** 2 - (z - d.a) * (z - d.b)) < 1e-12 * max(1.0, abs(z) ** 2)
    # square-root jump across the band midpoint
    m = 0.5 * (d.a + d.b)
    n = 1j * (d.b - d.a) / abs(d.b - d.a)
    up = g0.r_eval(m + 1e-8 * n, d)
    dn = g0.r_eval(m - 1e-8 * n, d)
    assert abs(up + dn) < 1e-7 * abs(up)


def test_h_at_b_matches_minus_lambda():
    for x in [-4.5, 1.5, 0.3 + 0.4j, -2.0 + 1.0j]:
        d = g0.genus0_data(complex(x))
        assert abs(g0.two_h_plus_lambda(d.b, d, guard=False)) < 1e-10


def test_h_prime_oracle_random_points():
    rng = np.random.default_rng(11)
    for x in [-4.5, -1.0, 0.0, 1.5, 2.5 - 1.0j, -3.0 + 1.5j]:
        d = g0.genus0_data(complex(x))
        count = 0
        while count < 50:
            z = complex(6.0 * (rng.random() - 0.5), 6.0 * (rng.random() - 0.5))
            if g0._dist_to_segment(np.asarray(z), d.a, d.b) < 0.05:
                continue
            # stay away from the logarithmic ray as well
            ray_dir = (d.a - d.b) / abs(d.a - d.b)
            if g0.dist_to_ray(z, d.a, ray_dir) < 0.05:
                continue
            eps = 1e-5
            fd = (g0.h_eval(z + eps, d, guard=False) - g0.h_eval(z - eps, d, guard=False)) / (2 * eps)
            hp = g0.h_prime(z, d, guard=False)
            assert abs(fd - hp) <= 1e-6 * max(1.0, abs(hp))
            count += 1


def test_h_jump_relation_on_band():
    for x in [-4.5, 0.0, 1.5, 1.0 - 2.0j]:
        d = g0.genus0_data(complex(x))
        m = 0.5 * (d.a + d.b)
        n = 1j * (d.b - d.a) / abs(d.b - d.a)
        for frac in (0.3, 0.5, 0.7):
            p = d.a + frac * (d.b - d.a)
            eps = 1e-6
            s1 = g0.h_eval(p + eps * n, d, guard=False) + g0.h_eval(p - eps * n, d, guard=False)
            s2 = g0.h_eval(p + 0.5 * eps * n, d, guard=False) + g0.h_eval(p - 0.5 * eps * n, d, guard=False)
            richardson = 2.0 * s2 - s1
            assert abs(richardson - (-d.lam)) < 1e-8


def test_h_symmetry_real_x():
    rng = np.random.default_rng(5)
    for x in [-4.5, -1.588, 0.0, 1.5, 3.0]:
        d = g0.genus0_data(complex(x))
        for _ in range(100):
            z = complex(8.0 * (rng.random() - 0.5), 8.0 * (rng.random() - 0.5))
            if g0._dist_to_segment(np.asarray(z), d.a, d.b) < 0.05:
                continue
            if abs(z.imag - d.a.imag) < 0.05:
                continue
            lhs = np.real(g0.two_h_plus_lambda(-np.conj(z), d, guard=False))
            rhs = np.real(g0.two_h_plus_lambda(z, d, guard=False))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_three_half_power_at_b():
    d = g0.genus0_data(-0.7 + 0.0j)
    phi = 2.3
    vals = []
    for t in (1e-3, 1e-4):
        z = d.b + t * np.exp(1j * phi)
        vals.append(g0.two_h_plus_lambda(z, d, guard=False) / (z - d.b) ** 1.5)
    assert abs(vals[0]) > 1e-2
    assert abs(vals[1] / vals[0] - 1.0) < 0.02


def test_sign_changes_on_real_line():
    us = np.linspace(-50.0, 50.0, 2001)
    for x in [-4.5, -2.0, 0.0, 1.5, 3.7]:
        d = g0.genus0_data(complex(x))
        vals = np.real(g0.two_h_plus_lambda(us.astype(complex), d, guard=False))
        signs = np.sign(vals)
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert changes <= 2


def test_frak_c_signs_and_root():
    assert g0.frak_c(complex(-4.5)) > 0
    assert g0.frak_c(complex(1.5)) < 0
    x0 = g0.x0_root()
    assert abs(x0 - (-1.588)) <= 2e-3


def test_frak_c_asymptotics():
    left = g0.frak_c(complex(-64.0))
    assert abs(left - (np.sqrt(2.0) / 3.0) * 512.0) <= 10.0
    right = g0.frak_c(complex(64.0))
    assert abs(right - (-(2.0 / 3.0) * 512.0 - np.log(512.0))) <= 10.0


def test_frak_c_path_invariance():
    # independence of the band placement: the closed form equals the
    # quadrature of h' along two differently routed paths from b to c
    from hmcleod import quadrature as quad
    for x in [1.5 + 0.5j, -2.5 + 1.0j]:
        d = g0.genus0_data(complex(x))
        f = lambda w: g0.h_prime(w, d, guard=False)
        direct = g0.frak_c(complex(x))
        for detour in (0.6 + 0.4j, -0.5 + 0.8j):
            mid = 0.5 * (d.b + d.c) + detour
            p = quad.Path((d.b, mid, d.c))
            ok = all(not quad.segments_cross(s[0], s[1], d.a, d.b) for s in p.segments())
            if not ok:
                continue
            val = 2.0 * np.real(quad.integrate_path(f, p, sqrt_start=True))
            assert abs(val - direct) < 1e-8


def test_classify_region_examples():
    assert g0.classify_region(1.5) is g0.RegionLabel.POLE_FREE_RIGHT
    assert g0.classify_region(-4.5) is g0.RegionLabel.POLE_FREE_LEFT
    assert g0.classify_region(3.0 * np.exp(2j * np.pi / 3.0)) is g0.RegionLabel.APEX_POINT
    assert g0.classify_region(3.0 * np.exp(-2j * np.pi / 3.0)) is g0.RegionLabel.APEX_POINT
    assert g0.classify_region(-1.5 + 6.0j) is g0.RegionLabel.POLE_REGION_UP
    assert g0.classify_region(-1.5 - 10.0j) is g0.RegionLabel.POLE_REGION_DOWN
    assert g0.classify_region(complex(g0.x0_root())) is g0.RegionLabel.BOUNDARY_POINT


def test_classify_region_does_not_trace_the_boundary():
    g0._boundary_data.cache_clear()
    g0.classify_region(-1.5 - 10.0j)
    assert g0._boundary_data.cache_info().currsize == 0


def test_classify_region_far_field_follows_frak_c():
    # beyond |x| = 29, past the end of the traced branch
    R, UP, DOWN = (g0.RegionLabel.POLE_FREE_RIGHT, g0.RegionLabel.POLE_REGION_UP,
                   g0.RegionLabel.POLE_REGION_DOWN)
    for x, sign, up, down in ((13.325 + 25.821j, -1.0, R, R), (16.16 + 31.05j, 1.0, UP, DOWN)):
        assert np.sign(g0.frak_c(x)) == sign
        assert g0.classify_region(x) is up
        assert g0.classify_region(np.conj(x)) is down


def test_classify_region_across_boundary_curves():
    L, R, UP, DOWN = (g0.RegionLabel.POLE_FREE_LEFT, g0.RegionLabel.POLE_FREE_RIGHT,
                      g0.RegionLabel.POLE_REGION_UP, g0.RegionLabel.POLE_REGION_DOWN)
    data = g0._boundary_data()
    # (points, unit tangents, label left of the tangent, label right of it)
    cases = []
    for pts, left, right in ((data["arc"], R, L), (data["branch_up"], UP, R),
                             (np.conj(data["branch_up"]), R, DOWN)):
        idx = [i for i in range(5, len(pts) - 1, 5) if abs(pts[i]) < 25.0]
        tan = pts[np.array(idx) + 1] - pts[np.array(idx) - 1]
        cases.append((pts[idx], tan / np.abs(tan), left, right))
    ts = np.linspace(0.5, 22.0, 40)
    cases.append((g0.APEX_PLUS + ts * g0._RAY_DIR_PLUS, g0._RAY_DIR_PLUS, L, UP))
    cases.append((g0.APEX_MINUS + ts * g0._RAY_DIR_MINUS, g0._RAY_DIR_MINUS, DOWN, L))
    eps = 1e-3
    for pts, tan, left, right in cases:
        for x, n in np.broadcast(pts, 1j * tan):
            assert g0.classify_region(x + eps * n) is left, x
            assert g0.classify_region(x - eps * n) is right, x


def test_genus0_value_examples():
    assert abs(g0.genus0_value(0.0) - (-(2.0 ** (-2.0 / 3.0)))) < 1e-12
    assert abs(g0.genus0_value(3.0) - (-1.0)) < 1e-12
    assert abs(g0.genus0_value(1e4) - (-50.0)) < 0.01
    with pytest.raises(WrongRegion):
        g0.genus0_value(-1.5 - 10.0j)


def test_on_cut_raises_for_h():
    d = g0.genus0_data(0.0)
    m = 0.5 * (d.a + d.b)
    with pytest.raises(OnCut):
        g0.r_eval(m, d)

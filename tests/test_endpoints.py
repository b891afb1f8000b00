import numpy as np
import pytest

from hmcleod import endpoints as ep
from hmcleod import genus0 as g0
from hmcleod.errors import DegenerateEndpoints, OnCut, WrongRegion

X_REF = -1.5 - 10j


@pytest.fixture(scope="module")
def solved(pipe_refpoint):
    return pipe_refpoint.e


def test_residual_components_flag_bad_moments():
    e = ep.EndpointSet(A=1.0 + 0j, B=1j, C=-0.7 + 0.2j, D=-0.3 - 0.4j, x=-1.5 - 10j)
    r = ep.residuals(e, m=32)
    e1 = (1.0 + 0j) + 1j + (-0.7 + 0.2j) + (-0.3 - 0.4j)
    assert r[0] == pytest.approx(e1.real)
    assert r[1] == pytest.approx(e1.imag)


def test_degenerate_seed_rejected():
    d = g0.genus0_data(-1.5 - 3j)
    e = ep.EndpointSet(A=d.a, B=d.c, C=d.c, D=d.b, x=-1.5 - 3j)
    with pytest.raises(DegenerateEndpoints):
        ep.residuals(e)


def test_solved_residuals_small(solved):
    assert np.max(np.abs(ep.residuals(solved, m=160))) <= 1e-10


def test_real_axis_is_wrong_region():
    with pytest.raises(WrongRegion):
        ep.solve_endpoints(0.5 + 0j)


def test_R_expansion_and_jump(solved):
    e = solved
    z = 1e3 + 0j
    R = ep.R_eval(z, e)
    assert abs(R - (z ** 2 + e.x / 4.0 + 1j / (2 * z))) <= 1e-4
    # defining relation at random points
    rng = np.random.default_rng(9)
    for _ in range(20):
        z = complex(6 * (rng.random() - 0.5), 6 * (rng.random() - 0.5))
        try:
            R = ep.R_eval(z, e)
        except OnCut:
            continue
        quartic = np.prod([z - p for p in e.points()])
        assert abs(R ** 2 - quartic) <= 1e-12 * max(1.0, abs(quartic))
    # square-root negation across the first band
    m1 = 0.5 * (e.A + e.B)
    n = 1j * (e.B - e.A) / abs(e.B - e.A)
    up = ep.R_eval(m1 + 1e-9 * n, e)
    dn = ep.R_eval(m1 - 1e-9 * n, e)
    assert abs(up + dn) < 1e-7 * abs(up)


def test_H_prime_matches_cauchy_oracle(solved):
    e = solved
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 20:
        z = complex(7 * (rng.random() - 0.5), 7 * (rng.random() - 0.5)) - 0.2 - 0.5j
        if min(abs(z - p) for p in e.points()) < 0.35:
            continue
        try:
            hp = ep.H_prime(z, e)
            oracle = ep.H_prime_oracle(z, e, m=256)
        except OnCut:
            continue
        assert abs(hp - oracle) <= 1e-6 * max(1.0, abs(hp))
        checked += 1


def test_large_z_H_prime_vs_log_derivative(solved):
    # H' - (i theta'/2 - 1/z) -> 0 like 1/z^2
    e = solved
    vals = []
    for z in (60.0 + 40j, 120.0 + 80j):
        diff = ep.H_prime(z, e) - (0.5j * ep.phase_prime(z, e.x) - 1.0 / z)
        vals.append(abs(diff) * abs(z) ** 2)
    assert vals[0] < 10.0 and vals[1] < 10.0


def test_spectral_constants_reality_and_selftest(solved, pipe_refpoint):
    sc = pipe_refpoint.constants
    assert isinstance(sc.omega, float) and isinstance(sc.Omega, float)
    hf = ep.HField(solved)
    _, diff_g = ep.midpoint_two_sided(hf, solved.B, solved.C)
    omega_jump = 1j * diff_g
    assert abs(omega_jump - sc.omega) <= 1e-8 * max(1.0, abs(sc.omega))
    sum2, _ = ep.midpoint_two_sided(hf, solved.C, solved.D)
    Omega_jump = 1j * (sc.Lambda + sum2)
    assert abs(Omega_jump - sc.Omega) <= 1e-7 * max(1.0, abs(sc.Omega))


def test_three_half_power_at_D(solved, pipe_refpoint):
    e = solved
    sc = pipe_refpoint.constants
    hf = ep.HField(e)
    phi = (np.angle(e.D - e.C) + np.pi / 2.0)  # off the band
    ratios = []
    for t in (2e-2, 5e-3):
        z = e.D + t * np.exp(1j * phi)
        J = 2.0 * hf.value(z) + sc.Lambda + 1j * sc.Omega
        ratios.append(J / (z - e.D) ** 1.5)
    assert abs(ratios[0]) > 1e-3
    assert abs(ratios[1] / ratios[0] - 1.0) < 0.15


def test_continuation_newton_steps(solved):
    e2, info = ep.solve_endpoints(solved.x + 0.05, seed=solved, return_info=True)
    assert info["newton_iters"] <= 10
    assert info["residual"] <= 1e-10


def test_anchor_solve_reports_info():
    # at the bootstrap anchor no continuation step runs; the info is the
    # anchor solve's own
    anchor = ep._wedge_anchor(False)
    e, info = ep.solve_endpoints(anchor, return_info=True)
    assert e.x == complex(anchor)
    assert info["newton_iters"] >= 1
    assert info["residual"] <= 1e-11
    assert info["residual"] == pytest.approx(np.max(np.abs(ep.residuals(e))), abs=0.0)


def test_band_identity_sum():
    # residue of R at infinity forces I1 + I2 = pi/2
    e = ep.solve_endpoints(-4 - 8j)
    I1 = ep.band_integral(e, 1, m=160)
    I2 = ep.band_integral(e, 2, m=160)
    assert abs(I1 + I2 - np.pi / 2.0) < 1e-11


def test_contours_noncrossing(solved):
    c = ep.contours_for(solved)
    assert len(c.cut_segments()) == 4


def test_R_keeps_its_sign_along_the_abel_stage_leg():
    # the leg from A to the Abel map's stage point runs on the real
    # extension of the first band, where t = (z - m1)/h1 is real: R must
    # not flip sign there because of a signed zero in Im t
    e = ep.solve_endpoints(-4 + 8j)
    seg = min(abs(e.B - e.A), abs(e.C - e.B), abs(e.D - e.C))
    stage = e.A - 0.4 * seg * (e.B - e.A) / abs(e.B - e.A)
    R = ep.R_eval(e.A + np.linspace(0.05, 1.0, 40) * (stage - e.A), e)
    assert np.all((R[1:] * np.conj(R[:-1])).real > 0)

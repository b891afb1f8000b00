import numpy as np
import pytest

from hmcleod import endpoints as ep
from hmcleod import genus0 as g0
from hmcleod import theta as th
from hmcleod.errors import DegenerateEndpoints, OnCut, RealityViolation, WrongRegion
from polyline import integrate_polyline


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
    Lambda, omega_end, Omega_end = ep.end_jumps(solved)
    assert ep.jump_lambda(solved, sc) == Lambda
    assert abs(omega_end - sc.omega) <= 1e-8 * max(1.0, abs(sc.omega))
    assert abs(Omega_end - sc.Omega) <= 1e-7 * max(1.0, abs(sc.Omega))


def test_three_half_power_at_D(solved, pipe_refpoint):
    # J = 2H(z) + Lambda + i Omega vanishes like (z - D)^(3/2): H(z) is H at
    # the chain end D plus int_D^z 2iR dw
    e = solved
    sc = pipe_refpoint.constants
    Lambda = ep.jump_lambda(e, sc)
    J_D = 2.0 * ep.H_at_end(e, e.D)[0] + Lambda + 1j * sc.Omega
    phi = (np.angle(e.D - e.C) + np.pi / 2.0)  # off the band
    ratios = []
    for t in (2e-2, 5e-3):
        z = e.D + t * np.exp(1j * phi)
        J = J_D + 2.0 * integrate_polyline(lambda w: 2j * ep.R_eval(w, e, guard=False),
                                           (e.D, z), sqrt_start=True)
        ratios.append(J / (z - e.D) ** 1.5)
    assert abs(ratios[0]) > 1e-3
    assert abs(ratios[1] / ratios[0] - 1.0) < 0.15


def test_continuation_newton_steps(solved):
    # a seeded solve below the axis is this one Newton run
    _, F, n_iter, _ = ep._newton(solved.x + 0.05, ep._set_to_vec(solved))
    assert n_iter <= 10
    assert np.max(np.abs(F)) <= 1e-10


def test_cold_solve_is_one_newton_from_the_split_seed():
    # a cold solve is the region check and one Newton run from x's own
    # split one-band data, to the bit: near the apex, inside, far out
    for x in (-1.5 - 3.05j, -1.5 - 10j, 10.0 - 24j):
        e = ep.solve_endpoints(x)
        v, F, n_iter, _ = ep._newton(x, ep._set_to_vec(ep.degenerate_seed(x)))
        assert e.x == x and e.points() == ep._vec_to_set(v, x).points()
        assert n_iter >= 1
        assert np.max(np.abs(F)) <= 1e-11
        assert np.max(np.abs(F)) == pytest.approx(np.max(np.abs(ep.residuals(e))), abs=0.0)


def _in_pole_region(x):
    return g0.classify_region(x) is g0.RegionLabel.POLE_REGION_DOWN


def _cold_sample():
    """Pole-region points below the axis, each with the direction of its neighbour.

    Interior points of Re x in [-14, 10], Im x in [-24, 0]; points 1e-3
    to 0.2 inside the ray of Sigma_S and, along their row, inside the
    curved branch; and points with |x| > 20.  Points much closer to the
    boundary are left out: 6.4e-7 from the ray, the split-seed Newton
    and the continuation from a neighbour can end on chains with B and D
    exchanged (3.4e-4 apart), and the pipeline raises RealityViolation
    there either way.
    """
    rng = np.random.default_rng(30)
    ray = g0._RAY_DIR_MINUS
    pts = []
    while len(pts) < 8:
        x = complex(rng.uniform(-14.0, 10.0), rng.uniform(-24.0, 0.0))
        if _in_pole_region(x):
            pts.append(pytest.param(x, np.exp(2j * np.pi * rng.random()), id=f"interior{len(pts)}"))
    t = rng.uniform(0.3, 25.0, 8)
    near = g0.APEX_MINUS + t * ray + 10.0 ** rng.uniform(-3.0, np.log10(0.2), 8) * 1j * ray
    pts += [pytest.param(complex(x), 1j * ray, id=f"ray{i}") for i, x in enumerate(near)]
    rows = rng.uniform(-g0._BRANCH_IM_MAX, g0.APEX_MINUS.imag - 0.3, 8)
    ray_re = g0.APEX_PLUS.real - (-rows - g0.APEX_PLUS.imag) / np.sqrt(3.0)
    near = (g0._row_roots(-rows, ray_re + 1e-6, g0._BRANCH_RE_MAX) + 1j * rows
            - 10.0 ** rng.uniform(-3.0, np.log10(0.2), 8))
    pts += [pytest.param(complex(x), -1.0, id=f"branch{i}") for i, x in enumerate(near)]
    while len(pts) < 30:
        x = complex(rng.uniform(20.0, 40.0) * np.exp(-1j * np.pi * rng.random()))
        if _in_pole_region(x):
            pts.append(pytest.param(x, np.exp(2j * np.pi * rng.random()), id=f"far{len(pts) - 24}"))
    return pts


@pytest.mark.parametrize("x, towards", _cold_sample())
def test_cold_chain_matches_the_warm_chain_from_a_neighbour(x, towards):
    # the split-seed Newton converges, to the chain that a warm solve
    # from a cold neighbour 0.1 away finds
    neighbour = x + 0.1 * towards
    assert _in_pole_region(x) and _in_pole_region(neighbour)
    cold = ep.solve_endpoints(x)
    warm = ep.solve_endpoints(x, seed=ep.solve_endpoints(neighbour))
    assert np.max(np.abs(ep.residuals(cold))) <= 1e-11
    assert max(abs(p - q) for p, q in zip(cold.points(), warm.points())) <= 1e-9


@pytest.mark.parametrize("x", [-1.5 + 10j, -4.0 + 8j, 1.0 + 8j])
def test_upper_half_plane_solve_is_the_mirror_of_the_lower(x):
    # above the axis the chain is -conj(D, C, B, A) of the chain at conj x,
    # to the bit, for a cold solve and for a seeded step alike
    def mirrored(e):
        return tuple(-np.conj(p) for p in e.points()[::-1])

    lower = ep.solve_endpoints(np.conj(x))
    upper = ep.solve_endpoints(x)
    assert upper.points() == mirrored(lower) and upper.x == x
    assert max(np.max(np.abs(ep.residuals(lower))), np.max(np.abs(ep.residuals(upper)))) <= 1e-11
    step = ep.solve_endpoints(x + 0.05 + 0.05j, seed=upper)
    assert step.points() == mirrored(ep.solve_endpoints(np.conj(x) + 0.05 - 0.05j, seed=lower))


def test_band_identity_sum():
    # residue of R at infinity forces I1 + I2 = pi/2
    e = ep.solve_endpoints(-4 - 8j)
    I1, I2 = (np.sum(dw * R) for _, dw, R in (ep.segment_rule(e, ep.BAND1, 160),
                                               ep.segment_rule(e, ep.BAND2, 160)))
    assert abs(I1 + I2 - np.pi / 2.0) < 1e-11


def test_contours_noncrossing(solved):
    assert len(ep.contours_for(solved)) == 4


@pytest.mark.parametrize("row", [-18.799426547935568, -6.078918103707684],
                         ids=["im-18.80", "im-6.08"])
def test_lambda_meets_the_genus0_constant_at_the_branch(row):
    # the chain-end relations cannot see a constant added to H, but Lambda
    # must meet the one-band constant lambda (mod 2 pi i) as x nears the
    # branch of the pole-region boundary, here d inside it along the row
    # Im x = row.  Measured: 1.3e-2, 1.1e-3, 1.0e-4 on the row Im x = -18.80 and
    # 5.3e-3, 4.6e-4, 4.1e-5 on Im x = -6.08
    ray_re = g0.APEX_PLUS.real - (-row - g0.APEX_PLUS.imag) / np.sqrt(3.0)
    branch = g0._row_roots(row, ray_re + 1e-6, g0._BRANCH_RE_MAX)[0] + 1j * row
    gaps = []
    for d in (1e-2, 1e-3, 1e-4):
        x = branch - d
        pipe = th.Genus1Pipeline(x)
        gap = ep.jump_lambda(pipe.e, pipe.constants) - g0.genus0_data(x).lam
        gaps.append(abs(gap - 2j * np.pi * np.round(gap.imag / (2.0 * np.pi))))
        assert gaps[-1] < 3.0 * d
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("x", [-1.5 - 10j, -1.5 + 10j], ids=["lower", "upper"])
def test_lambda_branch_rule_on_both_sides_of_L(x, monkeypatch):
    # A's leg turned 1/16 turn off L, above it and below: the arc from the
    # leg across L runs counterclockwise from above, so Lambda = -2H(A) -
    # 2 pi i, and clockwise from below, so Lambda = -2H(A) + 2 pi i.  Both
    # give the Lambda of the default leg, and pass the omega/Omega check
    pipe = th.Genus1Pipeline(x)
    e = pipe.e
    Lambda = ep.jump_lambda(e, pipe.constants)
    end_leg = ep.end_leg
    for turn, arc in ((15 / 16, -2j * np.pi), (-15 / 16, 2j * np.pi)):
        def forced(e_, P, d=np.exp(1j * np.pi * turn)):
            if P != e.A:
                return end_leg(e_, P)
            with monkeypatch.context() as m:
                m.setattr(ep, "_LEG_DIRECTIONS", np.array([d]))
                return end_leg(e_, P)

        monkeypatch.setattr(ep, "end_leg", forced)
        forced_lambda = ep.jump_lambda(e, pipe.constants)
        assert abs(forced_lambda - Lambda) <= 1e-10 * abs(Lambda)
        assert abs(forced_lambda + 2.0 * ep.H_at_end(e, e.A)[0] - arc) <= 1e-10


def test_R_keeps_its_sign_along_the_abel_stage_leg():
    # the reference integrals from A start on a leg along the real
    # extension of the first band, where t = (z - m1)/h1 is real: R must
    # not flip sign there because of a signed zero in Im t
    e = ep.solve_endpoints(-4 + 8j)
    seg = min(abs(e.B - e.A), abs(e.C - e.B), abs(e.D - e.C))
    stage = e.A - 0.4 * seg * (e.B - e.A) / abs(e.B - e.A)
    R = ep.R_eval(e.A + np.linspace(0.05, 1.0, 40) * (stage - e.A), e)
    assert np.all((R[1:] * np.conj(R[:-1])).real > 0)


def _central_differences(e):
    # central differences, relative step 1e-6
    v = ep._set_to_vec(e)
    J = np.empty((8, 8))
    for j in range(8):
        h = 1e-6 * (1.0 + abs(v[j]))
        vp = v.copy(); vp[j] += h
        vm = v.copy(); vm[j] -= h
        J[:, j] = (ep.residuals(ep._vec_to_set(vp, e.x))
                   - ep.residuals(ep._vec_to_set(vm, e.x))) / (2.0 * h)
    return J


def test_analytic_jacobian_matches_differences(solved):
    upper = ep.solve_endpoints(-4 + 8j)
    # the split one-band seed with its bands turned by -0.5 rad about c(x)
    # (turned by +0.5 rad, band 2 crosses band 1, and R_plus jumps on band 1)
    x = -1.4999999999999993 - 3.048076211353316j
    d = g0.genus0_data(x)
    u = (d.b - d.a) / abs(d.b - d.a) * np.exp(-0.5j)
    seed = ep.EndpointSet(A=d.a, B=d.c - 0.06 * u, C=d.c + 0.06 * u, D=d.b, x=x)
    for e in (solved, upper, seed):
        J_fd = _central_differences(e)
        J = ep.jacobian(e, ep._system(e, ep.adaptive_band_nodes(e))[1])
        assert np.max(np.abs(J - J_fd)) <= 1e-7 * np.max(np.abs(J_fd))


def test_newton_makes_no_difference_quotients(solved, monkeypatch):
    calls = []
    system = ep._system

    def counted(e, m):
        calls.append(e)
        return system(e, m)

    iterations = []
    newton = ep._newton

    def recorded(x, v0):
        out = newton(x, v0)
        iterations.append(out[2])
        return out

    monkeypatch.setattr(ep, "_system", counted)
    monkeypatch.setattr(ep, "_newton", recorded)
    ep.solve_endpoints(solved.x + 0.05, seed=solved)
    # the starting residual pass, then one trial per iteration: every full
    # Newton step of a short continuation step is accepted, and the
    # Jacobian reuses the nodes of the accepted trial
    assert len(iterations) == 1
    assert len(calls) == 1 + iterations[0]


# both half-planes: near -1.5 - 10i, far out, next to an apex and the
# folded chain, where D lies 0.085 from B
FIXED_SIGN_POINTS = [x for z in (-1.5 - 10j, -4.0 - 8j, 1.0 - 8j, -2.5 - 6j, 5.0 - 19j,
                                 -1.6 - 3.3j, -6 - 10.4347826j)
                     for x in (z, np.conj(z))]


@pytest.mark.parametrize("x", FIXED_SIGN_POINTS)
def test_jump_lambda_accepts_the_fixed_sign_constants(x):
    # omega = 4 int_band2 R_plus dw and Omega = -4 int_gap R dw must match
    # their values from H at the chain ends, which jump_lambda checks to a
    # relative 1e-3
    e = ep.solve_endpoints(x)
    sc = ep.spectral_constants(e, ep.chain_moments(e))
    assert np.isfinite(ep.jump_lambda(e, sc))


@pytest.mark.parametrize("x", FIXED_SIGN_POINTS)
def test_moment_reduction_matches_direct_sums(x):
    # I_3, I_4 and int R dw rebuilt from I_0, I_1, I_2 at m(e) match their
    # direct 1,024-node sums on band 1, the gap and band 2
    e = ep.solve_endpoints(x)
    moments = ep.chain_moments(e)
    rebuilt = [moments @ a for a in ep.moment_reduction(e)]
    for seg in (ep.BAND1, ep.GAP, ep.BAND2):
        w, dw, R = ep.segment_rule(e, seg, 1024)
        for got, want in zip(rebuilt, (np.sum(dw * w ** 3 / R), np.sum(dw * w ** 4 / R),
                                       np.sum(dw * R))):
            assert abs(got[seg] - want) <= 1e-11 * abs(want)


def test_jump_lambda_rejects_a_wrong_sign(solved, pipe_refpoint):
    # the cycle value of the other orientation fails the cross-check
    sc = pipe_refpoint.constants
    for flipped in (ep.SpectralConstants(omega=-sc.omega, Omega=sc.Omega),
                    ep.SpectralConstants(omega=sc.omega, Omega=-sc.Omega)):
        with pytest.raises(RealityViolation):
            ep.jump_lambda(solved, flipped)


def test_spectral_constants_reject_a_non_boutroux_chain(solved):
    # moving D off the solved set breaks the Boutroux conditions, so
    # omega and Omega are no longer real
    e = ep.EndpointSet(A=solved.A, B=solved.B, C=solved.C, D=solved.D + 0.05j, x=solved.x)
    with pytest.raises(RealityViolation):
        ep.spectral_constants(e, ep.chain_moments(e))

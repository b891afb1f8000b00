import numpy as np
import pytest

from hmcleod import collocation as col
from hmcleod import pade
from hmcleod.errors import Overflow, PoleProximity, Uncovered


def test_recursion_first_instances():
    y0, u0, u0p, alpha = 0.7 + 0.2j, 0.3 - 0.1j, 0.5 + 0.4j, 1.5
    jet = pade.taylor_from_ivp(y0, u0, u0p, alpha, n=24)
    c = jet.coefficients
    assert abs(c[2] - (2 * c[0] ** 3 + y0 * c[0] - alpha) / 2.0) <= 1e-15
    assert abs(c[3] - (6 * c[0] ** 2 * c[1] + y0 * c[1] + c[0]) / 6.0) <= 1e-15
    assert pade.jet_residual(jet) <= 1e-12


def _reference_jet(y0, u0, u0p, alpha, n=24):
    # the recursion with the cube coefficient as a direct O(k^2) double
    # sum per order, in the summation order the running series must keep
    c = np.zeros(n + 1, dtype=complex)
    c[0] = u0
    c[1] = u0p
    for k in range(n - 1):
        cube = 0.0 + 0.0j
        for i in range(k + 1):
            inner = 0.0 + 0.0j
            for j in range(k - i + 1):
                inner += c[j] * c[k - i - j]
            cube += c[i] * inner
        prev = c[k - 1] if k >= 1 else 0.0
        rhs = 2.0 * cube + y0 * c[k] + prev - (alpha if k == 0 else 0.0)
        c[k + 2] = rhs / ((k + 2) * (k + 1))
    return c


def test_jet_bitwise_equals_direct_recursion():
    rng = np.random.default_rng(20)
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-3.0, 0.5)
        y0 = complex(*rng.uniform(-8.0, 8.0, 2))
        u0 = complex(*rng.standard_normal(2)) * scale
        u0p = complex(*rng.standard_normal(2)) * scale
        alpha = rng.uniform(-0.4, 6.0)
        jet = pade.taylor_from_ivp(y0, u0, u0p, alpha, n=24)
        ref = _reference_jet(y0, u0, u0p, alpha, n=24)
        assert jet.coefficients.tobytes() == ref.tobytes()
        assert pade.jet_residual(jet) <= 1e-12


def test_pade_fit_matches_the_looped_toeplitz_system():
    # the denominator system filled entry by entry, as a reference
    rng = np.random.default_rng(21)
    for _ in range(50):
        y0 = complex(*rng.uniform(-6.0, 6.0, 2))
        jet = pade.taylor_from_ivp(y0, complex(*rng.standard_normal(2)),
                                   complex(*rng.standard_normal(2)), 2.5, n=24)
        c, nu = jet.coefficients, 12
        T = np.empty((nu, nu), dtype=complex)
        for i in range(nu):
            for j in range(nu):
                T[i, j] = c[nu + i - j]
        den = np.concatenate(([1.0 + 0.0j], np.linalg.solve(T, -c[nu + 1:2 * nu + 1])))
        approx = pade.pade_from_taylor(jet)
        assert approx.den.tobytes() == den.tobytes()
        assert approx.num.tobytes() == np.convolve(c, den)[:nu + 1].tobytes()
        h = 0.3 - 0.2j
        P, Q = (np.polynomial.polynomial.polyval(h, a) for a in (approx.num, approx.den))
        Pp, Qp = (np.polynomial.polynomial.polyval(h, np.polynomial.polynomial.polyder(a))
                  for a in (approx.num, approx.den))
        assert approx.derivative(h) == (Pp * Q - P * Qp) / Q ** 2


def test_zero_solution_jet():
    jet = pade.taylor_from_ivp(1.3, 0.0, 0.0, 0.0, n=24)
    assert np.max(np.abs(jet.coefficients)) == 0.0


def test_overflow_guard():
    with pytest.raises(Overflow):
        pade.taylor_from_ivp(0.0, 1e60, 0.0, 0.0, n=24)


def test_geometric_series_recovery():
    jet = pade.TaylorJet(center=0.0, coefficients=np.array([1.0, -1.0, 1.0], dtype=complex),
                         alpha=0.0)
    ap = pade.pade_from_taylor(jet, nu=1)
    assert abs(ap.num[0] - 1.0) < 1e-14 and abs(ap.num[1]) < 1e-14
    assert abs(ap.den[1] - 1.0) < 1e-14
    assert abs(ap(0.0) - 1.0) < 1e-14


def test_rational_type_12_recovery():
    rng = np.random.default_rng(5)
    a_true = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    b_true = np.concatenate(([1.0], 0.3 * (rng.standard_normal(12)
                                           + 1j * rng.standard_normal(12))))
    c = np.zeros(25, dtype=complex)
    for k in range(25):
        aa = a_true[k] if k <= 12 else 0.0
        c[k] = aa - sum(b_true[j] * c[k - j] for j in range(1, min(k, 12) + 1))
    jet = pade.TaylorJet(center=0.0, coefficients=c, alpha=0.0)
    ap = pade.pade_from_taylor(jet)
    assert np.max(np.abs(ap.num - a_true)) <= 1e-10
    assert np.max(np.abs(ap.den - b_true)) <= 1e-10
    assert pade.pade_match_residual(ap, jet) <= 1e-10


def test_eval_checked_reports_nearest_pole():
    # a denominator below den_tol raises PoleProximity carrying the
    # denominator root nearest to the query point
    ap = pade.pade_from_taylor(pade.taylor_from_ivp(0.0, 0.1, 0.0, 1.5))
    roots = ap.denominator_roots()
    with pytest.raises(PoleProximity) as info:
        ap.eval_checked(0.1, den_tol=10.0)
    nearest = roots[np.argmin(np.abs(roots - (ap.center + 0.1)))]
    assert info.value.pole_estimate == nearest


def test_jet_shift_consistency():
    # re-centering by evaluation at 0.1, rebuilding, and stepping another
    # 0.1 reproduces direct evaluation at 0.2
    y0, u0, u0p, alpha = -1.0, 0.8, -0.2, 1.5
    jet = pade.taylor_from_ivp(y0, u0, u0p, alpha, n=24)
    ap = pade.pade_from_taylor(jet)
    u_mid = ap(0.1)
    up_mid = ap.derivative(0.1)
    jet2 = pade.taylor_from_ivp(y0 + 0.1, u_mid, up_mid, alpha, n=24)
    ap2 = pade.pade_from_taylor(jet2)
    assert abs(ap2(0.1) - ap(0.2)) <= 1e-8


@pytest.fixture(scope="module")
def small_atlas(colloc_solutions):
    sol = colloc_solutions[1]
    u0, up0 = col.eval_solution(sol, 2.0)
    return pade.run_vault((-2.0, 5.0, 0.0, 5.0), (2.0, u0, up0), 1.5,
                          pade.VaultConfig(seed=11))


def test_atlas_coverage(small_atlas):
    assert small_atlas.coverage_ok()


def test_anchor_center_value(small_atlas):
    e = small_atlas.entries[0]
    assert pade.evaluate(small_atlas, e.approx.center) == e.approx(0.0)


def test_real_axis_overlap_with_collocation(small_atlas, colloc_solutions):
    sol = colloc_solutions[1]
    errs = []
    for y in np.linspace(-1.5, 4.5, 13):
        try:
            v = pade.evaluate(small_atlas, complex(y))
        except PoleProximity:
            continue
        errs.append(abs(v - col.eval_solution(sol, y)[0]))
    assert errs and max(errs) <= 1e-6


def test_path_independence_between_seeds(small_atlas, colloc_solutions):
    sol = colloc_solutions[1]
    u0, up0 = col.eval_solution(sol, 2.0)
    other = pade.run_vault((-2.0, 5.0, 0.0, 5.0), (2.0, u0, up0), 1.5,
                           pade.VaultConfig(seed=99))
    diffs = []
    for y in (0.5 + 1j, 2 + 2j, -1 + 3j, 4 + 4.5j):
        try:
            diffs.append(abs(pade.evaluate(small_atlas, y) - pade.evaluate(other, y)))
        except PoleProximity:
            continue
    assert diffs and max(diffs) <= 1e-6


def test_uncovered_raises(small_atlas):
    with pytest.raises(Uncovered):
        pade.evaluate(small_atlas, 40.0 + 40.0j)


def test_serialization_roundtrip(small_atlas):
    text = small_atlas.to_json()
    back = pade.VaultAtlas.from_json(text)
    assert len(back.entries) == len(small_atlas.entries)
    y = 2.0 + 2.0j
    assert pade.evaluate(back, y) == pade.evaluate(small_atlas, y)


def test_single_node_window(colloc_solutions):
    sol = colloc_solutions[1]
    u0, up0 = col.eval_solution(sol, 2.0)
    atlas = pade.run_vault((1.9, 2.1, 0.0, 0.1), (2.0, u0, up0), 1.5,
                           pade.VaultConfig(seed=1))
    assert len(atlas.entries) >= 1
    assert atlas.coverage_ok()


def test_determinism(colloc_solutions):
    sol = colloc_solutions[1]
    u0, up0 = col.eval_solution(sol, 2.0)
    a1 = pade.run_vault((0.0, 3.0, 0.0, 2.0), (2.0, u0, up0), 1.5, pade.VaultConfig(seed=3))
    a2 = pade.run_vault((0.0, 3.0, 0.0, 2.0), (2.0, u0, up0), 1.5, pade.VaultConfig(seed=3))
    assert a1.to_json() == a2.to_json()

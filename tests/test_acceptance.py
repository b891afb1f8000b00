"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Expensive shared state (collocation solutions, Pade
atlases, the two-band pipeline cache) is built once per session.
"""

import copy
import time

import numpy as np
import pytest

from hmcleod import collocation as col
from hmcleod import endpoints as ep
from hmcleod import genus0 as g0
from hmcleod import pade
from hmcleod import theta as th
from hmcleod import scaled_from_u, y_from_x

X_GENUS1 = (-1.5 - 10j, -4.0 - 8j, 1.0 - 8j)
SLICE_IM = -9.0
SLICE_RE = (-6.0, 2.0)


class Timer:
    def __init__(self, number, limit, label):
        self.number = number
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        dt = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"[PASS] criterion {self.number}: {self.label} ({dt:.1f}s / limit {self.limit:.0f}s)")
            assert dt <= self.limit
        else:
            print(f"[FAIL] criterion {self.number}: {self.label} ({dt:.1f}s)")
        return False


@pytest.fixture(scope="module")
def shared_cache():
    return th._PipelineCache()


@pytest.fixture(scope="module")
def slice_atlases(colloc_solutions):
    out = {}
    for k in (1, 2, 2.5, 3):
        ck = k ** (2.0 / 3.0) / 2.0 ** (1.0 / 3.0)
        u0, up0 = col.eval_solution(colloc_solutions[k], 2.0)
        window = (SLICE_RE[0] * ck - 1, -SLICE_RE[0] * ck + 1, 0.0, -SLICE_IM * ck + 1)
        lo = min(window[0], -SLICE_RE[1] * ck - 1, 1.0)
        hi = max(window[1], -SLICE_RE[0] * ck + 1, 3.0)
        out[k] = pade.run_vault((lo, hi, 0.0, -SLICE_IM * ck + 1),
                                (2.0, u0, up0), k + 0.5, pade.VaultConfig(seed=7))
    return out


@pytest.fixture(scope="module")
def slice_poles(shared_cache):
    pad = 0.65
    out = {}
    for k in (1, 2, 2.5, 3):
        out[k] = th.predict_poles((SLICE_RE[0] - 0.2, SLICE_RE[1] + 0.2,
                                   SLICE_IM - pad, SLICE_IM + pad), k,
                                  cache=shared_cache)
    return out


def test_criterion_1_real_axis_root():
    with Timer(1, 5, "real-axis root of the boundary functional"):
        x0 = g0.x0_root()
        assert abs(x0 - (-1.588)) <= 2e-3


def test_criterion_2_apex_geometry():
    with Timer(2, 10, "apex classification and ray boundary coincidence"):
        assert g0.classify_region(3.0 * np.exp(2j * np.pi / 3.0)) is g0.RegionLabel.APEX_POINT
        assert g0.classify_region(3.0 * np.exp(-2j * np.pi / 3.0)) is g0.RegionLabel.APEX_POINT
        for i, r in enumerate(np.linspace(3.3, 12.0, 10)):
            for sign in (1, -1):
                apex_dir = np.exp(sign * 2j * np.pi / 3.0)
                pt = r * apex_dir
                n = 1j * apex_dir

                def f(t):
                    return g0.frak_c(pt + t * n)

                # the boundary functional reaches zero one-sidedly on the
                # ray (the branch itself jumps across it): locate the zero
                # by secant extrapolation from the pole-region side
                side = 1.0 if abs(f(1e-4)) < abs(f(-1e-4)) else -1.0
                t1, t2 = side * 1e-4, side * 5e-5
                f1, f2 = f(t1), f(t2)
                t_star = t2 - f2 * (t2 - t1) / (f2 - f1)
                assert abs(t_star) <= 1e-6


def test_criterion_3_branch_correctness():
    with Timer(3, 1, "cubic branch residuals and asymptotes"):
        rng = np.random.default_rng(7)
        count = 0
        while count < 100:
            x = complex(40 * (rng.random() - 0.5), 40 * (rng.random() - 0.5))
            if abs(x) > 20 or g0.dist_sigma_s(x) < 1e-3:
                continue
            S = g0.solve_S(x)
            assert abs(S ** 3 + x * S - 2j) <= 1e-12
            count += 1
        assert abs(g0.solve_S(1e4) + 100j) <= 0.01
        assert abs(g0.solve_S(-1e4) + 2e-4j) <= 1e-6


def test_criterion_4_closed_form_h():
    with Timer(4, 10, "h at the band endpoint and derivative oracle"):
        rng = np.random.default_rng(3)
        xs = [-4.5, -2.0, -1.0, 0.0, 0.7, 1.5, 2.5, 3.5,
              1.0 - 1.0j, -2.0 + 1.2j]
        for x in xs:
            d = g0.genus0_data(complex(x))
            assert abs(g0.two_h_plus_lambda(d.b, d, guard=False)) <= 1e-8
            checked = 0
            while checked < 50:
                z = complex(8 * (rng.random() - 0.5), 8 * (rng.random() - 0.5))
                if g0._dist_to_segment(np.asarray(z), d.a, d.b) < 0.05:
                    continue
                ray_dir = (d.a - d.b) / abs(d.a - d.b)
                if g0.dist_to_ray(z, d.a, ray_dir) < 0.05:
                    continue
                eps = 1e-5
                fd = (g0.h_eval(z + eps, d, guard=False)
                      - g0.h_eval(z - eps, d, guard=False)) / (2 * eps)
                hp = g0.h_prime(z, d, guard=False)
                assert abs(fd - hp) <= 1e-6 * max(1.0, abs(hp))
                checked += 1


def test_criterion_5_reflection_symmetry_and_sign_changes():
    with Timer(5, 10, "reflection symmetry and real-line sign changes"):
        rng = np.random.default_rng(5)
        us = np.linspace(-50.0, 50.0, 2001)
        for x in (-4.5, -1.588, 0.0, 1.5, 3.0):
            d = g0.genus0_data(complex(x))
            done = 0
            while done < 100:
                z = complex(9 * (rng.random() - 0.5), 9 * (rng.random() - 0.5))
                if g0._dist_to_segment(np.asarray(z), d.a, d.b) < 0.05:
                    continue
                if abs(z.imag - d.a.imag) < 0.05:
                    continue
                lhs = np.real(g0.two_h_plus_lambda(-np.conj(z), d, guard=False))
                rhs = np.real(g0.two_h_plus_lambda(z, d, guard=False))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
                done += 1
            vals = np.real(g0.two_h_plus_lambda(us.astype(complex), d, guard=False))
            signs = np.sign(vals)
            changes = int(np.sum(signs[:-1] * signs[1:] < 0))
            assert changes <= 2


def test_criterion_6_master_oracle(shared_cache):
    with Timer(6, 30, "H' = 2iR against the Cauchy-integral oracle"):
        rng = np.random.default_rng(17)
        for x in X_GENUS1:
            e = shared_cache.get(x).e
            center = np.mean(e.points())
            checked = 0
            while checked < 20:
                z = center + complex(8 * (rng.random() - 0.5), 8 * (rng.random() - 0.5))
                if min(abs(z - p) for p in e.points()) < 0.35:
                    continue
                hp = ep.H_prime(z, e)
                oracle = ep.H_prime_oracle(z, e, m=256)
                assert abs(hp - oracle) <= 1e-6 * max(1.0, abs(hp))
                checked += 1


def test_criterion_7_endpoint_solver(shared_cache):
    with Timer(7, 30, "endpoint residuals, reality, continuation"):
        for x in X_GENUS1:
            pipe = shared_cache.get(x)
            assert np.max(np.abs(ep.residuals(pipe.e, m=192))) <= 1e-10
            sc = pipe.constants
            Lambda, omega_end, _ = ep.end_jumps(pipe.e)
            assert ep.jump_lambda(pipe.e, sc) == Lambda
            assert abs(omega_end - sc.omega) <= 1e-8 * max(1.0, abs(sc.omega))
            # a seeded solve below the axis is this one Newton run
            _, _, n_iter, _ = ep._newton(x + 0.05, ep._set_to_vec(pipe.e))
            assert n_iter <= 10


def test_criterion_8_theta_suite(shared_cache):
    with Timer(8, 5, "theta identities and convergence domain"):
        rng = np.random.default_rng(23)
        for x in X_GENUS1:
            pd = shared_cache.get(x).periods
            assert pd.B_period.real < 0
            tp = th.ThetaParams(pd.B_period)
            for _ in range(20):
                z = complex(2.5 * (rng.random() - 0.5), 2.5 * (rng.random() - 0.5))
                t0 = th.theta(z, tp)
                assert abs(th.theta(z + 2j * np.pi, tp) - t0) <= 1e-12 * abs(t0)
                quasi = np.exp(-pd.B_period / 2.0 - z) * t0
                assert abs(th.theta(z + pd.B_period, tp) - quasi) <= 1e-12 * abs(quasi)
                assert abs(th.theta(-z, tp) - t0) <= 1e-12 * abs(t0)
            assert abs(th.theta(pd.K, tp)) <= 1e-12


def test_criterion_9_lattice_invariance(shared_cache):
    with Timer(9, 10, "cycle re-routing invariance and Q factor zero"):
        for x in X_GENUS1:
            pipe = shared_cache.get(x)
            base = pipe.value(3)
            for cycle in (2j * np.pi, pipe.periods.B_period):
                shifted = copy.copy(pipe)
                shifted.A_Q += cycle
                assert abs(shifted.value(3) - base) <= 1e-8
            assert abs(th.f_offdiagonal(pipe.periods.Q, pipe.e)) <= 1e-10


def test_criterion_10_collocation(colloc_solutions):
    with Timer(10, 30, "collocation residual, refinement drift, boundaries"):
        sol = colloc_solutions[1]
        p = sol.problem
        rng = np.random.default_rng(2)
        worst = max(col.ode_residual(sol, complex(11.5 * (2 * rng.random() - 1)))
                    for _ in range(50))
        assert worst <= 1e-6
        s100 = col.solve_bvp(col.BvpProblem(alpha=1.5, y1=-12.0 + 0j,
                                            y2=12.0 + 0j, N=100))
        for y in np.linspace(-10, 10, 10):
            assert abs(col.eval_solution(sol, y)[0]
                       - col.eval_solution(s100, y)[0]) <= 1e-8
        assert sol.values[0] == p.alpha / p.y2
        assert sol.values[-1] == np.sqrt(-p.y1 / 2.0)


def test_criterion_11_pade_suite(colloc_solutions):
    with Timer(11, 60, "Taylor recursion, Pade match, recovery, seed independence"):
        jet = pade.taylor_from_ivp(0.4 - 0.3j, 0.8 + 0.1j, -0.2 + 0.5j, 1.5, n=24)
        assert pade.jet_residual(jet) <= 1e-12
        ap = pade.pade_from_taylor(jet)
        assert pade.pade_match_residual(ap, jet) <= 1e-10
        rng = np.random.default_rng(5)
        a_true = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        b_true = np.concatenate(([1.0], 0.3 * (rng.standard_normal(12)
                                               + 1j * rng.standard_normal(12))))
        c = np.zeros(25, dtype=complex)
        for m in range(25):
            aa = a_true[m] if m <= 12 else 0.0
            c[m] = aa - sum(b_true[j] * c[m - j] for j in range(1, min(m, 12) + 1))
        rational_jet = pade.TaylorJet(center=0.0, coefficients=c, alpha=0.0)
        rec = pade.pade_from_taylor(rational_jet)
        assert np.max(np.abs(rec.num - a_true)) <= 1e-10
        assert np.max(np.abs(rec.den - b_true)) <= 1e-10
        u0, up0 = col.eval_solution(colloc_solutions[1], 2.0)
        a1 = pade.run_vault((-2.0, 4.0, 0.0, 4.0), (2.0, u0, up0), 1.5,
                            pade.VaultConfig(seed=11))
        a2 = pade.run_vault((-2.0, 4.0, 0.0, 4.0), (2.0, u0, up0), 1.5,
                            pade.VaultConfig(seed=99))
        diffs = []
        for y in (0.5 + 1j, 2 + 2j, -1 + 3j, 3 + 3.5j):
            try:
                diffs.append(abs(pade.evaluate(a1, y) - pade.evaluate(a2, y)))
            except pade.PoleProximity:
                continue
        assert diffs and max(diffs) <= 1e-6


def test_criterion_12_real_slice_convergence(colloc_solutions):
    with Timer(12, 300, "O(1/k) convergence on the real slice"):
        xs = np.linspace(-3.0, 3.0, 31)
        # half-integer alpha (integer k) and, empirically, the k between
        ks = (1, 1.5, 2, 2.5, 3)
        E = {}
        for k in ks:
            sol = colloc_solutions[k]
            errs = []
            for x in xs:
                num = scaled_from_u(col.eval_solution(sol, y_from_x(complex(x), k))[0], k)
                errs.append(abs(num - g0.genus0_value(complex(x))))
            E[k] = max(errs)
        assert all(E[a] > E[b] for a, b in zip(ks, ks[1:]))
        products = [E[k] * k for k in ks]
        assert max(products) <= 3.0 * min(products)
        print("   E(k): " + " ".join(f"{E[k]:.4f}" for k in ks) + "; E*k: "
              + " ".join(f"{p:.3f}" for p in products))


def test_criterion_13_pole_slice_convergence(shared_cache, slice_atlases, slice_poles):
    with Timer(13, 600, "theta asymptotics vs vault numerics on Im(x)=-9"):
        delta = 0.5
        maxerr = {}
        for k in (1, 2, 3):
            radius = delta / k ** (2.0 / 3.0)
            poles = slice_poles[k]
            atlas = slice_atlases[k]
            errs = []
            for xr in np.linspace(SLICE_RE[0] + 0.25, SLICE_RE[1] - 0.25, 30):
                x = complex(xr, SLICE_IM)
                if not g0.classify_region(x).pole_free:
                    if poles and min(abs(x - q) for q in poles) <= radius:
                        continue
                    try:
                        asym = shared_cache.get(x).value(k)
                    except th.ThetaZero:
                        continue
                else:
                    asym = g0.genus0_value(x)
                try:
                    num = scaled_from_u(pade.evaluate(atlas, y_from_x(x, k)), k)
                except pade.PoleProximity:
                    continue
                errs.append(abs(asym - num))
            maxerr[k] = max(errs)
        print(f"   max slice errors: k=1 {maxerr[1]:.4f}, k=2 {maxerr[2]:.4f}, k=3 {maxerr[3]:.4f}")
        assert maxerr[1] > maxerr[2] > maxerr[3]

        # predicted poles vs numeric blow-ups at k = 3 and, at a
        # non-half-integer alpha, k = 2.5
        for k in (2.5, 3):
            ck = k ** (2.0 / 3.0) / 2.0 ** (1.0 / 3.0)
            roots_x = [-y / ck for y in pade.nearby_pole_estimates(slice_atlases[k],
                                                                   radius_factor=1.3)]
            dists = [min(abs(z - q) for q in roots_x) for z in slice_poles[k]
                     if SLICE_RE[0] <= z.real <= SLICE_RE[1] and abs(z.imag - SLICE_IM) <= 0.5]
            print(f"   k={k}: {len(dists)} poles, farthest numeric root {max(dists):.4f}")
            assert max(dists) <= 0.1


def test_criterion_14_degeneration(shared_cache):
    with Timer(14, 120, "two-band to one-band degeneration"):
        base = -1.70 - 2.75j
        direction = 0.866 - 0.5j
        gaps, diffs = [], []
        e_seed = None
        for s in np.linspace(0.16, 0.46, 9):
            x = base + s * direction
            e = (ep.solve_endpoints(x, seed=e_seed) if e_seed is not None
                 else ep.solve_endpoints(x))
            e_seed = e
            pipe = th.Genus1Pipeline(x, seed=e)
            gaps.append(abs(e.B - e.C))
            diffs.append(abs(pipe.value(3) - (-1j * g0.solve_S(x) / 2.0)))
        # approaching the boundary: gap closes and the two values merge,
        # monotonically over (at least) the last five continuation steps
        last_gaps = gaps[-5:]
        last_diffs = diffs[-5:]
        assert all(b < a for a, b in zip(last_gaps, last_gaps[1:]))
        assert all(b < a for a, b in zip(last_diffs, last_diffs[1:]))
        print(f"   gap {gaps[0]:.3f}->{gaps[-1]:.3f}, |g1-g0| {diffs[0]:.3f}->{diffs[-1]:.3f}")

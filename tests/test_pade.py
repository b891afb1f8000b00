import numpy as np
import pytest

from hmcleod import collocation as col
from hmcleod import pade
from hmcleod.errors import Overflow, PathStall, PoleProximity, SingularSystem, Uncovered

polyval = np.polynomial.polynomial.polyval
polyder = np.polynomial.polynomial.polyder


def test_recursion_first_instances():
    y0, u0, u0p, alpha = 0.7 + 0.2j, 0.3 - 0.1j, 0.5 + 0.4j, 1.5
    jet = pade.taylor_from_ivp(y0, u0, u0p, alpha, n=24)
    c = jet.coefficients
    assert abs(c[2] - (2 * c[0] ** 3 + y0 * c[0] - alpha) / 2.0) <= 1e-15
    assert abs(c[3] - (6 * c[0] ** 2 * c[1] + y0 * c[1] + c[0]) / 6.0) <= 1e-15
    assert pade.jet_residual(jet) <= 1e-12


def _reference_jet(y0, u0, u0p, alpha, n=24):
    # the recursion in numpy complex scalars, with the cube coefficient as
    # a direct O(k^2) double sum per order, in the summation order the
    # running series must keep
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
        if abs(c[k + 2]) > pade.OVERFLOW_LIMIT:
            raise Overflow(f"jet diverges at order {k + 2}")
    return c


def _reference_pade(jet):
    # the denominator system filled entry by entry, nu reduced on failure
    c, nu0 = jet.coefficients, jet.order // 2
    for nu in range(nu0, max(nu0 - 4, 0), -1):
        T = np.empty((nu, nu), dtype=complex)
        for i in range(nu):
            for j in range(nu):
                T[i, j] = c[nu + i - j]
        try:
            b = np.linalg.solve(T, -c[nu + 1:2 * nu + 1])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(b)):
            continue
        den = np.concatenate(([1.0 + 0.0j], b))
        return pade.PadeApprox(center=jet.center, num=np.convolve(c, den)[:nu + 1], den=den)
    raise SingularSystem("degenerate Pade table")


def _reference_value(approx, h):
    return polyval(h, approx.num) / polyval(h, approx.den)


def _reference_derivative(approx, h):
    P, Q = polyval(h, approx.num), polyval(h, approx.den)
    Pp, Qp = polyval(h, polyder(approx.num)), polyval(h, polyder(approx.den))
    return (Pp * Q - P * Qp) / Q ** 2


def _assert_same_json(atlas, ref):
    # the first differing character, not a diff of two long documents
    text, ref_text = atlas.to_json(), ref.to_json()
    same = text == ref_text
    at = next((i for i, (a, b) in enumerate(zip(text, ref_text)) if a != b),
              min(len(text), len(ref_text)))
    assert same, f"atlases differ at character {at}: {text[max(at - 60, 0):at + 20]!r}"


def _reference_vault(window, anchor, alpha, cfg, fails=lambda y: None):
    """run_vault in numpy scalars: the jet above, polyval and polyder, and
    a node retirement that tests every node.  ``fails(y)`` names an error
    to raise instead of recording a center at y, or None."""
    rng = np.random.default_rng(cfg.seed)
    re0, re1, im0, im1 = window
    nodes = [complex(xr, xi)
             for xr in np.arange(re0, re1 + 1e-9, cfg.h)
             for xi in np.arange(im0, im1 + 1e-9, cfg.h)]
    nodes.sort(key=lambda z: (z.real, z.imag))
    nodes = np.array(nodes)
    alive = np.ones(len(nodes), dtype=bool)
    atlas = pade.VaultAtlas(alpha=float(alpha), config=cfg)

    def record(y, u, up):
        if fails(y) is not None:
            raise fails(y)("injected")
        c = _reference_jet(y, u, up, atlas.alpha, n=cfg.n)
        approx = _reference_pade(pade.TaylorJet(center=complex(y), coefficients=c,
                                                alpha=atlas.alpha))
        atlas.add(pade.AtlasEntry(approx=approx, u=complex(u), uprime=complex(up)))
        d = nodes - approx.center
        near = alive & (np.hypot(d.real, d.imag) <= cfg.h)
        atlas.removed_nodes.extend(nodes[near].tolist())
        alive[near] = False
        return bool(near.any())

    record(*anchor)
    stall = 0
    while alive.any():
        i_target = np.flatnonzero(alive)[int(rng.integers(np.count_nonzero(alive)))]
        target = complex(nodes[i_target])
        entry, _ = atlas.nearest_entry(target)
        progressed = False
        for _ in range(int(abs(target - entry.approx.center) / cfg.h * 10) + 100):
            if not alive[i_target]:
                break
            current = entry.approx.center
            aim = np.angle(target - current)
            cands = current + cfg.h * np.exp(1j * (aim + pade._CANDIDATE_OFFSETS))
            us = [_reference_value(entry.approx, cand - current) for cand in cands]
            for i in sorted(range(5), key=lambda i: (abs(us[i]), abs(pade._CANDIDATE_OFFSETS[i]))):
                up = _reference_derivative(entry.approx, cands[i] - current)
                try:
                    progressed = record(cands[i], us[i], up) or progressed
                except (Overflow, SingularSystem):
                    continue
                entry = atlas.entries[-1]
                break
            else:
                break
        stall = 0 if progressed else stall + 1
        if stall > pade._MAX_STALL:
            raise PathStall("vault stopped removing targets")
    return atlas


def test_jet_bitwise_equals_direct_recursion():
    rng = np.random.default_rng(20)
    for trial in range(200):
        scale = 10.0 ** rng.uniform(-3.0, 0.5)
        y0 = complex(*rng.uniform(-8.0, 8.0, 2))
        u0 = complex(*rng.standard_normal(2)) * scale
        u0p = complex(*rng.standard_normal(2)) * scale
        if trial % 4 == 0:
            # real data: every coefficient has a zero imaginary part, whose
            # sign each step must round as numpy does
            y0, u0, u0p = y0.real, u0.real, complex(u0p.real, -0.0)
        alpha = rng.uniform(-0.4, 6.0)
        jet = pade.taylor_from_ivp(y0, u0, u0p, alpha, n=24)
        ref = _reference_jet(y0, u0, u0p, alpha, n=24)
        assert jet.coefficients.tobytes() == ref.tobytes()
        assert pade.jet_residual(jet) <= 1e-12


def test_pade_fit_matches_the_looped_toeplitz_system():
    rng = np.random.default_rng(21)
    for _ in range(50):
        y0 = complex(*rng.uniform(-6.0, 6.0, 2))
        jet = pade.taylor_from_ivp(y0, complex(*rng.standard_normal(2)),
                                   complex(*rng.standard_normal(2)), 2.5, n=24)
        approx, ref = pade.pade_from_taylor(jet), _reference_pade(jet)
        assert approx.den.tobytes() == ref.den.tobytes()
        assert approx.num.tobytes() == ref.num.tobytes()


def _bits(z):
    return np.complex128(z).tobytes()


def test_evaluation_bitwise_equals_polyval():
    # offsets are scalars of every type a caller passes, signed zeros
    # included; nu < 12 covers the fallback orders of a degenerate table
    rng = np.random.default_rng(22)
    zeros = [0.0, -0.0, np.complex128(0j), complex(0.0, -0.0), complex(-0.0, 0.0),
             complex(-0.0, -0.0)]
    cases = 0
    for trial in range(2400):
        nu = trial % 13
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (2, nu + 1))
        num = (rng.standard_normal(nu + 1) + 1j * rng.standard_normal(nu + 1)) * scale[0]
        den = (rng.standard_normal(nu + 1) + 1j * rng.standard_normal(nu + 1)) * scale[1]
        if trial % 3 == 0:
            # real coefficients, some of them zero, with signed zero parts
            for a in (num, den):
                a.imag = np.copysign(0.0, a.imag)
                a.real[rng.random(nu + 1) < 0.3] = np.copysign(0.0, rng.standard_normal())
        den[0] = 1.0
        approx = pade.PadeApprox(center=complex(*rng.uniform(-9.0, 9.0, 2)), num=num, den=den)
        for a in (num, den):
            assert np.array(pade._polyder(a.tolist())).tobytes() == polyder(a).tobytes()
        h = complex(*rng.uniform(-0.6, 0.6, 2))
        for off in (h, np.complex128(h), h.real, zeros[trial % len(zeros)]):
            value, derivative = approx(off), approx.derivative(off)
            assert type(value) is np.complex128 and type(derivative) is np.complex128
            assert _bits(value) == _bits(_reference_value(approx, off))
            assert _bits(derivative) == _bits(_reference_derivative(approx, off))
            try:
                checked = approx.eval_checked(off)
            except PoleProximity:
                assert abs(polyval(off, approx.den)) < 1e-12
            else:
                assert _bits(checked) == _bits(_reference_value(approx, off))
            cases += 1
    assert cases >= 9000


def test_zero_solution_jet():
    jet = pade.taylor_from_ivp(1.3, 0.0, 0.0, 0.0, n=24)
    assert np.max(np.abs(jet.coefficients)) == 0.0


def test_overflow_guard():
    with pytest.raises(Overflow):
        pade.taylor_from_ivp(0.0, 1e60, 0.0, 0.0, n=24)


def test_geometric_series_recovery():
    jet = pade.TaylorJet(center=0.0, coefficients=np.array([1.0, -1.0, 1.0], dtype=complex),
                         alpha=0.0)
    # the order-2 jet gives nu = 1
    ap = pade.pade_from_taylor(jet)
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


def test_coverage_check_finds_one_uncovered_node(atlas_k3):
    # the check runs over chunks of nodes and agrees with one np.abs call
    # per node; one node far from every centre, past the first chunk, fails it
    def per_node(atlas):
        return all(np.min(np.abs(atlas.centers - node)) <= atlas.config.h + 1e-12
                   for node in atlas.removed_nodes)

    nodes = list(atlas_k3.removed_nodes)
    assert len(nodes) > 512
    far = pade.VaultAtlas(alpha=atlas_k3.alpha, config=atlas_k3.config,
                          entries=list(atlas_k3.entries),
                          removed_nodes=nodes[:300] + [60.0 + 60.0j] + nodes[300:])
    assert not far.coverage_ok() and not per_node(far)
    far.removed_nodes = nodes
    assert far.coverage_ok() and per_node(far)


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
    _assert_same_json(a1, a2)


def test_vault_bitwise_equals_numpy_scalar_reference(small_atlas, colloc_solutions):
    sol = colloc_solutions[1]
    u0, up0 = col.eval_solution(sol, 2.0)
    ref = _reference_vault((-2.0, 5.0, 0.0, 5.0), (2.0, u0, up0), 1.5, pade.VaultConfig(seed=11))
    _assert_same_json(small_atlas, ref)


def test_vault_bitwise_at_alpha_below_one():
    sol = col.solve_bvp(col.BvpProblem(alpha=0.7, y1=-12.0 + 0j, y2=12.0 + 0j, N=200))
    u0, up0 = col.eval_solution(sol, 2.0)
    window, cfg = (-4.0, 6.0, 0.0, 6.0), pade.VaultConfig(seed=5)
    atlas = pade.run_vault(window, (2.0, u0, up0), 0.7, cfg)
    _assert_same_json(atlas, _reference_vault(window, (2.0, u0, up0), 0.7, cfg))


def _injected_failure(y):
    # a third of the candidate centers fail, half in the jet and half in
    # the fit; the anchor y = 2 does not
    return {0: Overflow, 1: SingularSystem}.get(hash(complex(y)) % 6)


def test_vault_moves_past_failing_candidates(monkeypatch, colloc_solutions):
    # no window of the test problems makes a jet overflow or a Pade table
    # degenerate, so the failures are injected where run_vault looks the
    # two steps up by module name
    raised = []

    def failing(step, error, center):
        def wrapped(*args, **kwargs):
            if _injected_failure(center(*args)) is error:
                raised.append(error)
                raise error("injected")
            return step(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(pade, "taylor_from_ivp", failing(
        pade.taylor_from_ivp, Overflow, lambda y0, *rest, **kw: y0))
    monkeypatch.setattr(pade, "pade_from_taylor", failing(
        pade.pade_from_taylor, SingularSystem, lambda jet, *rest: jet.center))
    sol = colloc_solutions[2]
    u0, up0 = col.eval_solution(sol, 2.0)
    window, cfg = (-3.0, 5.0, 0.0, 6.0), pade.VaultConfig(seed=4)
    atlas = pade.run_vault(window, (2.0, u0, up0), 2.5, cfg)
    assert raised.count(Overflow) >= 10 and raised.count(SingularSystem) >= 10
    _assert_same_json(atlas, _reference_vault(window, (2.0, u0, up0), 2.5, cfg,
                                              fails=_injected_failure))

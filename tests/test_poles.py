"""The lattice-index pole predictor against a Newton sweep from a seed grid."""

import numpy as np
import pytest

from hmcleod import genus0
from hmcleod import theta as th
from hmcleod.errors import HmcleodError

# a 5-sample slice at Im x = -9 on [-4.9, -4.8] padded by 0.6, a small
# poles window beside it, the README's poles window, and a window across
# the boundary of the pole region
SLICE_MASK_WINDOW = (-5.5, -4.2, -9.6, -8.4)
POLES_WINDOW = (-5.0, -4.55, -9.2, -8.8)
README_WINDOW = (-4.0, 0.0, -9.5, -8.5)
BOUNDARY_WINDOW = (-5.8, -4.6, -9.4, -8.6)

REF_SPACING = 0.45
REF_FD = 1e-4


def _ref_newton_pole(cache, x0, k, sign):
    """Newton on the reduced pole residual from a finite-difference Jacobian."""
    x = complex(x0)
    r = cache.get(x).pole_residual(k, sign)
    J = None
    for _ in range(th.POLE_MAX_ITER):
        if abs(r) < th.POLE_TOL:
            return x
        if J is None:
            rpp = cache.get(x + REF_FD).pole_residual(k, sign)
            rip = cache.get(x + 1j * REF_FD).pole_residual(k, sign)
            J = np.array([[(rpp - r).real / REF_FD, (rip - r).real / REF_FD],
                          [(rpp - r).imag / REF_FD, (rip - r).imag / REF_FD]])
        try:
            step = np.linalg.solve(J, -np.array([r.real, r.imag]))
        except np.linalg.LinAlgError:
            return None
        step_c = complex(step[0], step[1])
        if abs(step_c) > 0.5:
            step_c *= 0.5 / abs(step_c)
        x_new = x + step_c
        r_new = cache.get(x_new).pole_residual(k, sign)
        s = np.array([step_c.real, step_c.imag])
        dr = np.array([(r_new - r).real, (r_new - r).imag])
        J = J + np.outer(dr - J @ s, s) / np.dot(s, s)
        if abs(r_new) > 3.0 * abs(r):
            J = None
        x, r = x_new, r_new
    return None


def _ref_predict_poles(window, k, cache):
    """Poles from a Newton run at every node of a 0.45 seed grid, for both signs."""
    re0, re1, im0, im1 = window
    poles = []
    for xr in np.arange(re0, re1 + 1e-12, REF_SPACING):
        for xi in np.arange(im0, im1 + 1e-12, REF_SPACING):
            for sign in (+1, -1):
                try:
                    root = _ref_newton_pole(cache, complex(xr, xi), k, sign)
                except HmcleodError:
                    continue
                if root is None:
                    continue
                if not (re0 - 0.25 <= root.real <= re1 + 0.25
                        and im0 - 0.25 <= root.imag <= im1 + 0.25):
                    continue
                if genus0.classify_region(root).pole_free:
                    continue
                if all(abs(root - q) > 1e-4 for q in poles):
                    poles.append(root)
    return sorted(poles, key=lambda z: (z.real, z.imag))


def _missing(poles, others):
    return [p for p in poles if min((abs(p - q) for q in others), default=np.inf) > 1e-9]


@pytest.mark.parametrize("window,ks", [(SLICE_MASK_WINDOW, (1, 2, 3)),
                                       (POLES_WINDOW, (3,)),
                                       (README_WINDOW, (3,)),
                                       (BOUNDARY_WINDOW, (4,))],
                         ids=["slice_mask", "poles", "readme", "boundary"])
def test_predictor_matches_reference_sweep(window, ks):
    cache, ref_cache = th._PipelineCache(), th._PipelineCache()
    for k in ks:
        poles = th.predict_poles(window, k, cache=cache)
        assert _missing(_ref_predict_poles(window, k, ref_cache), poles) == []
        # every pole, also one the sweep misses, is a root of a cold
        # pipeline's residual in the pole region
        for z in poles:
            pipe = th.Genus1Pipeline(z)
            assert min(abs(pipe.pole_residual(k, s)) for s in (+1, -1)) <= 1e-9
            assert not genus0.classify_region(z).pole_free


def test_pole_newton_does_not_stall_at_the_cache_key():
    # |dr/dx| is about 3.6 here, so a pipeline cached for a point up to
    # 5e-10 from the iterate leaves |r| above POLE_TOL and every shorter
    # step returns it again; the cache must resolve points that close
    pole = -2.4034867458707 - 8.6833737839596j
    cache = th._PipelineCache()
    poles = th.predict_poles((-2.7, -0.8, -9.65, -8.35), 2, cache=cache)
    assert min(abs(p - pole) for p in poles) <= 1e-9
    assert cache.get(pole) is not cache.get(pole - 4e-10 + 3e-10j)


def test_slice_mask_builds_few_pipelines():
    # one grid of pipelines serves k = 1, 2, 3 (the seed sweep built 391),
    # and none is at a pole-free x: seeds come only from triangles whose
    # corners are all in the pole region, and their polishes stay there
    cache = th._PipelineCache()
    for k in (1, 2, 3):
        th.predict_poles(SLICE_MASK_WINDOW, k, cache=cache)
    assert len(cache.solved) <= 120
    labels = genus0.classify_region([pipe.x for pipe in cache.solved.values()])
    assert not any(label.pole_free for label in labels)

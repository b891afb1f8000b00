import pytest

from hmcleod import collocation, pade, theta

X_REF = -1.5 - 10j


@pytest.fixture(scope="session")
def pipeline_cache():
    return theta._PipelineCache()


@pytest.fixture(scope="session")
def pipe_refpoint():
    """Cold two-band pipeline at a comfortable pole-region point."""
    return theta.Genus1Pipeline(X_REF)


@pytest.fixture(scope="session")
def colloc_solutions():
    """Real-axis collocation solutions for k = 1, 1.5, 2, 2.5, 3 (N = 200)."""
    out = {}
    for k in (1, 1.5, 2, 2.5, 3):
        prob = collocation.BvpProblem(alpha=k + 0.5, y1=-12.0 + 0j, y2=12.0 + 0j, N=200)
        out[k] = collocation.solve_bvp(prob)
    return out


@pytest.fixture(scope="session")
def atlas_k3(colloc_solutions):
    """Vault atlas for k = 3 covering the Im(x) = -9 slice band."""
    k = 3
    ck = k ** (2.0 / 3.0) / 2.0 ** (1.0 / 3.0)
    u0, up0 = collocation.eval_solution(colloc_solutions[k], 2.0)
    window = (-6 * ck - 1, 6 * ck + 1, 0.0, 10 * ck + 1)
    return pade.run_vault(window, (2.0, u0, up0), k + 0.5, pade.VaultConfig(seed=7))

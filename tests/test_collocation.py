import numpy as np
import pytest

from hmcleod import collocation as col
from hmcleod import genus0 as g0
from hmcleod.errors import OutOfSegment, RegionViolation


def test_grid_invariants_small_n():
    g = col.build_grid(16)
    ones = np.ones(16)
    assert np.max(np.abs(g.D @ ones)) <= 1e-12
    assert np.max(np.abs(g.D @ g.nodes - ones)) <= 1e-10
    assert np.max(np.abs(g.D @ g.nodes ** 2 - 2 * g.nodes)) <= 1e-8


def test_grid_n2_matches_linear_interpolant():
    g = col.build_grid(2)
    assert np.allclose(g.D, [[0.5, -0.5], [0.5, -0.5]])


def test_grid_corner_entries_formula():
    N = 40
    g = col.build_grid(N)
    assert g.D[0, 0] == pytest.approx((2 * (N - 1) ** 2 + 1) / 6.0)
    assert g.D[-1, -1] == pytest.approx(-(2 * (N - 1) ** 2 + 1) / 6.0)


@pytest.mark.parametrize("N", [2, 3, 16, 200, 257])
def test_grid_matches_entrywise_formula(N):
    # the broadcast build of D equals the textbook entry-by-entry loop bit
    # for bit (Trefethen, Spectral Methods in MATLAB, ch. 6)
    g = col.build_grid(N)
    t = np.cos(np.arange(N) * np.pi / (N - 1))
    c = np.ones(N)
    c[0] = c[-1] = 2.0
    D = np.empty((N, N))
    for i in range(N):
        for j in range(N):
            if i != j:
                D[i, j] = (c[i] * (-1.0) ** (i + j)) / (c[j] * (t[i] - t[j]))
    D[0, 0] = (2.0 * (N - 1) ** 2 + 1.0) / 6.0
    for i in range(1, N - 1):
        D[i, i] = -t[i] / (2.0 * (1.0 - t[i] ** 2))
    D[N - 1, N - 1] = -(2.0 * (N - 1) ** 2 + 1.0) / 6.0
    assert np.array_equal(g.nodes, t)
    assert np.array_equal(g.D, D)


@pytest.fixture(scope="module")
def real_solution(colloc_solutions):
    return colloc_solutions[1]  # alpha = 3/2


def test_boundary_values_exact(real_solution):
    p = real_solution.problem
    assert real_solution.values[0] == p.alpha / p.y2
    assert real_solution.values[-1] == np.sqrt(-p.y1 / 2.0)


def test_real_problem_real_solution(real_solution):
    assert np.max(np.abs(real_solution.values.imag)) <= 1e-10


def test_off_grid_ode_residual(real_solution):
    rng = np.random.default_rng(2)
    worst = max(col.ode_residual(real_solution, complex(11.5 * (2 * rng.random() - 1)))
                for _ in range(50))
    assert worst <= 1e-6


def test_grid_refinement_drift(real_solution):
    p100 = col.BvpProblem(alpha=1.5, y1=-12.0 + 0j, y2=12.0 + 0j, N=100)
    s100 = col.solve_bvp(p100)
    for y in np.linspace(-10.0, 10.0, 10):
        u200, _ = col.eval_solution(real_solution, y)
        u100, _ = col.eval_solution(s100, y)
        assert abs(u200 - u100) <= 1e-8


def test_eval_at_nodes_and_boundary(real_solution):
    p = real_solution.problem
    u, _ = col.eval_solution(real_solution, p.y2)
    assert u == p.alpha / p.y2
    y_node = p.map_to_segment(real_solution.grid.nodes[7])
    u_node, _ = col.eval_solution(real_solution, y_node)
    assert u_node == pytest.approx(real_solution.values[7])


def test_derivative_matches_finite_difference(real_solution):
    u, up = col.eval_solution(real_solution, 0.5)
    fd = (col.eval_solution(real_solution, 0.5 + 1e-4)[0]
          - col.eval_solution(real_solution, 0.5 - 1e-4)[0]) / 2e-4
    assert abs(up - fd) <= 1e-5


def test_out_of_segment_raises(real_solution):
    with pytest.raises(OutOfSegment):
        col.eval_solution(real_solution, 13.0)
    with pytest.raises(OutOfSegment):
        col.eval_solution(real_solution, 1.0 + 1.0j)


def test_scaled_value_tracks_branch_asymptote(real_solution):
    # k = 1 scaled value at x = 0 sits within the O(1/k) band of the
    # elementary asymptote
    u, _ = col.eval_solution(real_solution, 0.0)
    scaled = -(2.0) ** (-1.0 / 3.0) * u
    assert abs(scaled - g0.genus0_value(0.0)) <= 0.2


def test_solution_stays_bounded(real_solution):
    p = real_solution.problem
    bc = [abs(p.alpha / p.y2), abs(np.sqrt(-p.y1 / 2.0))]
    assert np.max(np.abs(real_solution.values)) <= max(bc) + 1.0


def test_region_violation_for_pole_region_segment():
    # a horizontal segment through the lower pole wedge must be rejected
    p = col.BvpProblem(alpha=1.5, y1=-9.0 + 2.8j, y2=9.0 + 2.8j, N=40)
    with pytest.raises(RegionViolation):
        col.solve_bvp(p)
    # but is allowed explicitly
    p2 = col.BvpProblem(alpha=1.5, y1=-9.0 + 2.8j, y2=9.0 + 2.8j, N=64,
                        allow_pole_region=True)
    sol = col.solve_bvp(p2)
    assert np.all(np.isfinite(sol.values))

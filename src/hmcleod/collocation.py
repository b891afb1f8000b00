"""Chebyshev spectral collocation for the ODE u'' = 2u^3 + yu - alpha.

The boundary-value problem is posed on a segment [y1, y2] with equal
imaginary parts, mapped to [-1, 1] by f(t) = (y1 + y2 + (y2-y1)t)/2,
so v(t) = u(f(t)) satisfies

    v'' = ((y2 - y1)^2 / 4) (2 v^3 + f(t) v - alpha).

Grid values are fixed at the two ends from the connection behavior of
the solutions: u ~ alpha/y as Re y -> +inf and u ~ sqrt(-y/2) as
Re y -> -inf, i.e. v_1 = alpha/y2 (node t_1 = +1) and v_N = sqrt(-y1/2)
(node t_N = -1).  The interior equations are solved by damped Newton.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import genus0, x_from_y
from .errors import NewtonDivergence, OutOfSegment, RegionViolation


@dataclass(frozen=True)
class ChebGrid:
    """Chebyshev extreme points t_k = cos((k-1)pi/(N-1)) and D matrix."""

    N: int
    nodes: np.ndarray
    D: np.ndarray


def build_grid(N):
    if N < 2:
        raise ValueError("grid needs N >= 2")
    k = np.arange(N)
    t = np.cos(k * np.pi / (N - 1))
    c = np.ones(N)
    c[0] = 2.0
    c[-1] = 2.0
    sign = np.where((k[:, None] + k[None, :]) % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the diagonal divides by zero here; it is overwritten below
        D = (c[:, None] * sign) / (c[None, :] * (t[:, None] - t[None, :]))
    D[0, 0] = (2.0 * (N - 1) ** 2 + 1.0) / 6.0
    for i in range(1, N - 1):
        D[i, i] = -t[i] / (2.0 * (1.0 - t[i] ** 2))
    D[N - 1, N - 1] = -(2.0 * (N - 1) ** 2 + 1.0) / 6.0
    return ChebGrid(N=N, nodes=t, D=D)


@dataclass(frozen=True)
class BvpProblem:
    alpha: float
    y1: complex
    y2: complex
    N: int = 200
    allow_pole_region: bool = False

    def __post_init__(self):
        if self.alpha <= -0.5:
            raise ValueError("alpha must exceed -1/2")
        if abs(self.y1.imag - self.y2.imag) > 1e-12 * (1.0 + abs(self.y1)):
            raise ValueError("segment ends need equal imaginary parts")
        if not (self.y1.real < 0.0 < self.y2.real):
            raise ValueError("need Re(y1) < 0 < Re(y2)")

    def map_to_segment(self, t):
        return (self.y1 + self.y2 + (self.y2 - self.y1) * t) / 2.0


@dataclass
class BvpSolution:
    problem: BvpProblem
    grid: ChebGrid
    values: np.ndarray
    derivative_values: np.ndarray = field(init=False)

    def __post_init__(self):
        scale = 2.0 / (self.problem.y2 - self.problem.y1)
        self.derivative_values = scale * (self.grid.D @ self.values)


def _check_region(p):
    """The scaled image of the segment must stay pole-free (k > 0 only)."""
    k = p.alpha - 0.5
    if k <= 0:
        return
    for t in np.linspace(-1.0, 1.0, 33):
        y = p.map_to_segment(t)
        x = x_from_y(y, k)
        label = genus0.classify_region(x)
        if label in (genus0.RegionLabel.POLE_REGION_UP,
                     genus0.RegionLabel.POLE_REGION_DOWN):
            raise RegionViolation(
                f"segment point y={y} maps to x={x} inside the pole region")


def _initial_guess(p, f_nodes):
    """Newton seed from the leading large-parameter branch value.

    u(y) ~ (2k)^(1/3) i S(x)/2 with x the scaled image of y; for
    alpha <= 1/2 (no positive k) a blended connection profile is used.
    """
    k = p.alpha - 0.5
    v = np.empty(len(f_nodes), dtype=complex)
    if k > 0:
        import warnings as _warnings
        hint = None
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            for i, y in enumerate(f_nodes):
                S = genus0.solve_S(x_from_y(y, k), hint=hint)
                hint = S
                v[i] = (2.0 * k) ** (1.0 / 3.0) * 1j * S / 2.0
        return v
    for i, y in enumerate(f_nodes):
        left = np.sqrt((abs(y) - y) / 2.0 + 0.25)
        right = p.alpha * np.conj(y) / (abs(y) ** 2 + 4.0)
        wgt = 0.5 * (1.0 - np.tanh(y.real))
        v[i] = wgt * left + (1.0 - wgt) * right
    return v


def solve_bvp(p):
    """Solve the collocation system; boundary nodes are imposed exactly.

    Damped Newton runs to a max-norm residual of 1e-11, or to the
    roundoff floor of the D^2 rows when that is larger, in at most 60
    iterations.
    """
    if not p.allow_pole_region:
        _check_region(p)
    grid = build_grid(p.N)
    N = p.N
    t = grid.nodes
    f = p.map_to_segment(t)
    scale = (p.y2 - p.y1) ** 2 / 4.0
    D2 = grid.D @ grid.D

    v_right = p.alpha / p.y2          # node t_1 = +1 -> y2
    v_left = np.sqrt(-p.y1 / 2.0)     # node t_N = -1 -> y1
    v = _initial_guess(p, f)
    v[0] = v_right
    v[-1] = v_left

    interior = slice(1, N - 1)
    D2_ii = D2[interior, interior]
    D2_ib = np.column_stack((D2[interior, 0], D2[interior, N - 1]))

    def residual(v_int):
        vv = np.concatenate(([v_right], v_int, [v_left]))
        rhs = scale * (2.0 * vv ** 3 + f * vv - p.alpha)
        return D2_ii @ v_int + D2_ib @ np.array([v_right, v_left]) - rhs[interior]

    v_int = v[interior].copy()
    F = residual(v_int)
    n_iter = 0
    row_scale = np.max(np.sum(np.abs(D2_ii), axis=1))

    def floor_for(v_cur):
        # attainable residual: rounding of the D^2 rows dominates
        mag = max(1.0, float(np.max(np.abs(v_cur))))
        return 8.0 * np.finfo(float).eps * row_scale * mag

    while np.max(np.abs(F)) > max(1e-11, floor_for(v_int)):
        n_iter += 1
        if n_iter > 60:
            raise NewtonDivergence("collocation Newton exceeded 60 iterations")
        J = D2_ii - np.diag(scale * (6.0 * v_int ** 2 + f[interior]))
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence("singular collocation Jacobian") from exc
        lam = 1.0
        norm0 = np.max(np.abs(F))
        for _ in range(30):
            cand = v_int + lam * step
            F_cand = residual(cand)
            if np.max(np.abs(F_cand)) < norm0:
                v_int, F = cand, F_cand
                break
            lam *= 0.5
        else:
            if norm0 <= 10.0 * floor_for(v_int):
                break
            raise NewtonDivergence("collocation Newton stalled in the line search")

    v[interior] = v_int
    return BvpSolution(problem=p, grid=grid, values=v)


def _barycentric_weights(N):
    w = np.ones(N)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _interpolate(t_query, nodes, values, w):
    diff = t_query - nodes
    exact = np.argwhere(np.abs(diff) < 1e-14)
    if exact.size:
        return values[exact[0, 0]]
    q = w / diff
    return np.sum(q * values) / np.sum(q)


def eval_solution(sol, y):
    """(u, u') at a point of the segment, by barycentric interpolation."""
    p = sol.problem
    y = complex(y)
    t = (2.0 * y - p.y1 - p.y2) / (p.y2 - p.y1)
    if abs(t.imag) > 1e-9 * (1.0 + abs(t)) or abs(t.real) > 1.0 + 1e-12:
        raise OutOfSegment(f"y={y} is not on the collocation segment")
    t = float(np.clip(t.real, -1.0, 1.0))
    w = _barycentric_weights(sol.grid.N)
    u = _interpolate(t, sol.grid.nodes, sol.values, w)
    up = _interpolate(t, sol.grid.nodes, sol.derivative_values, w)
    return complex(u), complex(up)


def ode_residual(sol, y):
    """|u'' - (2u^3 + yu - alpha)| at y, via interpolant differentiation."""
    p = sol.problem
    scale = 2.0 / (p.y2 - p.y1)
    w = _barycentric_weights(sol.grid.N)
    t = float(((2.0 * complex(y) - p.y1 - p.y2) / (p.y2 - p.y1)).real)
    second = scale * (sol.grid.D @ sol.derivative_values)
    upp = _interpolate(t, sol.grid.nodes, second, w)
    u = _interpolate(t, sol.grid.nodes, sol.values, w)
    return abs(upp - (2.0 * u ** 3 + y * u - p.alpha))

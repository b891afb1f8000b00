"""Generalized Hastings-McLeod solutions of inhomogeneous Painleve-II.

The package computes the scaled solutions three independent ways --
elementary large-parameter asymptotics in the pole-free region of the
scaled plane, theta-function asymptotics in the pole region, and direct
ODE numerics (spectral collocation plus Pade pole-vaulting) -- and
cross-validates them.

Scaling conventions used throughout, with k = alpha - 1/2:

    y = -(k^(2/3) / 2^(1/3)) * x
    scaled(x) = -(2k)^(-1/3) * u(y)

where u solves u'' = 2u^3 + y*u - alpha.

Importing the package loads none of its submodules; import the ones in
use (``from hmcleod import theta``).
"""

from .errors import HmcleodError  # noqa: F401

__version__ = "0.1.0"


def y_from_x(x, k):
    """Unscaled ODE argument for a point x of the scaled plane."""
    return -(k ** (2.0 / 3.0) / 2.0 ** (1.0 / 3.0)) * x


def x_from_y(y, k):
    return -(2.0 ** (1.0 / 3.0) / k ** (2.0 / 3.0)) * y


def scaled_from_u(u, k):
    """Scaled solution value from an unscaled one."""
    return -((2.0 * k) ** (-1.0 / 3.0)) * u


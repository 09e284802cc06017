"""Closed-form factorization for the two-dimensional AR(1)-pair model.

The future block of the operator system of ``make_ar1_pair(b1, b2)``
factorizes through a banded lower-triangular sequence psi whose inverse
theta is known in closed form.  The operator and acceptance tests compare
these entries with dense inversion.
"""

import numpy as np

from gapcast.errors import InvalidParameterError


def example1_psi(j: int, b1: float, b2: float) -> np.ndarray:
    """Banded factor of the future-segment operator of the AR(1)-pair model."""
    if j == 0:
        return np.array([[1.0, 1.0], [0.0, -1.0]])
    if j == 1:
        return np.array([[-b1, -b2], [0.0, b2]])
    return np.zeros((2, 2))


def example1_theta(j: int, b1: float, b2: float) -> np.ndarray:
    """Inverse factor: theta(j) = [[b1^j, b1^j], [0, -b2^j]]."""
    if j < 0:
        return np.zeros((2, 2))
    return np.array([[b1 ** j, b1 ** j], [0.0, -(b2 ** j)]])


def factorized_inverse_check(b1: float, b2: float, i: int, j: int) -> np.ndarray:
    """Entry (i, j) of the inverse future-segment operator, via the factorization.

    The future block of the AR(1)-pair system factorizes through the banded
    sequence psi; its inverse has entries
    sum_{l=0}^{min(i,j)} theta(i-l)^T theta(j-l).
    """
    for b, name in ((b1, "b1"), (b2, "b2")):
        if abs(b) >= 1.0:
            raise InvalidParameterError(f"{name} must satisfy |b| < 1, got {b!r}")
    if i < 0 or j < 0:
        raise InvalidParameterError("entry indices must be nonnegative")
    out = np.zeros((2, 2))
    for l in range(min(i, j) + 1):
        out += example1_theta(i - l, b1, b2).T @ example1_theta(j - l, b1, b2)
    return out

"""Candidate density families for the least-favorable search.

A family maps a box of parameters to spectral models that lie inside an
admissible class by construction (``gapcast.minimax`` re-checks every point
it evaluates).  The stock families are scalar: a flat/autoregressive mixture
of fixed power, with an optional noise pair; autoregressions of fixed power;
a contamination of a fixed anchor density; and the one-member family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InfeasibleClassError, InvalidParameterError
from .spectral import SpectralModel, grid_points


@dataclass(frozen=True)
class DensityFamily:
    """Box-parameterized candidate densities, in-class by construction.

    ``build(theta)`` returns the model for a parameter vector inside
    [lower, upper]; the family designer is responsible for the image lying in
    the admissible class (this is re-checked numerically at every evaluated
    point).  The box fixes the number of parameters, ``dim``.
    """

    lower: np.ndarray
    upper: np.ndarray
    build: Callable[[np.ndarray], SpectralModel]
    label: str = "family"

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        hi = np.asarray(self.upper, dtype=float).reshape(-1)
        if lo.size != hi.size:
            raise InvalidParameterError(f"family bounds of lengths {lo.size} and {hi.size}")
        if np.any(hi < lo):
            raise InvalidParameterError("family upper bound below lower bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def point(self, theta) -> np.ndarray:
        """``theta`` as a float vector of ``dim`` finite values in [lower, upper].

        Anything else raises InvalidParameterError; a value outside the box is
        refused with the box named, not clipped into it.
        """
        try:
            arr = np.atleast_1d(np.asarray(theta))
            real = arr.dtype.kind in "iuf"   # not a string, a complex value or an object
        except ValueError:   # a ragged sequence
            real = False
        if not real or arr.shape != (self.dim,) or not np.all(np.isfinite(arr)):
            raise InvalidParameterError(
                f"expected {self.dim} finite value(s), one per family parameter, "
                f"got {arr.astype(float).tolist() if real else repr(theta)}")
        arr = arr.astype(float)
        if np.any(arr < self.lower) or np.any(arr > self.upper):
            box = " x ".join(f"[{lo}, {hi}]" for lo, hi in zip(self.lower.tolist(),
                                                              self.upper.tolist()))
            raise InvalidParameterError(f"{arr.tolist()} lies outside the family's box {box}")
        return arr

    def clip(self, theta: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(theta, dtype=float), self.lower, self.upper)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform (dim,) point of the box; a family without parameters draws nothing."""
        return rng.uniform(self.lower, self.upper, size=self.dim)


def _mixture(z: np.ndarray, power: float, w: float, b: float) -> np.ndarray:
    """power * ((1-w) flat + w unit-power AR(1) with pole b), at the nodes z = e^{i lambda}."""
    return power * ((1.0 - w) + w * ((1.0 - b * b) / np.abs(1.0 - b * z) ** 2))


def _nodes(grid_size: int) -> np.ndarray:
    """e^{i lambda} at the grid nodes, taken once per family."""
    return np.exp(1j * grid_points(grid_size))


def _pole_bound(b_max: float) -> float:
    """``b_max`` if it lies in [0, 1): the poles of a stock family lie in [-b_max, b_max]."""
    if not 0.0 <= b_max < 1.0:   # NaN fails both
        raise InvalidParameterError(f"b_max must lie in [0, 1), got {b_max}")
    return b_max


def _scalar_model(grid_size: int, f: np.ndarray, g: np.ndarray | None = None,
                  poles: Sequence[float] = ()) -> SpectralModel:
    """Scalar model from node values; the pole modulus is None when all poles are 0."""
    rho = max((abs(b) for b in poles), default=0.0)
    return SpectralModel(
        dim=1, F=f[:, None, None], G=None if g is None else g[:, None, None],
        grid_size=grid_size, pole_modulus=rho if rho > 0 else None)


def scalar_mixture_family(power: float, w_max: float = 0.9, b_max: float = 0.8,
                          grid_size: int = 4096,
                          noise_power: float | None = None) -> DensityFamily:
    """Scalar density of fixed total power: (1-w) flat + w unit-power AR(1).

    Parameters are the mixture weight in [0, w_max] and the AR pole in
    [-b_max, b_max], for w_max in [0, 1] and b_max in [0, 1); every member has
    power exactly ``power``, so the family sits inside the fixed-power class.
    With ``noise_power`` set, a second pair of parameters shapes an
    independent noise density of that power the same way.
    """
    if power <= 0:
        raise InvalidParameterError("power must be positive")
    if not 0.0 <= w_max <= 1.0:
        raise InvalidParameterError(f"w_max must lie in [0, 1], got {w_max}")
    _pole_bound(b_max)
    z = _nodes(grid_size)
    powers = (power,) if noise_power is None else (power, noise_power)

    def build(theta):
        pairs = np.reshape(theta, (-1, 2))
        return _scalar_model(grid_size, *(_mixture(z, p, w, b)
                                          for p, (w, b) in zip(powers, pairs)),
                             poles=[b if w > 0 else 0.0 for w, b in pairs])

    return DensityFamily(lower=[0.0, -b_max] * len(powers),
                         upper=[w_max, b_max] * len(powers), build=build,
                         label="white/AR(1) mixture" + ("" if noise_power is None else " + noise"))


def ar1_fixed_power_family(power: float, b_max: float = 0.8,
                           grid_size: int = 4096) -> DensityFamily:
    """Scalar AR(1) densities of fixed total power, parameterized by the pole
    in [-b_max, b_max], b_max in [0, 1)."""
    _pole_bound(b_max)
    z = _nodes(grid_size)

    def build(theta):
        return _scalar_model(grid_size, _mixture(z, power, 1.0, theta[0]), poles=theta)

    return DensityFamily(lower=[-b_max], upper=[b_max], build=build,
                         label="AR(1), fixed power")


def singleton_family(model: SpectralModel) -> DensityFamily:
    """A family with exactly one member."""
    return DensityFamily(lower=[], upper=[], build=lambda theta: model, label="singleton")


def contamination_family(anchor, eps: float, power: float, b_max: float = 0.8,
                         grid_size: int = 4096) -> DensityFamily:
    """Scalar contamination: (1-eps) * fixed anchor + eps * free part.

    ``anchor`` is the anchor density's node values, or one number.  The free
    part is a white/AR(1) mixture whose power is pinned so the total power (the
    grid mean) equals ``power``; members therefore satisfy both the mixture and
    the moment constraints of the contamination class.  Its weight lies in
    [0, 0.9] and its pole in [-b_max, b_max], b_max in [0, 1).  A varying
    anchor has no known pole, so its members report none.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidParameterError("eps must lie in (0, 1)")
    _pole_bound(b_max)
    anchor = np.reshape(np.real(anchor), -1)
    w_pow = (power - (1.0 - eps) * anchor.mean()) / eps
    if w_pow < 0:
        raise InfeasibleClassError(
            "target power below the anchor's share; no admissible member")
    z = _nodes(grid_size)
    kept, flat = (1.0 - eps) * anchor, np.all(anchor == anchor[0])

    def build(theta):
        u, b = theta
        return _scalar_model(grid_size, kept + eps * _mixture(z, w_pow, u, b),
                             poles=(b if u > 0 else 0.0,) if flat else ())

    return DensityFamily(lower=[0.0, -b_max], upper=[0.9, b_max],
                         build=build, label="contaminated AR(1)")

"""Exact finite-window projection for an AR(1) signal in independent AR(1) noise.

The covariances are closed forms, s rho^|k| / (1 - rho^2) for an AR(1) of
pole rho and innovation variance s, so the reference has no grid and no
rectangle rule: its only error is the rounding of one Cholesky factor.  The
oracle tests compare ``projection_oracle``'s error and taps with it.
"""

import numpy as np
import scipy.linalg


def ar1_covariance(rho: float, scale: float, lags) -> np.ndarray:
    """R(k) = scale rho^|k| / (1 - rho^2) of a scalar AR(1)."""
    return scale * rho ** np.abs(np.asarray(lags)) / (1.0 - rho * rho)


def ar1_window_projection(rho: float, noise_rho: float, noise_scale: float,
                          gap, coeffs, window: int) -> tuple[float, dict[int, float]]:
    """(delta, taps) of the best estimate of sum_k a(k) xi(k) from the window.

    xi is an AR(rho) of unit innovation variance, observed in an independent
    AR(noise_rho) noise of innovation variance ``noise_scale`` at the points
    {-window..-1} outside ``gap``.  g = Gamma^{-1} m by Cholesky, and the
    error is in the stationary form Var A - 2 m^T g + g^T Gamma g, which the
    solve's rounding enters only squared.
    """
    a = np.asarray(coeffs, dtype=float).ravel()
    k = np.arange(a.size)
    observed = np.setdiff1d(np.arange(-window, 0), np.asarray(gap, dtype=int))
    lags = observed[:, None] - observed[None, :]
    gamma = ar1_covariance(rho, 1.0, lags) + ar1_covariance(noise_rho, noise_scale, lags)
    m = ar1_covariance(rho, 1.0, observed[:, None] - k[None, :]) @ a
    variance = float(a @ ar1_covariance(rho, 1.0, k[:, None] - k[None, :]) @ a)
    g = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gamma), m)
    delta = variance - 2.0 * float(m @ g) + float(g @ gamma @ g)
    return delta, dict(zip(observed.tolist(), g.tolist()))

"""Time-domain verification tools: projection oracle and Monte-Carlo simulation.

The projection oracle solves the finite-window normal equations built from
quadrature covariances of the observed process; it is an independent route to
the optimal estimate that never touches the operator system, so it serves as
ground truth for the spectral pipeline.  The simulator embeds the joint
signal/noise covariance sequence in a circulant, an exact Gaussian sampler of
the path; the filter error is a fixed linear functional of that sampler's
normal draws, so its variance is known in closed form and the Monte-Carlo
errors are drawn from that law, one normal per replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateObservationsError,
    InvalidParameterError,
    SimulationMethodError,
)
from .extrapolate import FunctionalSpec
from .operators import MissingPattern, assemble
from .spectral import SpectralModel, coeffs_from_samples


@dataclass(frozen=True)
class SimulationConfig:
    """Controls for Monte-Carlo error estimation.

    Replication r draws the r-th normal of one counter-based stream keyed by
    ``seed``, so a run's errors are a prefix of any longer run's.  ``window``,
    ``embedding_margin`` and ``psd_tol`` size and check the circulant
    embedding the error variance comes from.
    """

    replications: int = 10000
    seed: int = 0
    window: int = 50
    embedding_margin: int | None = None
    psd_tol: float = 1e-8

    def __post_init__(self):
        if self.replications < 1:
            raise InvalidParameterError("replications must be >= 1")
        if self.seed < 0:
            raise InvalidParameterError("seed must be a nonnegative integer")
        if self.window < 1:
            raise InvalidParameterError("window must be >= 1")


@dataclass
class OracleResult:
    """Finite-window projection estimate: its error and taps."""

    delta_oracle: float
    taps_oracle: dict[int, np.ndarray]
    window: int


def functional_variance(model: SpectralModel, functional: FunctionalSpec) -> float:
    """E |sum a(j)^T xi(j)|^2 from quadrature covariances."""
    N = functional.horizon
    table = coeffs_from_samples(model.samples("F"), max(N, 1))
    a = functional.coeffs.ravel()
    return float((a @ assemble(table, -np.arange(N + 1)) @ np.conj(a)).real)


def projection_oracle(model: SpectralModel, pattern: MissingPattern,
                      functional: FunctionalSpec, window: int) -> OracleResult:
    """Best linear estimate from the finite observed window {-window..-1} \\ S.

    Solves the normal equations with exact (quadrature) covariances of the
    observed sequence.  The reported error is an upper bound for the
    infinite-past optimum and decreases as the window grows.
    """
    if window < 1:
        raise InvalidParameterError("window must be >= 1")
    if functional.dim != model.dim:
        raise InvalidParameterError("functional dimension does not match model")
    N = functional.horizon
    d = model.dim
    observed = pattern.observed_window(window)
    e_s2 = functional_variance(model, functional)
    if not observed:
        return OracleResult(delta_oracle=e_s2, taps_oracle={}, window=window)

    # Covariances R(n) = table.coeff(-n): Gamma has blocks R_z(u - v) over
    # observed u, v; m has blocks sum_k R_zx(u - k) conj(a(k)).
    L = window + N
    cov_z = coeffs_from_samples(model.samples("Fz"), L)
    cross = model.samples("F") + model.samples("Fex")   # density of (zeta, xi)
    cov_zx = coeffs_from_samples(cross, L)
    rows = -np.asarray(observed)
    gamma = assemble(cov_z, rows)
    m = assemble(cov_zx, rows, -np.arange(N + 1)) @ np.conj(functional.coeffs).ravel()

    try:
        cho = scipy.linalg.cho_factor(gamma)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise DegenerateObservationsError(
            f"observation covariance is singular over window {window}: {exc}"
        ) from exc
    gm = scipy.linalg.cho_solve(cho, m)
    delta = e_s2 - float(np.vdot(m, gm).real)
    taps_vec = np.conj(gm)
    taps = {u: taps_vec[i * d:(i + 1) * d].copy() for i, u in enumerate(observed)}
    return OracleResult(delta_oracle=max(delta, 0.0), taps_oracle=taps, window=window)


# ---------------------------------------------------------------------------
# Path sampling by circulant embedding
# ---------------------------------------------------------------------------


class CirculantEmbedding:
    """Exact Gaussian sampler for the joint (xi, eta) sequence.

    Embeds the covariance sequence of the stacked 2T-dimensional process in a
    block circulant, factorizes its spectrum, and synthesizes real paths by
    inverse FFT.  Small negative circulant eigenvalues (within ``psd_tol``
    relative to the largest) are clipped to zero; larger ones raise, with the
    advice to enlarge the embedding order.
    """

    def __init__(self, model: SpectralModel, path_length: int,
                 margin: int | None = None, psd_tol: float = 1e-8):
        if path_length < 1:
            raise InvalidParameterError("path_length must be >= 1")
        if margin is None:
            rho = model.pole_modulus
            if rho is not None and 0.0 < rho < 1.0:
                margin = int(min(max(math.ceil(math.log(1e-12) / math.log(rho)), 64), 1024))
            else:
                margin = 256
        m = 1 << max(int(math.ceil(math.log2(2 * (path_length + margin)))), 3)
        d = model.dim
        D = 2 * d

        work = model
        if work.grid_size < 2 * m:
            work = model.with_grid(1 << int(math.ceil(math.log2(2 * m))))
        joint = np.zeros((work.grid_size, D, D), dtype=complex)
        joint[:, :d, :d] = work.samples("F")
        joint[:, :d, d:] = work.samples("Fxe")
        joint[:, d:, :d] = work.samples("Fex")
        joint[:, d:, d:] = work.samples("G")

        table = coeffs_from_samples(joint, m // 2)
        scale = max(float(np.abs(table.data).max()), np.finfo(float).tiny)
        if float(np.abs(table.data.imag).max()) > 1e-9 * scale:
            raise SimulationMethodError(
                "time-domain simulation requires a real-valued process "
                "(covariances came out complex)"
            )

        # first column of the block circulant: R(j) for lags j = 0..m/2, then
        # R(j - m) for the wrapped lags -(m/2 - 1)..-1; R(j) = table.coeff(-j)
        lags = np.concatenate((np.arange(m // 2 + 1), np.arange(m // 2 + 1 - m, 0)))
        C = table.data.real[table.max_lag - lags]
        spec = np.fft.fft(C, axis=0)
        spec = 0.5 * (spec + np.conj(np.swapaxes(spec, -1, -2)))
        w, V = np.linalg.eigh(spec)
        wmax = max(float(w.max()), np.finfo(float).tiny)
        wmin = float(w.min())
        if wmin < -psd_tol * wmax:
            raise SimulationMethodError(
                f"circulant embedding is not positive semidefinite "
                f"(min eigenvalue {wmin:.3e} vs scale {wmax:.3e}); "
                f"increase the embedding margin"
            )
        w = np.clip(w, 0.0, None)
        self.factors = V * np.sqrt(w)[:, None, :]   # A_k with A_k A_k^H = spec_k
        self.order = m
        self.dim = d
        self.path_length = path_length

    def sample_block(self, rngs) -> np.ndarray:
        """Paths for several independent streams, shape (B, path_length, 2T)."""
        m, D = self.order, 2 * self.dim
        half = m // 2
        B = len(rngs)
        z = np.empty((B, half + 1, D), dtype=complex)
        for b, rng in enumerate(rngs):
            u = rng.standard_normal((half + 1, D))
            v = rng.standard_normal((half + 1, D))
            zb = (u + 1j * v) / math.sqrt(2.0)
            zb[0] = u[0]
            zb[half] = u[half]
            z[b] = zb
        W = np.einsum("kde,bke->bkd", self.factors[: half + 1], z)
        X = math.sqrt(m) * np.fft.irfft(W, n=m, axis=1)
        return X[:, : self.path_length, :]

    def draw_weights(self, gather: np.ndarray) -> np.ndarray:
        """Weights w with sum(gather * path) = w @ draws, for every stream.

        ``gather`` has shape (path_length, 2T); ``draws`` are the
        2 (m/2 + 1) 2T normals ``sample_block`` takes from one stream, u
        then v.  The path is sqrt(m) irfft(A_k z_k), so the functional is
        m^{-1/2} sum_k c_k Re(h_k . z_k) with h_k = A_k^T conj(rfft(gather))_k
        and c_k = 1 at DC and Nyquist, 2 elsewhere.  There z_k = u_k (irfft
        would drop an imaginary part), so those v weights are 0; the v are
        still drawn, which keeps every stream's position.
        """
        m, half = self.order, self.order // 2
        H = np.conj(np.fft.rfft(gather, n=m, axis=0))
        h = np.einsum("kd,kde->ke", H, self.factors[: half + 1])
        # c_k / sqrt(m), with the 1/sqrt(2) of z_k = (u_k + i v_k)/sqrt(2) folded in
        c = np.full((half + 1, 1), math.sqrt(2.0 / m))
        c[0] = c[half] = 1.0 / math.sqrt(m)
        h *= c
        w_v = -h.imag
        w_v[[0, half]] = 0.0
        return np.concatenate((h.real.ravel(), w_v.ravel()))


def _stream(seed: int, rep: int) -> np.random.Generator:
    """The random stream keyed by (seed, rep): a new Philox with a zero counter."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)))


@dataclass
class MonteCarloResult:
    """Empirical mean-square error of a fixed time-domain filter, and its exact value."""

    mse: float
    stderr: float
    replications: int
    seed: int
    errors: np.ndarray
    mse_exact: float


def monte_carlo_mse(model: SpectralModel, pattern: MissingPattern,
                    functional: FunctionalSpec, taps: dict[int, np.ndarray],
                    config: SimulationConfig) -> MonteCarloResult:
    """Estimate E |A_N xi - sum_j taps(j)^T (xi + eta)(j)|^2 by simulation.

    The path spans the window {-window..-1}, or down to the deepest tap if
    that is deeper, plus the horizon 0..N.  Its error is w . z for one weight
    vector w (``CirculantEmbedding.draw_weights``) and the sampler's iid
    normals z, so it is N(0, w . w): ``mse_exact`` = w . w is the filter's
    error variance, and replication r's squared error is mse_exact eps_r^2,
    eps_r the r-th normal of ``_stream(seed, 0)``.
    """
    N = functional.horizon
    bad = [j for j in taps if j >= 0 or j in pattern.points]
    if bad:
        raise InvalidParameterError(
            f"taps at indices {sorted(bad)} are not observable "
            f"(nonnegative time or inside a missing stretch)"
        )
    depth = max([config.window] + [-j for j in taps])
    length = depth + N + 1

    tap_idx = np.array(sorted(taps), dtype=int)
    if taps:
        raw = np.array([np.asarray(taps[j], dtype=complex) for j in tap_idx])
        if np.abs(raw.imag).max() > 1e-9:
            raise InvalidParameterError("simulation requires real-valued taps")
        tap_mat = raw.real
    else:
        tap_mat = np.zeros((0, model.dim))
    a = np.real_if_close(functional.coeffs)
    if np.iscomplexobj(a) and np.abs(a.imag).max() > 1e-9:
        raise InvalidParameterError("simulation requires real functional coefficients")
    a = np.asarray(a, dtype=float)

    emb = CirculantEmbedding(model, length, margin=config.embedding_margin,
                             psd_tol=config.psd_tol)
    # error = sum(gather * path): a on xi over 0..N, -taps on xi + eta
    d = model.dim
    gather = np.zeros((length, 2 * d))
    gather[depth:, :d] = a
    gather[depth + tap_idx] -= np.tile(tap_mat, 2)
    w = emb.draw_weights(gather)

    mse_exact = float(w @ w)
    R = config.replications
    errors = mse_exact * _stream(config.seed, 0).standard_normal(R) ** 2
    mse = float(errors.mean())
    stderr = float(errors.std(ddof=1) / math.sqrt(R)) if R > 1 else float("nan")
    return MonteCarloResult(mse=mse, stderr=stderr, replications=R,
                            seed=config.seed, errors=errors, mse_exact=mse_exact)

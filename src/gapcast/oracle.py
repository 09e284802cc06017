"""Time-domain verification tools: projection oracle and Monte-Carlo simulation.

The projection oracle solves the finite-window normal equations built from
quadrature covariances of the observed process; it is an independent route to
the optimal estimate that never touches the operator system, so it serves as
ground truth for the spectral pipeline.  Its right side is read off the Fourier
coefficients of the functional's row conj(A^T (F + F_xe)), so no cross-covariance
block is assembled.  It solves the whole window, a block Toeplitz system, by
preconditioned conjugate gradients with FFT products and removes the gap by a
Schur step, so a window of any length up to the grid's reach costs about one
estimate; its error is in the stationary form, which the solve error enters
only squared.  A fixed filter's error is a Gaussian linear functional of the
path, so its variance is the quadrature of the written taps and the
Monte-Carlo errors are drawn from that law, one normal per replication.
``CirculantEmbedding`` is the exact path sampler that law is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DataShapeError,
    DegenerateObservationsError,
    InvalidParameterError,
    NonInvertibleOperatorError,
    SimulationMethodError,
    SingularDensityError,
)
from .extrapolate import FunctionalSpec, _functional_rows, filter_error
from .operators import MissingPattern, ToeplitzProduct, cholesky_solver, pcg
from .spectral import (
    GridTransform,
    SpectralModel,
    check_minimality,
    coeffs_from_samples,
    grid_transform,
    lag_table,
    trig_poly_on_grid,
)


@dataclass(frozen=True)
class SimulationConfig:
    """Controls for Monte-Carlo error estimation.

    Replication r draws the r-th normal of one counter-based stream keyed by
    ``seed``, so a run's errors are a prefix of any longer run's.  The seed is
    one 64-bit word of the stream's key.
    """

    replications: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise InvalidParameterError("replications must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidParameterError("seed must be an integer in 0..2**64 - 1")


@dataclass
class OracleResult:
    """Finite-window projection estimate: its error and taps.

    ``cg_iterations`` counts the conjugate-gradient iterations of the window
    solve, 0 when the window holds no observation.
    """

    delta_oracle: float
    taps_oracle: dict[int, np.ndarray]
    window: int
    cg_iterations: int = 0


def functional_variance(model: SpectralModel, functional: FunctionalSpec) -> float:
    """E |sum a(j)^T xi(j)|^2: the error of the zero filter, ``filter_error`` at h = 0."""
    A = functional.a_on_grid(model.grid_size)
    return filter_error(model, A, np.zeros_like(A))


def projection_oracle(model: SpectralModel, pattern: MissingPattern,
                      functional: FunctionalSpec, window: int) -> OracleResult:
    """Best linear estimate from the finite observed window {-window..-1} \\ S.

    Solves the normal equations Gamma g = m with exact (quadrature)
    covariances of the observed sequence.  The reported error is an upper
    bound for the infinite-past optimum and decreases as the window grows.
    It is ``projection_ladder`` over the one window.
    """
    return projection_ladder(model, pattern, functional, [window])[0]


def projection_ladder(model: SpectralModel, pattern: MissingPattern,
                      functional: FunctionalSpec, windows: Sequence[int]) -> list[OracleResult]:
    """``projection_oracle`` at each window, in the order given.

    Gamma is never formed.  Over the full window {-window..-1} the covariance
    is block Toeplitz with symbol F_zeta; conjugate gradients (``pcg``) apply
    its inverse H to m (zero on the gap) and to the gap's unit vectors,
    preconditioned by the Toeplitz matrix of F_zeta^{-1}, and then
    g = (H m)_O - H_OS H_SS^{-1} (H m)_S, the inverse of the observed block
    read from the inverse of the whole.  The preconditioner moves only the
    iteration count, never the answer.  The error is taken in its stationary
    form E|A|^2 - 2 Re(m^H g) + g^H Gamma g, one more Toeplitz product, so the
    solve error enters it only squared.

    The ladder does once what every window shares: the checks, Var A, the
    functional's row AX and one grid FFT each of F_zeta^{-1}, F_zeta and
    conj(AX), kept at the largest window's lags.  Each window slices its own
    tables from those (``lag_table``), so its result is the one-window
    result bit for bit, and costs only its own solve.

    A singular observation covariance raises DegenerateObservationsError
    naming the window: a density that fails ``check_minimality`` (whose
    inverse the preconditioner needs; named at the first window that
    observes anything), conjugate gradients that do not converge, or a
    failed factor of H over the gap.  So a non-minimal density is refused
    at every window, even where its Gamma over a short window could still
    be factored.  A density that passes keeps the 2-norm condition number
    of Gamma, at every window, at most its grid spread eig_max / eig_min,
    itself at most ``COND_CEILING``.
    """
    if any(w < 1 for w in windows):
        raise InvalidParameterError("window must be >= 1")
    if functional.dim != model.dim:
        raise InvalidParameterError("functional dimension does not match model")
    observed = [pattern.observed_window(w) for w in windows]
    e_s2 = functional_variance(model, functional)
    # a window that observes nothing needs no table: its error is Var A
    solved = [w for w, obs in zip(windows, observed) if obs]
    tables = ()
    if solved:
        try:
            check_minimality(model)
        except SingularDensityError as exc:
            raise DegenerateObservationsError(
                f"observation covariance over window {solved[0]} is singular: {exc}") from exc
        # block (p, q) of Gamma is the lag r_p - r_q coefficient of F_zeta
        # (lags below the window); block r of m = cov(zeta(u), sum a(k)^T xi(k)),
        # r = -u, the lag-r coefficient of conj(AX), whose table reaches
        # window + N, as sum_k R_zx(u - k) conj(a(k)) does
        top, AX = max(solved), _functional_rows(model, functional)[1]
        tables = (grid_transform(model.samples("Fzinv"), top - 1),
                  grid_transform(model.samples("Fz"), top - 1),
                  grid_transform(np.conj(AX)[:, :, None], top + functional.horizon))
    return [_rung(pattern, w, obs, e_s2, *tables, functional.horizon)
            if obs else OracleResult(delta_oracle=e_s2, taps_oracle={}, window=w)
            for w, obs in zip(windows, observed)]


def _rung(pattern: MissingPattern, window: int, observed: tuple[int, ...], e_s2: float,
          inverse_bins: GridTransform, cov_bins: GridTransform, m_bins: GridTransform,
          N: int) -> OracleResult:
    """One window of ``projection_ladder``: its tables sliced from the ladder's
    transforms of F_zeta^{-1}, F_zeta and conj(AX), its solve and its error."""
    name = f"observation covariance over window {window}"
    # over the full window, indexed by r = -u = 1..window
    inverse = lag_table(inverse_bins, window - 1)
    cov_z, lag = lag_table(cov_bins, window - 1), window + N
    m = lag_table(m_bins, lag).data[lag + 1:lag + window + 1, :, 0].ravel()
    d = cov_z.dim
    gap = np.repeat(np.isin(np.arange(1, window + 1), -np.asarray(pattern.points)), d)
    S, O = np.flatnonzero(gap), np.flatnonzero(~gap)
    m[S] = 0.0
    rhs = np.zeros((window * d, 1 + S.size), dtype=np.result_type(m, cov_z.data))
    rhs[:, 0] = m
    rhs[S, 1 + np.arange(S.size)] = 1.0
    gamma = ToeplitzProduct(cov_z, window)
    try:
        H, iterations = pcg(gamma, ToeplitzProduct(inverse, window), rhs)
    except NonInvertibleOperatorError as exc:
        raise DegenerateObservationsError(f"{name}: {exc}") from exc
    g = H[:, 0]
    if S.size:
        H_S = H[:, 1:]
        solve = cholesky_solver(H_S[S], DegenerateObservationsError,
                                f"inverse {name}, over the gap")
        g = g - H_S @ solve(g[S])
        g[S] = 0.0
    # the explained variance in stationary form, 2 Re(m^H g) - g^H Gamma g,
    # over the observed rows (g is zero on the gap)
    m, g, gamma_g = m[O], g[O], gamma(g[:, None])[O, 0]
    delta = e_s2 - (2.0 * float(np.vdot(m, g).real) - float(np.vdot(g, gamma_g).real))
    # observed u ascend, so r descends: reverse the blocks
    taps_vec = np.conj(g).reshape(-1, d)[::-1]
    return OracleResult(delta_oracle=max(delta, 0.0), taps_oracle=dict(zip(observed, taps_vec)),
                        window=window, cg_iterations=iterations)


# ---------------------------------------------------------------------------
# Path sampling by circulant embedding
# ---------------------------------------------------------------------------


def _require_real(model: SpectralModel) -> None:
    """Refuse a process with complex covariances: it has no real path.

    Real covariances need f(-lambda) = conj f(lambda), node n - m mirroring
    node m, in F, G and F_xe, to 1e-9 of the largest sample.
    """
    mirror = -np.arange(model.grid_size) % model.grid_size
    for which in ("F", "G") + (() if model.is_uncorrelated else ("Fxe",)):
        s = model.samples(which)
        scale = max(float(np.abs(s).max()), np.finfo(float).tiny)
        if float(np.abs(s[mirror] - np.conj(s)).max()) > 1e-9 * scale:
            raise SimulationMethodError(f"time-domain simulation requires a real-valued "
                                        f"process (density {which} is not conjugate-symmetric)")


def _resolving_grid(model: SpectralModel, path_length: int,
                    margin: int | None = None) -> tuple[int, SpectralModel]:
    """The embedding order m of a path, and the model on at least 2m nodes.

    Covariances beyond ``margin`` lags are taken as negligible: by default
    rho^margin <= 1e-12 for the model's pole modulus rho in (0, 1) (64..1024
    lags), or 256 lags when rho is unknown or 0 (a moving average's
    covariances reach its order, which rho does not state).  m is the power
    of two of at least 2 (path_length + margin), so a grid of 2m nodes
    aliases no covariance that a path of ``path_length`` sees.  A model
    known only on its own coarser grid (per-node density data) raises
    SimulationMethodError.
    """
    if margin is None:
        rho = model.pole_modulus or 0.0
        margin = (int(min(max(math.ceil(math.log(1e-12) / math.log(rho)), 64), 1024))
                  if rho > 0.0 else 256)
    m = 1 << max(int(math.ceil(math.log2(2 * (path_length + margin)))), 3)
    if model.grid_size >= 2 * m:
        return m, model
    try:
        return m, model.with_grid(2 * m)
    except DataShapeError as exc:
        raise SimulationMethodError(
            f"the time-domain quadrature needs {2 * m} grid nodes to resolve the "
            f"covariances from the deepest tap to the horizon ({path_length} lags) plus "
            f"a margin of {margin}, but the density data gives {model.grid_size}; supply "
            f"the density on at least {2 * m} nodes and raise numerics.grid_size to match"
        ) from exc


class CirculantEmbedding:
    """Exact Gaussian sampler for the joint (xi, eta) sequence.

    Embeds the covariance sequence of the stacked 2T-dimensional process in a
    block circulant (order and grid from ``_resolving_grid``), factorizes its
    spectrum, and synthesizes real paths by inverse FFT.  Small negative
    circulant eigenvalues (within 1e-8 relative to the largest) are clipped
    to zero; larger ones raise, with the advice to enlarge the margin.
    """

    def __init__(self, model: SpectralModel, path_length: int, margin: int | None = None):
        if path_length < 1:
            raise InvalidParameterError("path_length must be >= 1")
        _require_real(model)
        m, work = _resolving_grid(model, path_length, margin)
        d, D = model.dim, 2 * model.dim
        joint = np.zeros((work.grid_size, D, D), dtype=complex)
        joint[:, :d, :d] = work.samples("F")
        joint[:, :d, d:] = work.samples("Fxe")
        joint[:, d:, :d] = work.samples("Fex")
        joint[:, d:, d:] = work.samples("G")
        table = coeffs_from_samples(joint, m // 2)

        # first column of the block circulant: R(j) for lags j = 0..m/2, then
        # R(j - m) for the wrapped lags -(m/2 - 1)..-1; R(j) = table.coeff(-j)
        lags = np.concatenate((np.arange(m // 2 + 1), np.arange(m // 2 + 1 - m, 0)))
        C = table.data.real[table.max_lag - lags]
        spec = np.fft.fft(C, axis=0)
        spec = 0.5 * (spec + np.conj(np.swapaxes(spec, -1, -2)))
        w, V = np.linalg.eigh(spec)
        wmax = max(float(w.max()), np.finfo(float).tiny)
        wmin = float(w.min())
        if wmin < -1e-8 * wmax:
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
        m, half, D = self.order, self.order // 2, 2 * self.dim
        B = len(rngs)
        z = np.empty((B, half + 1, D), dtype=complex)
        for b, rng in enumerate(rngs):
            u = rng.standard_normal((half + 1, D))
            v = rng.standard_normal((half + 1, D))
            zb = (u + 1j * v) / math.sqrt(2.0)
            zb[[0, half]] = u[[0, half]]
            z[b] = zb
        W = np.einsum("kde,bke->bkd", self.factors[: half + 1], z)
        X = math.sqrt(m) * np.fft.irfft(W, n=m, axis=1)
        return X[:, : self.path_length, :]


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

    The error is a linear functional of the Gaussian path, so it is
    N(0, mse_exact) with ``mse_exact`` the quadrature ``filter_error`` of
    r = A - h, h = sum_j taps(j) e^{i j lambda}, on the model's grid or, when
    that grid would alias the covariances the filter spans (deepest tap to
    N), on the finer grid ``_resolving_grid`` gives.  Replication r's squared
    error is mse_exact eps_r^2, eps_r the r-th normal of ``_stream(seed, 0)``.
    A complex-valued process is refused (``_require_real``), and so are taps
    or coefficients whose imaginary parts exceed 1e-9 of their largest magnitude.
    """
    bad = [j for j in taps if j >= 0 or j in pattern.points]
    if bad:
        raise InvalidParameterError(
            f"taps at indices {sorted(bad)} are not observable "
            f"(nonnegative time or inside a missing stretch)"
        )
    tap_idx = sorted(taps)
    tap_mat = np.array([taps[j] for j in tap_idx], dtype=complex).reshape(len(taps), model.dim)
    for values, what in ((tap_mat, "real-valued taps"),
                         (functional.coeffs, "real functional coefficients")):
        if np.abs(np.imag(values)).max(initial=0.0) > 1e-9 * np.abs(values).max(initial=0.0):
            raise InvalidParameterError(f"simulation requires {what}")
    _require_real(model)
    _, work = _resolving_grid(model, functional.horizon + 1 - min([0] + tap_idx))
    n = work.grid_size
    h = trig_poly_on_grid(tap_idx, tap_mat.real, n)
    mse_exact = filter_error(work, functional.a_on_grid(n) - h, h)
    R = config.replications
    errors = mse_exact * _stream(config.seed, 0).standard_normal(R) ** 2
    mse = float(errors.mean())
    stderr = float(errors.std(ddof=1) / math.sqrt(R)) if R > 1 else float("nan")
    return MonteCarloResult(mse=mse, stderr=stderr, replications=R,
                            seed=config.seed, errors=errors, mse_exact=mse_exact)

"""Spectral models of multivariate stationary sequences.

A model bundles the spectral density F of the signal sequence, the density G
of an additive stationary noise sequence, and the cross densities between the
two, all as matrix-valued functions on [-pi, pi).  Frequency integrals use an
equispaced grid with the rectangle rule, which is spectrally accurate for the
smooth periodic integrands handled here and exact for trigonometric
polynomials shorter than the grid.

Conventions
-----------
grid nodes        lambda_m = -pi + 2*pi*m/n,  m = 0..n-1
Fourier coeffs    c(k) = (1/2pi) int f(lambda) e^{-i k lambda} d lambda
covariances       R(n) = (1/2pi) int e^{i n lambda} F(lambda) d lambda
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    DataShapeError,
    InsufficientLagError,
    InvalidParameterError,
    SingularDensityError,
)

# A density function maps an array of frequencies (n,) to samples (n, T, T).
DensityFn = Callable[[np.ndarray], np.ndarray]
# Density data, read by ``density_data``: a number, a T x T matrix, per-node
# (n, T, T) values, or a function of the grid nodes returning one of these.
Density = Union[complex, np.ndarray, DensityFn]

_HERMITIAN_TOL = 1e-10
_PSD_TOL = 1e-10

# A Fourier table whose imaginary parts are at most this fraction of its
# largest real part (about 450 ulp) is stored real; see lag_table.
REAL_TOL = 1e-13

# Largest accepted spread eig_max / eig_min of F_zeta's eigenvalues over the
# whole grid.  It bounds the 2-norm condition number of every matrix solved
# from the density: the operator matrix B and the oracle's window covariance.
COND_CEILING = 1e12


MAX_GRID_SIZE = 1 << 22   # a T = 2 complex sample array of this many nodes is 256 MB


def check_grid_size(n: int) -> int:
    """``n`` if it is a power of two from 64 to ``MAX_GRID_SIZE``, the grids a model accepts."""
    if not 64 <= n <= MAX_GRID_SIZE or (n & (n - 1)) != 0:
        raise InvalidParameterError(f"grid_size must be a power of two from 64 to "
                                    f"{MAX_GRID_SIZE}, got {n}")
    return n


def grid_points(n: int) -> np.ndarray:
    """Equispaced frequency nodes -pi + 2*pi*m/n, m = 0..n-1."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


@lru_cache(maxsize=16)
def _shared_nodes(n: int) -> np.ndarray:
    """``grid_points(n)``, read-only, computed once per size for every model."""
    lam = grid_points(n)
    lam.flags.writeable = False
    return lam


def trig_poly_on_grid(lags: np.ndarray, coeffs: np.ndarray, n: int) -> np.ndarray:
    """sum_j coeffs[j] e^{i lags[j] lambda_m} at the n grid nodes, shape (n, T).

    e^{i lambda_m j} = (-1)^j e^{2 pi i m j / n}, so this is one inverse FFT of
    the signed coefficients folded onto their lags mod n.
    """
    lags = np.asarray(lags, dtype=int)
    coeffs = np.asarray(coeffs)
    signs = np.where(lags % 2 == 0, 1.0, -1.0)[:, None]
    folded = np.zeros((n, coeffs.shape[1]), dtype=complex)
    np.add.at(folded, lags % n, signs * coeffs)
    return n * np.fft.ifft(folded, axis=0)


def _eigvalsh(samples: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian (n, T, T) samples, shape (n, T).

    Like LAPACK's ?heevd this reads the diagonal's real parts and the lower
    triangle.  Order 1: the real parts, bit for bit what ?heevd returns.
    Order 2: the closed form of ?laev2, vectorized over the nodes.  With
    lo, hi the smaller and larger diagonal entry, h = (hi - lo)/2 and
    b = |s_10|, the eigenvalues are lo - t and hi + t for
    t = b (b / (hypot(h, b) + h)), 0 where b = h = 0: nothing cancels beyond
    what the determinant does, and a diagonal block is exact.  Order 3 and
    up: ``np.linalg.eigvalsh``.
    """
    d = samples.shape[-1]
    if d == 1:
        return samples[..., 0].real
    if d > 2:
        return np.linalg.eigvalsh(samples)
    a, c = samples[..., 0, 0].real, samples[..., 1, 1].real
    b = np.abs(samples[..., 1, 0])
    lo, hi = np.minimum(a, c), np.maximum(a, c)
    h = 0.5 * (hi - lo)
    den = np.hypot(h, b) + h
    t = b * np.divide(b, den, out=np.zeros_like(den), where=den > 0)
    return np.stack((lo - t, hi + t), axis=-1)


def _inv(samples: np.ndarray) -> np.ndarray:
    """Per-node inverse of (n, T, T) samples.

    Order 1: the reciprocal, bit for bit what ``np.linalg.inv`` returns on
    real samples.  Order 2: the adjugate over the determinant a d - b c.
    Order 3 and up: ``np.linalg.inv``.  Whether the inverse exists is
    ``check_minimality``'s to judge.
    """
    d = samples.shape[-1]
    if d == 1:
        return 1.0 / samples
    if d > 2:
        return np.linalg.inv(samples)
    a, b = samples[..., 0, 0], samples[..., 0, 1]
    c, e = samples[..., 1, 0], samples[..., 1, 1]
    det = a * e - b * c
    out = np.empty_like(samples)
    out[..., 0, 0], out[..., 0, 1] = e / det, -b / det
    out[..., 1, 0], out[..., 1, 1] = -c / det, a / det
    return out


@dataclass(eq=False)
class SpectralModel:
    """Signal/noise spectral model on a fixed frequency grid.

    Parameters
    ----------
    dim : dimension T of the sequences.
    F : spectral density of the signal, as density data (``density_data``).
    G : spectral density of the noise, or None for noiseless observation.
    F_xe : cross density (signal vs noise); None means uncorrelated.  The
        adjoint cross density F_ex is its conjugate transpose.
    grid_size : number of frequency nodes (power of two, >= 64).
    pole_modulus : decay rate rho of the covariances, |R(k)| = O(rho^|k|): the
        largest pole modulus of the underlying rational model, a number in
        [0, 1), or None when unknown.  It sets the default truncation and
        the covariance margin of ``simulate``'s quadrature grid.

    Construction reads each given density onto the grid and validates what
    exists: F and G (when given) must be Hermitian and positive semidefinite,
    and so must the joint density [[F, F_xe], [F_ex, G]] when F_xe is nonzero.
    Then the pole modulus must be None or lie in [0, 1).
    Per-node density data pins the model to its grid size.
    The grid nodes ``lam`` are read-only and shared by every model of the
    same grid size.  Samples and the minimality report are computed once
    per model and cached on it.
    """

    dim: int
    F: Density
    G: Density | None = None
    F_xe: Density | None = None
    grid_size: int = 4096
    pole_modulus: float | None = None
    _samples: dict = field(default_factory=dict, repr=False)
    lam: np.ndarray = field(init=False, repr=False)
    _minimality: MinimalityReport | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n = check_grid_size(self.grid_size)
        if self.dim < 1:
            raise InvalidParameterError(f"dim must be positive, got {self.dim}")
        self.lam = _shared_nodes(n)
        self._validate()
        rho = self.pole_modulus
        if rho is not None and not 0.0 <= rho < 1.0:   # NaN fails both
            raise InvalidParameterError(f"pole_modulus must lie in [0, 1), got {rho}")

    # -- evaluation ------------------------------------------------------

    def samples(self, which: str = "F") -> np.ndarray:
        """Density samples on the model grid, shape (n, T, T).

        ``which`` is one of F, G, Fxe, Fex (the conjugate transpose of Fxe),
        Fz (observation density F + F_xe + F_ex + G), Fzinv (its per-node
        inverse by ``_inv``: closed forms for T <= 2, LAPACK above;
        ``check_minimality`` judges whether it exists).
        """
        if which in self._samples:
            return self._samples[which]
        n, d = self.grid_size, self.dim
        if which == "Fz":
            out = (
                self.samples("F")
                + self.samples("G")
                + self.samples("Fxe")
                + self.samples("Fex")
            )
        elif which == "Fzinv":
            out = _inv(self.samples("Fz"))
        else:
            data = {"F": self.F, "G": self.G, "Fxe": self.F_xe, "Fex": self.F_xe}[which]
            if data is None:
                out = np.zeros((n, d, d), dtype=complex)
            elif which == "Fex":
                out = np.conj(np.swapaxes(self.samples("Fxe"), -1, -2))
            else:
                out = density_data(data, n, d, which)
        self._samples[which] = out
        return out

    @cached_property
    def is_noiseless(self) -> bool:
        return self.G is None or not np.any(np.abs(self.samples("G")) > 0)

    @cached_property
    def is_uncorrelated(self) -> bool:
        return self.F_xe is None or not np.any(np.abs(self.samples("Fxe")) > 0)

    def with_grid(self, grid_size: int) -> "SpectralModel":
        """Same model evaluated on a different grid; per-node data refuses."""
        if grid_size == self.grid_size:
            return self
        return SpectralModel(
            dim=self.dim,
            F=self.F,
            G=self.G,
            F_xe=self.F_xe,
            grid_size=grid_size,
            pole_modulus=self.pole_modulus,
        )

    # -- validation ------------------------------------------------------

    def _validate(self):
        """Check the densities that exist, each relative to its largest sample
        so that no unit is special; an absent one samples as zero."""
        for which, data in (("F", self.F), ("G", self.G)):
            if data is None:
                continue
            s = self.samples(which)
            scale = np.abs(s).max()
            herm = np.abs(s - np.conj(np.swapaxes(s, -1, -2))).max()
            if herm > _HERMITIAN_TOL * scale:
                raise InvalidParameterError(
                    f"density {which} is not Hermitian (defect {herm:.2e})"
                )
            mineig = _eigvalsh(s).min()
            if mineig < -_PSD_TOL * scale:
                raise InvalidParameterError(
                    f"density {which} has a negative eigenvalue ({mineig:.2e})"
                )
        if self.is_uncorrelated:
            return
        if self.is_noiseless:
            raise InvalidParameterError(
                "a noiseless model cannot carry a nonzero cross density"
            )
        # the joint density [[F, F_xe], [F_ex, G]] of (xi, eta) must be PSD too
        joint = np.block([[self.samples("F"), self.samples("Fxe")],
                          [self.samples("Fex"), self.samples("G")]])
        mineig = _eigvalsh(joint).min()
        if mineig < -_PSD_TOL * np.abs(joint).max():
            raise InvalidParameterError(
                f"joint signal-noise density is not positive semidefinite "
                f"(eigenvalue {mineig:.2e})"
            )


# ---------------------------------------------------------------------------
# Built-in density constructors
# ---------------------------------------------------------------------------


def ar1_scalar(lam: np.ndarray, b: float, scale: float = 1.0) -> np.ndarray:
    """scale / |1 - b e^{i lambda}|^2 evaluated on ``lam``."""
    z = np.exp(1j * lam)
    return scale / np.abs(1.0 - b * z) ** 2


def white_model(dim: int, scale=1.0, grid_size: int = 4096) -> SpectralModel:
    """Noiseless white model: F = scale * I, diag(scale) or a fixed PSD matrix."""
    scale = np.asarray(scale)
    return SpectralModel(dim=dim, F=np.diag(scale) if scale.ndim == 1 else scale,
                         grid_size=grid_size, pole_modulus=0.0)


def diagonal_ar1_density(poles: Sequence[float], scales: Sequence[float] | None = None,
                         mix: np.ndarray | None = None) -> DensityFn:
    """Density of L u where u has independent AR(1) components.

    ``poles`` are the AR coefficients, ``scales`` the innovation variances and
    ``mix`` an optional real mixing matrix L applied as L f(lambda) L^T.
    """
    poles = [float(b) for b in poles]
    for b in poles:
        if not np.isfinite(b) or abs(b) >= 1.0:
            raise InvalidParameterError(f"pole must satisfy |b| < 1, got {b!r}")
    d = len(poles)
    scales = [1.0] * d if scales is None else [float(s) for s in scales]
    if len(scales) != d:
        raise InvalidParameterError("scales and poles must have equal length")
    if any(s < 0 for s in scales):
        raise InvalidParameterError("scales must be nonnegative")
    L = None if mix is None else np.asarray(mix, dtype=float)
    if L is not None and L.shape != (d, d):
        raise InvalidParameterError(f"mix matrix has shape {L.shape}, need {d}x{d}")

    def fn(lam):
        out = np.zeros((lam.size, d, d), dtype=complex)
        for k, (b, s) in enumerate(zip(poles, scales)):
            out[:, k, k] = ar1_scalar(lam, b, s)
        if L is not None:
            out = np.einsum("ij,njk,lk->nil", L, out, L)
        return out

    return fn


def ar1_model(poles, scales=None, mix=None, noise_poles=None, noise_scales=None,
              noise_mix=None, grid_size: int = 4096) -> SpectralModel:
    """Diagonal-AR(1)-based model, optionally with an uncorrelated AR(1) noise."""
    F = diagonal_ar1_density(poles, scales, mix)
    G = None
    rho = max(abs(b) for b in poles)
    if noise_poles is not None:
        G = diagonal_ar1_density(noise_poles, noise_scales, noise_mix)
        rho = max(rho, max(abs(b) for b in noise_poles))
    return SpectralModel(dim=len(list(poles)), F=F, G=G, grid_size=grid_size,
                         pole_modulus=rho)


def make_ar1_pair(b1: float, b2: float, grid_size: int = 4096) -> SpectralModel:
    """Two-dimensional noiseless model built from two independent AR(1) factors.

    Component 1 is the first factor; component 2 is the sum of both.  The
    density is
        F = [[f, f], [f, f + g]],
    with f = |1 - b1 e^{i lambda}|^{-2} and g = |1 - b2 e^{i lambda}|^{-2}: the
    AR(1) pair mixed by L = [[1, 0], [1, 1]].
    """
    return ar1_model((b1, b2), mix=[[1, 0], [1, 1]], grid_size=grid_size)


def moving_average_transfer(coeffs: Sequence[np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Transfer function C(lambda) = sum_j coeffs[j] e^{-i j lambda}."""
    mats = [np.asarray(c, dtype=complex) for c in coeffs]

    def fn(lam):
        z = np.exp(-1j * lam)
        out = np.zeros((lam.size,) + mats[0].shape, dtype=complex)
        for j, c in enumerate(mats):
            out += (z ** j)[:, None, None] * c
        return out

    return fn


def ma_pair_model(signal_coeffs, noise_coeffs=None, innovation_cov=None,
                  grid_size: int = 4096) -> SpectralModel:
    """Model of a jointly driven moving-average pair.

    xi(t) = sum_j Cx_j w(t-j) and eta(t) = sum_j Ce_j v(t-j), with (w, v)
    jointly white Gaussian with covariance ``innovation_cov`` (2T x 2T, PSD).
    This yields F = Cx S_w Cx*, G = Ce S_v Ce*, F_xe = Cx S_wv Ce*, so the
    joint spectral density is positive semidefinite by construction.
    """
    cx = [np.asarray(c, dtype=complex) for c in signal_coeffs]
    d = cx[0].shape[0]
    Hx = moving_average_transfer(cx)
    if noise_coeffs is None:
        if innovation_cov is not None:
            raise InvalidParameterError("innovation_cov given without noise_coeffs")

        def F(lam):
            hx = Hx(lam)
            return hx @ np.conj(np.swapaxes(hx, -1, -2))

        return SpectralModel(dim=d, F=F, grid_size=grid_size, pole_modulus=0.0)

    ce = [np.asarray(c, dtype=complex) for c in noise_coeffs]
    He = moving_average_transfer(ce)
    if innovation_cov is None:
        innovation_cov = np.eye(2 * d)
    S = np.asarray(innovation_cov, dtype=complex)
    if S.shape != (2 * d, 2 * d):
        raise InvalidParameterError(
            f"innovation_cov has shape {S.shape}, need {(2 * d, 2 * d)}"
        )
    if np.linalg.eigvalsh(S).min() < -_PSD_TOL * max(np.abs(S).max(), 1.0):
        raise InvalidParameterError("innovation_cov must be positive semidefinite")
    Sw, Sv = S[:d, :d], S[d:, d:]
    Swv = S[:d, d:]

    def F(lam):
        hx = Hx(lam)
        return hx @ Sw @ np.conj(np.swapaxes(hx, -1, -2))

    def G(lam):
        he = He(lam)
        return he @ Sv @ np.conj(np.swapaxes(he, -1, -2))

    def Fxe(lam):
        hx, he = Hx(lam), He(lam)
        return hx @ Swv @ np.conj(np.swapaxes(he, -1, -2))

    return SpectralModel(dim=d, F=F, G=G, F_xe=Fxe, grid_size=grid_size,
                         pole_modulus=0.0)


def laurent_entry(num_offset: int, num_coeffs, den_offset: int = 0, den_coeffs=(1.0,)):
    """Scalar rational entry N(z)/D(z) with Laurent polynomials in z = e^{i lambda}."""
    nc = np.asarray(num_coeffs, dtype=complex)
    dc = np.asarray(den_coeffs, dtype=complex)

    def fn(lam):
        z = np.exp(1j * lam)
        num = sum(c * z ** (num_offset + j) for j, c in enumerate(nc))
        den = sum(c * z ** (den_offset + j) for j, c in enumerate(dc))
        # a vanishing or NaN denominator is refused by the density checks
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den

    return fn


def laurent_pole_modulus(den_coeffs) -> float | None:
    """Decay rate of 1/D for D(z) = sum_j den_coeffs[j] z^j, times any power of z.

    The largest min(|r|, 1/|r|) over the nonzero roots r of D, the root nearest
    the unit circle, as ``ar1_model`` reads its poles; 0 without such a root.
    A root at 0 carries no decay.  None unless the coefficients are a finite
    list: such a denominator is the density checks' to judge.
    """
    c = np.asarray(den_coeffs, dtype=complex)
    if c.ndim != 1 or not np.all(np.isfinite(c)):
        return None
    r = np.abs(np.roots(c[::-1]))
    r = r[r > 0]
    return float(np.minimum(r, 1.0 / r).max(initial=0.0))


def laurent_density(dim: int, entries: dict) -> DensityFn:
    """Hermitian density from per-entry Laurent rational functions.

    ``entries`` maps (row, col) with row <= col to scalar callables (as built
    by :func:`laurent_entry`); the lower triangle is filled by conjugation.
    """
    for (r, c) in entries:
        if not (0 <= r <= c < dim):
            raise InvalidParameterError(f"entry index {(r, c)} out of range for dim {dim}")

    def fn(lam):
        out = np.zeros((lam.size, dim, dim), dtype=complex)
        for (r, c), e in entries.items():
            v = e(lam)
            out[:, r, c] += v
            if r != c:
                out[:, c, r] += np.conj(v)
        return out

    return fn


def density_data(value, n: int, dim: int, key: str) -> np.ndarray:
    """Density data as (n, dim, dim) grid samples, the one reader of densities.

    ``value`` is a number c (c times the identity), a dim x dim matrix (the
    same at every node), per-node (n, dim, dim) values, or a function of the
    shared grid nodes returning one of these.  Any other shape raises
    DataShapeError naming ``key``; a non-finite value raises
    SingularDensityError naming ``key`` and the first node where it occurs.
    """
    lam = _shared_nodes(n)
    arr = np.asarray(value(lam) if callable(value) else value)
    if arr.shape not in ((), (dim, dim), (n, dim, dim)):
        raise DataShapeError(key, f"expected a number, a {dim}x{dim} matrix or a "
                                  f"{n}x{dim}x{dim} per-node array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        node = np.argwhere(~np.isfinite(arr))[0][0] if arr.ndim == 3 else 0
        raise SingularDensityError(
            f"density '{key}' is non-finite at grid node lambda={lam[node]:.6f}", key)
    if arr.ndim == 3:
        return arr.astype(complex)
    mat = complex(arr) * np.eye(dim) if arr.ndim == 0 else arr.astype(complex)
    return np.broadcast_to(mat, (n, dim, dim)).copy()


# ---------------------------------------------------------------------------
# Fourier coefficients
# ---------------------------------------------------------------------------


@dataclass
class FourierTable:
    """Matrix Fourier coefficients c(k), |k| <= max_lag.

    data[k + max_lag] holds c(k) = (1/2pi) int f e^{-i k lambda} d lambda.
    ``data`` is float64 when the coefficients are real up to rounding (see
    ``lag_table``), complex128 otherwise.
    """

    max_lag: int
    data: np.ndarray  # (2*max_lag + 1, T, T)

    @property
    def dim(self) -> int:
        return self.data.shape[-1]

    def coeff(self, k: int) -> np.ndarray:
        if abs(k) > self.max_lag:
            raise InsufficientLagError(
                f"lag {k} outside table range +-{self.max_lag}"
            )
        return self.data[k + self.max_lag]


@dataclass
class GridTransform:
    """The FFT bins of n grid samples at lags |k| <= max_lag, unscaled.

    bins[k + max_lag] is bin k mod n; ``lag_table`` turns any lag range up to
    ``max_lag`` into a ``FourierTable``, so one transform serves many tables.
    """

    n: int
    max_lag: int
    bins: np.ndarray  # complex, (2*max_lag + 1, ...)


def grid_transform(samples: np.ndarray, max_lag: int) -> GridTransform:
    """The grid FFT of samples (standard grid layout assumed), kept at |k| <= max_lag.

    A grid of n nodes resolves lags up to n/4: this is the one refusal of a
    longer table (``InsufficientLagError``), naming the grid it needs if one is accepted.
    """
    n = samples.shape[0]
    if max_lag < 0:
        raise InvalidParameterError(f"max_lag must be >= 0, got {max_lag}")
    if 4 * max_lag > n:
        need = max(64, 1 << (4 * max_lag - 1).bit_length())
        raise InsufficientLagError(
            f"a grid of {n} nodes resolves lags up to {n // 4}, not {max_lag}; " + (
                f"lag {max_lag} needs at least {need} nodes" if need <= MAX_GRID_SIZE else
                f"no accepted grid resolves lag {max_lag}: the largest, {MAX_GRID_SIZE} "
                f"nodes, resolves lags up to {MAX_GRID_SIZE // 4}"))
    ks = np.arange(-max_lag, max_lag + 1)
    return GridTransform(n=n, max_lag=max_lag, bins=np.fft.fft(samples, axis=0)[ks % n])


def lag_table(transform: GridTransform, max_lag: int) -> FourierTable:
    """The Fourier coefficients c(k), |k| <= max_lag <= transform.max_lag, of its samples.

    The table is real (float64) when max|Im c(k)| <= REAL_TOL * max|Re c(k)|
    over the table, and complex128 otherwise.  The densities of a real
    process satisfy f(-lambda) = conj f(lambda), so their coefficients are
    real and the imaginary parts the FFT leaves are rounding, about 1e-17
    relative.  Dropping them lets every matrix built from the table, and every
    factorization of it, run in real arithmetic.  A complex process keeps its
    complex table.  The test reduces over the table, not over the grid, so a
    table depends only on the samples and its own ``max_lag``.
    """
    start = transform.max_lag - max_lag
    coeffs = transform.bins[start:start + 2 * max_lag + 1]
    if np.abs(coeffs.imag).max() <= REAL_TOL * np.abs(coeffs.real).max():
        coeffs = coeffs.real
    signs = np.where(np.arange(-max_lag, max_lag + 1) % 2 == 0, 1.0, -1.0)
    return FourierTable(max_lag=max_lag, data=signs[:, None, None] * (coeffs / transform.n))


def coeffs_from_samples(samples: np.ndarray, max_lag: int) -> FourierTable:
    """Fourier coefficients of grid samples: ``lag_table`` of their ``grid_transform``."""
    return lag_table(grid_transform(samples, max_lag), max_lag)


# ---------------------------------------------------------------------------
# Minimality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimalityReport:
    """A passed minimality check of an observation density.

    eig_max / eig_min is at most ``COND_CEILING``.  It is reported as
    ``cond_B``: B and the oracle's covariance are principal sections of block
    circulants whose eigenvalues are the grid samples of F_zeta^{-1} and
    F_zeta, so their 2-norm condition numbers are at most this ratio.
    """

    value: float          # (1/2pi) int trace(F_zeta^{-1})
    eig_max: float        # largest eigenvalue of F_zeta over all grid nodes
    eig_min: float        # smallest eigenvalue of F_zeta over all grid nodes


def check_minimality(model: SpectralModel) -> MinimalityReport:
    """Check that the observation density is invertible enough to estimate.

    The truth condition is integrability of trace(F_zeta^{-1}); numerically we
    require F_zeta to be nonsingular at every grid node, the spread
    eig_max / eig_min of its eigenvalues over the whole grid to stay at most
    ``COND_CEILING``, and the quadrature value to be finite.  A failure raises
    SingularDensityError naming the node (or, for the spread, the nodes of the
    two extremes).  The report is computed once per model; later calls return
    the same report.
    """
    if model._minimality is not None:
        return model._minimality
    eig = _eigvalsh(model.samples("Fz"))
    lam = model.lam
    # eigenvalues come in ascending order: the per-node extremes are the ends
    mineig, maxeig = eig[:, 0], eig[:, -1]
    top, bottom = int(np.argmax(maxeig)), int(np.argmin(mineig))
    eig_max, eig_min = float(maxeig[top]), float(mineig[bottom])
    floor = np.finfo(float).tiny * max(eig_max, 1.0)
    if eig_min <= floor:
        bad = int(np.argmax(mineig <= floor))
        raise SingularDensityError("minimality check failed: observation density "
                                   f"singular at lambda={lam[bad]:.6f}")
    if eig_max > COND_CEILING * eig_min:
        raise SingularDensityError(
            f"minimality check failed: condition number {eig_max / eig_min:.3e} exceeds "
            f"ceiling {COND_CEILING:.1e}: largest eigenvalue at lambda={lam[top]:.6f}, "
            f"smallest at lambda={lam[bottom]:.6f}")
    value = float(np.mean(np.sum(1.0 / eig, axis=1)))
    if not np.isfinite(value):
        raise SingularDensityError("minimality check failed: non-finite integral")
    model._minimality = MinimalityReport(value=value, eig_max=eig_max, eig_min=eig_min)
    return model._minimality

"""Operator equations determining the optimal extrapolation coefficients.

The unknown coefficient sequence c(j) lives on the index set
U_K = S union {0, ..., K}, where S is the set of missed negative indices and
K the truncation order of the future part.  The matrix B of the system
B c = r holds the Fourier coefficients of F_zeta^{-1} in blocks over U_K; the
functional enters only the right side r, which extrapolate.py forms.

Block convention: the matrix block at (row p, col q) is table.coeff(j_p - j_q).
The system builder feeds the table of the *transposed* integrand, which makes
the solved system exactly the coefficient-space form of the orthogonality
conditions (column layout).

Two solves share one interface.  Up to ``DENSE_MAX_ORDER`` unknowns B is
assembled and factored by Cholesky.  Above it B is never formed
(``SplitOperator``): its future block over {0..K} is block Toeplitz, so
B_FF [u V] = [r_F B_FS] is solved by conjugate gradients with FFT products,
preconditioned by the Toeplitz matrix of the inverse symbol F_zeta^T, and the
gap unknowns follow from the |S| T square Schur complement.  The projection
oracle solves its window covariance with the same ``ToeplitzProduct`` and
``pcg``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import (
    InsufficientLagError,
    InvalidParameterError,
    InvalidPatternError,
    NonInvertibleOperatorError,
)
from .spectral import FourierTable, SpectralModel, check_minimality, coeffs_from_samples


# The operator system holds a dense block row per missing point, so a pattern
# with more points could not even be stored; refusing it early also keeps
# ``points`` from being enumerated.
MAX_GAP_POINTS = 100_000

# The crossover of the operator solve.  Above this many unknowns it splits over
# the gap and the future and B is never formed; at or below it B is assembled
# and factored.  Every shipped example stays dense (P <= 198); the benchmark's
# estimates (P = 1030) split.
DENSE_MAX_ORDER = 512

# Conjugate gradients stop when every column's residual is at most
# ``CG_TOL`` of its right-hand side, and refuse after ``CG_MAX_ITERATIONS``.
CG_TOL = 1e-15
CG_MAX_ITERATIONS = 100


def _whole(value, pair) -> int:
    """An interval bound as an int; a fractional, boolean or non-numeric bound is refused."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise InvalidPatternError(f"interval {pair!r} has a bound that is not a whole number")


@dataclass(frozen=True)
class MissingPattern:
    """Union of missed-observation intervals in the negative integers.

    Each interval is a pair (M, N) with M >= 1, N >= 0 and covers
    {-M - N, ..., -M}.  Intervals must be pairwise disjoint; they are stored
    sorted by leftmost point so equal patterns compare equal.  ``points`` holds
    all missed indices, ascending.
    """

    intervals: tuple[tuple[int, int], ...] = ()
    points: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cleaned = []
        for pair in self.intervals:
            if len(pair) != 2:
                raise InvalidPatternError(f"interval {pair!r} is not an (M, N) pair")
            m, n = (_whole(v, pair) for v in pair)
            if m < 1 or n < 0:
                raise InvalidPatternError(
                    f"interval (M={m}, N={n}) must have M >= 1 and N >= 0"
                )
            cleaned.append((m, n))
        total = sum(n + 1 for _, n in cleaned)
        if total > MAX_GAP_POINTS:
            raise InvalidPatternError(
                f"pattern has {total} missing points; at most {MAX_GAP_POINTS} are supported"
            )
        cleaned.sort(key=lambda mn: -(mn[0] + mn[1]))
        # sorted by leftmost point, disjoint intervals each start right of
        # where the one before ends
        for (m, _), (m2, n2) in zip(cleaned, cleaned[1:]):
            if -m2 - n2 <= -m:
                raise InvalidPatternError(
                    f"interval (M={m2}, N={n2}) overlaps another interval"
                )
        object.__setattr__(self, "intervals", tuple(cleaned))
        object.__setattr__(self, "points",
                           tuple(j for m, n in cleaned for j in range(-m - n, -m + 1)))

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def max_depth(self) -> int:
        """max(M_l + N_l), i.e. how far back the deepest interval reaches."""
        return max((m + n for m, n in self.intervals), default=0)

    def observed_window(self, window: int) -> tuple[int, ...]:
        """Observed indices in {-window, ..., -1}, ascending."""
        # both sides hold distinct indices, so the set-difference needs no sort
        return tuple(np.setdiff1d(np.arange(-window, 0), self.points,
                                  assume_unique=True).tolist())


def assemble(table: FourierTable, rows: Sequence[int],
             cols: Sequence[int] | None = None) -> np.ndarray:
    """Block matrix with block (p, q) = table.coeff(rows[p] - cols[q]).

    ``cols`` defaults to ``rows``; each block is table.dim x table.dim.
    """
    rows = np.asarray(rows, dtype=int)
    cols = rows if cols is None else np.asarray(cols, dtype=int)
    lags = rows[:, None] - cols[None, :]
    worst = int(np.abs(lags).max(initial=0))
    if worst > table.max_lag:
        raise InsufficientLagError(
            f"assembly needs lag {worst} but table covers only +-{table.max_lag}"
        )
    blocks = table.data[lags + table.max_lag]  # (P, Q, T, T)
    T = table.dim
    return blocks.transpose(0, 2, 1, 3).reshape(len(rows) * T, len(cols) * T)


def _fast_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: an FFT length without a large prime factor.

    ``scipy.fft.next_fast_len(n, real=True)`` gives the same lengths, but
    importing ``scipy.fft`` adds about 5 MB to every run's resident memory.
    """
    best, five = 1 << (n - 1).bit_length(), 1
    while five < best:
        odd = five
        while odd < best:
            length = odd
            while length < n:
                length *= 2
            best, odd = min(best, length), odd * 3
        five *= 5
    return best


class ToeplitzProduct:
    """x -> ``assemble(table, range(size)) @ x`` without forming the matrix.

    One FFT convolution per call, at length ``_fast_length(2 size - 1)``:
    long enough that the lags p - q stay distinct, and never a slow prime
    length.  A real table keeps real FFTs; complex x then travels as its real
    and imaginary parts side by side.
    """

    def __init__(self, table: FourierTable, size: int):
        lags = np.arange(1 - size, size)
        self.size, self.dim = size, table.dim
        self.length = _fast_length(2 * size - 1)
        kernel = np.zeros((self.length, self.dim, self.dim), dtype=table.data.dtype)
        kernel[lags % self.length] = table.data[lags + table.max_lag]
        self.real = not np.iscomplexobj(kernel)
        self.symbol = (np.fft.rfft if self.real else np.fft.fft)(kernel, axis=0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The product with x of shape (size T, k)."""
        k = x.shape[1]
        if self.real and np.iscomplexobj(x):
            y = self(np.hstack((x.real, x.imag)))
            return y[:, :k] + 1j * y[:, k:]
        blocks = x.reshape(self.size, self.dim, k)
        if self.real:
            spectrum = np.fft.rfft(blocks, n=self.length, axis=0)
            y = np.fft.irfft(self.symbol @ spectrum, n=self.length, axis=0)
        else:
            spectrum = np.fft.fft(blocks, n=self.length, axis=0)
            y = np.fft.ifft(self.symbol @ spectrum, axis=0)
        return y[:self.size].reshape(self.size * self.dim, k)


def _column_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", x.conj(), y).real


def pcg(apply, precondition, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients, one system per column of b.

    ``apply`` and ``precondition`` map a (size, k) array to its product, such
    as a ``ToeplitzProduct`` of the matrix and of its inverse symbol's
    coefficients.  A column stops, and keeps its solution, once its residual
    is at most ``CG_TOL`` of its right-hand side, so the preconditioner moves
    the iteration count only.  Returns the solutions and the number of
    iterations the slowest column took; more than ``CG_MAX_ITERATIONS``
    raises ``NonInvertibleOperatorError``.
    """
    scale = np.linalg.norm(b, axis=0)
    target = CG_TOL * scale
    x, r = np.zeros_like(b), b.copy()
    active = scale > target   # a zero column is solved by zero
    if not active.any():
        return x, 0
    z = precondition(r)
    p, rz = z, _column_dot(r, z)
    for iteration in range(1, CG_MAX_ITERATIONS + 1):
        q = apply(p)
        alpha = np.divide(rz, _column_dot(p, q), out=np.zeros_like(rz), where=active)
        x = x + alpha * p
        r = r - alpha * q
        norms = np.linalg.norm(r, axis=0)
        active &= ~(norms <= target)   # a NaN residual never converges
        if not active.any():
            return x, iteration
        z = precondition(r)
        rz_next = _column_dot(r, z)
        p = z + np.divide(rz_next, rz, out=np.zeros_like(rz), where=active) * p
        rz = rz_next
    worst = float((norms[active] / scale[active]).max())
    raise NonInvertibleOperatorError(
        f"conjugate gradients not converged after {CG_MAX_ITERATIONS} iteration(s): "
        f"relative residual {worst:.3e}"
    )


class SplitOperator:
    """Bmat over U_K = S union {0..K}, above ``DENSE_MAX_ORDER``, never formed.

    It has the ``shape`` and ``dtype`` of B, and ``B @ x`` is B's product.
    The gap blocks B_SS and B_FS (|S| T columns) are assembled; the future
    block B_FF is block Toeplitz and applied by an FFT product.  ``solve``
    runs ``pcg`` on B_FF [u V] = [r_F B_FS], the preconditioner being the
    Toeplitz matrix of ``inverse_table`` (the coefficients of the inverse
    symbol), then factors the Schur complement B_SS - B_FS^H V and sets c_S
    from it and c_F = u - V c_S.
    """

    def __init__(self, table: FourierTable, inverse_table: FourierTable,
                 gap: Sequence[int], K: int):
        future = np.arange(K + 1)
        self.table, self.inverse_table = table, inverse_table
        self.gap = np.asarray(gap, dtype=int)
        self.B_SS = assemble(table, self.gap)
        self.B_FS = assemble(table, future, self.gap)
        self.future = ToeplitzProduct(table, K + 1)
        order = (self.gap.size + K + 1) * table.dim
        self.shape, self.dtype = (order, order), table.data.dtype

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """B x for x of shape (P,) or (P, k)."""
        x = np.asarray(x)
        cols = x.reshape(x.shape[0], -1)
        s = self.B_SS.shape[0]
        x_S, x_F = cols[:s], cols[s:]
        y = np.concatenate((self.B_SS @ x_S + self.B_FS.conj().T @ x_F,
                            self.B_FS @ x_S + self.future(x_F)))
        return y.reshape(x.shape)

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, int]:
        """B^{-1} rhs and the conjugate-gradient iterations it took."""
        s = self.B_SS.shape[0]
        uv, iterations = pcg(self.future, ToeplitzProduct(self.inverse_table, self.future.size),
                             np.column_stack((rhs[s:], self.B_FS)))
        u, V = uv[:, 0], uv[:, 1:]
        if not s:
            return u, iterations
        schur = cholesky_solver(self.B_SS - self.B_FS.conj().T @ V,
                                NonInvertibleOperatorError, "gap Schur complement")
        c_S = schur(rhs[:s] - self.B_FS.conj().T @ u)
        return np.concatenate((c_S, u - V @ c_S)), iterations


@dataclass
class OperatorSystem:
    """The operator matrix over U_K, P = |U_K| T unknowns.

    Bmat (P x P) is Hermitian positive definite whenever the minimality check
    passes, with a 2-norm condition number of at most the report's
    eig_max / eig_min; above ``DENSE_MAX_ORDER`` it is a ``SplitOperator``,
    which applies B without forming it; real for a real process, complex
    otherwise.  entries lists U_K in block order (gap points ascending, then
    0..K); Zinv (the model's ``samples("Fzinv")``) is the sample B is built from.
    """

    Bmat: np.ndarray | SplitOperator
    entries: np.ndarray
    Zinv: np.ndarray


def build_operator_system(model: SpectralModel, pattern: MissingPattern,
                          K: int) -> OperatorSystem:
    """Build the operator matrix for ``model`` truncated at future order K >= 0.

    The Fourier tables are computed from the model's grid samples at the lags
    U_K couples, up to K + max interval depth.  ``coeffs_from_samples``
    refuses a grid of fewer than 4 (K + depth) nodes before any table is
    read; a grid that passes also keeps the lags of U_K distinct modulo its
    size, so Bmat is a principal section of the block circulant of the grid
    samples, which the minimality check's condition bound relies on.
    """
    if K < 0:
        raise InvalidParameterError(f"truncation K must be >= 0, got {K}")
    check_minimality(model)
    need = K + pattern.max_depth
    Zinv = model.samples("Fzinv")

    def table(samples: np.ndarray) -> FourierTable:
        # the transposed integrand: the column layout of the orthogonality conditions
        return coeffs_from_samples(np.swapaxes(samples, -1, -2), need)

    zinv_table = table(Zinv)   # refuses a K the grid cannot resolve before U_K is formed
    entries = np.concatenate((np.asarray(pattern.points, dtype=int), np.arange(K + 1)))
    if entries.size * model.dim > DENSE_MAX_ORDER:
        Bmat = SplitOperator(zinv_table, table(model.samples("Fz")), pattern.points, K)
    else:
        Bmat = assemble(zinv_table, entries)
    return OperatorSystem(Bmat=Bmat, entries=entries, Zinv=Zinv)


def cholesky_solver(matrix: np.ndarray, error: type[Exception], name: str):
    """``solve(b)`` = matrix^{-1} b for a Hermitian positive definite ``matrix``.

    One LAPACK ``?potrf`` (upper triangle), then one ``?potrs`` per solve: the
    calls ``scipy.linalg.cho_factor``/``cho_solve`` make, without their checks.
    A real matrix and b take ``dpotrf``/``dpotrs``, complex ones the ``z``
    routines.  A non-finite matrix or a failed factorization raises ``error``
    with the matrix's ``name``.
    """
    if not np.all(np.isfinite(matrix)):
        raise error(f"{name} has non-finite entries")
    potrf, = scipy.linalg.get_lapack_funcs(("potrf",), (matrix,))
    factor, info = potrf(matrix, lower=0, clean=0)
    if info != 0:
        raise error(f"{name} is not positive definite (?potrf info {info})")

    def solve(b: np.ndarray) -> np.ndarray:
        potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (factor, b))
        x, info = potrs(factor, b, lower=0)
        if info != 0:
            raise error(f"?potrs refused its arguments (info {info})")
        return x

    return solve


@dataclass(frozen=True)
class CoefficientSolution:
    """Solution of the operator system and its relative solve residual.

    ``cg_iterations`` counts the conjugate-gradient iterations of a
    ``SplitOperator`` solve, 0 for a dense one.
    """

    c: np.ndarray
    residual: float
    cg_iterations: int = 0


def solve_coefficients(system: OperatorSystem, rhs: np.ndarray) -> CoefficientSolution:
    """Solve Bmat c = rhs and report the relative residual of the full system.

    ``rhs`` holds one value per unknown: the coefficients at U_K of the row
    A^T (F + F_xe) F_zeta^{-1}.  A dense Bmat is factored by Cholesky, with one
    refinement step; a ``SplitOperator`` is solved by its own ``solve``.
    Conditioning is judged once per model, by ``check_minimality`` when the
    system is built; here ``cholesky_solver`` refuses a non-finite or
    indefinite matrix and ``pcg`` one that does not converge.
    """
    rhs = np.asarray(rhs)
    B = system.Bmat
    if rhs.shape != B.shape[:1]:
        raise InvalidParameterError(f"right side has shape {rhs.shape}, expected {B.shape[:1]}")
    if isinstance(B, SplitOperator):
        c, iterations = B.solve(rhs)
    else:
        solve = cholesky_solver(B, NonInvertibleOperatorError, "operator matrix")
        c = solve(rhs)
        # one step of iterative refinement
        c = c + solve(rhs - B @ c)
        iterations = 0
    resid = rhs - B @ c
    denom = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
    return CoefficientSolution(c=c, residual=float(np.linalg.norm(resid)) / denom,
                               cg_iterations=iterations)

"""Operator equations determining the optimal extrapolation coefficients.

The unknown coefficient sequence c(j) lives on the index set
U_K = S union {0, ..., K}, where S is the set of missed negative indices and
K the truncation order of the future part.  The linear system couples Fourier
coefficient tables of functions of the observation density through block
matrices indexed by U_K.

Block convention: the matrix block at (row p, col q) is table.coeff(j_p - j_q).
The system builder feeds tables of the *transposed* integrands, which makes
the solved system exactly the coefficient-space form of the orthogonality
conditions (column layout; see extrapolate.py).
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
    SingularDensityError,
)
from .spectral import (
    COND_CEILING,
    FourierTable,
    SpectralModel,
    check_minimality,
    coeffs_from_samples,
)


# The operator system holds a dense block row per missing point, so a pattern
# with more points could not even be stored; refusing it early also keeps
# ``points`` from being enumerated.
MAX_GAP_POINTS = 100_000


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


@dataclass
class OperatorSystem:
    """Assembled operator matrices over U_K, P = |U_K| T unknowns.

    Bmat (P x P) is Hermitian positive definite whenever the minimality check
    passes.  Rmat (P x (N+1) T) carries the signal-vs-observation coupling and
    Qmat ((N+1) T square) the quadratic remainder of the mean-square error;
    their columns cover only the functional's indices 0..N.  Each matrix takes
    the dtype of the Fourier table it is assembled from (the noiseless
    identity Rmat and zero Qmat take Bmat's): real for a real process, complex
    otherwise.  entries lists U_K in block order (gap points ascending, then
    0..K).  Zinv (F_zeta^{-1}) and X (F + F_xe) are the grid samples the
    matrices were built from; eig_max is the largest eigenvalue of F_zeta over
    the grid.
    """

    Bmat: np.ndarray
    Rmat: np.ndarray
    Qmat: np.ndarray
    entries: np.ndarray
    Zinv: np.ndarray
    X: np.ndarray
    eig_max: float


def _transposed(samples: np.ndarray) -> np.ndarray:
    return np.swapaxes(samples, -1, -2)


def _inverse(samples: np.ndarray) -> np.ndarray:
    """Per-node inverse of (n, T, T) samples; 1 x 1 blocks take a reciprocal.

    On real-valued 1 x 1 samples the reciprocal is bit-equal to
    ``np.linalg.inv``, at a fraction of its per-call cost.
    """
    if samples.shape[-1] == 1:
        return 1.0 / samples
    return np.linalg.inv(samples)


def build_operator_system(model: SpectralModel, pattern: MissingPattern,
                          K: int, horizon: int = 0) -> OperatorSystem:
    """Build the operator system for ``model`` truncated at future order K.

    ``horizon`` is the last index N of the functional, 0 <= N <= K.  The
    Fourier tables are computed from the model's grid samples; their lag
    range is 4 * (K + max interval depth), clamped to what the grid supports
    (at least the assembly requirement K + max depth).  That keeps every lag
    of U_K distinct modulo the grid size, which the eigenvalue bound on Bmat
    relies on.
    """
    if not 0 <= horizon <= K:
        raise InvalidParameterError(
            f"functional horizon must lie in 0..K={K}, got {horizon}"
        )
    report = check_minimality(model)
    if not report.passed:
        raise SingularDensityError(
            f"minimality check failed: {report.note or 'non-finite integral'}"
        )
    need = K + pattern.max_depth
    max_lag = min(4 * max(need, 1), model.grid_size // 4)
    if max_lag < need:
        raise InsufficientLagError(
            f"max_lag {max_lag} cannot cover assembly lag {need}; "
            f"enlarge the grid or reduce K"
        )

    entries = np.concatenate((np.asarray(pattern.points, dtype=int), np.arange(K + 1)))
    future = np.arange(horizon + 1)
    try:
        Zinv = _inverse(model.samples("Fz"))
    except np.linalg.LinAlgError as exc:
        raise SingularDensityError(f"observation density not invertible: {exc}") from exc
    X = model.samples("F") + model.samples("Fxe")

    def block(samples: np.ndarray, rows, cols=None) -> np.ndarray:
        return assemble(coeffs_from_samples(_transposed(samples), max_lag), rows, cols)

    Bmat = block(Zinv, entries)
    if model.is_noiseless:
        T = model.dim
        # the identity's columns of 0..N, which follow the |S| gap blocks
        Rmat = np.eye(len(entries) * T, future.size * T, k=-pattern.size * T,
                      dtype=Bmat.dtype)
        Qmat = np.zeros((future.size * T,) * 2, dtype=Bmat.dtype)
    else:
        XZinv = X @ Zinv
        Rmat = block(XZinv, entries, future)
        Qmat = block(model.samples("F") - XZinv @ np.conj(_transposed(X)), future)

    return OperatorSystem(Bmat=Bmat, Rmat=Rmat, Qmat=Qmat, entries=entries,
                          Zinv=Zinv, X=X, eig_max=report.eig_max)


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

    ``cond_B`` is the conditioning bound U = ||B||_1 sqrt(P) eig_max of the
    P x P Bmat.  B is a principal submatrix of the block circulant whose
    eigenvalues are those of F_zeta^{-1} at the grid nodes, so
    ||B^{-1}||_1 <= sqrt(P) ||B^{-1}||_2 <= sqrt(P) eig_max: U is never below
    the 1-norm condition number ||B||_1 ||B^{-1}||_1, nor below the 2-norm one.
    """

    c: np.ndarray
    residual: float
    cond_B: float


def solve_coefficients(system: OperatorSystem, a_vec: np.ndarray) -> CoefficientSolution:
    """Solve Bmat c = Rmat a by Cholesky factorization with one refinement step.

    ``a_vec`` holds a(0..N) flattened, (N+1) T values, one per column of Rmat.
    The conditioning bound ``cond_B`` (see ``CoefficientSolution``) must not
    exceed ``COND_CEILING``; it is checked before the factorization by
    ``cholesky_solver``, and refuses a non-finite Bmat.
    """
    a_vec = np.asarray(a_vec)
    B = system.Bmat
    if a_vec.shape != system.Rmat.shape[1:]:
        raise InvalidParameterError(
            f"functional vector has shape {a_vec.shape}, expected {system.Rmat.shape[1:]}"
        )
    cond = float(np.linalg.norm(B, 1) * np.sqrt(B.shape[0]) * system.eig_max)
    if not np.isfinite(cond) or cond > COND_CEILING:
        raise NonInvertibleOperatorError(
            f"operator condition number bound {cond:.3e} exceeds ceiling {COND_CEILING:.1e}"
        )
    solve = cholesky_solver(B, NonInvertibleOperatorError, "operator matrix")
    rhs = system.Rmat @ a_vec
    c = solve(rhs)
    # one step of iterative refinement
    resid = rhs - B @ c
    c = c + solve(resid)
    resid = rhs - B @ c
    denom = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
    return CoefficientSolution(c=c, residual=float(np.linalg.norm(resid)) / denom,
                               cond_B=cond)


"""Mean-square optimal extrapolation of linear functionals.

Estimates sum_j a(j)^T xi(j), j = 0..N, from noisy observations
xi(j) + eta(j) available at all negative times except a union of missed
intervals.  The optimal estimate is characterized in the frequency domain by

    h^T(lambda) = [A^T (F + F_xe) - C^T] F_zeta^{-1},

where A is the generating function of the functional, F_zeta the observation
density and C the generating function of coefficients supported on
U_K = S union {0..K}, determined by the operator system of operators.py.
The functional enters only as its per-node row A^T (F + F_xe), whose Fourier
coefficients (times F_zeta^{-1}) are the system's right side.

The mean-square error is computed twice: from the operator inner-product form
and by direct quadrature of the error integral; their agreement is reported
and is part of the library's self-checks.  ``optimal_delta`` returns the
operator-form error alone, without the characteristic or the diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError
from .operators import (
    MissingPattern,
    OperatorSystem,
    build_operator_system,
    solve_coefficients,
)
from .spectral import (
    SpectralModel,
    check_minimality,
    coeffs_from_samples,
    trig_poly_on_grid,
)


@dataclass(frozen=True)
class FunctionalSpec:
    """Finite linear functional sum_{j=0}^{N} a(j)^T xi(j).

    ``coeffs`` has shape (N+1, T); row j is a(j).  Real input is stored as
    float64 and complex input as complex128, so a real functional on a real
    process keeps the whole solve in real arithmetic.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.coeffs))
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidParameterError("functional coefficients must be (N+1, T)")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("functional coefficients must be finite")
        object.__setattr__(self, "coeffs",
                           arr.astype(complex if np.iscomplexobj(arr) else float))

    @property
    def horizon(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def a_on_grid(self, n: int) -> np.ndarray:
        """A(e^{i lambda}) = sum_j a(j) e^{i j lambda} at the n grid nodes, shape (n, T)."""
        return trig_poly_on_grid(np.arange(self.horizon + 1), self.coeffs, n)


@dataclass
class EstimateDiagnostics:
    """Numerical health report attached to every estimate, in the summary's order.

    ``cond_B`` is the spread eig_max / eig_min of F_zeta over the grid, an
    upper bound on the 2-norm condition number of the operator matrix B.
    ``gap_coeff_max`` is h's largest coefficient on U_K against a's largest;
    ``orthogonality_max`` vanishes by construction and checks only F_zeta^{-1}.
    """

    delta_operator: float
    delta_quadrature: float
    two_form_rel_diff: float
    truncation: int
    grid_size: int
    max_lag: int
    cond_B: float
    solve_residual: float
    cg_iterations: int
    gap_coeff_max: float
    orthogonality_max: float
    tap_tail_mass: float
    minimality_value: float


@dataclass
class EstimateResult:
    """Optimal-extrapolation output: coefficients, characteristic, taps, error."""

    c: dict[int, np.ndarray]
    lam: np.ndarray
    h_grid: np.ndarray           # h(lambda) as column vectors, shape (n, T)
    taps: dict[int, np.ndarray]
    delta: float
    diagnostics: EstimateDiagnostics
    system: OperatorSystem = field(repr=False, default=None)


def default_truncation(model: SpectralModel, functional: FunctionalSpec) -> int:
    """Default future truncation order K.

    Uses the model's largest pole modulus rho when known:
    K = N + 8 * max(1, ceil(1/(1-rho))); otherwise K = N + 64.
    """
    N = functional.horizon
    rho = model.pole_modulus
    if rho is None:
        return N + 64
    rho = min(max(float(rho), 0.0), 0.999999)
    return N + 8 * max(1, math.ceil(1.0 / (1.0 - rho)))


def _functional_rows(model: SpectralModel, functional: FunctionalSpec):
    """A and AX = A^T (F + F_xe) on the model's grid, each as (n, T) rows: AX
    is the one way the functional reaches a solve, here and in the oracle."""
    A = functional.a_on_grid(model.grid_size)
    return A, np.einsum("nt,ntu->nu", A, model.samples("F") + model.samples("Fxe"))


def _right_side(model: SpectralModel, pattern: MissingPattern, functional: FunctionalSpec,
                system: OperatorSystem, rows) -> tuple[np.ndarray, complex]:
    """The right side r, the coefficients at U_K of the row AX F_zeta^{-1} in the
    dtype of B and a together, and the error's quadratic term
    mean(A^T F conj(A) - AX F_zeta^{-1} conj(AX)^T).  Without noise the row is
    A^T: r is a in the slots of 0..N, exactly, and the term 0."""
    A, AX = rows
    a_vec = functional.coeffs.ravel()
    dtype = np.result_type(system.Bmat.dtype, a_vec.dtype)
    if model.is_noiseless:
        rhs = np.zeros(system.Bmat.shape[0], dtype=dtype)
        rhs[pattern.size * model.dim:][:a_vec.size] = a_vec   # after the gap blocks
        return rhs, 0.0
    row = np.einsum("nt,ntu->nu", AX, system.Zinv)
    lag = system.entries[-1] + pattern.max_depth
    rhs = coeffs_from_samples(row[:, :, None], lag).data[system.entries + lag, :, 0].ravel()
    quadratic = np.mean(np.einsum("nt,ntu,nu->n", A, model.samples("F"), A.conj())
                        - np.einsum("nu,nu->n", row, AX.conj()))
    return (rhs.astype(dtype) if dtype.kind == "c" else rhs.real), quadratic


def _operator_route(model: SpectralModel, pattern: MissingPattern,
                    functional: FunctionalSpec, K: int | None):
    """Solve the operator system; delta_op = Re(c^H r) + the quadratic term.

    A value below -1e-8 is refused.  Returns the truncation used, the system,
    its solution, delta_op and the rows (A, AX): the one formula for the
    error, shared by ``estimate`` and ``optimal_delta``.
    """
    if functional.dim != model.dim:
        raise InvalidParameterError(
            f"functional dimension {functional.dim} does not match model dim {model.dim}"
        )
    if K is None:
        K = default_truncation(model, functional)
    if not 0 <= functional.horizon <= K:
        raise InvalidParameterError(f"functional horizon must lie in 0..K={K}, "
                                    f"got {functional.horizon}")
    system = build_operator_system(model, pattern, K)
    rows = _functional_rows(model, functional)
    rhs, quadratic = _right_side(model, pattern, functional, system, rows)
    sol = solve_coefficients(system, rhs)
    delta_op = float((np.vdot(sol.c, rhs) + quadratic).real)
    if delta_op < -1e-8:
        raise InternalConsistencyError(
            f"mean-square error came out negative ({delta_op:.3e})"
        )
    return K, system, sol, delta_op, rows


def optimal_delta(model: SpectralModel, pattern: MissingPattern,
                  functional: FunctionalSpec, K: int | None = None) -> float:
    """The minimal mean-square error alone: ``estimate(...).delta``, bit for bit.

    Runs only the operator route (system, solve, inner-product form); no
    characteristic, taps or diagnostics.  For callers that score many models,
    such as the least-favorable search.
    """
    return max(_operator_route(model, pattern, functional, K)[3], 0.0)


def estimate(model: SpectralModel, pattern: MissingPattern,
             functional: FunctionalSpec, K: int | None = None) -> EstimateResult:
    """Full optimal-extrapolation pipeline; see module docstring.

    The filter taps are read off the spectral characteristic over the observed
    past of length 4K (at most a quarter of the grid); the tail mass beyond it is
    reported in the diagnostics.
    """
    K, system, sol, delta_op, (A_row, AX) = _operator_route(model, pattern, functional, K)
    report = check_minimality(model)   # the cached report the system was built under
    taps_window = 4 * max(K, 1)
    entries = system.entries
    n, d = model.grid_size, model.dim

    lam = model.lam
    c_blocks = sol.c.reshape(len(entries), d)

    C_row = trig_poly_on_grid(entries, c_blocks, n)       # (n, T), C^T rows
    # h^T = (A^T X - C^T) Z^{-1}, rows evaluated per node
    h_row = np.einsum("nt,ntu->nu", AX - C_row, system.Zinv)

    # --- mean-square error: second route by quadrature ------------------
    delta_quad = filter_error(model, A_row - h_row, h_row)
    scale = max(abs(delta_op), abs(delta_quad))
    two_form = abs(delta_op - delta_quad) / scale if scale else 0.0
    delta = max(delta_op, 0.0)

    # --- diagnostics ---------------------------------------------------
    check_lag = min(n // 4, max(taps_window, K + pattern.max_depth + 8))
    h_table = coeffs_from_samples(h_row[:, :, None], check_lag)
    coeff_norms = np.linalg.norm(h_table.data[:, :, 0], axis=1)  # by lag
    # against a's largest coefficient: h is linear in a and free of the
    # densities' units, and its own largest may be rounding noise (h = 0)
    a_scale = np.linalg.norm(functional.coeffs, axis=1).max()
    gap_max = float(coeff_norms[entries + check_lag].max() / max(a_scale, np.finfo(float).tiny))

    ort_row = AX - np.einsum("nt,ntu->nu", h_row, model.samples("Fz"))
    ort_table = coeffs_from_samples(ort_row[:, :, None], check_lag)
    ort_norms = np.linalg.norm(ort_table.data[:, :, 0], axis=1)
    observed = np.asarray(pattern.observed_window(check_lag), dtype=int)
    # relative to the residual's largest coefficient, so free of the units
    ort_scale = float(ort_norms.max())
    ort_max = float(ort_norms[observed + check_lag].max(initial=0.0))
    ort_max = ort_max / ort_scale if ort_scale else 0.0

    tap_lags = observed[observed >= -taps_window]
    taps = dict(zip(tap_lags.tolist(), h_table.data[tap_lags + check_lag, :, 0]))
    total_mass = float(np.sum(coeff_norms ** 2))
    unused = np.ones(coeff_norms.size, dtype=bool)
    unused[tap_lags + check_lag] = False
    unused[entries + check_lag] = False
    tail_mass = float(np.sum(coeff_norms[unused] ** 2))
    tail_rel = tail_mass / max(total_mass, np.finfo(float).tiny)

    diags = EstimateDiagnostics(
        truncation=K, grid_size=n, max_lag=h_table.max_lag,
        cond_B=report.eig_max / report.eig_min,
        solve_residual=sol.residual, cg_iterations=sol.cg_iterations,
        delta_operator=delta_op, delta_quadrature=delta_quad,
        two_form_rel_diff=two_form, gap_coeff_max=gap_max,
        orthogonality_max=ort_max, tap_tail_mass=tail_rel,
        minimality_value=report.value,
    )

    return EstimateResult(
        c=dict(zip(entries.tolist(), c_blocks)), lam=lam, h_grid=h_row, taps=taps,
        delta=delta, diagnostics=diags, system=system,
    )


def delta_of_characteristic(model: SpectralModel, functional: FunctionalSpec,
                            h_grid: np.ndarray) -> float:
    """Mean-square error of an arbitrary admissible characteristic h.

    Direct quadrature of
    (1/2pi) int (A-h)^T F conj(A-h) + h^T G conj(h)
                - (A-h)^T F_xe conj(h) - h^T F_ex conj(A-h) d lambda,
    for any h on the model's grid; ``estimate`` takes its second route from
    the same quadrature, ``filter_error``, on the rows it already holds.
    """
    lam = model.lam
    if h_grid.shape != (lam.size, model.dim):
        raise InvalidParameterError(
            f"characteristic grid has shape {h_grid.shape}, "
            f"expected {(lam.size, model.dim)}"
        )
    return filter_error(model, functional.a_on_grid(lam.size) - h_grid, h_grid)


def filter_error(model: SpectralModel, r: np.ndarray, h_grid: np.ndarray) -> float:
    """The quadrature of ``delta_of_characteristic`` for a formed r = A - h.

    A caller that scores one fixed h under many models forms r once; both
    arrays must have shape (n, T) on the model's grid.
    """
    def form(row_l, dens, row_r):
        return np.einsum("nt,ntu,nu->n", row_l, model.samples(dens), np.conj(row_r))

    vals = form(r, "F", r) + form(h_grid, "G", h_grid)
    if not model.is_uncorrelated:
        vals = vals - form(r, "Fxe", h_grid) - form(h_grid, "Fex", r)
    return float(np.mean(vals).real)

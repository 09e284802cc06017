"""Tests for patterns, the U_K layout, operator assembly, and the worked
two-component benchmark whose operator blocks and factorized inverse are
known in closed form.
"""

import functools
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

import gapcast.extrapolate as extrapolate_module
import gapcast.operators as operators_module
import gapcast.oracle as oracle_module
from gapcast import (
    FourierTable,
    MissingPattern,
    FunctionalSpec,
    ar1_model,
    build_operator_system,
    estimate,
    make_ar1_pair,
    optimal_delta,
    projection_oracle,
    solve_coefficients,
    white_model,
)
from gapcast.config import build_functional, build_model, build_pattern, load_config
from gapcast.operators import (
    DENSE_MAX_ORDER,
    MAX_GAP_POINTS,
    OperatorSystem,
    SplitOperator,
    ToeplitzProduct,
    _fast_length,
    assemble,
    cholesky_solver,
    section,
)
from gapcast.spectral import (
    SpectralModel,
    check_minimality,
    coeffs_from_samples,
    ma_pair_model,
)
from gapcast.errors import (
    InsufficientLagError,
    InvalidParameterError,
    InvalidPatternError,
    NonInvertibleOperatorError,
    SingularDensityError,
)
from example1_factors import example1_psi, example1_theta, factorized_inverse_check
from test_extrapolate import _random_instance
from test_minimax import GOLDEN_GRID, HI, HI_G, LO, LO_G, _clipped_density, _fixed


# ---------------------------------------------------------------------------
# missing patterns and the U_K layout
# ---------------------------------------------------------------------------


def test_interval_coverage():
    pat = MissingPattern(intervals=((2, 1),))
    assert pat.points == (-3, -2)
    assert pat.size == 2
    assert pat.max_depth == 3
    assert pat.observed_window(5) == (-5, -4, -1)


def test_interval_union_and_window():
    pat = MissingPattern(intervals=((1, 0), (4, 1)))
    assert pat.points == (-5, -4, -1)
    assert pat.observed_window(6) == (-6, -3, -2)


def test_empty_pattern():
    pat = MissingPattern(intervals=())
    assert pat.points == ()
    assert pat.max_depth == 0
    assert pat.observed_window(3) == (-3, -2, -1)


def test_pattern_validation():
    with pytest.raises(InvalidPatternError):
        MissingPattern(intervals=((0, 2),))          # M must be >= 1
    with pytest.raises(InvalidPatternError):
        MissingPattern(intervals=((1, -1),))         # N must be >= 0
    with pytest.raises(InvalidPatternError):
        MissingPattern(intervals=((2, 1), (3, 0)))   # {-3,-2} overlaps {-3}
    with pytest.raises(InvalidPatternError):
        MissingPattern(intervals=((3, 0), (1, 5)))   # {-6..-1} contains {-3}
    assert MissingPattern(intervals=((1, 0), (2, 0))).points == (-2, -1)  # adjacent
    with pytest.raises(InvalidPatternError):
        MissingPattern(intervals=((1, 0, 0),))       # not a pair


def test_pattern_refuses_fractional_bounds():
    for bad in (((2.7, 1.9),), ((2, 0.5),), ((True, 0),), (("2", 0),)):
        with pytest.raises(InvalidPatternError):
            MissingPattern(intervals=bad)
    for two in (2, 2.0, np.int64(2), np.float64(2.0)):
        pat = MissingPattern(intervals=((two, 1),))
        assert pat.intervals == ((2, 1),)
        assert all(type(b) is int for b in pat.intervals[0])


def test_pattern_refuses_more_points_than_supported():
    # counted from the bounds, before any point is enumerated
    assert MissingPattern(intervals=((1, MAX_GAP_POINTS - 1),)).size == MAX_GAP_POINTS
    for bad in (((1, MAX_GAP_POINTS),), ((1, 0), (3, MAX_GAP_POINTS - 1)), ((2, 10 ** 22),)):
        with pytest.raises(InvalidPatternError, match="missing points"):
            MissingPattern(intervals=bad)


def test_equal_patterns_compare_equal():
    a = MissingPattern(intervals=((1, 0), (4, 1)))
    b = MissingPattern(intervals=((4, 1), (1, 0)))
    assert a == b


def test_operator_system_entries():
    # U_K = S union {0..K}: gap points first, then the future segment
    model = white_model(2, grid_size=256)
    sys = build_operator_system(model, MissingPattern(intervals=((2, 0),)), K=2)
    assert sys.entries.tolist() == [-2, 0, 1, 2]
    assert sys.Bmat.shape == (8, 8)


def test_operator_system_rejects_negative_truncation():
    with pytest.raises(InvalidParameterError):
        build_operator_system(white_model(1, grid_size=256), MissingPattern(), K=-1)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assemble_places_lag_blocks():
    # Table with distinguishable coefficients c(k) = (k + 10) * I.
    max_lag = 4
    data = np.stack([(k + 10.0) * np.eye(1)
                     for k in range(-max_lag, max_lag + 1)])
    table = FourierTable(max_lag=max_lag, data=data.astype(complex))
    entries = (-2, 0, 1, 2)
    mat = assemble(table, entries)
    for p, jp in enumerate(entries):
        for q, jq in enumerate(entries):
            assert mat[p, q] == pytest.approx(jp - jq + 10.0)
    # rectangular: rows and columns on different index sets, 2 x 2 blocks
    table2 = FourierTable(max_lag=max_lag, data=np.einsum("k,ij->kij", data[:, 0, 0],
                                                          [[1.0, 2.0], [3.0, 4.0]]))
    rows, cols = (-2, -1), (0, 1, 2)
    rect = assemble(table2, rows, cols)
    assert rect.shape == (4, 6)
    for p, jp in enumerate(rows):
        for q, jq in enumerate(cols):
            assert np.array_equal(rect[2 * p:2 * p + 2, 2 * q:2 * q + 2],
                                  table2.coeff(jp - jq))
    with pytest.raises(InsufficientLagError):
        assemble(table2, (-3,), (2,))          # lag -5 beyond +-4
    # the FFT product refuses the same way: size 6 reads lags up to 5
    assert ToeplitzProduct(table2, 5).size == 5
    with pytest.raises(InsufficientLagError,
                       match=r"^a product of size 6 needs lag 5 but table covers only \+-4$"):
        ToeplitzProduct(table2, 6)


def test_estimate_lays_out_functional_after_gaps():
    # On a flat noiseless density Bmat is the identity and the right side is
    # a itself, so the solved coefficients are the layout of a: entries
    # (-3, 0, 1, 2), the functional rows land on 0..N and the gap and tail
    # blocks stay zero.
    model = white_model(2, grid_size=256)
    pattern = MissingPattern(intervals=((3, 0),))
    res = estimate(model, pattern, FunctionalSpec(coeffs=[[1.0, 2.0], [3.0, 4.0]]), K=2)
    assert list(res.c) == [-3, 0, 1, 2]
    assert np.allclose(np.concatenate(list(res.c.values())), [0, 0, 1, 2, 3, 4, 0, 0])
    with pytest.raises(InvalidParameterError):
        estimate(model, pattern, FunctionalSpec(coeffs=np.zeros((4, 2))), K=2)  # N=3 > K


# ---------------------------------------------------------------------------
# worked benchmark: paired AR(1) components, gap {-3, -2}
# ---------------------------------------------------------------------------


def _benchmark_system(b1, b2, K=8, grid_size=512):
    model = make_ar1_pair(b1, b2, grid_size=grid_size)
    pattern = MissingPattern(intervals=((2, 1),))
    return build_operator_system(model, pattern, K=K)


@pytest.mark.parametrize("b1,b2", [(0.5, 0.3), (-0.4, 0.6)])
def test_benchmark_known_blocks(b1, b2):
    # The inverse signal density has the lag-0 and lag-1 coefficients
    #   B0 = [[2 + b1^2 + b2^2, -1 - b2^2], [-1 - b2^2, 1 + b2^2]]
    #   B1 = [[-b1 - b2, b2], [b2, -b2]]
    # and vanishes beyond lag 1.
    sys = _benchmark_system(b1, b2)
    assert sys.entries.tolist()[:3] == [-3, -2, 0]   # block p starts at row 2 p
    B0 = np.array([[2 + b1 ** 2 + b2 ** 2, -1 - b2 ** 2],
                   [-1 - b2 ** 2, 1 + b2 ** 2]])
    B1 = np.array([[-b1 - b2, b2], [b2, -b2]])
    p0, p1, pg = 4, 6, 0
    got0 = sys.Bmat[p0:p0 + 2, p0:p0 + 2]
    got1 = sys.Bmat[p1:p1 + 2, p0:p0 + 2]   # rows at lag 1, cols at lag 0
    assert np.allclose(got0, B0, atol=1e-10)
    assert np.allclose(got1, B1, atol=1e-10)
    # beyond lag 1 the blocks vanish: entries (-3) vs (0) sit at lag 3
    assert np.abs(sys.Bmat[pg:pg + 2, p0:p0 + 2]).max() < 1e-10


def test_benchmark_factorized_inverse_frozen_entries():
    b1, b2 = 0.5, 0.3
    want = {
        (0, 0): np.array([[1.0, 1.0], [1.0, 2.0]]),
        (0, 1): np.array([[b1, b1], [b1, b1 + b2]]),
        (1, 1): np.array([[1 + b1 ** 2, 1 + b1 ** 2],
                          [1 + b1 ** 2, 2 + b1 ** 2 + b2 ** 2]]),
    }
    for (i, j), w in want.items():
        assert np.allclose(factorized_inverse_check(b1, b2, i, j), w, atol=1e-12)


def test_benchmark_triangular_factors_invert_each_other():
    # The lower-triangular factor coefficients convolve to the identity:
    # sum_l psi(l) theta(j - l) = I for j = 0 and 0 for j >= 1.
    b1, b2 = 0.47, -0.29
    for j in range(6):
        acc = sum(example1_psi(l, b1, b2) @ example1_theta(j - l, b1, b2)
                  for l in range(j + 1))
        want = np.eye(2) if j == 0 else np.zeros((2, 2))
        assert np.allclose(acc, want, atol=1e-12)


@pytest.mark.parametrize("b1,b2", [(0.3, 0.6), (-0.6, -0.2), (0.7, 0.0)])
def test_factorized_inverse_matches_dense_inverse(b1, b2):
    # Invert a deep future-only truncation numerically and compare its
    # upper-left blocks with the running product of triangular factors.
    K = 40
    model = make_ar1_pair(b1, b2, grid_size=512)
    sys = build_operator_system(model, MissingPattern(intervals=()), K=K)
    dense = np.linalg.inv(sys.Bmat)
    for i in range(4):
        for j in range(4):
            got = dense[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            want = factorized_inverse_check(b1, b2, i, j)
            assert np.abs(got - want).max() < 1e-8


# ---------------------------------------------------------------------------
# operator system structure
# ---------------------------------------------------------------------------


def _random_noisy_model(seed, grid_size=512):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    poles = rng.uniform(-0.7, 0.7, size=dim)
    scales = rng.uniform(0.5, 2.0, size=dim)
    mix = np.eye(dim) + 0.3 * rng.normal(size=(dim, dim))
    npoles = rng.uniform(-0.5, 0.5, size=dim)
    nscales = rng.uniform(0.2, 1.0, size=dim)
    return ar1_model(poles=poles, scales=scales, mix=mix,
                     noise_poles=npoles, noise_scales=nscales,
                     grid_size=grid_size)


def _rhs(model, pattern, functional, system):
    """The operator route's right side and quadratic term for ``functional``."""
    rows = extrapolate_module._functional_rows(model, functional)
    return extrapolate_module._right_side(model, pattern, functional, system, rows)


def _paper_operators(model, system, future):
    """Reference: the paper's R (U_K x future) and Q (future square) by ``assemble``.

    Their blocks are the Fourier coefficients of (X F_zeta^{-1})^T and
    (F - X F_zeta^{-1} X^H)^T, X = F + F_xe, at lags j_p - j_q.
    """
    X = model.samples("F") + model.samples("Fxe")
    XZinv = X @ model.samples("Fzinv")
    max_lag = model.grid_size // 4

    def table(samples):
        return coeffs_from_samples(np.swapaxes(samples, -1, -2), max_lag)

    Q = table(model.samples("F") - XZinv @ np.conj(np.swapaxes(X, -1, -2)))
    return assemble(table(XZinv), system.entries, future), assemble(Q, future)


@pytest.mark.parametrize("seed", range(5))
def test_system_matrices_hermitian_and_definite(seed):
    # the paper's Q over the whole future segment 0..K
    model = _random_noisy_model(seed)
    pat = MissingPattern(intervals=((2, 1),))
    sys = build_operator_system(model, pat, K=12)
    B, Q = sys.Bmat, _paper_operators(model, sys, np.arange(13))[1]
    assert Q.shape == (13 * model.dim,) * 2
    assert np.abs(B - B.conj().T).max() < 1e-12 * max(1.0, np.abs(B).max())
    assert np.abs(Q - Q.conj().T).max() < 1e-12 * max(1.0, np.abs(Q).max())
    assert np.linalg.eigvalsh(B).min() > 0
    assert np.linalg.eigvalsh(Q).min() > -1e-10 * max(1.0, np.abs(Q).max())


@pytest.mark.parametrize("seed", range(3))
def test_right_side_is_the_paper_operators_on_a(seed):
    # the right side is R's 0..N columns times a, the quadratic term a^H Q a
    model = _random_noisy_model(seed)
    pat = MissingPattern(intervals=((1, 0), (4, 1)))
    functional = FunctionalSpec(coeffs=np.random.default_rng(seed).normal(size=(4, model.dim)))
    sys = build_operator_system(model, pat, K=12)
    R, Q = _paper_operators(model, sys, np.arange(4))
    a = functional.coeffs.ravel()
    rhs, quadratic = _rhs(model, pat, functional, sys)
    assert rhs.shape == (sys.Bmat.shape[0],)
    assert _close(rhs, R @ a, np.abs(R @ a).max(), rtol=1e-13)
    assert abs(quadratic - np.vdot(a, Q @ a)) <= 1e-13 * abs(np.vdot(a, Q @ a))


def test_noiseless_system_degenerates():
    model = make_ar1_pair(0.5, 0.3, grid_size=512)
    pattern = MissingPattern(intervals=((1, 0),))
    functional = FunctionalSpec(coeffs=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    sys = build_operator_system(model, pattern, K=6)
    # a itself in the slots of 0..2, which sit after the one gap block; the
    # paper's R is the identity's columns there up to rounding, and Q is 0
    P = sys.Bmat.shape[0]
    rhs, quadratic = _rhs(model, pattern, functional, sys)
    want = np.zeros(P)
    want[2:8] = functional.coeffs.ravel()
    assert np.array_equal(rhs, want) and quadratic == 0.0
    R, Q = _paper_operators(model, sys, np.arange(3))
    assert np.allclose(R, np.eye(P)[:, 2:8], atol=1e-12)
    assert np.abs(Q).max() < 1e-12


@pytest.mark.parametrize("K,N", [(3, 4), (-1, 0)])
def test_operator_route_rejects_horizon_outside_truncation(K, N):
    functional = FunctionalSpec(coeffs=np.ones((N + 1, 1)))
    with pytest.raises(InvalidParameterError,
                       match=rf"^functional horizon must lie in 0\.\.K={K}, got {N}$"):
        optimal_delta(white_model(1, grid_size=256), MissingPattern(), functional, K=K)


def test_solve_reports_small_residual():
    model = _random_noisy_model(7)
    sys = build_operator_system(model, MissingPattern(intervals=((2, 0),)), K=10)
    rng = np.random.default_rng(1)
    rhs = rng.normal(size=sys.Bmat.shape[0])
    sol = solve_coefficients(sys, rhs.astype(complex))
    assert sol.residual < 1e-10
    assert np.allclose(sys.Bmat @ sol.c, rhs, atol=1e-8)
    with pytest.raises(InvalidParameterError, match="right side has shape"):
        solve_coefficients(sys, np.ones(sys.Bmat.shape[0] - 1, dtype=complex))


def _solve_with_last_pivot(last):
    base = build_operator_system(white_model(1, grid_size=256),
                                 MissingPattern(intervals=()), K=3)
    n = base.Bmat.shape[0]
    bad = np.eye(n, dtype=complex)
    bad[-1, -1] = last
    # the section of one n x n block is ``bad`` itself, and dense
    Bmat, solve = section(FourierTable(max_lag=0, data=bad[None]), None, (0,), 0,
                          "operator matrix")
    sick = OperatorSystem(Bmat=Bmat, entries=base.entries, Zinv=base.Zinv, solve=solve)
    return solve_coefficients(sick, np.ones(n, dtype=complex))


def test_solve_rejects_ill_conditioned_system(monkeypatch):
    # Two equal AR(0.9) components, one at 1e-10 of the other's power: each
    # node's own condition number is 1e10, but F_zeta spreads from 100 at 0 to
    # 1e-10 / 3.61 at pi over the grid, 3.61e12, above the ceiling.  The
    # minimality check refuses the model before any table is built.
    model = ar1_model(poles=[0.9, 0.9], scales=[1.0, 1e-10], grid_size=1024)
    asked = _asked_lags(monkeypatch, operators_module)
    with pytest.raises(SingularDensityError) as err:
        build_operator_system(model, MissingPattern(intervals=((2, 1),)), K=64)
    assert str(err.value) == (
        "minimality check failed: condition number 3.610e+12 exceeds ceiling 1.0e+12: "
        "largest eigenvalue at lambda=0.000000, smallest at lambda=-3.141593")
    assert asked == [] and "Fzinv" not in model._samples


@pytest.mark.parametrize("last", [-1.0, np.nan], ids=["indefinite", "non_finite"])
def test_solve_rejects_indefinite_or_non_finite_system(last):
    with pytest.raises(NonInvertibleOperatorError):
        _solve_with_last_pivot(last)


def test_solve_names_an_indefinite_system():
    with pytest.raises(NonInvertibleOperatorError,
                       match="^operator matrix is not positive definite"):
        _solve_with_last_pivot(-1.0)


@pytest.mark.parametrize("last,match", [(-1.0, "Gamma is not positive definite"),
                                        (np.nan, "Gamma has non-finite entries")])
def test_cholesky_solver_names_its_refusals(last, match):
    matrix = np.eye(3)
    matrix[-1, -1] = last
    with pytest.raises(NonInvertibleOperatorError, match=match):
        cholesky_solver(matrix, NonInvertibleOperatorError, "Gamma")


def _cho_pair_solve(system, rhs):
    """Reference: the same solve through scipy's cho_factor/cho_solve wrappers."""
    B = system.Bmat
    cho = scipy.linalg.cho_factor(B, lower=False, check_finite=False)
    c = scipy.linalg.cho_solve(cho, rhs)
    c = c + scipy.linalg.cho_solve(cho, rhs - B @ c)
    residual = float(np.linalg.norm(rhs - B @ c)) / max(float(np.linalg.norm(rhs)),
                                                         np.finfo(float).tiny)
    return c, residual


@pytest.mark.parametrize("seed,dim", [(seed, None) for seed in range(12)] + [(0, 3), (1, 3)])
def test_solve_is_bit_equal_to_cho_pair(seed, dim):
    # one ?potrf and one ?potrs per solve: the wrappers' routines, called directly
    model, pattern, functional = _random_instance(seed, dim=dim)
    system = build_operator_system(model, pattern, K=24)
    rhs = _rhs(model, pattern, functional, system)[0]
    sol = solve_coefficients(system, rhs)
    c, residual = _cho_pair_solve(system, rhs)
    assert np.array_equal(sol.c, c)
    assert sol.residual == residual


@pytest.mark.parametrize("seed", range(6))
def test_scalar_observation_inverse_is_the_reciprocal(seed):
    # at T = 1 F_zeta^{-1} is 1 / F_zeta: bit-equal to np.linalg.inv on real
    # samples; the operator system reads the model's own inverse
    model, pattern, functional = _random_instance(seed, dim=1)
    fz = model.samples("Fz")
    assert not np.any(fz.imag)
    assert np.array_equal(model.samples("Fzinv"), np.linalg.inv(fz))
    system = build_operator_system(model, pattern, K=12)
    assert system.Zinv is model.samples("Fzinv")


def test_inverse_of_complex_blocks():
    # a scalar density is Hermitian only up to a phase of about 1e-11, which
    # the reciprocal keeps; complex 2 x 2 blocks take the adjugate over the
    # determinant, within rounding of np.linalg.inv
    rng = np.random.default_rng(5)
    z = rng.uniform(0.1, 10.0, 4096) * np.exp(1j * rng.uniform(-1e-11, 1e-11, 4096))
    scalar = SpectralModel(dim=1, F=z[:, None, None], grid_size=4096)
    ref = np.linalg.inv(scalar.samples("Fz"))
    assert np.any(ref.imag)
    assert np.max(np.abs(scalar.samples("Fzinv") - ref) / np.abs(ref)) <= 4e-16
    x = rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2))
    blocks = SpectralModel(dim=2, F=x @ np.conj(np.swapaxes(x, -1, -2)) + np.eye(2),
                           grid_size=64)
    fz = blocks.samples("Fz")
    ref = np.linalg.inv(fz)
    eig = np.linalg.eigvalsh(fz)
    err = np.linalg.norm(blocks.samples("Fzinv") - ref, ord=2, axis=(1, 2))
    scale = np.linalg.norm(ref, ord=2, axis=(1, 2))
    assert np.all(err <= 8 * np.finfo(float).eps * eig[:, 1] / eig[:, 0] * scale)
    # 3 x 3 blocks still go through np.linalg.inv, bit for bit
    x = rng.normal(size=(64, 3, 3)) + 1j * rng.normal(size=(64, 3, 3))
    blocks = SpectralModel(dim=3, F=x @ np.conj(np.swapaxes(x, -1, -2)) + np.eye(3),
                           grid_size=64)
    assert np.array_equal(blocks.samples("Fzinv"), np.linalg.inv(blocks.samples("Fz")))


def _random_ar_instance(seed):
    """T in {1, 2, 3}, with and without noise, with and without gaps."""
    rng = np.random.default_rng(100 + seed)
    dim, noisy, gappy = 1 + seed % 3, seed % 2 == 0, (seed // 2) % 2 == 0
    params = dict(poles=rng.uniform(-0.8, 0.8, size=dim),
                  scales=rng.uniform(0.5, 2.0, size=dim),
                  mix=np.eye(dim) + 0.4 * rng.normal(size=(dim, dim)),
                  noise_poles=rng.uniform(-0.5, 0.5, size=dim) if noisy else None,
                  noise_scales=rng.uniform(0.1, 1.0, size=dim) if noisy else None,
                  grid_size=256)
    intervals = ((int(rng.integers(1, 4)), int(rng.integers(0, 4))),) if gappy else ()
    return rng, params, MissingPattern(intervals=intervals), int(rng.integers(2, 12))


@pytest.mark.parametrize("seed", range(24))
def test_cond_B_is_exact_one_norm_condition_number(seed):
    # cond_B is the spread G = eig_max / eig_min of F_zeta over the grid,
    # which bounds the 2-norm condition number of B; the dense one is the
    # reference.  (The name dates from when cond_B was the exact 1-norm value;
    # it is kept so the per-seed ids persist.)
    rng, params, pattern, K = _random_ar_instance(seed)
    model = ar1_model(**params)
    functional = FunctionalSpec(coeffs=rng.normal(size=(1, len(params["poles"]))))
    res = estimate(model, pattern, functional, K=K)
    report = check_minimality(model)
    assert res.diagnostics.cond_B == report.eig_max / report.eig_min
    assert np.linalg.cond(res.system.Bmat, 2) <= res.diagnostics.cond_B * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(0, 24, 5))
def test_scaling_densities_scales_delta_only(seed):
    # (F, G) -> c (F, G) scales delta by c; taps and cond_B do not move
    _, params, pattern, K = _random_ar_instance(seed)
    functional = FunctionalSpec(coeffs=np.ones((min(K, 2) + 1, len(params["poles"]))))
    base = estimate(ar1_model(**params), pattern, functional, K=K)
    c = 2.7
    scaled_params = dict(params, scales=c * params["scales"])
    if params["noise_scales"] is not None:
        scaled_params["noise_scales"] = c * params["noise_scales"]
    scaled = estimate(ar1_model(**scaled_params), pattern, functional, K=K)

    assert scaled.delta == pytest.approx(c * base.delta, rel=1e-12)
    assert scaled.diagnostics.cond_B == pytest.approx(base.diagnostics.cond_B, rel=1e-12)
    assert scaled.taps.keys() == base.taps.keys()
    got = np.array(list(scaled.taps.values()))
    ref = np.array(list(base.taps.values()))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# real processes in real arithmetic
# ---------------------------------------------------------------------------

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def _example(name):
    cfg = load_config(EXAMPLES / f"{name}.yaml")
    return build_model(cfg), build_pattern(cfg), build_functional(cfg), cfg.truncation


def _complex_ma(noisy):
    """A scalar moving-average pair with complex coefficients: not a real process."""
    signal = [[[1.0]], [[0.5j]]]
    if not noisy:
        return ma_pair_model(signal, grid_size=256)
    return ma_pair_model(signal, noise_coeffs=[[[0.6]], [[0.2 - 0.3j]]],
                         innovation_cov=[[1.0, 0.3], [0.3, 1.0]], grid_size=256)


def _rotated(noisy, phase=None):
    """The golden minimax densities, U diag(...) U^H, turned by diag(1, phase).

    Their own U = R diag(1, e^{0.7i}) leaves a real symmetric density: the
    phase commutes with the diagonal.  A phase applied outside, P F P^H,
    makes the off-diagonal coefficients complex.
    """
    P = np.diag([1.0, 1.0 if phase is None else phase])

    def turned(dens):
        return P @ dens @ np.conj(P.T)

    F = turned(_clipped_density([(0.5, 1.0), (-0.3, 0.8)], LO, HI))
    G = turned(_clipped_density([(0.2, 0.5), (0.4, 0.6)], LO_G, HI_G)) if noisy else None
    return SpectralModel(dim=2, F=_fixed(F), G=None if G is None else _fixed(G),
                         grid_size=GOLDEN_GRID)


COMPLEX_MODELS = {
    "ma_pair": lambda: _complex_ma(False),
    "ma_pair_noisy": lambda: _complex_ma(True),
    "rotation_phased": lambda: _rotated(False, np.exp(0.7j)),
    "rotation_phased_noisy": lambda: _rotated(True, np.exp(0.7j)),
}


def _dtypes(monkeypatch, model, pattern, functional, K):
    """dtypes of the tables, Bmat, the right side and the oracle's Gamma."""
    seen = {"tables": [], "Gamma": []}

    def table_spy(source, max_lag, make=coeffs_from_samples):
        table = make(source, max_lag)
        seen["tables"].append(table.data.dtype)
        return table

    def factor_spy(matrix, *args):
        seen["Gamma"].append(matrix.dtype)
        return cholesky_solver(matrix, *args)

    for module in (operators_module, extrapolate_module, oracle_module):
        monkeypatch.setattr(module, "coeffs_from_samples", table_spy)
    monkeypatch.setattr(oracle_module, "lag_table",
                        functools.partial(table_spy, make=oracle_module.lag_table))
    system = build_operator_system(model, pattern, K=K)
    rhs = _rhs(model, pattern, functional, system)[0]
    # window 20 is a dense section: Gamma itself is factored
    monkeypatch.setattr(operators_module, "cholesky_solver", factor_spy)
    projection_oracle(model, pattern, functional, window=20)
    assert len(seen["Gamma"]) == 1
    return {"tables": set(seen["tables"]), "Bmat": system.Bmat.dtype,
            "rhs": rhs.dtype, "Gamma": seen["Gamma"][0]}


@pytest.mark.parametrize("name,noiseless", [("benchmark", True), ("noisy_ar1", False),
                                            ("rotation", True), ("rotation_noisy", False)])
def test_real_process_is_solved_in_real_arithmetic(monkeypatch, name, noiseless):
    if name.startswith("rotation"):
        model, K = _rotated(not noiseless), 12
        pattern = MissingPattern(intervals=((2, 1),))
        functional = FunctionalSpec(coeffs=np.ones((2, 2)))
    else:
        model, pattern, functional, K = _example(name)
    assert model.is_noiseless == noiseless
    assert functional.coeffs.dtype == np.float64
    real = np.dtype(np.float64)
    assert _dtypes(monkeypatch, model, pattern, functional, K) == {
        "tables": {real}, "Bmat": real, "rhs": real, "Gamma": real}


@pytest.mark.parametrize("name", sorted(COMPLEX_MODELS))
def test_complex_process_keeps_complex_arithmetic(monkeypatch, name):
    model = COMPLEX_MODELS[name]()
    functional = FunctionalSpec(coeffs=np.ones((2, model.dim)))
    pattern = MissingPattern(intervals=((2, 1),))
    cplx = np.dtype(np.complex128)
    assert _dtypes(monkeypatch, model, pattern, functional, K=12) == {
        "tables": {cplx}, "Bmat": cplx, "rhs": cplx, "Gamma": cplx}


def _complex_reference(model, pattern, functional, K, tap_lags):
    """delta, c (by U_K entry) and taps, all in complex arithmetic.

    Raw np.fft coefficient tables, blocks by hand, scipy's Cholesky; the
    characteristic and its coefficients by direct sums over the grid.
    """
    n, d = model.grid_size, model.dim
    lam = model.lam
    max_lag = K + pattern.max_depth
    ks = np.arange(-max_lag, max_lag + 1)
    entries = np.concatenate((np.asarray(pattern.points, dtype=int), np.arange(K + 1)))
    future = np.arange(functional.horizon + 1)

    def block(samples, rows, cols):
        fft = np.fft.fft(np.swapaxes(samples, -1, -2), axis=0)
        data = (-1.0) ** ks[:, None, None] * fft[ks % n] / n
        return np.block([[data[max_lag + p - q] for q in cols] for p in rows])

    F, Fz = model.samples("F"), model.samples("Fz")
    X = F + model.samples("Fxe")
    Zinv = np.linalg.inv(Fz)
    B = block(Zinv, entries, entries)
    R = block(X @ Zinv, entries, future)
    Q = block(F - X @ Zinv @ np.conj(np.swapaxes(X, -1, -2)), future, future)
    a = functional.coeffs.ravel().astype(complex)
    c = scipy.linalg.cho_solve(scipy.linalg.cho_factor(B), R @ a)
    delta = float((np.vdot(c, R @ a) + np.vdot(a, Q @ a)).real)

    C_row = np.exp(1j * np.outer(lam, entries)) @ c.reshape(-1, d)
    A_row = np.exp(1j * np.outer(lam, future)) @ a.reshape(-1, d)
    AX = np.einsum("nt,ntu->nu", A_row, X)
    h_row = np.einsum("nt,ntu->nu", AX - C_row, Zinv)
    taps = np.exp(-1j * np.outer(tap_lags, lam)) @ h_row / n
    # the taps come out of (A X - C) F_zeta^{-1}, so their rounding is
    # relative to the larger of its two terms, not to the taps
    tap_scale = max(np.abs(np.einsum("nt,ntu->nu", AX, Zinv)).max(),
                    np.abs(np.einsum("nt,ntu->nu", C_row, Zinv)).max())
    return delta, c.reshape(-1, d), taps, tap_scale


def _close(got, ref, scale, rtol=1e-12):
    return np.abs(np.asarray(got) - ref).max() <= rtol * scale


@pytest.mark.parametrize("seed,dim", [(seed, None) for seed in range(12)]
                         + [(0, 3), (1, 3)] + [(name, None) for name in COMPLEX_MODELS])
def test_estimate_matches_complex_reference(seed, dim):
    if isinstance(seed, str):
        model = COMPLEX_MODELS[seed]()
        pattern = MissingPattern(intervals=((2, 1),))
        functional = FunctionalSpec(coeffs=np.ones((2, model.dim)))
    else:
        model, pattern, functional = _random_instance(seed, dim=dim)
    K = 24
    res = estimate(model, pattern, functional, K=K)
    # a real process is solved in real arithmetic, a complex one never is
    assert np.iscomplexobj(res.system.Bmat) == np.iscomplexobj(res.c[0]) == isinstance(seed, str)
    lags = sorted(res.taps)
    delta, c, taps, tap_scale = _complex_reference(model, pattern, functional, K, lags)
    assert res.delta == pytest.approx(delta, rel=1e-12)
    assert _close([res.c[j] for j in res.system.entries], c, np.abs(c).max())
    assert _close([res.taps[j] for j in lags], taps, tap_scale)


def _row_instance(seed):
    """A seeded MA(3) pair: T in {1, 2}; noiseless, noisy or correlated
    (``innovation_cov`` coupling signal and noise); a real or complex functional."""
    rng = np.random.default_rng(900 + seed)
    dim, kind, complex_a = 1 + seed % 2, seed // 2 % 3, seed // 6 % 2 == 1

    def ma(lead):   # MA(3): the covariances reach past the gap
        return [lead * np.eye(dim) + 0.2 * rng.normal(size=(dim, dim))] + [
            scale * rng.normal(size=(dim, dim)) for scale in (0.4, 0.3, 0.2)]

    signal, noise, cov = ma(1.0), None, None
    if kind:
        noise = ma(0.7)
        if kind == 2:
            root = rng.normal(size=(2 * dim, 2 * dim))
            cov = root @ root.T + 0.5 * np.eye(2 * dim)
    model = ma_pair_model(signal, noise, cov, grid_size=512)
    pattern = MissingPattern(intervals=((int(rng.integers(2, 4)), int(rng.integers(0, 2))),
                                        (7, int(rng.integers(0, 2)))))
    coeffs = rng.normal(size=(int(rng.integers(1, 4)), dim))
    if complex_a:
        coeffs = coeffs + 1j * rng.normal(size=coeffs.shape)
    return model, pattern, FunctionalSpec(coeffs=coeffs)


def _filter_error_loop(model, r, h):
    """The four density forms of ``filter_error``, node by node."""
    total = 0.0
    for which, left, right, sign in (("F", r, r, 1), ("G", h, h, 1),
                                     ("Fxe", r, h, -1), ("Fex", h, r, -1)):
        S = model.samples(which)
        for k in range(model.grid_size):
            total += sign * (left[k] @ S[k] @ np.conj(right[k]))
    return total.real / model.grid_size


@pytest.mark.parametrize("seed", range(12))
def test_filter_error_matches_a_per_node_loop(seed):
    # noiseless, noisy and correlated MA pairs, each with a real and a complex
    # functional; a random h, so every cross term counts
    model, pattern, functional = _row_instance(seed)
    rng = np.random.default_rng(seed)
    n = model.grid_size
    h = rng.normal(size=(n, model.dim)) + 1j * rng.normal(size=(n, model.dim))
    r = functional.a_on_grid(n) - h
    want = _filter_error_loop(model, r, h)
    assert extrapolate_module.filter_error(model, r, h) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("seed", range(12))
def test_right_sides_are_the_paper_operators_on_every_instance(monkeypatch, seed):
    # the paper's R, Q and the oracle's cross-covariance block, assembled
    # here from their tables, against the one row A^T (F + F_xe)
    model, pattern, functional = _row_instance(seed)
    assert model.is_noiseless == (seed // 2 % 3 == 0)
    assert model.is_uncorrelated == (seed // 2 % 3 != 2)
    K, N, window = 16, functional.horizon, 30
    a = functional.coeffs.ravel()
    system = build_operator_system(model, pattern, K=K)
    rhs, quadratic = _rhs(model, pattern, functional, system)
    R, Q = _paper_operators(model, system, np.arange(N + 1))
    assert _close(rhs, R @ a, np.abs(R @ a).max(), rtol=1e-13)
    aQa = np.vdot(a, Q @ a)
    if model.is_noiseless:
        start = pattern.size * model.dim
        assert np.array_equal(rhs[start:start + a.size], a)
        assert not np.any(np.delete(rhs, np.arange(start, start + a.size)))
        variance = oracle_module.functional_variance(model, functional)
        assert quadratic == 0.0 and abs(aQa) <= 1e-13 * variance
    else:
        assert abs(quadratic - aQa) <= 1e-13 * abs(aQa)

    seen, real_section = [], oracle_module.section

    def spy(*args):
        matrix, solve = real_section(*args)

        def watched(rhs):
            seen.append(rhs.copy())
            return solve(rhs)
        return matrix, watched

    monkeypatch.setattr(oracle_module, "section", spy)
    projection_oracle(model, pattern, functional, window=window)
    cross = model.samples("F") + model.samples("Fex")
    # the section's rows are the observed lags r = -u, ascending
    block = assemble(coeffs_from_samples(cross, window + N),
                     -np.asarray(pattern.observed_window(window))[::-1], -np.arange(N + 1))
    m = block @ np.conj(a)
    assert _close(seen[0], m, np.abs(block).max() * np.abs(a).max(), rtol=1e-13)
    assert np.abs(m).max() > 1e-3 * np.abs(block).max() * np.abs(a).max()
    assert optimal_delta(model, pattern, functional, K=K) == \
        estimate(model, pattern, functional, K=K).delta


# ---------------------------------------------------------------------------
# above the crossover: a Schur complement over the gap, and preconditioned
# conjugate gradients over the future, without forming B
# ---------------------------------------------------------------------------

SPLIT_GRID = 4096


def _split_instance(seed):
    """A model, pattern, functional and K whose B has more than DENSE_MAX_ORDER rows.

    T in {1, 2}, noisy or noiseless, real or complex, 0-3 gap intervals.  A
    noisy model reads F, G and F_xe off one 2T-dimensional AR density, so its
    cross density is not zero; a complex one rolls that density along the
    grid, which turns each Fourier coefficient by a phase.
    """
    rng = np.random.default_rng(300 + seed)
    dim, noisy, turned = 1 + seed % 2, seed // 2 % 2 == 0, seed // 4 % 2 == 1
    size = 2 * dim if noisy else dim
    joint = ar1_model(poles=rng.uniform(-0.8, 0.8, size=size),
                      scales=rng.uniform(0.5, 2.0, size=size),
                      mix=np.eye(size) + 0.4 * rng.normal(size=(size, size)),
                      grid_size=SPLIT_GRID).samples("F")
    if turned:
        joint = np.roll(joint, int(rng.integers(1, 50)), axis=0)
    signal, noise = slice(0, dim), slice(dim, size)
    model = SpectralModel(dim=dim, F=joint[:, signal, signal],
                          G=joint[:, noise, noise] if noisy else None,
                          F_xe=joint[:, signal, noise] if noisy else None,
                          grid_size=SPLIT_GRID)
    intervals, start = [], 1
    for _ in range((seed + seed // 8) % 4):
        m, n = start + int(rng.integers(0, 3)), int(rng.integers(0, 4))
        intervals.append((m, n))
        start = m + n + 2
    functional = FunctionalSpec(coeffs=rng.normal(size=(int(rng.integers(1, 4)), dim)))
    K = DENSE_MAX_ORDER // dim + int(rng.integers(0, 40))
    return model, MissingPattern(intervals=tuple(intervals)), functional, K


def test_fft_length_is_the_next_five_smooth_number():
    # 2M - 1 = 193 at M = 97 is prime; 200 = 2^3 5^2 is the length taken
    table = coeffs_from_samples(np.ones((1024, 1, 1)), 96)
    assert ToeplitzProduct(table, 97).length == 200
    lengths = range(1, 5000)
    assert [_fast_length(n) for n in lengths] == [
        scipy.fft.next_fast_len(n, real=True) for n in lengths]


@pytest.mark.parametrize("complex_table", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("size", [1, 2, 97, 513])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_toeplitz_product_matches_assembled_matrix(dim, size, complex_table):
    # blocks of random tables are neither symmetric nor Hermitian, so a
    # transposed block or a flipped lag shows; 97 gives the length 200
    rng = np.random.default_rng(100 * dim + size)
    data = rng.normal(size=(2 * size - 1, dim, dim))
    if complex_table:
        data = data + 1j * rng.normal(size=data.shape)
    table = FourierTable(max_lag=size - 1, data=data)
    product = ToeplitzProduct(table, size)
    assert product.real is not complex_table
    reference = assemble(table, range(size))
    for k in (1, 7):
        for complex_x in (False, True):
            x = rng.normal(size=(size * dim, k))
            if complex_x:
                x = x + 1j * rng.normal(size=x.shape)
            want = reference @ x
            got = product(x)
            assert got.shape == want.shape and np.iscomplexobj(got) == np.iscomplexobj(want)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("seed", range(16))
def test_split_solve_matches_the_dense_reference(seed):
    # the reference assembles all of B and factors it
    model, pattern, functional, K = _split_instance(seed)
    assert model.is_noiseless == (seed // 2 % 2 == 1)
    system = build_operator_system(model, pattern, K=K)
    B = system.Bmat
    assert isinstance(B, SplitOperator) and B.shape[0] > DENSE_MAX_ORDER
    assert np.iscomplexobj(B.table.data) == (seed // 4 % 2 == 1)
    rhs, quadratic = _rhs(model, pattern, functional, system)
    sol = solve_coefficients(system, rhs)

    dense = assemble(B.table, system.entries)
    c = scipy.linalg.cho_solve(scipy.linalg.cho_factor(dense), rhs)

    def delta(coeffs):
        return float((np.vdot(coeffs, rhs) + quadratic).real)

    assert np.abs(sol.c - c).max() <= 1e-12 * np.abs(c).max()
    assert delta(sol.c) == pytest.approx(delta(c), rel=1e-13)
    assert sol.residual <= 1e-13
    report = check_minimality(model)
    cond_B = estimate(model, pattern, functional, K=K).diagnostics.cond_B
    assert cond_B == report.eig_max / report.eig_min
    eig = np.linalg.eigvalsh(dense)
    assert eig[-1] / eig[0] <= cond_B * (1 + 1e-12)
    assert 0 < sol.cg_iterations <= 20
    # the product B c of the residual is the dense one
    assert np.abs(B @ c - dense @ c).max() <= 1e-13 * np.abs(dense @ c).max()


def test_split_solve_builds_one_product_per_toeplitz_matrix(monkeypatch):
    # B_FF's product is built once, with the operator, and every solve reuses
    # it; a solve builds only the preconditioner's, from the inverse table
    model, pattern, functional, K = _split_instance(0)
    built, product = [], operators_module.ToeplitzProduct

    def spy(table, size):
        built.append((table, size))
        return product(table, size)

    monkeypatch.setattr(operators_module, "ToeplitzProduct", spy)
    system = build_operator_system(model, pattern, K=K)
    B = system.Bmat
    assert isinstance(B, SplitOperator) and built == [(B.table, K + 1)]
    rhs = _rhs(model, pattern, functional, system)[0]
    built.clear()
    solve_coefficients(system, rhs)
    assert built and all(entry == (B.inverse_table, K + 1) for entry in built)


def test_either_branch_solves_a_small_instance(monkeypatch):
    model, pattern, functional = _random_instance(3, dim=2)
    dense = estimate(model, pattern, functional, K=24)
    monkeypatch.setattr(operators_module, "DENSE_MAX_ORDER", 0)
    split = estimate(model, pattern, functional, K=24)
    assert isinstance(dense.system.Bmat, np.ndarray)
    assert isinstance(split.system.Bmat, SplitOperator)
    assert dense.diagnostics.cg_iterations == 0 < split.diagnostics.cg_iterations
    assert split.delta == pytest.approx(dense.delta, rel=1e-13)
    c_dense, c_split = (np.array([res.c[j] for j in res.system.entries])
                        for res in (dense, split))
    assert np.abs(c_split - c_dense).max() <= 1e-12 * np.abs(c_dense).max()
    assert split.diagnostics.cond_B == pytest.approx(dense.diagnostics.cond_B, rel=1e-13)


def test_near_unit_pole_reaches_the_innovation_variance():
    # noiseless AR(0.99) and AR(-0.5) components, each of unit innovation
    # variance: the gap {-3, -2} leaves the one-step predictor alone, so the
    # error of xi_1(0) + xi_2(0) is 1 + 1
    model = ar1_model(poles=[0.99, -0.5], grid_size=4096)
    res = estimate(model, MissingPattern(intervals=((2, 1),)),
                   FunctionalSpec(coeffs=[[1.0, 1.0]]), K=800)
    assert isinstance(res.system.Bmat, SplitOperator)
    assert abs(res.delta - 2.0) <= 1e-8
    assert 0 < res.diagnostics.cg_iterations <= 10


def test_unconverged_conjugate_gradients_are_refused(monkeypatch):
    model, pattern, functional, K = _split_instance(1)
    assert estimate(model, pattern, functional, K=K).diagnostics.cg_iterations > 1
    monkeypatch.setattr(operators_module, "CG_MAX_ITERATIONS", 1)
    with pytest.raises(NonInvertibleOperatorError,
                       match=r"not converged after 1 iteration\(s\): relative residual \d"):
        estimate(model, pattern, functional, K=K)


# ---------------------------------------------------------------------------
# Fourier tables at the lags that read them
# ---------------------------------------------------------------------------


def _asked_lags(monkeypatch, module, name="coeffs_from_samples"):
    """The lags of every table ``module`` asks its function ``name`` for, in order."""
    asked, real = [], getattr(module, name)

    def spy(source, max_lag):
        asked.append(max_lag)
        return real(source, max_lag)

    monkeypatch.setattr(module, name, spy)
    return asked


@pytest.mark.parametrize("name", ["benchmark", "noisy_ar1", "split0", "split1", "split2"])
def test_operator_tables_span_the_lags_of_U_K(monkeypatch, name):
    # U_K couples lags up to K + the deepest gap point, read by B on the dense
    # route, by the gap blocks and both Toeplitz products on the split one, and
    # by the right side of a noisy model, the one table of the functional
    if name.startswith("split"):
        model, pattern, functional, K = _split_instance(int(name[-1]))
    else:
        model, pattern, functional, K = _example(name)
    asked = _asked_lags(monkeypatch, operators_module)
    asked_rhs = _asked_lags(monkeypatch, extrapolate_module)
    system = build_operator_system(model, pattern, K=K)
    split = isinstance(system.Bmat, SplitOperator)
    assert split == name.startswith("split")
    assert asked == [K + pattern.max_depth] * (2 if split else 1)
    rhs = _rhs(model, pattern, functional, system)[0]
    assert asked_rhs == [K + pattern.max_depth] * (0 if model.is_noiseless else 1)
    solve_coefficients(system, rhs)


@pytest.mark.parametrize("window", [3, 20, 100, 400])
def test_oracle_tables_span_the_lags_they_read(monkeypatch, window):
    # Gamma's table, asked for first, reads lags below the window; m's, of
    # conj(A^T (F + F_xe)), is asked up to window + N, the reach of its cross
    # covariances; the preconditioner's, of F_zeta^{-1}, only by a split
    # section (window 400), below the window
    model, pattern, functional, _ = _example("noisy_ar1")
    transformed = _asked_lags(monkeypatch, oracle_module, "grid_transform")
    asked = _asked_lags(monkeypatch, oracle_module, "lag_table")
    res = projection_oracle(model, pattern, functional, window=window)
    N, split = functional.horizon, window == 400
    assert (res.cg_iterations > 0) == split
    assert transformed == asked == [window - 1, window + N] + [window - 1] * split


@pytest.mark.parametrize("split", [False, True], ids=["dense", "split"])
def test_the_inverse_symbol_table_is_built_only_when_the_section_splits(monkeypatch, split):
    # the operator route's inverse symbol is F_zeta, the oracle's F_zeta^{-1}:
    # a dense estimate or window never transforms it
    model, pattern, functional, _ = _example("noisy_ar1")
    if split:
        monkeypatch.setattr(operators_module, "DENSE_MAX_ORDER", 0)
    read = []
    for module, name in ((operators_module, "coeffs_from_samples"),
                         (oracle_module, "grid_transform")):
        def spy(samples, max_lag, real=getattr(module, name)):
            read.append(samples)
            return real(samples, max_lag)

        monkeypatch.setattr(module, name, spy)
    res = estimate(model, pattern, functional, K=12)
    assert any(np.shares_memory(s, model.samples("Fz")) for s in read) == split
    read.clear()
    got = projection_oracle(model, pattern, functional, window=20)
    assert any(np.shares_memory(s, model.samples("Fzinv")) for s in read) == split
    assert (res.diagnostics.cg_iterations > 0) == (got.cg_iterations > 0) == split


@pytest.mark.parametrize("intervals", [(), ((2, 1),)])
def test_a_lag_beyond_the_grid_is_refused_before_any_table(monkeypatch, intervals):
    # K = 600 is the split route; without a gap its Toeplitz products would
    # index a table past its end and wrap round, so the table is never built
    model = ar1_model([0.5], grid_size=1024)
    pattern = MissingPattern(intervals=intervals)
    assert pattern.size + 601 > DENSE_MAX_ORDER
    need = 600 + pattern.max_depth
    asked = _asked_lags(monkeypatch, operators_module)
    with pytest.raises(InsufficientLagError, match=(
            f"^a grid of 1024 nodes resolves lags up to 256, not {need}; "
            f"lag {need} needs at least 4096 nodes$")):
        build_operator_system(model, pattern, K=600)
    # the first table asked for is refused, so none is built
    assert asked == [need]

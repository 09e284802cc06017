"""Tests for the verification oracles.

The finite-window Gaussian projection is an independent route to the same
mean-square error: it never touches the spectral solver, only covariance
matrices.  The circulant sampler is checked for exactness of its second
moments, reproducibility, and its refusal to proceed when the embedding is
not positive semidefinite; it is also the path-level reference for the
Monte-Carlo error law, whose variance ``monte_carlo_mse`` takes from the
quadrature of the taps and which draws one normal per replication.
"""

import dataclasses
import warnings
from math import comb
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import gapcast.operators as operators_module
import gapcast.oracle as oracle_module
from gapcast import (
    FunctionalSpec,
    MissingPattern,
    SimulationConfig,
    SpectralModel,
    ar1_model,
    ar1_scalar,
    coeffs_from_samples,
    estimate,
    functional_variance,
    make_ar1_pair,
    ma_pair_model,
    monte_carlo_mse,
    projection_oracle,
    white_model,
)
from gapcast.config import (
    build_functional,
    build_model,
    build_pattern,
    build_simulation,
    load_config,
)
from gapcast.extrapolate import filter_error
from gapcast.operators import DENSE_MAX_ORDER
from gapcast.oracle import CirculantEmbedding, _stream
from gapcast.spectral import trig_poly_on_grid
from gapcast.errors import (
    DegenerateObservationsError,
    InvalidParameterError,
    NonInvertibleOperatorError,
    SimulationMethodError,
    SingularDensityError,
)
from exact_reference import ar1_window_projection
from test_operators import COMPLEX_MODELS, _example


def _scalar_ar1(b, scale=1.0, grid_size=512):
    return SpectralModel(dim=1,
                         F=lambda lam: ar1_scalar(lam, b, scale)[:, None, None],
                         grid_size=grid_size, pole_modulus=abs(b))


BENCH = dict(model=lambda: make_ar1_pair(0.5, 0.3, grid_size=1024),
             pattern=MissingPattern(intervals=((2, 1),)),
             functional=FunctionalSpec(coeffs=np.array([[1.0, 1.0],
                                                        [1.0, 1.0]])),
             delta=15.69)


# ---------------------------------------------------------------------------
# functional variance
# ---------------------------------------------------------------------------


def test_functional_variance_white():
    fun = FunctionalSpec(coeffs=np.array([[1.0, 2.0], [0.5, -1.0]]))
    got = functional_variance(white_model(2, scale=1.3, grid_size=256), fun)
    assert got == pytest.approx(1.3 * (1 + 4 + 0.25 + 1), rel=1e-12)


def test_functional_variance_ar1_double_sum():
    b, scale = 0.6, 1.4
    model = _scalar_ar1(b, scale)
    a = np.array([[1.0], [0.5], [-0.3]])
    fun = FunctionalSpec(coeffs=a)
    want = 0.0
    for i in range(3):
        for j in range(3):
            want += a[i, 0] * a[j, 0] * scale * b ** abs(i - j) / (1 - b * b)
    assert functional_variance(model, fun) == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# projection oracle
# ---------------------------------------------------------------------------


def test_projection_matches_benchmark_error():
    res = projection_oracle(BENCH["model"](), BENCH["pattern"],
                            BENCH["functional"], window=60)
    assert res.delta_oracle == pytest.approx(BENCH["delta"], rel=1e-10)
    # the projection recovers the same single active tap at lag -1
    b1, b2 = 0.5, 0.3
    want = [2 * (b1 + b1 ** 2) - (b2 + b2 ** 2), b2 + b2 ** 2]
    assert np.allclose(res.taps_oracle[-1], want, atol=1e-8)
    deep = max(np.abs(res.taps_oracle[j]).max()
               for j in res.taps_oracle if j < -1)
    assert deep < 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_projection_agrees_with_spectral_solver(seed):
    rng = np.random.default_rng(seed)
    model = ar1_model(poles=rng.uniform(-0.6, 0.6, size=2),
                      scales=rng.uniform(0.5, 1.5, size=2),
                      mix=np.eye(2) + 0.2 * rng.normal(size=(2, 2)),
                      noise_poles=rng.uniform(-0.4, 0.4, size=2),
                      noise_scales=rng.uniform(0.2, 0.8, size=2),
                      grid_size=1024)
    pattern = MissingPattern(intervals=((1, 1),))
    fun = FunctionalSpec(coeffs=rng.normal(size=(2, 2)))
    d_spec = estimate(model, pattern, fun, K=48).delta
    d_proj = projection_oracle(model, pattern, fun, window=120).delta_oracle
    assert d_proj == pytest.approx(d_spec, rel=1e-6)


def test_projection_error_shrinks_with_window():
    model = ar1_model(poles=(0.7,), noise_poles=(0.3,), grid_size=512)
    pattern = MissingPattern(intervals=((2, 0),))
    fun = FunctionalSpec(coeffs=np.array([[1.0], [0.5]]))
    vals = [projection_oracle(model, pattern, fun, window=w).delta_oracle
            for w in (5, 10, 20, 40, 80)]
    for lo, hi in zip(vals[1:], vals):
        assert lo <= hi + 1e-10
    # and the limit is the spectral answer, approached from above
    d_spec = estimate(model, pattern, fun, K=64).delta
    assert vals[-1] >= d_spec - 1e-10
    assert vals[-1] == pytest.approx(d_spec, rel=1e-8)


def test_projection_with_everything_missing():
    # Window fully covered by the missing stretch: nothing to project on.
    model = _scalar_ar1(0.5)
    res = projection_oracle(model, MissingPattern(intervals=((1, 3),)),
                            FunctionalSpec(coeffs=np.array([[1.0]])), window=4)
    assert res.delta_oracle == pytest.approx(
        functional_variance(model, FunctionalSpec(coeffs=np.array([[1.0]]))))
    assert res.taps_oracle == {}


@pytest.mark.parametrize("window", [5, 600])
def test_projection_rejects_degenerate_observations(window):
    # a zero density fails the minimality check before its inverse, the
    # preconditioner's symbol, is taken: refused at every window, naming it,
    # and without a division by zero
    zero = np.zeros((4096, 1, 1), dtype=complex)
    model = SpectralModel(dim=1, F=zero, grid_size=4096, pole_modulus=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateObservationsError,
                           match=f"^observation covariance over window {window} ") as info:
            projection_oracle(model, MissingPattern(intervals=()),
                              FunctionalSpec(coeffs=np.array([[1.0]])), window=window)
    assert isinstance(info.value.__cause__, SingularDensityError)
    assert "Fzinv" not in model._samples


@pytest.mark.parametrize("window", [20, 600])
def test_a_unit_root_moving_average_is_refused_at_every_window(window):
    # noiseless xi(t) = e(t) + e(t - 1): F = |1 + e^{i lambda}|^2 vanishes at
    # pi, where the grid holds only its rounding residue 1.5e-32.  Its spread
    # over the grid, 2.7e32, fails the minimality check, at a short window as
    # at a long one
    model = ma_pair_model([[[1.0]], [[1.0]]], grid_size=4096)
    with pytest.raises(DegenerateObservationsError,
                       match=f"^observation covariance over window {window} is singular: "
                             f"minimality check failed: condition number 2.667e\\+32 ") as info:
        projection_oracle(model, MissingPattern(intervals=((2, 0),)),
                          FunctionalSpec(coeffs=[[1.0]]), window=window)
    assert isinstance(info.value.__cause__, SingularDensityError)


def test_unconverged_window_solve_is_refused_as_degenerate(monkeypatch):
    model, pattern, functional, _ = _example("noisy_ar1")
    monkeypatch.setattr(operators_module, "CG_MAX_ITERATIONS", 1)
    with pytest.raises(DegenerateObservationsError, match=(
            r"^observation covariance over window 400: conjugate gradients not converged")) as info:
        projection_oracle(model, pattern, functional, window=400)
    assert isinstance(info.value.__cause__, NonInvertibleOperatorError)


def test_long_window_matches_the_dense_route_without_forming_gamma(monkeypatch):
    # the dense route is the block reference below, which factors Gamma.
    # Window 400 holds 2 (400 - 3) = 794 observed unknowns, above the
    # crossover: its section is never formed; its run covers -400..-3, and
    # the only matrix it factors is the inverse run's block over its one
    # hole, the gap point -5, T square.  Windows 3 to 100 are dense sections,
    # factored whole
    model, pattern, functional, _ = _example("noisy_ar1")
    T = model.dim
    shapes, cholesky_solver = [], operators_module.cholesky_solver
    assert not any(hasattr(oracle_module, name)
                   for name in ("assemble", "cholesky_solver", "pcg", "ToeplitzProduct"))

    def factor_spy(matrix, *args):
        shapes.append(matrix.shape)
        return cholesky_solver(matrix, *args)

    monkeypatch.setattr(operators_module, "cholesky_solver", factor_spy)
    for window in (3, 20, 100, 400):
        shapes.clear()
        got = projection_oracle(model, pattern, functional, window=window)
        order = len(pattern.observed_window(window)) * T
        split = order > DENSE_MAX_ORDER
        assert split == (window == 400) and (got.cg_iterations > 0) == split
        assert shapes == [(T if split else order,) * 2]
        want, taps = _reference_projection(model, pattern, functional, window)
        assert got.delta_oracle == pytest.approx(want, rel=1e-13)
        assert set(got.taps_oracle) == set(taps)
        largest = max(np.abs(tap).max() for tap in taps.values())
        for j, tap in taps.items():
            assert np.abs(got.taps_oracle[j] - tap).max() <= 1e-13 * largest


@pytest.mark.parametrize("window", [100, 400])
def test_projection_builds_one_product_per_toeplitz_matrix(monkeypatch, window):
    # a split section's run product serves both the solve and the stationary
    # error; the other is the preconditioner's, of F_zeta^{-1}'s
    # coefficients.  A dense section builds none
    model, pattern, functional, _ = _example("noisy_ar1")
    built, product = [], operators_module.ToeplitzProduct

    def spy(table, size):
        built.append((table, size))
        return product(table, size)

    monkeypatch.setattr(operators_module, "ToeplitzProduct", spy)
    got = projection_oracle(model, pattern, functional, window=window)
    if window == 100:
        assert built == [] and got.cg_iterations == 0
        return
    run = window - 2   # -3 down to -window, with the gap point -5 a hole
    assert len(built) == 2 and all(size == run for _, size in built)
    assert built[0][0] is not built[1][0]


@pytest.mark.parametrize("gap,delta,taps", [([], 1.0, {-1: 0.7}),
                                            ([-1], 1.0 + 0.7 ** 2, {-2: 0.7 ** 2})])
def test_exact_reference_solves_the_noiseless_ar1_by_hand(gap, delta, taps):
    # without noise, xi(0) = 0.7 xi(-1) + e(0): the last observation alone
    # predicts, with the innovation variance 1, or 1 + 0.7^2 two steps ahead
    got, got_taps = ar1_window_projection(0.7, 0.2, 0.0, gap, [[1.0]], 12)
    assert got == pytest.approx(delta, rel=1e-14)
    for j, tap in got_taps.items():
        assert tap == pytest.approx(taps.get(j, 0.0), abs=1e-14)


# AR(rho) in AR(0.2) noise of scale 0.5, gap {-3, -2}, xi(0), on grids whose
# aliasing rho^n is below 2e-18; windows 25, n/32 and 1024 (n/4 on 4096 nodes)
NEAR_UNIT = {0.6: 4096, 0.9: 4096, 0.99: 4096, 0.995: 8192}


def _near_unit_ladder(rho):
    n = NEAR_UNIT[rho]
    model = ar1_model(poles=[rho], noise_poles=[0.2], noise_scales=[0.5], grid_size=n)
    pattern = MissingPattern(intervals=((2, 1),))
    functional = FunctionalSpec(coeffs=[[1.0]])
    return [(w, projection_oracle(model, pattern, functional, window=w))
            for w in (25, n // 32, 1024)]


@pytest.mark.parametrize("rho", sorted(NEAR_UNIT))
def test_projection_matches_the_exact_ar1_reference(rho):
    for window, got in _near_unit_ladder(rho):
        want, taps = ar1_window_projection(rho, 0.2, 0.5, [-3, -2], [[1.0]], window)
        assert (got.cg_iterations > 0) == (window - 2 > DENSE_MAX_ORDER)
        assert got.cg_iterations <= 20
        assert got.delta_oracle == pytest.approx(want, rel=1e-12)
        assert set(got.taps_oracle) == set(taps)
        largest = max(abs(tap) for tap in taps.values())
        for j, tap in taps.items():
            assert abs(got.taps_oracle[j][0] - tap) <= 1e-11 * largest


@pytest.mark.parametrize("rho", sorted(NEAR_UNIT))
def test_near_unit_ladder_never_rises(rho):
    # a longer window projects on more, so its error is no larger
    deltas = [got.delta_oracle for _, got in _near_unit_ladder(rho)]
    for shorter, longer in zip(deltas, deltas[1:]):
        assert longer <= shorter * (1 + 1e-13)


def _ladder_case(name):
    """(model, pattern, functional, windows) of one ladder; windows unsorted on purpose."""
    gap, target = MissingPattern(intervals=((2, 1),)), FunctionalSpec(coeffs=[[1.0], [0.5]])
    if name == "noiseless_ar1":
        return _scalar_ar1(0.6), gap, target, [60, 5, 20]
    if name == "complex_ma_pair":   # correlated signal and noise, complex coefficients
        return COMPLEX_MODELS["ma_pair_noisy"](), gap, target, [40, 10, 25]
    if name == "unobserved_rung":   # the gap covers all of window 2
        return _scalar_ar1(0.6), MissingPattern(intervals=((1, 3),)), target, [30, 2, 8, 2]
    windows = {"noisy_ar1": [400, 100, 200], "duplicate_window": [100, 25, 100, 50],
               # 510 = 2048 / 4 - 2 is the longest window the example's grid resolves
               "long_windows": [100, 400, 510]}[name]
    return (*_example("noisy_ar1")[:3], windows)


@pytest.mark.parametrize("name", ["noiseless_ar1", "noisy_ar1", "complex_ma_pair",
                                  "unobserved_rung", "duplicate_window", "long_windows"])
def test_ladder_rungs_match_single_windows(name):
    # every rung slices its tables from the ladder's transforms at the largest
    # window: bit for bit the one-window result, taps and iterations included
    model, pattern, functional, windows = _ladder_case(name)
    ladder = oracle_module.projection_ladder(model, pattern, functional, windows)
    assert [rung.window for rung in ladder] == windows
    for rung in ladder:
        single = projection_oracle(model, pattern, functional, window=rung.window)
        assert rung.delta_oracle == single.delta_oracle
        assert rung.cg_iterations == single.cg_iterations
        assert list(rung.taps_oracle) == list(single.taps_oracle)
        for lag, tap in rung.taps_oracle.items():
            assert tap.dtype == single.taps_oracle[lag].dtype
            assert tap.tobytes() == single.taps_oracle[lag].tobytes()
    if name == "unobserved_rung":
        empty = [rung for rung in ladder if rung.window == 2]
        assert all(rung.taps_oracle == {} and rung.cg_iterations == 0 and
                   rung.delta_oracle == functional_variance(model, functional) for rung in empty)
    if name == "complex_ma_pair":
        assert all(np.iscomplexobj(tap) for rung in ladder for tap in rung.taps_oracle.values())


def test_a_ladder_transforms_each_grid_density_once(monkeypatch):
    model, pattern, functional, _ = _example("noisy_ar1")
    lengths, transform = [], oracle_module.grid_transform

    def spy(samples, max_lag):
        lengths.append(samples.shape[0])
        return transform(samples, max_lag)

    monkeypatch.setattr(oracle_module, "grid_transform", spy)
    oracle_module.projection_ladder(model, pattern, functional, [400])
    one = len(lengths)
    oracle_module.projection_ladder(model, pattern, functional, [100, 400, 200])
    assert one == 3   # F_zeta^{-1}, F_zeta and conj(AX)
    assert lengths == [model.grid_size] * 2 * one


# ---------------------------------------------------------------------------
# reference: the normal equations assembled block by block
# ---------------------------------------------------------------------------


def _reference_variance(model, functional):
    """sum_{j,k} a(j)^T R_xi(j - k) conj(a(k)), with R(n) = table.coeff(-n)."""
    N = functional.horizon
    table = coeffs_from_samples(model.samples("F"), max(N, 1))
    a = functional.coeffs
    total = 0.0 + 0.0j
    for j in range(N + 1):
        for k in range(N + 1):
            total += a[j] @ table.coeff(-(j - k)) @ np.conj(a[k])
    return float(total.real)


def _reference_projection(model, pattern, functional, window):
    """(delta, taps) of the window projection, one covariance block at a time."""
    N, d = functional.horizon, model.dim
    cov_z = coeffs_from_samples(model.samples("Fz"), window + N)
    cov_zx = coeffs_from_samples(model.samples("F") + model.samples("Fex"), window + N)
    observed = pattern.observed_window(window)
    e_s2 = _reference_variance(model, functional)
    if not observed:
        return e_s2, {}
    W = len(observed)
    gamma = np.empty((W * d, W * d), dtype=complex)
    m = np.zeros(W * d, dtype=complex)
    for i, u in enumerate(observed):
        for j, v in enumerate(observed):
            gamma[i * d:(i + 1) * d, j * d:(j + 1) * d] = cov_z.coeff(-(u - v))
        for k in range(N + 1):
            m[i * d:(i + 1) * d] += cov_zx.coeff(-(u - k)) @ np.conj(functional.coeffs[k])
    gm = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gamma), m)
    taps = {u: np.conj(gm[i * d:(i + 1) * d]) for i, u in enumerate(observed)}
    return max(e_s2 - float(np.vdot(m, gm).real), 0.0), taps


# the deepest stretch of the gapped patterns reaches past the start of window
# 7.  At a split window, the section's extra points and holes (SPLIT_SHAPES):
# "two" runs from -3 with the holes -6..-8; "past_start" from -9, with -1 and
# -2 extra; "scattered" leaves every other lag down to -38 observed, so 19
# holes; "both" runs from -6 with -1 extra and the hole -9; "deep" has one
# gap point at -150, a hole, and 149 observed lags shallower than it
GAPS = {"none": (), "two": ((1, 1), (6, 2)), "past_start": ((3, 5),),
        "scattered": tuple((k, 0) for k in range(1, 40, 2)), "both": ((2, 3), (9, 0)),
        "deep": ((150, 0),)}
SPLIT_SHAPES = {"none": (0, 0), "two": (0, 3), "past_start": (2, 0), "scattered": (0, 19),
                "both": (1, 1), "deep": (0, 1)}


def _oracle_instance(dim, kind, gaps, seed, grid_size=256):
    rng = np.random.default_rng(seed)
    if kind == "ar1":
        model = ar1_model(poles=rng.uniform(-0.7, 0.7, size=dim),
                          mix=np.eye(dim) + 0.3 * rng.normal(size=(dim, dim)),
                          noise_poles=rng.uniform(-0.5, 0.5, size=dim),
                          noise_scales=rng.uniform(0.2, 1.0, size=dim), grid_size=grid_size)
    else:   # moving-average signal and noise with correlated innovations
        root = np.eye(2 * dim) + 0.5 * rng.normal(size=(2 * dim, 2 * dim))
        model = ma_pair_model([rng.normal(size=(dim, dim)) for _ in range(5)],
                              [rng.normal(size=(dim, dim)) for _ in range(2)],
                              innovation_cov=root @ root.T, grid_size=grid_size)
    pattern = MissingPattern(intervals=GAPS[gaps])
    N = int(rng.integers(0, 3))
    return model, pattern, FunctionalSpec(coeffs=rng.normal(size=(N + 1, dim)))


@pytest.mark.parametrize("dim", (1, 2))
@pytest.mark.parametrize("kind", ("ar1", "ma_pair"))
@pytest.mark.parametrize("gaps", GAPS)
def test_projection_matches_block_reference(monkeypatch, dim, kind, gaps):
    # windows 1 to 40 are dense sections; the last window, on a grid fine
    # enough to resolve it, holds more than DENSE_MAX_ORDER observed unknowns
    # and splits.  Each extra point or hole costs T more right sides, so its
    # run starts where they are fewest: a deep gap is a hole of a run over
    # the whole window, not a run below it with every shallower lag extra
    shapes, split_operator = [], operators_module.SplitOperator

    class Spy(split_operator):
        def __init__(self, *args):
            super().__init__(*args)
            shapes.append((self.extra.size, self.holes.size // dim))

    monkeypatch.setattr(operators_module, "SplitOperator", Spy)
    seed = 10 * dim + len(kind)
    model, pattern, fun = _oracle_instance(dim, kind, gaps, seed)
    if kind == "ma_pair":
        assert not model.is_uncorrelated
    variance = functional_variance(model, fun)
    assert variance == pytest.approx(_reference_variance(model, fun), rel=1e-13)
    long = 360 // dim
    fine = _oracle_instance(dim, kind, gaps, seed, grid_size=2048)[0]
    for model, window in ((model, 1), (model, 7), (model, 40), (fine, long)):
        got = projection_oracle(model, pattern, fun, window=window)
        want, taps = _reference_projection(model, pattern, fun, window)
        split = len(taps) * dim > DENSE_MAX_ORDER
        assert split == (window == long)
        assert (got.cg_iterations > 0) == split
        assert shapes == [SPLIT_SHAPES[gaps]] * split
        assert got.delta_oracle == pytest.approx(want, rel=1e-12)
        assert set(got.taps_oracle) == set(taps)
        for j, tap in taps.items():
            np.testing.assert_allclose(got.taps_oracle[j], tap, rtol=1e-12, atol=1e-14)
    # the observations explain part of the functional in every case, so the
    # projection, and its Schur steps over the extra points and holes, is tested
    assert variance - got.delta_oracle > 1e-6 * variance


# ---------------------------------------------------------------------------
# circulant sampling
# ---------------------------------------------------------------------------


def _paths(model, cfg, length):
    """(xi, eta) paths, shape (R, length, T); replication r uses stream (seed, r).

    Paths are synthesized 256 at a time.
    """
    emb = CirculantEmbedding(model, length)
    R, chunk = cfg.replications, 256
    paths = np.concatenate([
        emb.sample_block([_stream(cfg.seed, r) for r in range(s, min(s + chunk, R))])
        for s in range(0, R, chunk)])
    return paths[..., :model.dim], paths[..., model.dim:]


def test_sampler_covariance_is_exact():
    # With many replications the sample covariance must match R(h) to within
    # Monte-Carlo error; the acceptance band is ~5 standard errors.
    b, scale = 0.6, 1.0
    model = _scalar_ar1(b, scale, grid_size=512)
    cfg = SimulationConfig(replications=20000, seed=7)
    xi, eta = _paths(model, cfg, 8)
    assert eta.shape == xi.shape
    assert np.abs(eta).max() == 0.0  # noiseless model: silent noise channel
    for h in (0, 1, 3):
        emp = np.mean(xi[:, 0, 0] * xi[:, h, 0])
        want = scale * b ** h / (1 - b * b)
        assert emp == pytest.approx(want, abs=5 * 2.0 / np.sqrt(20000))


def test_sampler_cross_covariance():
    Cx = [np.array([[1.0]]), np.array([[0.6]])]
    Ce = [np.array([[0.8]])]
    S = np.array([[1.0, 0.5], [0.5, 1.0]])
    model = ma_pair_model(Cx, Ce, innovation_cov=S, grid_size=256)
    cfg = SimulationConfig(replications=30000, seed=3)
    xi, eta = _paths(model, cfg, 4)
    tol = 5 * 1.5 / np.sqrt(30000)
    want = coeffs_from_samples(model.samples("Fxe"), 0).coeff(0)[0, 0].real
    emp = np.mean(xi[:, 2, 0] * eta[:, 2, 0])
    assert emp == pytest.approx(want, abs=tol)
    # xi(t) = e1(t) + 0.6 e1(t-1) and eta(t) = 0.8 e2(t) with E e1 e2 = 0.5:
    # the lagged cross-covariances are not symmetric
    assert np.mean(xi[:, 3, 0] * eta[:, 2, 0]) == pytest.approx(0.6 * 0.8 * 0.5, abs=tol)
    assert np.mean(xi[:, 2, 0] * eta[:, 3, 0]) == pytest.approx(0.0, abs=tol)


def test_sampler_reproducible_and_prefix_stable():
    model = ar1_model(poles=(0.5,), noise_poles=(0.2,), grid_size=256)
    # replication streams are independent of the total count (prefix rule)
    emb = CirculantEmbedding(model, 6)
    full = emb.sample_block([_stream(11, r) for r in range(9)])
    assert np.array_equal(emb.sample_block([_stream(11, r) for r in range(4)]),
                          full[:4])
    # different seed, different draws
    other = emb.sample_block([_stream(12, r) for r in range(9)])
    assert not np.array_equal(other, full)


def test_stream_keying_is_per_replication():
    a = _stream(5, 0).standard_normal(4)
    b = _stream(5, 1).standard_normal(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, _stream(5, 0).standard_normal(4))


def test_embedding_rejects_indefinite_truncation():
    # A moving average of order 5 truncated to 4 lags by a deliberately
    # tiny margin has a negative circulant eigenvalue; the sampler must
    # refuse rather than silently clip it.
    coeffs = [[[comb(5, k) * 0.9 ** k]] for k in range(6)]
    model = ma_pair_model(coeffs, grid_size=256)
    with pytest.raises(SimulationMethodError):
        CirculantEmbedding(model, 1, margin=1)
    # with an adequate margin the same model embeds fine
    emb = CirculantEmbedding(model, 1, margin=8)
    assert emb.order >= 16


def test_embedding_order_covers_path_and_margin():
    model = _scalar_ar1(0.5, grid_size=256)
    emb = CirculantEmbedding(model, 10, margin=30)
    assert emb.order >= 2 * (10 + 30)
    assert emb.order & (emb.order - 1) == 0  # power of two


# ---------------------------------------------------------------------------
# Monte-Carlo mean-square error
# ---------------------------------------------------------------------------


def test_monte_carlo_zero_functional():
    model = _scalar_ar1(0.5, grid_size=256)
    fun = FunctionalSpec(coeffs=np.array([[0.0]]))
    out = monte_carlo_mse(model, MissingPattern(intervals=()), fun, {},
                          SimulationConfig(replications=50, seed=0))
    assert out.mse == 0.0


def test_monte_carlo_without_taps_measures_variance():
    model = _scalar_ar1(0.6, grid_size=256)
    fun = FunctionalSpec(coeffs=np.array([[1.0], [1.0]]))
    cfg = SimulationConfig(replications=4000, seed=2)
    out = monte_carlo_mse(model, MissingPattern(intervals=()), fun, {}, cfg)
    want = functional_variance(model, fun)
    assert abs(out.mse - want) < 5 * out.stderr


def test_monte_carlo_validates_estimated_error():
    model = BENCH["model"]()
    res = estimate(model, BENCH["pattern"], BENCH["functional"], K=48)
    cfg = SimulationConfig(replications=3000, seed=5)
    out = monte_carlo_mse(model, BENCH["pattern"], BENCH["functional"],
                          res.taps, cfg)
    z = (out.mse - BENCH["delta"]) / out.stderr
    assert abs(z) < 4
    # rerun is bit-identical
    again = monte_carlo_mse(model, BENCH["pattern"], BENCH["functional"],
                            res.taps, cfg)
    assert np.array_equal(out.errors, again.errors)
    assert out.mse == again.mse and out.stderr == again.stderr


def test_monte_carlo_prefers_optimal_taps():
    # Detuning the filter raises the realized error beyond noise level.
    model = _scalar_ar1(0.7, grid_size=256)
    pattern = MissingPattern(intervals=())
    fun = FunctionalSpec(coeffs=np.array([[1.0]]))
    res = estimate(model, pattern, fun, K=32)
    cfg = SimulationConfig(replications=6000, seed=9)
    good = monte_carlo_mse(model, pattern, fun, res.taps, cfg)
    detuned = {j: t + (0.3 if j == -1 else 0.0) for j, t in res.taps.items()}
    bad = monte_carlo_mse(model, pattern, fun, detuned, cfg)
    assert bad.mse > good.mse + 3 * bad.stderr


def _reference_errors(model, functional, taps, cfg, depth):
    """Squared filter errors on synthesized paths: sample_block, then the gather.

    The paths run from time -depth to the horizon N.
    """
    N = functional.horizon
    xi, eta = _paths(model, cfg, depth + N + 1)
    err = np.einsum("jt,bjt->b", functional.coeffs.real, xi[:, depth:])
    for j, tap in taps.items():
        err -= (xi + eta)[:, depth + j] @ tap.real
    return err ** 2


def _draw_weights(emb, gather):
    """Weights w with sum(gather * path) = w @ draws, for every stream.

    ``gather`` has shape (path_length, 2T); ``draws`` are the
    2 (m/2 + 1) 2T normals ``emb.sample_block`` takes from one stream, u then
    v.  The path is sqrt(m) irfft(A_k z_k), so the functional is
    m^{-1/2} sum_k c_k Re(h_k . z_k) with h_k = A_k^T conj(rfft(gather))_k and
    c_k = 1 at DC and Nyquist, 2 elsewhere.  There z_k = u_k (irfft would drop
    an imaginary part), so those v weights are 0; the v are still drawn, which
    keeps every stream's position.
    """
    m, half = emb.order, emb.order // 2
    H = np.conj(np.fft.rfft(gather, n=m, axis=0))
    h = np.einsum("kd,kde->ke", H, emb.factors[: half + 1])
    # c_k / sqrt(m), with the 1/sqrt(2) of z_k = (u_k + i v_k)/sqrt(2) folded in
    c = np.full((half + 1, 1), np.sqrt(2.0 / m))
    c[0] = c[half] = 1.0 / np.sqrt(m)
    h *= c
    w_v = -h.imag
    w_v[[0, half]] = 0.0
    return np.concatenate((h.real.ravel(), w_v.ravel()))


def _error_weights(model, functional, taps, depth):
    """``_draw_weights`` of the filter error: a on xi over 0..N, -taps on xi + eta."""
    d, N = model.dim, functional.horizon
    gather = np.zeros((depth + N + 1, 2 * d))
    gather[depth:, :d] = functional.coeffs.real
    for j, tap in taps.items():
        gather[depth + j] -= np.tile(tap.real, 2)
    return _draw_weights(CirculantEmbedding(model, depth + N + 1), gather)


@pytest.mark.parametrize("dim", (1, 2))
@pytest.mark.parametrize("kind", ("noiseless", "ar1", "ma_pair"))
@pytest.mark.parametrize("gaps", (False, True))
def test_monte_carlo_matches_path_reference(dim, kind, gaps):
    # The weight route applies the filter to the normal draws; the reference
    # synthesizes every path and gathers the error in the time domain.  So
    # the error is N(0, w . w), and monte_carlo_mse's quadrature of the taps
    # is that variance.
    noiseless = kind == "noiseless"
    model, pattern, fun = _oracle_instance(dim, "ar1" if noiseless else kind,
                                           "two" if gaps else "none", seed=dim + 7)
    if noiseless:
        model = ar1_model(poles=(0.6, -0.3)[:dim], grid_size=256)
    window = 6
    rng = np.random.default_rng(dim)
    # observed lags inside the window, plus one deeper than the window
    idx = [j for j in pattern.observed_window(window + 4) if j in (-1, -3, -5, -10)]
    assert min(idx) < -window
    taps = {j: rng.normal(size=dim) for j in idx}
    cfg = SimulationConfig(replications=37, seed=4)
    depth = max([window] + [-j for j in taps])
    w = _error_weights(model, fun, taps, depth)
    got = np.array([w @ _stream(cfg.seed, r).standard_normal(w.size)
                    for r in range(cfg.replications)]) ** 2
    want = _reference_errors(model, fun, taps, cfg, depth)
    assert np.abs(want).max() > 0
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    exact = monte_carlo_mse(model, pattern, fun, taps, cfg).mse_exact
    assert exact == pytest.approx(w @ w, rel=1e-13)


def test_monte_carlo_resolves_a_coarse_grid():
    # A pole near 1 on a 512-node grid: that grid's rectangle rule aliases
    # R(0) to R(0) (1 + rho^512) / (1 - rho^512), about 17% high.  The exact
    # error variance is taken on a grid that resolves the covariances, so it
    # is the law of the synthesized paths and R(0) = 1 / (1 - rho^2) itself.
    rho = 0.995
    model = _scalar_ar1(rho, grid_size=512)
    fun = FunctionalSpec(coeffs=np.array([[1.0]]))
    cfg = SimulationConfig(replications=37, seed=4)
    w = _error_weights(model, fun, {}, 0)
    got = np.array([w @ _stream(cfg.seed, r).standard_normal(w.size)
                    for r in range(cfg.replications)]) ** 2
    want = _reference_errors(model, fun, {}, cfg, 0)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    exact = monte_carlo_mse(model, MissingPattern(intervals=()), fun, {}, cfg).mse_exact
    assert exact == pytest.approx(w @ w, rel=1e-13)
    assert exact == pytest.approx(1 / (1 - rho ** 2), rel=1e-12)
    aliased = filter_error(model, fun.a_on_grid(512), np.zeros((512, 1)))
    assert aliased == pytest.approx((1 + rho ** 512) / (1 - rho ** 512) / (1 - rho ** 2),
                                    rel=1e-12)


def test_monte_carlo_refuses_a_grid_above_the_cap():
    # taps 2^21 lags deep need a grid of 2^24 nodes to resolve them: the finer
    # grid is refused by the grid rule, a typed error, before any sample is taken
    model = _scalar_ar1(0.5, grid_size=64)
    with pytest.raises(InvalidParameterError, match="from 64 to 4194304, got 16777216$"):
        monte_carlo_mse(model, MissingPattern(intervals=()),
                        FunctionalSpec(coeffs=np.array([[1.0]])), {-(2 ** 21): np.array([0.1])},
                        SimulationConfig(replications=2, seed=0))


def test_monte_carlo_draws_one_normal_per_replication():
    model, pattern, fun = _oracle_instance(2, "ma_pair", "two", seed=3)
    taps = {-3: np.array([0.4, -0.2]), -10: np.array([0.1, 0.3])}
    runs = [monte_carlo_mse(model, pattern, fun, taps,
                            SimulationConfig(replications=R, seed=11))
            for R in (4, 9)]
    eps = _stream(11, 0).standard_normal(9)
    assert runs[1].mse_exact > 0
    assert np.array_equal(runs[1].errors, runs[1].mse_exact * eps ** 2)
    # replication r's error does not depend on the count (prefix rule)
    assert runs[0].mse_exact == runs[1].mse_exact
    assert np.array_equal(runs[0].errors, runs[1].errors[:4])


@pytest.mark.parametrize("example", ("benchmark", "noisy_ar1"))
def test_exact_error_matches_quadrature_of_the_taps(example):
    # Third route to delta: the time-domain error variance of the written
    # taps equals the quadrature of those taps put on the grid, h = sum_j
    # tap_j e^{i j lambda}, with no operator solve in between.  The check
    # runs it on four times the model's grid, one monte_carlo_mse does not use
    # (2048 nodes on both examples), so it compares two quadratures.
    cfg = load_config(Path(__file__).parents[1] / "docs" / "examples" / f"{example}.yaml")
    model, pattern, fun = build_model(cfg), build_pattern(cfg), build_functional(cfg)
    res = estimate(model, pattern, fun, K=cfg.truncation)
    sim = dataclasses.replace(build_simulation(cfg), replications=2)
    exact = monte_carlo_mse(model, pattern, fun, res.taps, sim).mse_exact
    lags = sorted(res.taps)
    fine = model.with_grid(4 * model.grid_size)
    h = trig_poly_on_grid(lags, [res.taps[j] for j in lags], fine.grid_size)
    quad = filter_error(fine, fun.a_on_grid(fine.grid_size) - h, h)
    assert exact == pytest.approx(quad, rel=1e-13)
    assert exact == pytest.approx(res.delta, rel=1e-12)
    if example == "benchmark":   # and on the closed form 10 + 8 b1 + 4 b1^2 + 2 b2 + b2^2
        assert exact == pytest.approx(15.69, rel=1e-12)


def test_monte_carlo_rejects_unobservable_taps():
    model = _scalar_ar1(0.5, grid_size=256)
    pattern = MissingPattern(intervals=((2, 0),))
    fun = FunctionalSpec(coeffs=np.array([[1.0]]))
    cfg = SimulationConfig(replications=10, seed=0)
    with pytest.raises(InvalidParameterError):
        monte_carlo_mse(model, pattern, fun, {0: np.array([1.0])}, cfg)
    with pytest.raises(InvalidParameterError):
        monte_carlo_mse(model, pattern, fun, {-2: np.array([1.0])}, cfg)


def test_monte_carlo_judges_realness_relative_to_each_array():
    # 10% imaginary at scale 1e-12 is complex; 1e-16 relative at scale 1e8 is rounding
    model = ar1_model([0.5], noise_poles=[0.2], grid_size=512)
    pattern = MissingPattern(intervals=((2, 0),))
    taps = estimate(model, pattern, FunctionalSpec(coeffs=[[1.0]]), K=16).taps
    cfg = SimulationConfig(replications=4)

    def exact(coeffs, scale=1.0, phase=1.0):
        turned = {j: scale * phase * v for j, v in taps.items()}
        return monte_carlo_mse(model, pattern, FunctionalSpec(coeffs=coeffs), turned,
                               cfg).mse_exact

    with pytest.raises(InvalidParameterError, match="real functional coefficients"):
        exact([[1e-12 + 1e-13j]])
    with pytest.raises(InvalidParameterError, match="real-valued taps"):
        exact([[1.0]], 1e-12, 1 + 0.1j)
    assert exact([[1e8 + 1e-8j]]) == pytest.approx(exact([[1e8]]), rel=1e-14)
    assert exact([[1.0]], 1e8, 1 + 1e-16j) == exact([[1.0]], 1e8)


@pytest.mark.parametrize("name", sorted(COMPLEX_MODELS))
def test_monte_carlo_refuses_a_complex_process(name):
    # complex covariances: no real path has this law
    model = COMPLEX_MODELS[name]()
    fun = FunctionalSpec(coeffs=np.ones((1, model.dim)))
    with pytest.raises(SimulationMethodError, match="real-valued process"):
        monte_carlo_mse(model, MissingPattern(intervals=()), fun, {},
                        SimulationConfig(replications=2))


def test_simulation_config_validation():
    with pytest.raises(InvalidParameterError):
        SimulationConfig(replications=0)
    # the seed is one 64-bit word of the stream key
    for seed in (-1, 2 ** 64):
        with pytest.raises(InvalidParameterError):
            SimulationConfig(seed=seed)
    assert _stream(SimulationConfig(seed=2 ** 64 - 1).seed, 0).standard_normal() != 0

"""Tests for the optimal-extrapolation layer.

Closed-form anchors:
  * autoregressive order-1 prediction (innovation variance, geometric taps),
  * white signals (no usable past, error equals the functional's variance),
  * the paired-AR(1) benchmark with gap {-3, -2} whose error is the
    polynomial 10 + 8 b1 + 4 b1^2 + 2 b2 + b2^2 and whose filter has a
    single nonconstant tap at lag -1.
Structural checks: the two independent error formulas agree to machine
precision, the error is nonnegative, orthogonality of the residual to the
observed past holds, and the truncated error is monotone in the order.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from gapcast import (
    FunctionalSpec,
    MissingPattern,
    SpectralModel,
    ar1_model,
    ar1_scalar,
    delta_of_characteristic,
    default_truncation,
    estimate,
    make_ar1_pair,
    ma_pair_model,
    optimal_delta,
    white_model,
)
import gapcast.extrapolate as extrapolate_module
from gapcast.config import build_functional, build_model, build_pattern, load_config
from gapcast.oracle import functional_variance
from gapcast.spectral import (
    coeffs_from_samples,
    diagonal_ar1_density,
    grid_points,
    trig_poly_on_grid,
)
from gapcast.errors import InternalConsistencyError, InvalidParameterError
from exact_reference import ar1_window_projection


def _scalar_ar1(b, scale=1.0, grid_size=512):
    return SpectralModel(dim=1,
                         F=lambda lam: ar1_scalar(lam, b, scale)[:, None, None],
                         grid_size=grid_size, pole_modulus=abs(b))


def _random_instance(seed, grid_size=512, dim=None):
    """Random noisy model + pattern + functional for structural checks."""
    rng = np.random.default_rng(seed)
    drawn = int(rng.integers(1, 3))
    dim = drawn if dim is None else dim
    model = ar1_model(poles=rng.uniform(-0.7, 0.7, size=dim),
                      scales=rng.uniform(0.5, 2.0, size=dim),
                      mix=np.eye(dim) + 0.3 * rng.normal(size=(dim, dim)),
                      noise_poles=rng.uniform(-0.5, 0.5, size=dim),
                      noise_scales=rng.uniform(0.2, 1.0, size=dim),
                      grid_size=grid_size)
    intervals = [(int(rng.integers(1, 4)), int(rng.integers(0, 3)))]
    if rng.random() < 0.5:
        depth = intervals[0][0] + intervals[0][1]
        intervals.append((depth + 2, int(rng.integers(0, 2))))
    pattern = MissingPattern(intervals=tuple(intervals))
    N = int(rng.integers(0, 3))
    functional = FunctionalSpec(coeffs=rng.normal(size=(N + 1, dim)))
    return model, pattern, functional


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_white_signal_error_is_functional_variance():
    model = white_model(1, scale=1.7, grid_size=256)
    fun = FunctionalSpec(coeffs=np.array([[1.0], [2.0]]))
    res = estimate(model, MissingPattern(intervals=()), fun, K=8)
    assert res.delta == pytest.approx(1.7 * 5.0, rel=1e-12)
    assert np.abs(res.h_grid).max() < 1e-10


@pytest.mark.parametrize("b,scale", [(0.6, 1.3), (-0.5, 0.7)])
def test_ar1_one_step_prediction(b, scale):
    # One-step error is the innovation variance; the filter is the
    # autoregression itself: single tap b at lag -1.
    model = _scalar_ar1(b, scale)
    res = estimate(model, MissingPattern(intervals=()),
                   FunctionalSpec(coeffs=np.array([[1.0]])), K=32)
    assert res.delta == pytest.approx(scale, rel=1e-10)
    assert res.taps[-1][0] == pytest.approx(b, rel=1e-9, abs=1e-12)
    others = max(np.abs(res.taps[j]).max() for j in res.taps if j != -1)
    assert others < 1e-10


def test_ar1_prediction_across_single_gap():
    # Missing {-1}: the best predictor is b^2 xi(-2) with error
    # scale * (1 + b^2), absorbing one unpredictable innovation.
    b, scale = 0.6, 1.3
    model = _scalar_ar1(b, scale)
    res = estimate(model, MissingPattern(intervals=((1, 0),)),
                   FunctionalSpec(coeffs=np.array([[1.0]])), K=32)
    assert res.delta == pytest.approx(scale * (1 + b * b), rel=1e-10)
    assert res.taps[-2][0] == pytest.approx(b * b, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("b1,b2", [(0.5, 0.3), (-0.4, 0.6), (0.0, 0.0),
                                   (0.9, 0.9)])
def test_benchmark_error_polynomial(b1, b2):
    # K=None exercises the pole-driven default truncation, which must be
    # deep enough even at pole 0.9.
    model = make_ar1_pair(b1, b2, grid_size=1024)
    pattern = MissingPattern(intervals=((2, 1),))
    fun = FunctionalSpec(coeffs=np.array([[1.0, 1.0], [1.0, 1.0]]))
    want = 10 + 8 * b1 + 4 * b1 ** 2 + 2 * b2 + b2 ** 2
    res = estimate(model, pattern, fun, K=None)
    assert res.delta == pytest.approx(want, rel=1e-8)


def test_benchmark_solution_structure():
    b1, b2 = 0.5, 0.3
    model = make_ar1_pair(b1, b2, grid_size=1024)
    pattern = MissingPattern(intervals=((2, 1),))
    fun = FunctionalSpec(coeffs=np.array([[1.0, 1.0], [1.0, 1.0]]))
    res = estimate(model, pattern, fun, K=48)
    # c(0) = (2 + 2 b1, 3 + 2 b1 + b2); the gap coefficients vanish.
    assert np.allclose(res.c[0], [2 + 2 * b1, 3 + 2 * b1 + b2], atol=1e-9)
    assert np.abs(res.c[-3]).max() < 1e-9
    assert np.abs(res.c[-2]).max() < 1e-9
    # single nonconstant tap at lag -1
    tap = res.taps[-1]
    want = [2 * (b1 + b1 ** 2) - (b2 + b2 ** 2), b2 + b2 ** 2]
    assert np.allclose(tap, want, atol=1e-8)
    others = max(np.abs(res.taps[j]).max() for j in res.taps if j != -1)
    assert others < 1e-8
    assert res.diagnostics.tap_tail_mass < 1e-10


# ---------------------------------------------------------------------------
# structural invariants on random instances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_two_error_routes_agree(seed):
    model, pattern, functional = _random_instance(seed)
    res = estimate(model, pattern, functional, K=24)
    d = res.diagnostics
    assert res.delta >= 0
    assert d.two_form_rel_diff < 1e-10
    assert d.orthogonality_max < 1e-8
    assert d.gap_coeff_max < 1e-8


@pytest.mark.parametrize("scale", [1e-15, 1.0, 1e9])
def test_two_form_rel_diff_is_unit_free(scale):
    # AR(0.9) signal in AR(0.3) noise: the difference is relative to the two
    # errors alone, so no unit is special
    model = ar1_model([0.9], scales=[scale], noise_poles=[0.3], noise_scales=[0.5 * scale],
                      grid_size=1024)
    d = estimate(model, MissingPattern(intervals=((2, 0),)),
                 FunctionalSpec(coeffs=[[1.0], [1.0]]), K=64).diagnostics
    op, quad = d.delta_operator, d.delta_quadrature
    assert d.two_form_rel_diff == abs(op - quad) / max(abs(op), abs(quad))


def test_two_form_rel_diff_of_two_zero_errors_is_zero():
    model = ar1_model([0.9], noise_poles=[0.3], grid_size=256)
    d = estimate(model, MissingPattern(intervals=((2, 0),)),
                 FunctionalSpec(coeffs=[[0.0]]), K=16).diagnostics
    assert d.delta_operator == d.delta_quadrature == d.two_form_rel_diff == 0.0
    assert d.orthogonality_max == 0.0


def test_orthogonality_max_is_unit_free():
    # the same instance in three units: the residual's coefficients on the
    # observed past are read against its largest, so the units cancel
    values = []
    for scale in (1e-15, 1.0, 1e9):
        model = ar1_model([0.9], scales=[scale], noise_poles=[0.3],
                          noise_scales=[0.5 * scale], grid_size=1024)
        values.append(estimate(model, MissingPattern(intervals=((2, 0),)),
                               FunctionalSpec(coeffs=[[1.0], [1.0]]), K=64)
                      .diagnostics.orthogonality_max)
    assert max(values) <= 1e-15
    assert max(values) <= 2 * min(values)


EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


def _example(name):
    cfg = load_config(EXAMPLES / f"{name}.yaml")
    return build_model(cfg), build_pattern(cfg), build_functional(cfg), cfg.truncation


@pytest.mark.parametrize("name", ["benchmark", "noisy_ar1"])
def test_gap_coeff_max_is_unit_free(name):
    # the functional in three units: h scales with it, and the gap weight is
    # read against a's largest coefficient.  In absolute units it read 3.6e-16
    # on noisy_ar1 and 4.4e-7 with the functional 1e9 times larger
    model, pattern, functional, K = _example(name)
    for scale in (1e-9, 1.0, 1e9):
        scaled = FunctionalSpec(coeffs=scale * functional.coeffs)
        assert estimate(model, pattern, scaled, K=K).diagnostics.gap_coeff_max <= 1e-14


@pytest.mark.parametrize("name", ["benchmark", "noisy_ar1"])
def test_a_wrong_solve_is_caught(name, monkeypatch):
    # coefficients 1% off raise delta above its own filter's exact error, put
    # weight on U_K and split the two error routes; orthogonality_max holds by
    # construction and cannot see it
    model, pattern, functional, K = _example(name)
    real = extrapolate_module.solve_coefficients

    def wrong(system, a):
        sol = real(system, a)
        return dataclasses.replace(sol, c=1.01 * sol.c)

    monkeypatch.setattr(extrapolate_module, "solve_coefficients", wrong)
    with pytest.raises(InternalConsistencyError, match="the solve is wrong"):
        estimate(model, pattern, functional, K=K)
    # the diagnostics the refusal reads, with the refusal lifted
    monkeypatch.setattr(extrapolate_module, "ROUNDING_ALLOWANCE", np.inf)
    d = estimate(model, pattern, functional, K=K).diagnostics
    assert -2e-2 <= d.bracket_rel_width <= -5e-3
    assert d.two_form_rel_diff >= 1e-3
    assert d.gap_coeff_max >= 1e-3
    assert d.orthogonality_max <= 1e-15


@pytest.mark.parametrize("seed", [307, 313, 316])
def test_an_ill_conditioned_correct_solve_is_accepted(seed, monkeypatch):
    # mixed AR(1) components, the last at 1e-6..1e-11 of the others' power,
    # solved by conjugate gradients (K = 200).  The operator route's rounding
    # parts delta from its filter's error by up to about cond_B * eps / 5,
    # either sign: here -4.2e-8, -7.2e-9 and -2.0e-8 at cond_B 3.8e10,
    # 1.6e9 and 2.0e11, each far beyond ROUNDING_ALLOWANCE and each accepted.
    # Coefficients 1% off are still refused
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    poles = rng.uniform(-0.95, 0.95, size=dim)
    mix = np.eye(dim) + 0.4 * rng.normal(size=(dim, dim))
    functional = FunctionalSpec(coeffs=rng.normal(size=(int(rng.integers(0, 3)) + 1, dim)))
    pattern = MissingPattern(intervals=((int(rng.integers(1, 4)), int(rng.integers(0, 3))),))
    scales = np.ones(dim)
    scales[-1] = 10.0 ** -rng.uniform(6, 11)
    model = ar1_model(poles, scales=scales, mix=mix, grid_size=4096)
    d = estimate(model, pattern, functional, K=200).diagnostics
    assert d.cg_iterations > 0
    assert d.two_form_rel_diff >= 1e4 * extrapolate_module.ROUNDING_ALLOWANCE
    assert abs(d.bracket_rel_width) <= d.cond_B * np.finfo(float).eps

    real = extrapolate_module.solve_coefficients

    def wrong(system, a):
        sol = real(system, a)
        return dataclasses.replace(sol, c=1.01 * sol.c)

    monkeypatch.setattr(extrapolate_module, "solve_coefficients", wrong)
    with pytest.raises(InternalConsistencyError, match="the solve is wrong"):
        estimate(model, pattern, functional, K=200)


def _window_error(model, pattern, functional, res, window):
    """The exact error of the estimate's characteristic cut to the observed
    past of length ``window``, built here from its Fourier coefficients."""
    L = res.diagnostics.max_lag
    h = coeffs_from_samples(res.h_grid[:, :, None], L).data[:, :, 0]
    lags = np.array([j for j in pattern.observed_window(L) if j >= -window])
    hw = trig_poly_on_grid(lags, h[lags + L], model.grid_size)
    return extrapolate_module.filter_error(model, functional.a_on_grid(model.grid_size) - hw,
                                           hw)


@pytest.mark.parametrize("name,window,half_meets", [
    # Example 1's filter is one tap at lag -1: every window meets the
    # allowance, and 8 is the shortest the search tries
    ("benchmark", 8, True),
    # noisy_ar1's window 8 reads about 1.3e-9 above the 4K window
    ("noisy_ar1", 16, False)])
def test_taps_are_the_shortest_window_with_the_4K_error(name, window, half_meets):
    cfg = load_config(EXAMPLES / f"{name}.yaml")
    cfg.numerics["grid_size"] = 8192
    model, pattern, functional = build_model(cfg), build_pattern(cfg), build_functional(cfg)
    res = estimate(model, pattern, functional, K=512)
    d = res.diagnostics
    assert d.taps_window == window
    assert set(res.taps) == set(pattern.observed_window(window))
    full = _window_error(model, pattern, functional, res, 4 * 512)
    allowance = extrapolate_module.ROUNDING_ALLOWANCE
    assert d.delta_filter == _window_error(model, pattern, functional, res, window)
    assert d.delta_filter - full <= allowance * full
    assert (_window_error(model, pattern, functional, res, window // 2) - full
            <= allowance * full) == half_meets


@pytest.mark.parametrize("rho,window,below", [
    (0.6, 400, 4.5e-12), (0.9, 1000, 1.7e-9), (0.99, 2000, 2.9e-9)])
def test_the_bracket_holds_the_exact_error(rho, window, below):
    # AR(rho) in AR(0.2) noise of scale 0.5, gap {-3, -2}, xi(0), default K,
    # on 4096 nodes.  The exact error is the closed-form projection on a window
    # that a longer window reproduces to rounding; delta_K sits ``below`` it,
    # relative, and the written filter's exact error does not
    model = ar1_model(poles=[rho], noise_poles=[0.2], noise_scales=[0.5], grid_size=4096)
    res = estimate(model, MissingPattern(intervals=((2, 1),)), FunctionalSpec(coeffs=[[1.0]]))
    exact, _ = ar1_window_projection(rho, 0.2, 0.5, [-3, -2], [[1.0]], window)
    d = res.diagnostics
    allowance = extrapolate_module.ROUNDING_ALLOWANCE
    assert res.delta <= exact * (1 + allowance)
    assert exact <= d.delta_filter * (1 + allowance)
    assert (exact - res.delta) / exact == pytest.approx(below, rel=0.01)
    assert d.bracket_rel_width >= (exact - res.delta) / exact - allowance


# ---------------------------------------------------------------------------
# properties over seeded random instances
# ---------------------------------------------------------------------------

# K at which the truncation error of _random_instance (poles <= 0.7) is far
# below the comparisons' tolerance
PROP_K = 64


def _slack(*results):
    """Relative tolerance of a comparison: the larger two-route gap, or 1e-10."""
    return max([1e-10] + [r.diagnostics.two_form_rel_diff for r in results])


@pytest.mark.parametrize("seed", range(12))
def test_delta_between_zero_and_functional_variance(seed):
    model, pattern, functional = _random_instance(seed)
    res = estimate(model, pattern, functional, K=PROP_K)
    var = functional_variance(model, functional)
    assert -_slack(res) * var <= res.delta <= var * (1 + _slack(res))


@pytest.mark.parametrize("seed", range(12))
def test_enlarging_the_gap_set_never_lowers_delta(seed):
    model, pattern, functional = _random_instance(seed)
    base = estimate(model, pattern, functional, K=PROP_K)
    rng = np.random.default_rng(1000 + seed)
    deepest = pattern.max_depth
    deeper = pattern.intervals + ((deepest + int(rng.integers(2, 6)),
                                   int(rng.integers(0, 3))),)
    recent = ((1, deepest - 1),)    # S and every point after it
    for intervals in (deeper, recent):
        enlarged = MissingPattern(intervals=intervals)
        assert set(pattern.points) <= set(enlarged.points)
        bigger = estimate(model, enlarged, functional, K=PROP_K)
        assert bigger.delta >= base.delta * (1 - _slack(base, bigger))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("noisy", (True, False), ids=("noisy", "noiseless"))
def test_adding_independent_noise_never_lowers_delta(seed, noisy):
    model, pattern, functional = _random_instance(seed)
    if not noisy:
        model = dataclasses.replace(model, G=None, _samples={})
    rng = np.random.default_rng(2000 + seed)
    extra = diagonal_ar1_density(rng.uniform(-0.5, 0.5, size=model.dim),
                                 rng.uniform(0.1, 1.0, size=model.dim))
    own = model.G
    G = extra if own is None else (lambda lam: own(lam) + extra(lam))
    louder = dataclasses.replace(model, G=G, _samples={})
    base = estimate(model, pattern, functional, K=PROP_K)
    more = estimate(louder, pattern, functional, K=PROP_K)
    assert more.delta >= base.delta * (1 - _slack(base, more))


@pytest.mark.parametrize("seed", range(12))
def test_optimal_delta_is_the_estimate_delta(seed):
    model, pattern, functional = _random_instance(seed)
    for K in (None, 24):
        assert optimal_delta(model, pattern, functional, K=K) \
            == estimate(model, pattern, functional, K=K).delta


def _change_coordinates(model, M):
    """The model of (M xi, M eta): every density D becomes M D M^T."""
    def moved(which):
        return M @ model.samples(which) @ M.T

    return SpectralModel(dim=model.dim, F=moved("F"), G=moved("G"),
                         F_xe=None if model.is_uncorrelated else moved("Fxe"),
                         grid_size=model.grid_size, pole_modulus=model.pole_modulus)


def _correlated_pair(seed, grid_size=512):
    """T = 2 moving-average signal and noise driven by correlated innovations."""
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(4, 4))
    return ma_pair_model([np.eye(2), 0.4 * rng.normal(size=(2, 2))],
                         [0.5 * np.eye(2), 0.2 * rng.normal(size=(2, 2))],
                         innovation_cov=root @ root.T + 0.5 * np.eye(4),
                         grid_size=grid_size)


@pytest.mark.parametrize("seed", range(8))
def test_change_of_coordinates_leaves_delta_unchanged(seed):
    # observing M(xi + eta) is observing xi + eta, and a^T xi = (M^{-T} a)^T (M xi)
    model, pattern, functional = _random_instance(seed, dim=2)
    if seed % 2:
        model = _correlated_pair(seed)
    rng = np.random.default_rng(3000 + seed)
    M = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    moved_fun = FunctionalSpec(coeffs=functional.coeffs @ np.linalg.inv(M))
    base = estimate(model, pattern, functional, K=PROP_K)
    moved = estimate(_change_coordinates(model, M), pattern, moved_fun, K=PROP_K)
    assert moved.delta == pytest.approx(base.delta, rel=max(1e-10, _slack(base, moved)))


def test_error_scales_quadratically():
    model, pattern, functional = _random_instance(42)
    d1 = estimate(model, pattern, functional, K=16).delta
    doubled = FunctionalSpec(coeffs=2.0 * functional.coeffs)
    d2 = estimate(model, pattern, doubled, K=16).delta
    assert d2 == pytest.approx(4.0 * d1, rel=1e-10)


def test_truncated_error_monotone_in_order():
    model = _scalar_ar1(0.7, grid_size=1024)
    pattern = MissingPattern(intervals=((2, 1),))
    fun = FunctionalSpec(coeffs=np.array([[1.0], [0.5]]))
    deltas = [estimate(model, pattern, fun, K=K).delta for K in (8, 16, 32, 64)]
    for lo, hi in zip(deltas, deltas[1:]):
        assert hi >= lo - 1e-12
    # and doubling the order from 64 no longer moves the error
    d128 = estimate(model, pattern, fun, K=128).delta
    assert abs(d128 - deltas[-1]) / max(abs(d128), 1e-12) < 1e-9


def test_zero_characteristic_recovers_functional_variance():
    model, _, functional = _random_instance(3)
    h0 = np.zeros((model.grid_size, model.dim))
    direct = delta_of_characteristic(model, functional, h0)
    assert direct == pytest.approx(functional_variance(model, functional),
                                   rel=1e-10)


def test_optimal_characteristic_beats_perturbations():
    model, pattern, functional = _random_instance(9)
    res = estimate(model, pattern, functional, K=24)
    base = delta_of_characteristic(model, functional, res.h_grid)
    assert base == pytest.approx(res.delta, rel=1e-8)
    rng = np.random.default_rng(0)
    lam = model.lam
    for _ in range(4):
        # admissible perturbation: supported on observed negative lags
        bump = sum(rng.normal() * np.exp(1j * j * lam)
                   for j in pattern.observed_window(12))
        pert = res.h_grid + 0.05 * bump[:, None] * rng.normal(size=model.dim)
        assert delta_of_characteristic(model, functional, pert) >= base - 1e-10


# ---------------------------------------------------------------------------
# defaults and taps
# ---------------------------------------------------------------------------


def test_default_truncation_rules():
    fun = FunctionalSpec(coeffs=np.ones((3, 1)))
    pole_half = _scalar_ar1(0.5)
    assert default_truncation(pole_half, fun) == 2 + 8 * 2
    free = SpectralModel(dim=1, F=lambda lam: np.ones((len(lam), 1, 1)),
                         grid_size=256, pole_modulus=None)
    assert default_truncation(free, fun) == 2 + 64


def test_filter_taps_window_and_gaps():
    model = _scalar_ar1(0.6)
    pattern = MissingPattern(intervals=((2, 0),))
    res = estimate(model, pattern, FunctionalSpec(coeffs=np.array([[1.0]])),
                   K=16)
    # AR(1): x(0) ~ 0.6 x(-1), so the shortest window tried, 8 lags of the
    # 4K = 64, has the exact error of them all; the taps skip the gap
    assert res.diagnostics.taps_window == 8
    assert set(res.taps) == {j for j in range(-8, 0) if j != -2}
    assert res.taps[-1] == pytest.approx(0.6, abs=1e-6)


def test_taps_and_tail_mass_match_loop_reference():
    # K = 2 makes the taps window (4K = 8) shorter than the checked lag range
    # (K + depth + 8 = 15), so observed lags -15..-9 count toward the tail.
    model = ar1_model(poles=(0.6, -0.4), noise_poles=(0.2, 0.3),
                      noise_scales=(0.4, 0.2), grid_size=512)
    pattern = MissingPattern(intervals=((1, 1), (5, 0)))
    K = 2
    res = estimate(model, pattern, FunctionalSpec(coeffs=[[1.0, 0.0], [0.0, 2.0]]), K=K)
    L = res.diagnostics.max_lag
    assert L == 15
    h = coeffs_from_samples(res.h_grid[:, :, None], L)
    norms = np.linalg.norm(h.data[:, :, 0], axis=1)
    # the per-lag loops the estimate once ran
    window = [j for j in range(-4 * K, 0)
              if not any(-m - n <= j <= -m for m, n in pattern.intervals)]
    assert list(res.taps) == window
    for j in window:
        assert np.array_equal(res.taps[j], h.data[j + L, :, 0])
    used = set(window) | set(pattern.points) | set(range(K + 1))
    tail = sum(norms[k + L] ** 2 for k in range(-L, L + 1) if k not in used)
    assert res.diagnostics.tap_tail_mass == pytest.approx(tail / np.sum(norms ** 2),
                                                          rel=1e-12)


def _phase_matrix_eval(lam, lags, coeffs):
    """sum_j coeffs[j] e^{i lags[j] lambda}: the n x len(lags) phase-matrix product."""
    return np.exp(1j * np.outer(lam, lags)) @ coeffs


def _normwise_close(got, ref, rtol):
    return np.abs(got - ref).max() <= rtol * np.abs(ref).max()


@pytest.mark.parametrize("seed", range(4))
def test_characteristic_matches_phase_matrix_reference(seed):
    model, pattern, functional = _random_instance(seed)
    assert pattern.size > 0
    res = estimate(model, pattern, functional, K=20)
    sys, lam, n = res.system, model.lam, model.grid_size
    c_blocks = np.array([res.c[j] for j in sys.entries.tolist()])

    C_ref = _phase_matrix_eval(lam, sys.entries, c_blocks)
    A_ref = _phase_matrix_eval(lam, np.arange(functional.horizon + 1), functional.coeffs)
    assert _normwise_close(trig_poly_on_grid(sys.entries, c_blocks, n), C_ref, 1e-12)
    assert _normwise_close(functional.a_on_grid(n), A_ref, 1e-12)

    X = model.samples("F") + model.samples("Fxe")
    AX = np.einsum("nt,ntu->nu", A_ref, X)
    h_ref = np.einsum("nt,ntu->nu", AX - C_ref, sys.Zinv)
    assert _normwise_close(res.h_grid, h_ref, 1e-12)


def test_trig_poly_on_grid_folds_lags_beyond_the_grid():
    n = 16
    lags = np.array([-n - 3, -5, 0, 7, n, 2 * n + 1])
    coeffs = np.random.default_rng(0).normal(size=(lags.size, 2))
    ref = _phase_matrix_eval(grid_points(n), lags, coeffs)
    assert _normwise_close(trig_poly_on_grid(lags, coeffs, n), ref, 1e-12)


def test_benchmark_example_condition_numbers_pinned():
    # docs/examples/benchmark.yaml: the dense 2-norm and 1-norm condition
    # numbers, and the spread of F_zeta over the grid, reported as cond_B,
    # which bounds the 2-norm one
    model, pattern, functional, K = _example("benchmark")
    res = estimate(model, pattern, functional, K=K)
    B = res.system.Bmat
    assert np.linalg.cond(B) == pytest.approx(44.235451368951, rel=1e-11)
    kappa_1 = np.linalg.norm(B, 1) * np.linalg.norm(np.linalg.inv(B), 1)
    assert kappa_1 == pytest.approx(56.529795918367, rel=1e-11)
    assert res.diagnostics.cond_B == pytest.approx(44.326394573603, rel=1e-11)
    assert np.linalg.cond(B) <= res.diagnostics.cond_B


def test_functional_validation():
    with pytest.raises(InvalidParameterError):
        FunctionalSpec(coeffs=np.zeros((0, 2)))
    with pytest.raises(InvalidParameterError):
        FunctionalSpec(coeffs=np.array([[np.nan]]))


@pytest.mark.parametrize("coeffs,dtype", [
    ([[1, 2]], np.float64),
    (np.array([[1.0], [0.5]]), np.float64),
    (np.array([[1.0, 2.0]], dtype=np.float32), np.float64),
    ([[1.0, 0.5j]], np.complex128),
    (np.array([[1.0 + 0j]]), np.complex128),
], ids=["int", "float64", "float32", "complex", "complex_real_valued"])
def test_functional_keeps_real_coefficients_real(coeffs, dtype):
    assert FunctionalSpec(coeffs=coeffs).coeffs.dtype == dtype


def test_dimension_mismatch_rejected():
    model = white_model(2, grid_size=256)
    with pytest.raises(InvalidParameterError):
        estimate(model, MissingPattern(intervals=()),
                 FunctionalSpec(coeffs=np.array([[1.0]])), K=8)

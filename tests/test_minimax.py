"""Tests for the robust (least-favorable) estimation layer.

Design: all exactness assertions use instances whose least-favorable member
is available in closed form.  For fixed-power classes the flat density is
least favorable for prediction, the optimal filter there is zero, and the
coupling field is constant -- so the multiplier structure is matched
exactly and the equation residuals must vanish.  Detuned family points act
as negative controls: the saddle check must flag them and their residuals
must be large.
"""

import json
import re
import tracemalloc
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gapcast import (
    ClassData,
    DensityClass,
    DensityFamily,
    FunctionalSpec,
    LeastFavorableResult,
    MissingPattern,
    OptConfig,
    SpectralModel,
    ar1_fixed_power_family,
    ar1_model,
    characterization_residuals,
    class_constraint_report,
    contamination_family,
    delta_of_characteristic,
    estimate,
    evaluate_candidate,
    grid_points,
    ma_pair_model,
    maximize_delta,
    scalar_mixture_family,
    singleton_family,
    verify_saddle_point,
    white_model,
)
import gapcast.minimax as minimax_module
from gapcast.config import build_class, build_functional, build_pattern, load_config
from gapcast.errors import (
    DataShapeError,
    InfeasibleClassError,
    InternalConsistencyError,
    InvalidParameterError,
    UnsupportedClassError,
)
from gapcast.extrapolate import filter_error
from gapcast.minimax import Evaluation, _check_in_class

GRID = 512
PRED = FunctionalSpec(coeffs=np.array([[1.0]]))
NO_GAP = MissingPattern(intervals=())
FAST = OptConfig(starts=4, budget=200, seed=0)


def _candidate(cls, theta, pattern, functional, K=16):
    """evaluate_candidate, checked to be the search at one point: one
    evaluation, the estimate at the clipped point bit for bit, and a stop by
    the certificate or the budget of one."""
    out = evaluate_candidate(cls, theta, pattern, functional, K=K)
    fam = cls.family
    model = fam.build(fam.clip(np.asarray(theta, dtype=float)))
    assert out.delta_star == estimate(model, pattern, functional, K=K).delta
    assert len(out.evaluations) == 1
    assert out.stopped in ("certified", "budget")
    return out


def _unit_ar1(lam, b):
    return (1.0 - b * b) / np.abs(1.0 - b * np.exp(1j * lam)) ** 2


def _diag_mixture_family(powers, noise_powers=None, b_max=0.7,
                         grid_size=GRID) -> DensityFamily:
    """Two independent components, each a flat/AR(1) mixture of fixed power."""
    lam = grid_points(grid_size)

    def build(theta):
        out = np.zeros((grid_size, 2, 2), dtype=complex)
        for k in range(2):
            w, b = theta[2 * k], theta[2 * k + 1]
            out[:, k, k] = powers[k] * ((1 - w) + w * _unit_ar1(lam, b))
        rho = max(abs(theta[1]), abs(theta[3]))
        G = None if noise_powers is None else np.diag(noise_powers)
        return SpectralModel(dim=2, F=out, G=G,
                             grid_size=grid_size,
                             pole_modulus=rho if rho > 0 else None)

    return DensityFamily(lower=[0, -b_max, 0, -b_max],
                         upper=[0.9, b_max, 0.9, b_max], build=build,
                         label="diagonal mixtures")


# ---------------------------------------------------------------------------
# families and membership
# ---------------------------------------------------------------------------


def test_mixture_family_has_fixed_power():
    fam = scalar_mixture_family(power=2.0, grid_size=GRID)
    cls = DensityClass(kind="D0_1", data=ClassData(power=2.0), family=fam)
    rng = np.random.default_rng(0)
    for _ in range(10):
        model = fam.build(fam.sample(rng))
        report = class_constraint_report(cls, model)
        assert report["F:D0_1:power"] < 1e-10


def test_constraint_report_flags_violations():
    cls = DensityClass(kind="D0_1", data=ClassData(power=3.0),
                       family=singleton_family(white_model(1, 2.0, GRID)))
    report = class_constraint_report(cls, white_model(1, 2.0, GRID))
    assert report["F:D0_1:power"] == pytest.approx(1.0)

    band = DensityClass(kind="DVU_1",
                        data=ClassData(power=2.0, lower=0.0, upper=1.5),
                        family=singleton_family(white_model(1, 2.0, GRID)))
    report = class_constraint_report(band, white_model(1, 2.0, GRID))
    assert report["F:DVU_1:upper"] == pytest.approx(0.5)
    assert report["F:DVU_1:lower"] == 0.0


def _mix(m1, m2, *parts):
    """The family theta m1 + (1 - theta) m2, theta in [0, 1], of two scalar
    models: each density in ``parts`` (of F, G, Fxe) mixes alike."""
    def build(theta):
        dens = {key: theta[0] * m1.samples(which) + (1.0 - theta[0]) * m2.samples(which)
                for key, which in zip(("F", "G", "F_xe"), parts)}
        return SpectralModel(dim=1, grid_size=GRID, **dens)

    return DensityFamily(lower=[0.0], upper=[1.0], build=build)


def _correlated_pair():
    """Two jointly driven MA pairs, signal power 1.25 and noise power 0.49 each,
    whose signal and noise are correlated with opposite signs."""
    return [ma_pair_model([np.array([[a]]), np.array([[b]])], [np.array([[0.7]])],
                          innovation_cov=np.array([[1.0, s], [s, 1.0]]), grid_size=GRID)
            for a, b, s in ((1.0, 0.5, 0.4), (0.5, 1.0, -0.3))]


def _stock_families():
    lam = grid_points(GRID)
    return {
        "mixture": scalar_mixture_family(power=2.0, grid_size=GRID),
        "mixture+noise": scalar_mixture_family(power=1.5, noise_power=0.8, grid_size=GRID),
        "ar1": ar1_fixed_power_family(power=1.0, grid_size=GRID),
        "contamination": contamination_family(anchor=2.0 * _unit_ar1(lam, 0.5), eps=0.3,
                                              power=2.5, grid_size=GRID),
        "singleton": singleton_family(white_model(1, 1.0, GRID)),
    }


@pytest.mark.parametrize("name", sorted(_stock_families()))
def test_a_sample_is_one_point_of_the_box(name):
    fam = _stock_families()[name]
    one, other = np.random.default_rng(8), np.random.default_rng(8)
    points = [fam.sample(one) for _ in range(7)]
    assert all(p.shape == (fam.dim,) and np.all((fam.lower <= p) & (p <= fam.upper))
               for p in points)
    other.random(7 * fam.dim)
    assert one.random() == other.random()   # each point takes dim draws of the stream


@pytest.mark.parametrize("build,bounds", [
    (scalar_mixture_family, {"b_max": 1.2}),
    (scalar_mixture_family, {"b_max": 1.0}),
    (scalar_mixture_family, {"b_max": np.nan}),
    (scalar_mixture_family, {"w_max": 1.5}),
    (scalar_mixture_family, {"w_max": -0.1}),
    (ar1_fixed_power_family, {"b_max": 1.0}),
    (ar1_fixed_power_family, {"b_max": -0.2}),
    (partial(contamination_family, anchor=1.0, eps=0.3), {"b_max": 1.2}),
], ids=["mixture_b_1.2", "mixture_b_1", "mixture_b_nan", "mixture_w_1.5",
        "mixture_w_negative", "ar1_b_1", "ar1_b_negative", "contamination_b_1.2"])
def test_a_stock_family_refuses_a_box_bound_outside_its_range(build, bounds):
    # a pole of modulus 1 or more, or a weight above 1, used to fail mid-search
    (key, value), = bounds.items()
    interval = "[0, 1]" if key == "w_max" else "[0, 1)"
    with pytest.raises(InvalidParameterError, match=re.escape(f"{key} must lie in {interval}")):
        build(power=2.0, **bounds)


def test_family_dimension_is_the_box():
    fam = DensityFamily(lower=[0.0, -1.0, 2.0], upper=[1.0, 1.0, 2.0], build=None)
    assert fam.dim == 3 and fam.lower.dtype == float
    assert {name: fam.dim for name, fam in _stock_families().items()} == {
        "mixture": 2, "mixture+noise": 4, "ar1": 1, "contamination": 2,
        "singleton": 0}
    with pytest.raises(TypeError):
        DensityFamily(dim=1, lower=[0.0], upper=[1.0], build=None)
    with pytest.raises(InvalidParameterError, match="family bounds of lengths 2 and 1"):
        DensityFamily(lower=[0.0, 0.0], upper=[1.0], build=None)


def test_point_is_a_float_vector_of_dim_finite_values():
    fam = scalar_mixture_family(power=2.0, grid_size=GRID)
    point = fam.point([0, 0.5])   # w = 1 would lie outside the box [0, 0.9]
    assert point.dtype == float and point.tolist() == [0.0, 0.5]
    assert singleton_family(white_model(1, 1.0, GRID)).point([]).shape == (0,)
    for theta, shown in [(0.5, [0.5]), ((0.5, 0.2, 0.1), [0.5, 0.2, 0.1]),
                         ([[0.5, 0.2]], [[0.5, 0.2]]), ((np.nan, 0.5), [np.nan, 0.5]),
                         ((0.5, -np.inf), [0.5, -np.inf]),
                         # values that are not real numbers are named as given; they
                         # used to escape as NumPy's ValueError or TypeError
                         ("abc", "'abc'"), ([1, [2, 3]], [1, [2, 3]]), (1j, "1j"),
                         ({"a": 1}, {"a": 1}), (np.array([1j, 2.0]), "array([0.+1.j, 2.+0.j])")]:
        with pytest.raises(InvalidParameterError) as err:
            fam.point(theta)
        assert str(err.value) == ("expected 2 finite value(s), one per family parameter, "
                                  f"got {shown}")


@pytest.mark.parametrize("shape", ["flat", "ar"])
def test_contamination_family_respects_both_constraints(shape):
    # a family on a flat or a per-node AR(0.5) anchor lies in the class on the
    # same anchor; only a flat anchor leaves its members the free part's pole
    ar = (2.0 * _unit_ar1(grid_points(GRID), 0.5))[:, None, None]
    anchor = 2.0 if shape == "flat" else ar
    fam = contamination_family(anchor=anchor, eps=0.2, power=2.0, grid_size=GRID)
    cls = DensityClass(kind="Deps_1", data=ClassData(power=2.0, anchor_f=anchor, eps=0.2),
                       family=fam)
    rng = np.random.default_rng(1)
    for _ in range(10):
        theta = fam.sample(rng)
        model = fam.build(theta)
        assert max(class_constraint_report(cls, model).values()) < 1e-10
        assert model.pole_modulus == (abs(theta[1]) if shape == "flat" else None)
    with pytest.raises(InfeasibleClassError):
        contamination_family(anchor=4.0, eps=0.2, power=2.0, grid_size=GRID)


def test_class_kind_validation():
    fam = singleton_family(white_model(1, 1.0, GRID))
    with pytest.raises(InvalidParameterError):
        DensityClass(kind="D9_1", data=ClassData(), family=fam)
    with pytest.raises(InvalidParameterError):
        DensityClass(kind="D0_1", g_kind="D0_1", data=ClassData(), family=fam)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_singleton_search_reduces_to_direct_estimate():
    model = white_model(1, 1.5, GRID)
    cls = DensityClass(kind="D0_1", data=ClassData(power=1.5),
                       family=singleton_family(model))
    out = maximize_delta(cls, NO_GAP, PRED, FAST, K=16)
    assert out.delta_star == estimate(model, NO_GAP, PRED, K=16).delta
    assert len(out.evaluations) == 1
    assert not out.boundary


def test_flat_density_is_least_favorable_for_prediction():
    # Over a fixed-power class the flat member admits no prediction at all,
    # so its error (the full power) dominates every other member.
    fam = scalar_mixture_family(power=2.0, grid_size=GRID)
    cls = DensityClass(kind="D0_1", data=ClassData(power=2.0), family=fam)
    out = maximize_delta(cls, MissingPattern(intervals=((2, 0),)), PRED, FAST, K=16)
    assert out.delta_star == pytest.approx(2.0, rel=1e-9)
    assert np.abs(out.estimate_star.h_grid).max() < 1e-8
    rng = np.random.default_rng(5)
    for _ in range(25):
        member = fam.build(fam.sample(rng))
        d = estimate(member, MissingPattern(intervals=((2, 0),)), PRED,
                     K=16).delta
        assert d <= out.delta_star + 1e-8


def test_search_matches_dense_scan_and_reparameterization():
    pattern = MissingPattern(intervals=((1, 0),))
    fun = FunctionalSpec(coeffs=np.array([[1.0], [1.0]]))
    fam = ar1_fixed_power_family(power=1.0, b_max=0.8, grid_size=GRID)
    cls = DensityClass(kind="D0_1", data=ClassData(power=1.0), family=fam)
    out = maximize_delta(cls, pattern, fun, OptConfig(starts=6, budget=400, seed=0),
                         K=24)

    # dense scan over the same one-parameter family
    grid = np.linspace(-0.8, 0.8, 161)
    scan = max(estimate(fam.build(np.array([b])), pattern, fun, K=24).delta
               for b in grid)
    assert out.delta_star >= scan - 1e-6

    # a smooth reparameterization with the same image finds the same value
    cubic = DensityFamily(lower=[-1.0], upper=[1.0],
                          build=lambda u: fam.build(0.8 * u ** 3),
                          label="cubic")
    cls2 = DensityClass(kind="D0_1", data=ClassData(power=1.0), family=cubic)
    out2 = maximize_delta(cls2, pattern, fun, OptConfig(starts=6, budget=400, seed=3),
                          K=24)
    assert out2.delta_star == pytest.approx(out.delta_star, rel=1e-6,
                                            abs=1e-8)


def test_search_respects_budget_and_reports_trace():
    fam = scalar_mixture_family(power=1.0, grid_size=GRID)
    cls = DensityClass(kind="D0_1", data=ClassData(power=1.0), family=fam)
    opt = OptConfig(starts=3, budget=25, seed=0)
    out = maximize_delta(cls, NO_GAP, PRED, opt, K=12)
    assert 1 <= len(out.evaluations) <= 25
    assert max(e.delta for e in out.evaluations) == out.delta_star


def test_starts_are_drawn_as_the_search_reaches_them():
    # two million starts at a budget of 20: the search holds no array of starts
    # (drawing them all before the first evaluation peaks at about 64 MB)
    fam = scalar_mixture_family(power=1.0, grid_size=GRID // 2)
    cls = DensityClass(kind="D0_1", data=ClassData(power=1.0), family=fam)
    fun = FunctionalSpec(coeffs=np.array([[1.0], [1.0]]))
    maximize_delta(cls, GAP_2, fun, OptConfig(starts=2, budget=2), K=16)   # warm-up
    tracemalloc.start()
    try:
        out = maximize_delta(cls, GAP_2, fun, OptConfig(starts=2_000_001, budget=20), K=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out.evaluations) == 20 and out.stopped == "budget"
    assert peak < 1e6


def test_search_rejects_wide_families_and_infeasible_members():
    big = DensityFamily(lower=np.zeros(9), upper=np.ones(9),
                        build=lambda t: white_model(1, 1.0, GRID))
    cls = DensityClass(kind="D0_1", data=ClassData(power=1.0), family=big)
    with pytest.raises(InvalidParameterError):
        maximize_delta(cls, NO_GAP, PRED, FAST, K=16)

    fam = scalar_mixture_family(power=2.0, grid_size=GRID)
    mismatched = DensityClass(kind="D0_1", data=ClassData(power=3.0),
                              family=fam)
    with pytest.raises(InfeasibleClassError):
        maximize_delta(mismatched, NO_GAP, PRED, FAST, K=16)
    with pytest.raises(InfeasibleClassError):
        evaluate_candidate(mismatched, (0.5, 0.2), NO_GAP, PRED, K=16)


@pytest.mark.parametrize("c", [2e-7, 2.0, 2e9])
def test_a_family_above_the_class_power_is_refused_at_any_scale(c):
    # family power 1% above the class's: a violation of 1e-2 of the power,
    # refused whatever the units (the tolerance is relative to the side)
    cls = DensityClass(kind="D0_1", data=ClassData(power=c),
                       family=scalar_mixture_family(power=1.01 * c, grid_size=GRID))
    with pytest.raises(InfeasibleClassError, match="family point violates F:D0_1:power by"):
        maximize_delta(cls, MissingPattern(intervals=((2, 0),)),
                       FunctionalSpec(coeffs=np.array([[1.0], [1.0]])),
                       OptConfig(starts=2, budget=150, seed=0), K=16)


@pytest.mark.parametrize("report", [{"F:D0_1:power": np.nan},
                                    {"F:D0_1:power": 0.0, "G:DVU_1:upper": np.nan},
                                    {"G:DVU_1:upper": np.nan, "F:D0_1:power": 1e-3}])
def test_a_nan_constraint_violation_is_infeasible(monkeypatch, report):
    # NaN > tol is False: the check must read a NaN as a violation, the worst one
    monkeypatch.setattr(minimax_module, "class_constraint_report", lambda cls, model: report)
    model = SpectralModel(dim=1, F=1.0, G=0.5, grid_size=GRID)
    cls = DensityClass(kind="D0_1", g_kind="DVU_1",
                       data=ClassData(power=1.0, noise_power=0.5, upper=8.0),
                       family=singleton_family(model))
    with pytest.raises(InfeasibleClassError, match="violates .* by nan"):
        _check_in_class(cls, model)


def test_a_class_with_one_kind_on_both_sides_reports_each_side():
    # DVU_1 on F and on G: the signal's power violation (1.5 against 1.0) used
    # to be overwritten by the noise side's entry under one key, and the
    # search certified members outside the class
    fam = scalar_mixture_family(power=1.5, noise_power=0.8, grid_size=GRID)
    cls = DensityClass(kind="DVU_1", g_kind="DVU_1",
                       data=ClassData(power=1.0, noise_power=0.8, upper=8.0), family=fam)
    report = class_constraint_report(cls, fam.build(fam.center))
    assert sorted(report) == [f"{which}:DVU_1:{key}" for which in "FG"
                              for key in ("lower", "power", "upper")]
    assert report["F:DVU_1:power"] == pytest.approx(0.5)
    assert report["G:DVU_1:power"] < 1e-12
    with pytest.raises(InfeasibleClassError, match="violates F:DVU_1:power by 5.000e-01"):
        maximize_delta(cls, NO_GAP, PRED, FAST, K=16)


@pytest.mark.parametrize("field", ["power", "noise_power", "weight_f", "weight_g", "eps",
                                   "radius"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_class_constants_must_be_finite(field, bad):
    data = dict(power=1.5, noise_power=0.8, upper=8.0, weight_f=[[1.0]], weight_g=[[1.0]],
                anchor_f=1.5, eps=0.3, radius=0.5)
    data[field] = bad if field in ("power", "noise_power", "eps", "radius") else [[bad]]
    with pytest.raises(DataShapeError, match=f"data.{field}: expected finite values"):
        DensityClass(kind="D0_1", g_kind="DVU_1", data=ClassData(**data),
                     family=singleton_family(white_model(1, 1.5, GRID)))


def _reference_search(cls, pattern, functional, opt, K):
    """The coordinate ascent with a full estimate at every point, and np.allclose.

    maximize_delta scores points by optimal_delta and estimates only the
    incumbents it certifies and the maximizer; it must reproduce this search
    bit for bit, stop rule included: the incumbent is certified after the
    first evaluation and at the end of every start.  Returns the trace, the
    maximizer and its estimate, the incumbents certified and why it stopped.
    """
    fam = cls.family
    width = np.where(fam.upper > fam.lower, fam.upper - fam.lower, 1.0)
    cache, trace, best = {}, [], {"theta": None, "delta": -np.inf}
    certified = []

    def evaluate(theta):
        key = tuple(np.round(theta, 12))
        if key in cache:
            return cache[key]
        if len(trace) >= opt.budget:
            return -np.inf
        model = fam.build(theta)
        _check_in_class(cls, model)
        est = estimate(model, pattern, functional, K=K)
        cache[key] = est.delta
        trace.append(Evaluation(theta=key, delta=est.delta))
        if est.delta > best["delta"]:
            best.update(theta=np.asarray(theta, dtype=float), delta=est.delta,
                        estimate=est, model=model)
        return est.delta

    def certify():
        upper = minimax_module._delta_upper(cls, best["model"], best["estimate"],
                                            functional)
        key = tuple(np.round(best["theta"], 12))
        if np.isfinite(upper) and key not in certified:
            certified.append(key)
        return upper - best["delta"] <= minimax_module._GAP_TOL * best["delta"]

    rng = np.random.default_rng(opt.seed)
    starts = [fam.center]
    while len(starts) < opt.starts:
        starts.append(fam.sample(rng))
    done = False
    for theta0 in starts:
        if len(trace) >= opt.budget:
            break
        theta = fam.clip(theta0)
        evaluate(theta)
        if len(trace) == 1 and certify():
            done = True
            break
        step = minimax_module._INITIAL_STEP
        while step >= minimax_module._MIN_STEP and len(trace) < opt.budget:
            moved = False
            for i in range(fam.dim):
                for sign in (+1.0, -1.0):
                    cand = theta.copy()
                    cand[i] += sign * step * width[i]
                    cand = fam.clip(cand)
                    if np.allclose(cand, theta):
                        continue
                    if evaluate(cand) > cache[tuple(np.round(theta, 12))]:
                        theta = cand
                        moved = True
                        break
            if not moved:
                step *= 0.5
        if certify():
            done = True
            break
    stopped = "certified" if done else "budget" if len(trace) >= opt.budget else "converged"
    return trace, best["theta"], best["estimate"], certified, stopped


EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def _search_cases():
    cases = {}
    for path in sorted(EXAMPLES.glob("robust_*.yaml")):
        cfg = load_config(path)
        cls, opt, _ = build_class(cfg)
        cases[path.stem] = (cls, build_pattern(cfg), build_functional(cfg), opt,
                            cfg.truncation)
    fam = _diag_mixture_family((1.0, 2.0), noise_powers=(0.4, 0.6))
    data = ClassData(power=np.array([1.0, 2.0]), noise_power=np.array([0.4, 0.6]),
                     lower=0.0, upper=8.0)
    cases["gapped_D0_2"] = (
        DensityClass(kind="D0_2", g_kind="DVU_2", data=data, family=fam),
        MissingPattern(intervals=((2, 1),)),
        FunctionalSpec(coeffs=np.array([[1.0, 0.5], [0.3, -1.0]])),
        OptConfig(starts=3, budget=150, seed=1), 16)
    # not degenerate: the family optimum of xi(0) + xi(1) with the point -2
    # missing sits on the family's boundary, well below the class bound
    cases["two_step_D0_1"] = (
        DensityClass(kind="D0_1", data=ClassData(power=2.0),
                     family=scalar_mixture_family(power=2.0, grid_size=GRID)),
        MissingPattern(intervals=((2, 0),)),
        FunctionalSpec(coeffs=np.array([[1.0], [1.0]])),
        OptConfig(starts=3, budget=400, seed=0), 16)
    return cases


# why each search stops: the shipped examples at their first evaluation
SEARCH_STOPS = {"robust_banded_noise": "certified", "robust_fixed_power": "certified",
                "gapped_D0_2": "budget", "two_step_D0_1": "converged"}


SEARCH_CASES = _search_cases()


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_search_estimates_once_and_matches_reference(case, monkeypatch):
    cls, pattern, functional, opt, K = SEARCH_CASES[case]
    trace, theta, est, certified, stopped = _reference_search(
        cls, pattern, functional, opt, K)

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(minimax_module, "estimate", counted)
    out = maximize_delta(cls, pattern, functional, opt, K=K)
    # one estimate per certified incumbent, the last one the maximizer's
    assert len(calls) == max(len(certified), 1)
    assert out.stopped == stopped == SEARCH_STOPS[case]
    assert (len(out.evaluations) == 1) == (stopped == "certified")
    assert out.evaluations == trace
    assert out.delta_star == est.delta
    assert np.array_equal(out.theta_star, theta)
    assert np.array_equal(out.estimate_star.h_grid, est.h_grid)
    # the T = 2 class has no closed-form bound; every other gap is the bound's
    assert np.isnan(out.fw_gap) == (case == "gapped_D0_2")
    if stopped == "certified":
        assert out.fw_gap <= 1e-12 * out.delta_star
        assert verify_saddle_point(out).all_pass
    elif case == "two_step_D0_1":
        assert out.fw_gap == out.delta_upper - out.delta_star > 0.1 * out.delta_star


def test_search_refuses_an_estimate_that_disagrees(monkeypatch):
    def nudged(*args, **kwargs):
        est = estimate(*args, **kwargs)
        return replace(est, delta=np.nextafter(est.delta, np.inf))

    monkeypatch.setattr(minimax_module, "estimate", nudged)
    cls = DensityClass(kind="D0_1", data=ClassData(power=1.0),
                       family=scalar_mixture_family(power=1.0, grid_size=GRID))
    with pytest.raises(InternalConsistencyError, match="maximizer"):
        maximize_delta(cls, NO_GAP, PRED, OptConfig(starts=1, budget=5), K=12)


@pytest.mark.parametrize("theta", [(0.5,), (0.5, 0.2, 0.1)])
def test_candidate_refuses_a_theta_of_the_wrong_length(theta):
    # (0.5,) used to broadcast to [0.5, 0.5]; a 3-long theta escaped as a
    # raw NumPy ValueError
    cls = DensityClass(kind="D0_1", data=ClassData(power=2.0),
                       family=scalar_mixture_family(power=2.0, grid_size=GRID))
    with pytest.raises(InvalidParameterError,
                       match=r"expected 2 finite value\(s\), one per family parameter"):
        evaluate_candidate(cls, theta, NO_GAP, PRED, K=16)


@pytest.mark.parametrize("theta", [(np.nan, 0.5), (np.inf, 0.5), (0.5, -np.inf)])
def test_a_fixed_theta_must_be_finite(theta):
    # an infinite theta used to be clipped to the box edge, a NaN to fail in the
    # density reader
    cls = DensityClass(kind="D0_1", data=ClassData(power=2.0),
                       family=scalar_mixture_family(power=2.0, grid_size=GRID))
    message = r"expected 2 finite value\(s\), one per family parameter"
    with pytest.raises(InvalidParameterError, match=message):
        maximize_delta(cls, NO_GAP, PRED, K=16, theta=theta)
    with pytest.raises(InvalidParameterError, match=message):
        evaluate_candidate(cls, theta, NO_GAP, PRED, K=16)


def test_a_fixed_theta_outside_the_box_is_refused_and_its_edge_accepted():
    # theta (0.5, 1.5) used to be clipped to (0.5, 0.8) and searched there
    cls = DensityClass(kind="D0_1", data=ClassData(power=2.0),
                       family=scalar_mixture_family(power=2.0, grid_size=GRID))
    box = r"lies outside the family's box \[0.0, 0.9\] x \[-0.8, 0.8\]"
    for theta in [(0.5, 1.5), (-1e-12, 0.0), (0.9, -0.8 - 1e-12)]:
        with pytest.raises(InvalidParameterError, match=box):
            cls.family.point(theta)
        with pytest.raises(InvalidParameterError, match=box):
            maximize_delta(cls, NO_GAP, PRED, K=16, theta=theta)
        with pytest.raises(InvalidParameterError, match=box):
            evaluate_candidate(cls, theta, NO_GAP, PRED, K=16)
    for edge in [(0.0, 0.8), (0.9, -0.8)]:
        assert cls.family.point(edge).tolist() == list(edge)
        out = maximize_delta(cls, GAP_2, PRED, K=16, theta=edge)
        assert np.array_equal(out.theta_star, edge) and out.boundary


def test_a_fixed_theta_is_the_search_at_that_point():
    # the only start, with a budget of one: the starts, budget and seed play no part
    cls = DensityClass(kind="D0_1", data=ClassData(power=2.0),
                       family=scalar_mixture_family(power=2.0, grid_size=GRID))
    out = maximize_delta(cls, GAP_2, PRED, OptConfig(starts=5, budget=300, seed=4), K=16,
                         theta=(0.85, 0.7))
    control = _candidate(cls, (0.85, 0.7), GAP_2, PRED)
    assert out.evaluations == control.evaluations
    assert out.delta_star == control.delta_star and out.stopped == control.stopped == "budget"
    assert np.array_equal(out.theta_star, [0.85, 0.7])


def test_a_singleton_search_without_a_bound_evaluates_once_and_converges(monkeypatch):
    # T = 2 has no closed-form bound: the one member is scored once, and the
    # search ends with the first start, whatever opt.starts says
    model = white_model(2, 1.5, GRID)
    cls = DensityClass(kind="D0_2", data=ClassData(power=np.array([1.5, 1.5])),
                       family=singleton_family(model))
    fun = FunctionalSpec(coeffs=np.array([[1.0, 0.5]]))
    calls = []
    covered = minimax_module._covered
    monkeypatch.setattr(minimax_module, "_covered",
                        lambda *args: calls.append(args) or covered(*args))
    out = maximize_delta(cls, GAP_2, fun, OptConfig(starts=1000), K=16)
    # after the first evaluation, at the end of the one start, and in the
    # bound of the final estimate; each further start would add two
    assert len(calls) == 3
    assert len(out.evaluations) == 1
    assert out.stopped == "converged"
    assert np.isnan(out.fw_gap)
    assert out.delta_star == estimate(model, GAP_2, fun, K=16).delta


def test_opt_config_validation():
    assert [f.name for f in fields(OptConfig)] == ["starts", "budget", "seed"]
    with pytest.raises(InvalidParameterError):
        OptConfig(starts=0)
    with pytest.raises(InvalidParameterError):
        OptConfig(budget=0)
    with pytest.raises(InvalidParameterError):
        OptConfig(seed=-1)


# ---------------------------------------------------------------------------
# saddle verification
# ---------------------------------------------------------------------------


def test_saddle_holds_at_maximizer_and_fails_off_it():
    fam = scalar_mixture_family(power=2.0, grid_size=GRID)
    cls = DensityClass(kind="D0_1", data=ClassData(power=2.0), family=fam)
    pattern = MissingPattern(intervals=((2, 0),))
    out = maximize_delta(cls, pattern, PRED, FAST, K=16)
    rep = verify_saddle_point(out)
    assert rep.all_pass
    assert rep.max_violation <= 1e-6

    control = _candidate(cls, (0.85, 0.7), pattern, PRED)
    rep_bad = verify_saddle_point(control)
    assert not rep_bad.all_pass
    assert rep_bad.max_violation > 1e-3


def _reference_samples(value, n, dim):
    """Density data as an (n, dim, dim) array, read the way the class did per call."""
    if value is None:
        return None
    if callable(value):
        return np.asarray(value(grid_points(n)), dtype=complex)
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.broadcast_to(complex(arr) * np.eye(dim), (n, dim, dim)).copy()
    if arr.shape == (dim, dim):
        return np.broadcast_to(arr.astype(complex), (n, dim, dim)).copy()
    assert arr.shape == (n, dim, dim)
    return arr.astype(complex)


def _reference_constraint_report(cls, model):
    """class_constraint_report re-reading every band edge and anchor at each call."""
    n, d, out = model.grid_size, model.dim, {}
    for which, kind in (("F", cls.kind), ("G", cls.g_kind)):
        if kind is None:
            continue
        names, spec = minimax_module._SIDE_FIELDS[which], minimax_module._BASES[kind[:-2]]
        flavor, weight = int(kind[-1]), getattr(cls.data, names["weight"])

        def project(x):
            return minimax_module._project(x, flavor, weight)

        samples = model.samples(which)
        val = project(samples)
        anchor = _reference_samples(getattr(cls.data, names["anchor"]), n, d)
        if "power" in spec.fields:
            power = np.asarray(getattr(cls.data, names["power"]))
            out[f"{which}:{kind}:power"] = float(np.max(np.abs(val.mean(axis=0) - power)))
        bounds = {}
        if kind.startswith("DVU"):
            lower = cls.data.lower if cls.data.lower is not None else 0.0
            bounds = {"lower": val - project(_reference_samples(lower, n, d)),
                      "upper": project(_reference_samples(cls.data.upper, n, d)) - val}
        elif kind.startswith("Deps"):
            bounds = {"mixture": val - (1.0 - cls.data.eps) * project(anchor)}
        for key, x in bounds.items():
            slack = minimax_module._slack(x, flavor)[0]
            out[f"{which}:{kind}:{key}"] = float(max(-np.min(slack), 0.0))
        if "radius" in spec.fields:
            dist = np.abs(project(samples - anchor)).mean(axis=0)
            out[f"{which}:{kind}:distance"] = max(
                float(np.max(dist - np.asarray(cls.data.radius))), 0.0)
    return out


def _family_errors(result):
    """The error of the maximizer's filter at 100 family members drawn from
    seed 1, each checked in class by the reference report."""
    cls, fam, fun = result.cls, result.cls.family, result.functional
    h0 = result.estimate_star.h_grid
    rng = np.random.default_rng(1)
    errors = []
    for _ in range(100):
        model = fam.build(rng.uniform(fam.lower, fam.upper) if fam.dim else np.zeros(0))
        report = _reference_constraint_report(cls, model)
        assert max(report.values(), default=0.0) <= minimax_module._CONSTRAINT_TOL
        errors.append(delta_of_characteristic(model, fun, h0))
    return errors


TWO_STEP = FunctionalSpec(coeffs=np.array([[1.0], [1.0]]))
GAP_2 = MissingPattern(intervals=((2, 0),))


def _example_result(name):
    cfg = load_config(EXAMPLES / f"{name}.yaml")
    cls, opt, _ = build_class(cfg)
    return maximize_delta(cls, build_pattern(cfg), build_functional(cfg), opt, K=cfg.truncation)


def _at(cls, theta):
    return _candidate(cls, theta, GAP_2, TWO_STEP)


def _per_node_band():
    lam = grid_points(GRID)
    data = ClassData(power=1.5, noise_power=0.8,
                     lower=(0.1 + 0.02 * np.sin(lam))[:, None, None],
                     upper=(8.0 + np.cos(lam))[:, None, None])
    return DensityClass(kind="D0_1", g_kind="DVU_1", data=data, family=scalar_mixture_family(
        power=1.5, noise_power=0.8, grid_size=GRID))


SADDLE_CASES = {   # each builds a search result
    "robust_fixed_power": lambda: _example_result("robust_fixed_power"),
    "robust_banded_noise": lambda: _example_result("robust_banded_noise"),
    "noisy_mixture_per_node_DVU": lambda: _at(_per_node_band(), (0.6, 0.5, 0.3, -0.4)),
    "contamination_Deps": lambda: _at(_sandwich_cases()["Deps_1"][0], (0.5, 0.2)),
    "convex_D1delta": lambda: _at(_sandwich_cases()["D1delta_1"][0], (0.3, 0.6)),
    "ar1_fixed_power": lambda: _at(DensityClass(
        kind="D0_1", data=ClassData(power=1.0),
        family=ar1_fixed_power_family(power=1.0, grid_size=GRID)), (0.3,)),
    "singleton": lambda: _at(DensityClass(
        kind="D0_1", data=ClassData(power=1.5),
        family=singleton_family(white_model(1, 1.5, GRID))), ()),
    "correlated_ma_pairs": lambda: _at(DensityClass(
        kind="D0_1", g_kind="DVU_1",
        data=ClassData(power=1.25, noise_power=0.49, lower=0.0, upper=8.0),
        family=_mix(*_correlated_pair(), "F", "G", "Fxe")), (0.5,)),
}


@pytest.mark.parametrize("case", sorted(SADDLE_CASES))
def test_no_family_member_beats_the_class_bound(case):
    # a sample of members can refute a saddle point but never certify one:
    # where the class has a bound no sampled member beats it, and where it has
    # none the saddle check fails, however the members score
    result = SADDLE_CASES[case]()
    errors = _family_errors(result)
    if case == "correlated_ma_pairs":
        assert not result.model_star.is_uncorrelated   # the cross terms run
        assert np.isnan(result.delta_upper)
        rep = verify_saddle_point(result)
        assert not rep.all_pass and np.isnan(rep.max_violation)
    else:
        assert max(errors) <= result.delta_upper * (1 + 1e-12)


@pytest.mark.parametrize("case", sorted(set(SADDLE_CASES) - {"correlated_ma_pairs"}))
def test_saddle_check_reads_the_class_bound_where_there_is_one(case, monkeypatch):
    result = SADDLE_CASES[case]()

    def refuse(*args):
        raise AssertionError("the saddle check built or checked a family member")

    monkeypatch.setattr(minimax_module, "_check_in_class", refuse)
    cls = replace(result.cls, family=replace(result.cls.family, build=refuse))
    rep = verify_saddle_point(replace(result, cls=cls))
    # the search's own delta_star is the reference: the violation is the duality gap
    assert rep.all_pass == (result.fw_gap <= 1e-6 * result.delta_star)
    assert rep.max_violation == max(result.fw_gap, 0.0)


def test_class_constants_are_read_once_per_grid():
    # a callable anchor is evaluated once per class and grid size, and the
    # report matches the one that reads it at every call
    calls = []

    def anchor(lam):
        calls.append(lam.size)
        return (2.0 * _unit_ar1(lam, 0.5))[:, None, None]

    fam = contamination_family(anchor=2.0 * _unit_ar1(grid_points(GRID), 0.5), eps=0.3,
                               power=2.5, grid_size=GRID)
    classes = [DensityClass(kind="Deps_1", data=ClassData(power=2.5, anchor_f=anchor, eps=0.3),
                            family=fam),
               DensityClass(kind="D1delta_1", data=ClassData(anchor_f=anchor, radius=0.5),
                            family=fam)]
    rng = np.random.default_rng(4)
    models = [fam.build(fam.sample(rng)) for _ in range(8)]
    reports = [[class_constraint_report(cls, m) for m in models] for cls in classes]
    assert calls == [GRID, GRID]
    assert reports == [[_reference_constraint_report(cls, m) for m in models]
                       for cls in classes]


# ---------------------------------------------------------------------------
# duality-gap certificate: the bound of one member caps every other member
# ---------------------------------------------------------------------------


def _sandwich_cases():
    """(class, family) per base at T = 1, each family inside its class."""
    cases = {}
    fam = scalar_mixture_family(power=1.5, noise_power=0.8, grid_size=GRID)
    for k in range(1, 5):
        # flavor 3 constrains w * F: its powers scale with the weights
        wf, wg = (2.0, 0.5) if k == 3 else (1.0, 1.0)
        shaped = {2: lambda x: np.array([x]), 4: lambda x: np.array([[x]])}.get(
            k, float)
        data = ClassData(power=shaped(1.5 * wf), noise_power=shaped(0.8 * wg),
                         weight_f=np.array([[wf]]), weight_g=np.array([[wg]]),
                         lower=0.1, upper=8.0)
        cases[f"D0_{k}xDVU_{k}"] = (
            DensityClass(kind=f"D0_{k}", g_kind=f"DVU_{k}", data=data, family=fam), fam)

    lam = grid_points(GRID)
    anchor = 2.0 * _unit_ar1(lam, 0.5)
    fam = contamination_family(anchor=anchor, eps=0.3, power=2.5, grid_size=GRID)
    cases["Deps_1"] = (DensityClass(kind="Deps_1", data=ClassData(
        power=2.5, anchor_f=anchor[:, None, None], eps=0.3), family=fam), fam)

    cases["D1delta_1"] = _d1delta_case()
    return cases


def _d1delta_case(unit=1.0):
    """(class, family): an L1 ball around a unit AR(0.3) anchor, and three
    bumped anchors inside it; every density and the radius in ``unit``."""
    lam = grid_points(GRID)
    base = unit * _unit_ar1(lam, 0.3)
    models = [SpectralModel(dim=1, F=(base * bump)[:, None, None],
                            grid_size=GRID, pole_modulus=0.3)
              for bump in (1.0, 1.0 + 0.2 * np.sin(lam), 1.0 + 0.3 * np.cos(2 * lam))]
    radius = max(float(np.mean(np.abs(m.samples("F")[:, 0, 0] - base))) for m in models)

    def build(theta):
        a, b = theta   # stick-breaking weights
        F = sum(w * m.samples("F") for w, m in zip((a, (1.0 - a) * b, (1.0 - a) * (1.0 - b)),
                                                  models))
        return SpectralModel(dim=1, F=F, grid_size=GRID, pole_modulus=0.3)

    fam = DensityFamily(lower=[0.0, 0.0], upper=[1.0, 1.0], build=build)
    return DensityClass(kind="D1delta_1", data=ClassData(
        anchor_f=base[:, None, None], radius=radius), family=fam), fam


@pytest.mark.parametrize("case", sorted(_sandwich_cases()))
def test_delta_upper_caps_every_member_of_the_class(case):
    # Delta(F') <= delta_upper(F) for members F, F' of the class, within the
    # two-route tolerance of the estimate at F'; and fw_gap(F) >= 0
    cls, fam = _sandwich_cases()[case]
    pattern = MissingPattern(intervals=((2, 0),))
    fun = FunctionalSpec(coeffs=np.array([[1.0], [1.0]]))
    rng = np.random.default_rng(11)
    members = [_candidate(cls, fam.sample(rng), pattern, fun)
               for _ in range(6)]
    for out in members:
        assert out.fw_gap >= -1e-8
        assert out.fw_gap == out.delta_upper - out.delta_star
        for other in members:
            d = other.estimate_star.diagnostics
            tol = abs(d.delta_operator - d.delta_quadrature) + 1e-12 * other.delta_star
            assert other.delta_star <= out.delta_upper + tol


def test_delta_upper_is_the_same_for_every_flavor_at_t1():
    # each flavor states the same scalar class, flavor 3 in units of w * F
    cases = _sandwich_cases()
    pattern = MissingPattern(intervals=((2, 0),))
    fun = FunctionalSpec(coeffs=np.array([[1.0], [1.0]]))
    uppers = [_candidate(cases[f"D0_{k}xDVU_{k}"][0], (0.6, 0.5, 0.3, -0.4),
                         pattern, fun).delta_upper for k in range(1, 5)]
    assert uppers == pytest.approx([uppers[0]] * 4, rel=1e-12)


@pytest.mark.parametrize("base", ["D0", "DVU", "Deps", "D1delta"])
def test_first_order_lp_closed_forms_match_a_solver(base):
    # the largest mean(g q) over the class, by HiGHS on the same nodes
    from scipy.optimize import linprog

    n, power, eps, radius = 64, 1.1, 0.3, 0.25
    rng = np.random.default_rng(3)
    g, anchor = rng.uniform(0.0, 2.0, n), rng.uniform(0.5, 1.5, n)
    data = ClassData(power=power, lower=0.2 * anchor[:, None, None],
                     upper=2.0 * anchor[:, None, None], anchor_f=anchor[:, None, None],
                     eps=eps, radius=radius)
    model = SpectralModel(dim=1, F=anchor[:, None, None],
                          grid_size=n)
    cls = DensityClass(kind=f"{base}_1", data=data, family=singleton_family(model))
    closed = minimax_module._BASES[base].lp(minimax_module._Side(cls, model, "F"), g)

    mean = np.full((1, n), 1.0 / n)
    if base == "D1delta":   # variables q and t >= |q - anchor|
        eye = np.eye(n)
        sol = linprog(np.concatenate([-g / n, np.zeros(n)]),
                      A_ub=np.block([[eye, -eye], [-eye, -eye],
                                     [np.zeros((1, n)), mean]]),
                      b_ub=np.concatenate([anchor, -anchor, [radius]]),
                      bounds=[(0.0, None)] * (2 * n))
    else:
        lower = {"D0": 0.0 * anchor, "DVU": 0.2 * anchor, "Deps": (1 - eps) * anchor}[base]
        upper = 2.0 * anchor if base == "DVU" else [None] * n
        sol = linprog(-g / n, A_eq=mean, b_eq=[power], bounds=list(zip(lower, upper)))
    assert sol.status == 0
    assert closed == pytest.approx(-sol.fun, rel=1e-9)


def test_delta_upper_is_nan_outside_the_closed_forms():
    # a noisy model whose noise no class constrains
    noisy = scalar_mixture_family(power=1.5, noise_power=0.8, grid_size=GRID)
    lone = DensityClass(kind="D0_1", data=ClassData(power=1.5), family=noisy)
    out = maximize_delta(lone, NO_GAP, PRED, FAST, K=16)
    assert np.isnan(out.delta_upper) and np.isnan(out.fw_gap)
    assert out.stopped != "certified"


# ---------------------------------------------------------------------------
# the class bound at T = 2: flavors 1 and 3 read one number per node
# ---------------------------------------------------------------------------

T2_GRID = 128
T2_WEIGHT = np.array([[2.0, 0.4 + 0.3j], [0.4 - 0.3j, 1.0]])
T2_FUN = FunctionalSpec(coeffs=np.array([[1.0, 0.5], [0.2, -1.0]]))
T2_GAP = MissingPattern(intervals=((2, 1),))
EPS_T2 = 0.3
T2_CASES = [(f, g, k) for f, g in [("D0", None), ("DVU", None), ("Deps", None),
                                   ("D1delta", None), ("D0", "DVU"), ("Deps", "D1delta")]
            for k in (1, 3)]


def _t2_density(rng):
    """A random smooth 2 x 2 density: an MA(1) spectrum plus 0.3 I."""
    b0, b1 = rng.normal(size=(2, 2, 2))
    filt = b0 + b1 * np.exp(1j * grid_points(T2_GRID))[:, None, None]
    return filt @ np.conj(np.swapaxes(filt, -1, -2)) + 0.3 * np.eye(2)


def _t2_class(rng, f_base, g_base, flavor):
    """A class with a random T = 2 member, as the singleton family of that
    member: the power, band, anchor and radius each hold it inside."""
    weight = np.eye(2) if flavor == 1 else T2_WEIGHT
    densities, data = {}, {}
    for which, base in (("F", f_base), ("G", g_base)):
        if base is None:
            continue
        names = minimax_module._SIDE_FIELDS[which]
        density, anchor = _t2_density(rng), _t2_density(rng)
        if base == "Deps":
            density = (1.0 - EPS_T2) * anchor + EPS_T2 * density
        projected = np.einsum("ij,nji->n", weight, density).real
        data[names["power"]] = float(projected.mean())
        data[names["weight"]] = weight
        data[names["anchor"]] = anchor
        if base == "DVU":
            data.update(lower=0.5 * density, upper=2.0 * density)
        if base == "Deps":
            data["eps"] = EPS_T2
        if base == "D1delta":
            gap = np.einsum("ij,nji->n", weight, density - anchor).real
            data["radius"] = 1.2 * float(np.mean(np.abs(gap)))
        densities[which] = density
    model = SpectralModel(dim=2, F=densities["F"], G=densities.get("G"), grid_size=T2_GRID)
    return DensityClass(kind=f"{f_base}_{flavor}", g_kind=g_base and f"{g_base}_{flavor}",
                        data=ClassData(**data), family=singleton_family(model)), weight


def _t2_projected(data, which, base, weight, g, rng):
    """Per node, q = tr(W D) of a class member: the LP's vertex for the
    gradient g, or with an rng a random member."""
    names, n = minimax_module._SIDE_FIELDS[which], g.size

    def proj(x):
        return np.einsum("ij,nji->n", weight, x).real

    power = getattr(data, names["power"])
    anchor = getattr(data, names["anchor"])
    spread = None if rng is None else rng.exponential(size=n) ** 3
    top = np.argmax(g)
    if base == "DVU":
        lo, hi = proj(data.lower), proj(data.upper)
        if rng is not None:   # the class's own member, q0 = 2 lo, moved by at most q0 / 2
            q0 = 2.0 * lo
            u = rng.uniform(-1.0, 1.0, n) * q0
            return q0 + 0.25 * (u - q0 * u.mean() / q0.mean())
        q, left = lo.copy(), n * power - lo.sum()
        for i in np.argsort(-g, kind="stable"):
            q[i] += min(hi[i] - lo[i], left)
            left -= q[i] - lo[i]
        return q
    if base == "D1delta":   # the anchor moved by at most the radius in mean |.|
        q = proj(anchor)
        if rng is not None:
            move = data.radius * spread / spread.mean() * rng.choice([-1.0, 1.0], n)
            return np.maximum(q + move, 0.0)
        q[top] += n * data.radius
        return q
    kept = (1.0 - data.eps) * proj(anchor) if base == "Deps" else np.zeros(n)
    free = power - kept.mean()
    if rng is not None:
        return kept + free * spread / spread.mean()
    q = kept.copy()
    q[top] += n * free
    return q


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("f_base,g_base,flavor", T2_CASES)
def test_t2_class_bound_caps_every_member_and_its_vertex_attains_it(f_base, g_base, flavor,
                                                                   seed):
    # delta_upper = sum over sides of the LP of mean(q g), g = r^T W^{-1} conj(r):
    # random members (projection q and random directions) never beat it, and
    # the vertex density, the LP's q along W^{-1} conj(r), attains it
    rng = np.random.default_rng(seed)
    cls, weight = _t2_class(rng, f_base, g_base, flavor)
    out = _candidate(cls, (), T2_GAP, T2_FUN, K=8)
    assert np.isfinite(out.delta_upper) and out.fw_gap >= -1e-12 * out.delta_star
    h = out.estimate_star.h_grid
    rows = {"F": T2_FUN.a_on_grid(T2_GRID) - h, "G": h}
    sides = [(which, base) for which, base in (("F", f_base), ("G", g_base)) if base]

    def member(qs, directions):
        dens = {which: qs[which][:, None, None] * directions[which] for which, _ in sides}
        model = SpectralModel(dim=2, F=dens["F"], G=dens.get("G"), grid_size=T2_GRID)
        _check_in_class(cls, model)
        return filter_error(model, rows["F"], h)

    along = {which: np.linalg.solve(weight, np.conj(rows[which]).T).T for which, _ in sides}
    grads = {which: np.sum(rows[which] * along[which], axis=1).real for which, _ in sides}
    vertex = {which: _t2_projected(cls.data, which, base, weight, grads[which], None)
              for which, base in sides}
    unit = {which: np.einsum("nt,nu->ntu", v, np.conj(v)) / grads[which][:, None, None]
            for which, v in along.items()}   # tr(W D) = 1 along W^{-1} conj(r)
    assert member(vertex, unit) == pytest.approx(out.delta_upper, rel=1e-12)

    for _ in range(20):
        qs, directions = {}, {}
        for which, base in sides:
            qs[which] = _t2_projected(cls.data, which, base, weight, grads[which], rng)
            rank = rng.integers(1, 3)
            b = rng.normal(size=(T2_GRID, 2, rank)) + 1j * rng.normal(size=(T2_GRID, 2, rank))
            d = b @ np.conj(np.swapaxes(b, -1, -2))
            directions[which] = d / np.einsum("ij,nji->n", weight, d).real[:, None, None]
        assert member(qs, directions) <= out.delta_upper * (1 + 1e-12)


@pytest.mark.parametrize("kinds", [("D0_2", None), ("D0_4", None), ("D0_1", "DVU_2"),
                                   ("DVU_4", None)])
def test_t2_flavors_2_and_4_have_no_class_bound(kinds):
    # a diagonal or a matrix side reads more than one number per node
    rng = np.random.default_rng(5)
    model = SpectralModel(dim=2, F=_t2_density(rng),
                          G=None if kinds[1] is None else _t2_density(rng), grid_size=T2_GRID)
    cls = DensityClass(kind=kinds[0], g_kind=kinds[1], data=ClassData(
        power=1.0, noise_power=1.0, upper=10.0), family=singleton_family(model))
    assert not minimax_module._covered(cls, model)
    assert np.isnan(minimax_module._delta_upper(cls, model, None, T2_FUN))


@pytest.mark.parametrize("weight", [[[-1.0]], [[1.0, 0.0], [0.0, -1.0]], [[1.0, 0.5], [0.0, 1.0]]],
                         ids=["negative", "indefinite", "not-hermitian"])
def test_a_flavor_3_weight_must_be_hermitian_positive_definite(weight):
    # a negative weight turned the fixed power -2 of w F into a power of 2:
    # the search ran to its budget and reported delta_upper = nan
    fam = scalar_mixture_family(power=2.0, grid_size=GRID)
    cls = DensityClass(kind="D0_3", data=ClassData(
        power=-2.0, weight_f=np.array(weight)), family=fam)
    with pytest.raises(DataShapeError, match=(
            rf"^data\.weight_f: expected a Hermitian positive definite {len(weight)}x{len(weight)} "
            r"matrix, got \[\[")):
        cls.constants(GRID, len(weight))
    if len(weight) == 1:
        with pytest.raises(DataShapeError, match=r"^data\.weight_f: "):
            maximize_delta(cls, NO_GAP, PRED, FAST, K=16)


# ---------------------------------------------------------------------------
# characterization residuals: one exact instance per structure flavor
# ---------------------------------------------------------------------------


def _residual_cases():
    """(class, pattern, functional, family, control_theta) per flavor."""
    cases = {}

    # flavor 1: scalar multiplier, fixed total power
    fam1 = scalar_mixture_family(power=2.0, grid_size=GRID)
    cases["D0_1"] = (
        DensityClass(kind="D0_1", data=ClassData(power=2.0), family=fam1),
        MissingPattern(intervals=((2, 0),)), PRED, (0.85, 0.7))

    # flavor 2: per-component multipliers, diagonal fixed powers
    fam2 = _diag_mixture_family((1.0, 2.0))
    cases["D0_2"] = (
        DensityClass(kind="D0_2", data=ClassData(power=np.array([1.0, 2.0])),
                     family=fam2),
        NO_GAP, FunctionalSpec(coeffs=np.array([[1.0, 0.0]])),
        (0.8, 0.6, 0.0, 0.0))

    # flavor 3: weighted trace with identity weight (reduces to flavor 1)
    fam3 = scalar_mixture_family(power=2.0, grid_size=GRID)
    cases["D0_3"] = (
        DensityClass(kind="D0_3",
                     data=ClassData(power=2.0, weight_f=np.array([[1.0]])),
                     family=fam3),
        MissingPattern(intervals=((2, 0),)), PRED, (0.85, 0.7))

    # flavor 4: matrix moment, rank-one multiplier (scalar case)
    fam4 = scalar_mixture_family(power=2.0, grid_size=GRID)
    cases["D0_4"] = (
        DensityClass(kind="D0_4",
                     data=ClassData(power=np.array([[2.0]])), family=fam4),
        MissingPattern(intervals=((2, 0),)), PRED, (0.85, 0.7))

    # contamination of a flat anchor: flat total is least favorable and the
    # mixture constraint is strictly slack everywhere
    fam5 = contamination_family(anchor=2.0, eps=0.25, power=2.0, grid_size=GRID)
    cases["Deps_1"] = (
        DensityClass(kind="Deps_1",
                     data=ClassData(power=2.0, anchor_f=2.0, eps=0.25),
                     family=fam5),
        NO_GAP, PRED, (0.9, 0.7))

    # distance ball: flat anchor plus flat bumps keeps every member flat,
    # the top of the ball saturates the distance and maximizes the error
    bump = 0.5
    anchors = [white_model(1, 1.0, GRID), white_model(1, 1.0 + bump, GRID)]
    fam6 = _mix(*anchors, "F")
    cases["D1delta_1"] = (
        DensityClass(kind="D1delta_1",
                     data=ClassData(anchor_f=1.0, radius=bump), family=fam6),
        NO_GAP, PRED, (0.7,))
    return cases


@pytest.mark.parametrize("kind", ["D0_1", "D0_2", "D0_3", "D0_4", "Deps_1",
                                  "D1delta_1"])
def test_residuals_vanish_at_least_favorable_member(kind):
    cls, pattern, fun, control_theta = _residual_cases()[kind]
    out = maximize_delta(cls, pattern, fun, FAST, K=16)
    report = characterization_residuals(out)
    assert report.max_relative < 1e-8

    control = _candidate(cls, control_theta, pattern, fun)
    report_bad = characterization_residuals(control)
    assert report_bad.max_relative > 20 * max(report.max_relative, 1e-6)


def test_distance_ball_reports_saturation():
    cls, pattern, fun, _ = _residual_cases()["D1delta_1"]
    out = maximize_delta(cls, pattern, fun, FAST, K=16)
    assert out.boundary
    report = characterization_residuals(out)
    sat = [e for e in report.entries if e.structure == "L1 ball saturation"]
    assert len(sat) == 1
    assert sat[0].params["distance"] == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# paired signal/noise classes: flat/flat pairs make both equations exact
# ---------------------------------------------------------------------------


def _paired_cases():
    cases = {}
    fam = scalar_mixture_family(power=1.5, noise_power=0.8, grid_size=GRID)
    data1 = ClassData(power=1.5, noise_power=0.8, lower=0.0, upper=8.0)
    cases[1] = (DensityClass(kind="D0_1", g_kind="DVU_1", data=data1,
                             family=fam), (0.8, 0.7, 0.0, 0.0))

    fam2 = _diag_mixture_family((1.0, 2.0), noise_powers=(0.4, 0.6))
    data2 = ClassData(power=np.array([1.0, 2.0]),
                      noise_power=np.array([0.4, 0.6]),
                      lower=0.0, upper=8.0)
    cases[2] = (DensityClass(kind="D0_2", g_kind="DVU_2", data=data2,
                             family=fam2), (0.8, 0.6, 0.0, 0.0))

    data3 = ClassData(power=1.5, noise_power=0.8,
                      weight_f=np.array([[1.0]]), weight_g=np.array([[1.0]]),
                      lower=0.0, upper=8.0)
    cases[3] = (DensityClass(kind="D0_3", g_kind="DVU_3", data=data3,
                             family=fam), (0.8, 0.7, 0.0, 0.0))

    data4 = ClassData(power=np.array([[1.5]]), noise_power=np.array([[0.8]]),
                      lower=0.0, upper=8.0)
    cases[4] = (DensityClass(kind="D0_4", g_kind="DVU_4", data=data4,
                             family=fam), (0.8, 0.7, 0.0, 0.0))
    return cases


@pytest.mark.parametrize("flavor", [1, 2, 3, 4])
def test_paired_noise_classes_exact_at_flat_pair(flavor):
    cls, control_theta = _paired_cases()[flavor]
    fun = PRED if flavor != 2 else FunctionalSpec(coeffs=np.array([[1.0,
                                                                    0.0]]))
    out = maximize_delta(cls, NO_GAP, fun, FAST, K=16)
    # flat signal cannot be predicted from noisy past at all
    want = 1.5 if flavor != 2 else 1.0
    assert out.delta_star == pytest.approx(want, rel=1e-9)
    report = characterization_residuals(out)
    assert report.max_relative < 1e-8
    assert {e.name.split()[0] for e in report.entries} == {"signal-side",
                                                           "noise-side"}

    control = _candidate(cls, control_theta, NO_GAP, fun)
    bad = characterization_residuals(control)
    assert bad.max_relative > 20 * max(report.max_relative, 1e-6)


def test_paired_contamination_distance_classes_run_end_to_end():
    # Contaminated flat signal + noise inside a distance ball around its
    # own level: the flat pair solves both equations; the distance entry
    # honestly reports how much of the ball the maximizer uses.
    fam = scalar_mixture_family(power=2.0, w_max=0.3, b_max=0.6,
                                noise_power=0.5, grid_size=GRID)
    data = ClassData(power=2.0, noise_power=0.5, anchor_f=2.0, eps=0.3,
                     anchor_g=0.5, radius=2.0)
    cls = DensityClass(kind="Deps_1", g_kind="D1delta_1", data=data,
                       family=fam)
    out = maximize_delta(cls, NO_GAP, PRED, FAST, K=16)
    assert out.delta_star == pytest.approx(2.0, rel=1e-9)
    report = characterization_residuals(out)
    structural = [e for e in report.entries
                  if e.structure != "L1 ball saturation"]
    assert len(structural) == 2
    assert max(e.relative for e in structural) < 1e-8
    sat = [e for e in report.entries if e.structure == "L1 ball saturation"]
    assert len(sat) == 1 and np.isfinite(sat[0].residual)


def test_l1_ball_residuals_do_not_depend_on_units():
    # every density and the radius 1e-14 times smaller: the off-anchor span,
    # the distance's scale and the relative floor all scale with the side
    def relative(unit):
        entries = characterization_residuals(_at(_d1delta_case(unit)[0], (0.3, 0.6))).entries
        return [(e.name, e.relative) for e in entries]

    unit, small = relative(1.0), relative(1e-14)
    assert [name for name, _ in unit] == [name for name, _ in small] == [
        "signal-side equation", "signal-side equation distance"]
    assert [r for _, r in small] == pytest.approx([r for _, r in unit], rel=1e-12)


# ---------------------------------------------------------------------------
# unsupported configurations fail loudly
# ---------------------------------------------------------------------------


def test_unsupported_characterizations():
    # dimension above two
    wide = white_model(3, 1.0, GRID)
    cls3 = DensityClass(kind="D0_1", data=ClassData(power=3.0),
                        family=singleton_family(wide))
    out3 = maximize_delta(cls3, NO_GAP,
                          FunctionalSpec(coeffs=np.ones((1, 3))), FAST, K=16)
    with pytest.raises(UnsupportedClassError):
        characterization_residuals(out3)

    # mismatched pair flavors
    fam = scalar_mixture_family(power=1.5, noise_power=0.8, grid_size=GRID)
    miswired = DensityClass(kind="D0_1", g_kind="DVU_2",
                            data=ClassData(power=1.5, noise_power=0.8,
                                           lower=0.0, upper=8.0),
                            family=fam)
    out = maximize_delta(miswired, NO_GAP, PRED, FAST, K=16)
    with pytest.raises(UnsupportedClassError):
        characterization_residuals(out)

    # noisy model with only a signal-side class
    lone = DensityClass(kind="D0_1", data=ClassData(power=1.5), family=fam)
    out_lone = maximize_delta(lone, NO_GAP, PRED, FAST, K=16)
    with pytest.raises(UnsupportedClassError):
        characterization_residuals(out_lone)


def test_correlated_observations_unsupported_for_residuals():
    Cx = [np.array([[1.0]]), np.array([[0.5]])]
    Ce = [np.array([[0.7]])]
    S = np.array([[1.0, 0.4], [0.4, 1.0]])
    model = ma_pair_model(Cx, Ce, innovation_cov=S, grid_size=GRID)
    p_f = float(np.einsum("nii->n", model.samples("F")).real.mean())
    p_g = float(np.einsum("nii->n", model.samples("G")).real.mean())
    cls = DensityClass(kind="D0_1", g_kind="DVU_1",
                       data=ClassData(power=p_f, noise_power=p_g,
                                      lower=0.0, upper=8.0),
                       family=singleton_family(model))
    out = maximize_delta(cls, NO_GAP, PRED, FAST, K=16)
    with pytest.raises(UnsupportedClassError):
        characterization_residuals(out)


# ---------------------------------------------------------------------------
# golden values: constraint reports and residual entries of every class kind
# ---------------------------------------------------------------------------
#
# Each case pairs a class with a fixed model whose densities are clipped into
# a band, so band, mixture and distance constraints are active at some nodes
# and free at others.  golden_minimax.json pins every report value and
# residual entry; regenerate it only on purpose, with
# ``PYTHONPATH=src python tests/test_minimax.py``.

GOLDEN_PATH = Path(__file__).with_name("golden_minimax.json")
GOLDEN_GRID = 256
LO, HI = 0.6, 2.0          # signal band
LO_G, HI_G = 0.3, 0.9      # noise band
EPS = 0.25


def _rotation(d):
    if d == 1:
        return np.eye(1, dtype=complex)
    c, s = np.cos(0.4), np.sin(0.4)
    return np.array([[c, -s], [s, c]]) @ np.diag([1.0, np.exp(0.7j)])


def _clipped_density(poles_scales, lo, hi):
    """U diag(clip(ar1_k)) U^H: a band-clipped density.

    It is real symmetric: the phase of U commutes with the diagonal.  The
    complex densities are the phase-turned ones of ``_turned``.
    """
    lam = grid_points(GOLDEN_GRID)
    d = len(poles_scales)
    diag = np.zeros((GOLDEN_GRID, d, d), dtype=complex)
    for k, (b, s) in enumerate(poles_scales):
        diag[:, k, k] = np.clip(s * _unit_ar1(lam, b) / (1 - b * b), lo, hi)
    U = _rotation(d)
    return np.einsum("ij,njk,lk->nil", U, diag, np.conj(U))


def _fixed(samples):
    return lambda lam: samples


def _bumped(dens):
    """An anchor that crosses the density: equal to it on |lambda| <= 1."""
    lam = grid_points(GOLDEN_GRID)
    bump = np.where(np.abs(lam) > 1.0, 0.3 * np.sin(lam), 0.0)
    return dens + bump[:, None, None] * np.eye(dens.shape[-1])


def _golden_data(base, flavor, F, G):
    """Constraint data for a case whose signal-side base is ``base``.

    With a noise density G the band and the ball constrain the noise side.
    """
    d, noisy = F.shape[-1], G is not None

    def by_flavor(one, two, four):
        return {1: one, 2: np.asarray(two[:d]), 3: one,
                4: np.asarray(four if d == 2 else [[one]])}[flavor]

    weights = (np.array([[1.5]]), np.array([[0.7]])) if d == 1 else \
        (np.array([[1.0, 0.3], [0.3, 0.5]]), np.array([[0.8, -0.2], [-0.2, 1.1]]))
    return ClassData(
        power=by_flavor(2.5, [1.0, 1.5], [[1.2, 0.1], [0.1, 0.9]]),
        noise_power=by_flavor(0.7, [0.4, 0.5], [[0.6, 0.05], [0.05, 0.4]]),
        weight_f=weights[0], weight_g=weights[1],
        lower=LO_G if noisy else LO, upper=HI_G if noisy else HI,
        anchor_f=_bumped(F) if base == "D1delta" else LO / (1 - EPS),
        anchor_g=_bumped(G) if noisy else None, eps=EPS,
        radius=by_flavor(0.5, [0.4, 0.6], [[0.4, 0.2], [0.2, 0.6]]))


def _golden_cases():
    cases = {}
    for d in (1, 2):
        F = _clipped_density([(0.7, 0.5), (0.5, 0.8)][:d], LO, HI)
        G = _clipped_density([(-0.5, 0.4), (0.3, 0.5)][:d], LO_G, HI_G)
        fun = FunctionalSpec(coeffs=np.array([[1.0], [0.5]]) if d == 1
                             else np.array([[1.0, 0.5], [0.2, -0.3]]))
        clean = SpectralModel(dim=d, F=_fixed(F), grid_size=GOLDEN_GRID,
                              pole_modulus=0.7)
        noisy = SpectralModel(dim=d, F=_fixed(F), G=_fixed(G),
                              grid_size=GOLDEN_GRID, pole_modulus=0.7)
        for base in ("D0", "DVU", "Deps", "D1delta"):
            for k in range(1, 5):
                cases[f"{base}_{k}-d{d}"] = (
                    f"{base}_{k}", None, _golden_data(base, k, F, None), clean, fun)
        for base, g_base in (("D0", "DVU"), ("Deps", "D1delta")):
            for k in range(1, 5):
                cases[f"{base}_{k}x{g_base}_{k}-d{d}"] = (
                    f"{base}_{k}", f"{g_base}_{k}", _golden_data(base, k, F, G),
                    noisy, fun)
        # no free node: the band pins the density, the anchor leaves no room
        # for the contamination, the ball is centred on the density itself
        for k in (1, 4):
            base_data = _golden_data("DVU", k, F, None)
            cases[f"pinned-DVU_{k}-d{d}"] = ("DVU_" + str(k), None, replace(
                base_data, lower=F, upper=F), clean, fun)
            cases[f"pinned-Deps_{k}-d{d}"] = ("Deps_" + str(k), None, replace(
                base_data, anchor_f=F / (1 - EPS)), clean, fun)
            cases[f"pinned-D1delta_{k}-d{d}"] = ("D1delta_" + str(k), None, replace(
                base_data, anchor_f=F), clean, fun)
    return cases


def _plain(value):
    """JSON-ready copy: complex numbers become [re, im] pairs."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    return float(value)


def _golden_record(case):
    kind, g_kind, data, model, fun = case
    cls = DensityClass(kind=kind, g_kind=g_kind, data=data,
                       family=singleton_family(model))
    est = estimate(model, MissingPattern(intervals=((2, 0),)), fun, K=16)
    result = LeastFavorableResult(
        theta_star=np.zeros(0), model_star=model, delta_star=est.delta,
        estimate_star=est, evaluations=[], boundary=False, cls=cls,
        pattern=MissingPattern(intervals=((2, 0),)), functional=fun,
        delta_upper=np.nan, stopped="converged")
    entries = characterization_residuals(result).entries
    return {
        "report": _plain(class_constraint_report(cls, model)),
        "entries": [{"name": e.name, "structure": e.structure,
                     "params": _plain(e.params), "residual": float(e.residual),
                     "scale": float(e.scale)} for e in entries],
    }


def _canonical_phase(vec):
    """A multiplier vector is fixed only up to a unit factor; pin its phase."""
    z = np.array([complex(*v) if isinstance(v, list) else v for v in vec])
    lead = z[np.argmax(np.abs(z))]
    return z * (np.conj(lead) / abs(lead)) if abs(lead) > 0 else z


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, str):
        assert got == want, where
    else:
        if where.endswith("_vec"):
            got, want = _canonical_phase(got), _canonical_phase(want)
        # relative 1e-12, with an absolute floor for rounding noise around 0
        np.testing.assert_allclose(np.asarray(got), np.asarray(want),
                                   rtol=1e-12, atol=1e-13, err_msg=where)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden_cases():
    return _golden_cases()


@pytest.mark.parametrize("case_id", sorted(_golden_cases()))
def test_golden_reports_and_residuals(case_id, golden, golden_cases):
    got = _golden_record(golden_cases[case_id])
    want = golden[case_id]
    _assert_close(got["report"], want["report"], f"{case_id}.report")
    assert len(got["entries"]) == len(want["entries"]), case_id
    for i, (g, w) in enumerate(zip(got["entries"], want["entries"])):
        _assert_close(g, w, f"{case_id}.entries[{i}]")


@pytest.mark.parametrize("case_id", sorted(_golden_cases()))
def test_constraint_report_matches_the_per_call_reference(case_id, golden_cases):
    kind, g_kind, data, model, _ = golden_cases[case_id]
    cls = DensityClass(kind=kind, g_kind=g_kind, data=data, family=singleton_family(model))
    assert class_constraint_report(cls, model) == _reference_constraint_report(cls, model)


PHASE = np.diag([1.0, np.exp(0.7j)])


def _turned(case):
    """The case for the process P xi, P = diag(1, e^{0.7i}): densities and
    density data P X P^H, functional coefficients conj(P) a, so the error and
    every trace and diagonal stay the same."""
    kind, g_kind, data, model, fun = case

    def turn(x):
        x = np.asarray(x)
        return np.einsum("ij,njk,lk->nil", PHASE, x, np.conj(PHASE)) \
            if x.shape == (GOLDEN_GRID, 2, 2) else x

    turned = SpectralModel(dim=2, F=_fixed(turn(model.samples("F"))),
                           G=None if model.is_noiseless else _fixed(turn(model.samples("G"))),
                           grid_size=GOLDEN_GRID, pole_modulus=0.7)
    fields = {"lower", "upper", "anchor_f", "anchor_g"}
    data = replace(data, **{f: turn(getattr(data, f)) for f in fields
                            if getattr(data, f) is not None})
    return kind, g_kind, data, turned, FunctionalSpec(coeffs=fun.coeffs @ np.conj(PHASE))


@pytest.mark.parametrize("case_id", sorted(c for c in _golden_cases()
                                           if c.endswith("-d2") and "_3" not in c
                                           and "_4" not in c))
def test_phase_turned_density_keeps_flavor_1_and_2_reports(case_id, golden_cases):
    case = golden_cases[case_id]
    turned = _turned(case)
    assert np.iscomplexobj(turned[3].samples("F"))
    assert np.abs(turned[3].samples("F").imag).max() > 0.1
    want, got = _golden_record(case), _golden_record(turned)
    _assert_close(got["report"], want["report"], f"{case_id}.report")
    assert len(got["entries"]) == len(want["entries"]), case_id
    for i, (g, w) in enumerate(zip(got["entries"], want["entries"])):
        _assert_close(g, w, f"{case_id}.entries[{i}]")


if __name__ == "__main__":
    records = {cid: _golden_record(case) for cid, case in _golden_cases().items()}
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN_PATH}")

"""Acceptance gate: seven release criteria with pinned tolerances.

Each test prints one ``PASS criterion N`` line after its assertions, so a
release run (``pytest -s tests/test_acceptance.py``) reads as a checklist.
A failed assertion stops the line from printing.
"""

import time

import numpy as np
import pytest

from gapcast.cli import main
from gapcast.extrapolate import FunctionalSpec, _functional_rows, _right_side, estimate
from gapcast.families import scalar_mixture_family
from gapcast.minimax import (ClassData, DensityClass, OptConfig,
                             characterization_residuals, evaluate_candidate,
                             maximize_delta, verify_saddle_point)
from gapcast.operators import MissingPattern, build_operator_system
from gapcast.oracle import projection_oracle
from gapcast.spectral import ar1_model, ma_pair_model, make_ar1_pair

from example1_factors import factorized_inverse_check

BENCH_PAIRS = [(0.5, 0.3), (-0.4, 0.6), (0.0, 0.0), (0.9, 0.9)]


def bench_delta(b1, b2):
    """Closed-form benchmark error for the two-component autoregressive pair."""
    return 10.0 + 8.0 * b1 + 4.0 * b1 ** 2 + 2.0 * b2 + b2 ** 2


def bench_config(tmp_path, b1, b2, extra=""):
    path = tmp_path / f"bench_{b1}_{b2}.yaml"
    path.write_text(f"""
model:
  kind: example1
  b1: {b1}
  b2: {b2}
pattern:
  intervals: [[2, 1]]
functional:
  coeffs: [[1.0, 1.0], [1.0, 1.0]]
numerics:
  grid_size: 1024
  truncation: 96
{extra}""")
    return path


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        if not line.startswith("#") and " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def random_instance(seed, grid_size, pole_max, noise_pole_max, ma_decay):
    """Seeded model/pattern/functional draw mixing all three noise regimes."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    regime = seed % 3
    if regime == 2:
        Cx = [rng.normal(size=(dim, dim)) * ma_decay ** k for k in range(3)]
        Ce = [rng.normal(size=(dim, dim)) * (0.75 * ma_decay) ** k for k in range(2)]
        A = rng.normal(size=(2 * dim, 2 * dim))
        S = A @ A.T / (2 * dim) + 0.3 * np.eye(2 * dim)
        model = ma_pair_model(Cx, Ce, S, grid_size=grid_size)
    else:
        model = ar1_model(
            poles=rng.uniform(-pole_max, pole_max, size=dim),
            scales=rng.uniform(0.5, 2.0, size=dim),
            noise_poles=rng.uniform(-noise_pole_max, noise_pole_max, size=dim)
            if regime == 1 else None,
            noise_scales=rng.uniform(0.1, 0.8, size=dim) if regime == 1 else None,
            grid_size=grid_size)
    options = [(), ((1, 0),), ((2, 1),), ((1, 1), (4, 0)), ((3, 1),)]
    intervals = options[int(rng.integers(0, len(options)))]
    N = int(rng.integers(0, 4))
    fun = FunctionalSpec(coeffs=rng.normal(size=(N + 1, dim)))
    return model, MissingPattern(intervals=intervals), fun


# ---------------------------------------------------------------------------
# 1. frozen benchmark error values through the command-line pipeline
# ---------------------------------------------------------------------------

def test_criterion_1_benchmark_errors(tmp_path):
    worst = 0.0
    for b1, b2 in BENCH_PAIRS:
        cfg = bench_config(tmp_path, b1, b2)
        out = tmp_path / f"out_{b1}_{b2}"
        start = time.monotonic()
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"({b1},{b2}) took {elapsed:.2f}s"
        summary = read_summary(out / "result.summary")
        assert int(summary["truncation"]) >= 32
        ref = bench_delta(b1, b2)
        rel = abs(float(summary["delta"]) - ref) / ref
        assert rel <= 1e-6, f"({b1},{b2}) rel error {rel:.3e}"
        worst = max(worst, rel)
    print(f"\nPASS criterion 1: benchmark errors at 4 parameter pairs "
          f"(worst rel {worst:.2e})")


# ---------------------------------------------------------------------------
# 2. single-tap filter structure, sign fixed by an independent oracle
# ---------------------------------------------------------------------------

def test_criterion_2_single_update_tap(tmp_path):
    b1, b2 = 0.5, 0.3
    cfg = bench_config(tmp_path, b1, b2)
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0

    summary = read_summary(out / "result.summary")
    assert float(summary["gap_coeff_max"]) < 1e-8
    assert float(summary["orthogonality_max"]) < 1e-8

    _, rows = read_rows(out / "taps.csv")
    taps = {int(r[0]): np.array([float(r[1]) + 1j * float(r[2]),
                                 float(r[3]) + 1j * float(r[4])]) for r in rows}
    expected = np.array([2 * (b1 + b1 ** 2) - (b2 + b2 ** 2), b2 + b2 ** 2])
    assert np.max(np.abs(taps[-1] - expected)) < 1e-6
    others = max((np.abs(v).max() for lag, v in taps.items() if lag != -1),
                 default=0.0)
    assert others < 1e-8, f"stray tap mass {others:.3e}"

    # independent time-domain projection confirms magnitude and sign
    model = make_ar1_pair(b1, b2, grid_size=1024)
    orc = projection_oracle(model, MissingPattern(intervals=((2, 1),)),
                            FunctionalSpec(coeffs=np.ones((2, 2))), window=100)
    assert np.max(np.abs(orc.taps_oracle[-1] - expected)) < 1e-6
    assert orc.taps_oracle[-1][0].real > 0 and taps[-1][0].real > 0
    print(f"\nPASS criterion 2: single update tap at lag -1 = "
          f"({expected[0]:+.2f}, {expected[1]:+.2f}), all other taps "
          f"< 1e-8, sign confirmed by projection oracle")


# ---------------------------------------------------------------------------
# 3. randomized spectral-vs-projection cross validation
# ---------------------------------------------------------------------------

def test_criterion_3_randomized_cross_validation():
    start = time.monotonic()
    worst_rel = 0.0
    for i in range(20):
        model, pattern, fun = random_instance(
            9000 + i, grid_size=1024, pole_max=0.8, noise_pole_max=0.5,
            ma_decay=0.8)
        res = estimate(model, pattern, fun, K=64)
        prev = np.inf
        for window in (25, 50, 100, 200):
            orc = projection_oracle(model, pattern, fun, window=window)
            assert orc.delta_oracle <= prev + 1e-8 * (1.0 + abs(prev)), \
                f"instance {i}: oracle error grew with window {window}"
            prev = orc.delta_oracle
        rel = abs(res.delta - prev) / max(res.delta, 1e-12)
        assert rel <= 1e-4, f"instance {i}: rel {rel:.3e}"
        worst_rel = max(worst_rel, rel)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 3: 20 randomized instances agree with the "
          f"projection oracle (worst rel {worst_rel:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. Monte-Carlo validation of the benchmark error, bit-reproducible
# ---------------------------------------------------------------------------

def test_criterion_4_monte_carlo(tmp_path):
    cfg = bench_config(tmp_path, 0.5, 0.3, extra="""
simulation:
  replications: 10000
  seed: 7
""")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "mc.csv").read_bytes() == (out_b / "mc.csv").read_bytes()

    header, (row,) = read_rows(out_a / "mc.csv")
    row = dict(zip(header, row))
    mse, stderr, delta = (float(row[key]) for key in ("mse", "stderr", "delta_spectral"))
    assert delta == pytest.approx(15.69, rel=1e-6)
    z = (mse - 15.69) / stderr
    assert abs(z) <= 3.0, f"z = {z:.2f}"
    print(f"\nPASS criterion 4: 10^4-replication Monte Carlo hits the "
          f"benchmark (z = {z:+.2f}), rerun byte-identical")


# ---------------------------------------------------------------------------
# 5. structural invariants of the operator pipeline
# ---------------------------------------------------------------------------

def enlarge_pattern(pattern):
    """A strict superset of the missing set: extend the deepest interval."""
    intervals = list(pattern.intervals)
    if not intervals:
        return MissingPattern(intervals=((1, 0),))
    deepest = max(range(len(intervals)),
                  key=lambda j: intervals[j][0] + intervals[j][1])
    m, k = intervals[deepest]
    intervals[deepest] = (m, k + 1)
    return MissingPattern(intervals=tuple(intervals))


def test_criterion_5_structural_invariants():
    worst = dict(herm=0.0, two=0.0, orth=0.0, gap=0.0, mono=0.0)
    min_eig = np.inf
    for i in range(50):
        model, pattern, fun = random_instance(
            7000 + i, grid_size=256, pole_max=0.7, noise_pole_max=0.5,
            ma_decay=0.7)
        res = estimate(model, pattern, fun, K=24)
        B = res.system.Bmat
        # a^H Q a, the quadratic term of the error, is real for a Hermitian Q
        rows = _functional_rows(model, fun)
        quadratic = _right_side(model, pattern, fun, res.system, rows)[1]
        worst["herm"] = max(worst["herm"],
                            float(np.abs(B - B.conj().T).max()),
                            abs(np.imag(quadratic)) / max(1.0, abs(quadratic)))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(B).min()))
        assert res.delta >= 0.0
        d = res.diagnostics
        worst["two"] = max(worst["two"], d.two_form_rel_diff)
        worst["orth"] = max(worst["orth"], d.orthogonality_max)
        worst["gap"] = max(worst["gap"], d.gap_coeff_max)

        bigger = estimate(model, enlarge_pattern(pattern), fun, K=24)
        slack = (res.delta - bigger.delta) / (1.0 + res.delta)
        worst["mono"] = max(worst["mono"], slack)

    assert worst["herm"] <= 1e-12
    assert min_eig > 0.0
    assert worst["two"] <= 1e-8
    assert worst["orth"] <= 1e-8
    assert worst["gap"] <= 1e-8
    # enlarging the missing set can only lose information
    assert worst["mono"] <= 1e-8
    print(f"\nPASS criterion 5: 50 randomized instances keep all structural "
          f"invariants (hermiticity {worst['herm']:.1e}, min eig "
          f"{min_eig:.2e}, two-route {worst['two']:.1e}, monotone slack "
          f"{worst['mono']:.1e})")


# ---------------------------------------------------------------------------
# 6. factorized inverse against dense inversion
# ---------------------------------------------------------------------------

def test_criterion_6_factorized_inverse():
    worst = 0.0
    for b1, b2 in [(0.5, 0.3), (0.7, 0.2), (-0.6, 0.4), (0.3, -0.7)]:
        model = make_ar1_pair(b1, b2, grid_size=512)
        system = build_operator_system(model, MissingPattern(()), 64)
        dense = np.linalg.inv(system.Bmat)
        for i in range(0, 25, 4):
            for j in range(0, 25, 4):
                block = factorized_inverse_check(b1, b2, i, j)
                ref = dense[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                worst = max(worst, float(np.abs(block - ref).max()))
    assert worst <= 1e-8, f"worst block deviation {worst:.3e}"
    print(f"\nPASS criterion 6: factorized inverse matches dense inversion "
          f"on leading blocks (worst deviation {worst:.2e})")


# ---------------------------------------------------------------------------
# 7. least-favorable density search with certification
# ---------------------------------------------------------------------------

def test_criterion_7_least_favorable_density():
    start = time.monotonic()
    power = 2.0
    family = scalar_mixture_family(power=power, grid_size=512)
    cls = DensityClass(kind="D0_1", data=ClassData(power=power), family=family)
    pattern = MissingPattern(intervals=((2, 0),))
    fun = FunctionalSpec(coeffs=np.array([[1.0]]))
    opt = OptConfig(starts=6, budget=400, seed=3)

    result = maximize_delta(cls, pattern, fun, opt, K=16)
    assert result.delta_star == pytest.approx(power, rel=1e-8)

    rng = np.random.default_rng(77)
    tol = 1e-6 * (1.0 + result.delta_star)
    for _ in range(100):
        cand = evaluate_candidate(cls, family.sample(rng), pattern, fun, K=16)
        assert cand.delta_star <= result.delta_star + tol

    saddle = verify_saddle_point(result)
    assert saddle.all_pass, f"saddle violation {saddle.max_violation:.3e}"
    # the class bound decides: the violation is the duality gap
    assert saddle.max_violation == max(result.fw_gap, 0.0)

    best = characterization_residuals(result).max_relative
    controls = []
    for _ in range(20):
        theta = family.sample(rng)
        theta[0] = 0.2 + 0.7 * theta[0] / family.upper[0]  # stay off-optimum
        cand = evaluate_candidate(cls, theta, pattern, fun, K=16)
        controls.append(characterization_residuals(cand).max_relative)
    median = float(np.median(controls))
    assert best <= 0.1 * median, \
        f"maximizer residual {best:.3e} vs control median {median:.3e}"

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 7: least-favorable density dominates 100 "
          f"in-class samples, saddle point verified by the class bound, residual {best:.1e} "
          f"vs control median {median:.1e} ({elapsed:.1f}s)")

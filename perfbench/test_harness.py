"""Tests of the benchmark harness itself: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

import child
import run
import workloads
from tracer import Tracer, per_layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[1]


def span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_nested_children():
    spans = [
        span("op", 0, 100, None),
        span("extrapolate.estimate", 10, 60, 0),
        span("operators.assemble", 20, 30, 1),
        span("spectral.coeffs_from_samples", 40, 50, 1),
        span("cli.cmd_estimate", 70, 90, 0),
    ]
    assert self_times(spans) == [30, 30, 10, 10, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [span("op", 0, 100, None), span("a", 10, 30, 0), span("b", 20, 40, 0),
             span("c", 35, 38, 0)]
    assert self_times(spans)[0] == 100 - 30


def test_per_layer_metrics_are_per_op():
    spans = [
        span("op", 0, 4_000_000, None, op=0),
        span("extrapolate.estimate", 0, 3_000_000, 0, op=0),
        span("operators.solve_coefficients", 0, 1_000_000, 1, op=0),
        span("op", 0, 2_000_000, None, op=2),
        span("extrapolate.estimate", 0, 2_000_000, 3, op=2),
        span("extrapolate.estimate", 0, 9_000_000, None, op=None),   # untraced, ignored
    ]
    counts = [("operators.cholesky_flops_computed", 300.0, 0),
              ("operators.system_size", 12, 0),
              ("operators.system_size", 30, 2),
              ("operators.system_size", 99, None)]               # untraced, ignored
    m = per_layer_metrics(spans, counts, n_ops=2)
    assert m["extrapolate.estimate.calls"] == 1.0
    assert m["extrapolate.estimate.self_ms"] == pytest.approx((2.0 + 2.0) / 2)
    assert m["operators.solve_coefficients.self_ms"] == pytest.approx(0.5)
    assert m["operators.self_ms"] == pytest.approx(0.5)
    assert m["extrapolate.op_share"] == pytest.approx(2.0 / 3.0)
    assert m["operators.cholesky_flops_computed"] == 150.0
    assert m["operators.system_size"] == 30.0
    assert m["oracle.projection_oracle.calls"] == 0.0


def test_median_throughput_and_setup_pool_the_processes():
    def proc(setup_s, op_ms, run_s, rss):
        return {"setup_s": setup_s, "attempted": len(op_ms) + 1, "failed": 0,
                "op_ns": [int(t * 1e6) for t in op_ms], "ok_ops": len(op_ms),
                "op_cost": [t * 10 for t in op_ms], "probe_ns": [100_000] * 3,
                "run_s": run_s, "peak_rss_mb": rss}

    records = [proc(3.0, [4.0, 1.0], 6.0, 70.5), proc(1.0, [2.0], 2.0, 71.0),
               proc(2.0, [9.0, 5.0], 12.0, 70.0)]
    line = run.result_line(records, trace=False)
    assert line == {"correct": True, "attempted": 8, "failed": 0, "metrics": {
        "op_cost_p50": {"value": pytest.approx(run.median_hd([40, 10, 20, 90, 50])),
                        "unit": "probes"},
        "setup_s": {"value": 2.0, "unit": "s"},
        "peak_rss_mb": {"value": 71.0, "unit": "MB"},
    }}
    ms_p50, per_s, probe = run.wall_time_lines(records)
    assert ms_p50 == f"op_ms_p50 = {run.median_hd([4.0, 1.0, 2.0, 9.0, 5.0]):.6g} ms"
    assert per_s == "ops_per_s = 0.25 1/s"
    assert probe == "probe_ms_p50 = 0.1 ms (9 samples, 4.11% of op time)"


def test_op_cost_divides_each_stretch_by_the_sample_that_ends_it():
    # op from 0 to 100; samples at 10 (2 long) and 50 (4 long)
    net, cost = child.op_cost(0, 100, [(10, 2), (50, 4)])
    assert net == 100 - 2 - 4
    assert cost == pytest.approx(10 / 2 + (50 - 12) / 4 + (100 - 54) / 4)
    # the same op on a CPU running everything twice as fast
    net2, cost2 = child.op_cost(0, 50, [(5, 1), (25, 2)])
    assert (net2, cost2) == (net / 2, pytest.approx(cost))


def test_speed_probe_samples_on_the_alarm():
    probe = child.SpeedProbe()
    probe.start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 2
    assert all(d > 0 for _, d in probe.samples)


def test_harrell_davis_median():
    assert run.median_hd([3.0, 1.0, 2.0]) == pytest.approx(2.0)
    assert run.median_hd([7.0]) == 7.0
    # A sample split into a fast and a slow cluster: the middle order
    # statistic jumps to one cluster, the estimate stays between them.
    split = [1.0] * 5 + [2.0] * 6
    assert 1.3 < run.median_hd(split) < 1.7
    assert run.median_hd(split) < run.median_hd([1.0] * 4 + [2.0] * 7)


class _StubCli:
    """Stands in for gapcast.cli: writes fixed summaries instead of solving."""

    def __init__(self, delta: float):
        self.delta = delta

    def main(self, argv):
        target = Path(argv[4])
        target.mkdir(parents=True, exist_ok=True)
        delta = self.delta if target.name == "example1" else 8.0
        (target / "result.summary").write_text(
            f"# config_sha256=0\ndelta = {delta!r}\ntwo_form_rel_diff = 0\n"
            "gap_coeff_max = 1e-16\northogonality_max = 2e-16\n")
        return 0


def test_wrong_reference_counts_as_failed(tmp_path):
    params = workloads.generate("estimate-large", 7, ROOT, tmp_path)
    good = _StubCli(params["expected_example1"])
    refs = {"noisy_oracle_200": 8.0}
    *_, failed = child.run_op(good, workloads, "estimate-large", params, refs, {})
    assert failed == []

    wrong = dict(params, expected_example1=params["expected_example1"] * 1.01)
    *_, failed = child.run_op(good, workloads, "estimate-large", wrong, refs, {})
    assert failed == ["example1 delta vs closed form"]

    records = [{"setup_s": 1.0, "attempted": 3, "failed": 1, "op_ns": [1_000_000],
                "op_cost": [1000.0], "ok_ops": 1, "run_s": 1.0, "peak_rss_mb": 1.0}]
    line = run.result_line(records, trace=False)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 3, 1)


def test_generated_inputs_follow_the_seed(tmp_path):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    a = workloads.generate("estimate-large", 3, ROOT, tmp_path / "a")
    b = workloads.generate("estimate-large", 3, ROOT, tmp_path / "b")
    c = workloads.generate("estimate-large", 4, ROOT, tmp_path / "c")
    assert (a["b1"], a["b2"]) == (b["b1"], b["b2"]) != (c["b1"], c["b2"])
    assert all(-0.6 <= x <= 0.6 for x in (a["b1"], a["b2"]))
    assert all(str(tmp_path) in cmd[2] for cmd in a["commands"])


def test_tracer_wraps_name_imports_and_restores(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import gapcast.cli as cli
    import gapcast.extrapolate as extrapolate
    import gapcast.spectral as spectral

    originals = (cli._COMMANDS["estimate"], extrapolate.build_operator_system,
                 spectral.check_minimality, spectral.SpectralModel.samples)
    cfg = tmp_path / "run.yaml"
    cfg.write_text((ROOT / "docs" / "examples" / "benchmark.yaml").read_text())
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    root_span = tracer.begin("op")
    try:
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--grid", "256", "--truncation", "16"]) == 0
    finally:
        tracer.end(root_span)
        tracer.uninstall()
    assert originals == (cli._COMMANDS["estimate"], extrapolate.build_operator_system,
                         spectral.check_minimality, spectral.SpectralModel.samples)

    names = [s[0] for s in tracer.spans]
    parent = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] is not None}
    assert parent["cli.cmd_estimate"] == "cli.main"
    assert parent["operators.build_operator_system"] == "extrapolate.estimate"
    assert names.count("spectral.check_minimality") == 2   # operators' and estimate's own
    assert "spectral.SpectralModel.samples" in names
    m = per_layer_metrics(tracer.spans, tracer.counts, n_ops=1)
    assert m["operators.system_size"] == 2 * 19            # (|S| + K + 1) * T
    assert sum(m[f"{layer}.op_share"] for layer in
               ("cli", "config", "spectral", "operators", "extrapolate")) <= 1.0


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_child_refuses_unpinned_blas(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with pytest.raises(SystemExit, match="not pinned"):
        child.require_pin()

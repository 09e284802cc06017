"""Run one gapcast benchmark workload and print its metrics.

    python3 perfbench/run.py --workload estimate-large --seed 1 --seconds 25 --trace 0

Run it from the root of a gapcast checkout.  It writes the workload's seeded
inputs under ``.perfbench_runs/``, starts each workload process with BLAS
threads pinned to one, and prints every metric with its unit.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from child import PIN_VARS
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
# Untraced runs split --seconds over this many workload processes: setup_s is
# their median, and op times pooled across processes average out the
# per-process speed differences of memory layout.
PROCESSES = 3
DEADLINE_S = 170.0       # the whole run, all workload processes included

# op_cost_p50 is the gated op time.  It is given in probe units (see
# child.SpeedProbe) because wall time on a shared host moves with the host's
# load by more than any useful bound; op_ms_p50 and ops_per_s are printed.
END_TO_END = {"op_cost_p50": "probes", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics listed in BENCHMARK.json.  A time (ms) is listed only for
# functions that all three workloads run; a function that some workload never
# reaches is listed by its share of the traced op instead, because its time
# there would read exactly 0 on every run.  The full per-function table
# (calls, self_ms and op_share of every wrapped function) is printed by a
# traced run and kept in its process0.json.
PER_LAYER = {
    "operators.build_operator_system.calls": "count",
    "operators.build_operator_system.self_ms": "ms",
    "operators.assemble.calls": "count",
    "operators.assemble.self_ms": "ms",
    "operators.solve_coefficients.calls": "count",
    "operators.solve_coefficients.self_ms": "ms",
    "operators.system_size": "count",
    "operators.cholesky_flops_computed": "flop",
    "cli.cmd_estimate.op_share": "ratio",
    "cli.cmd_minimax.op_share": "ratio",
    "cli.cmd_oracle_check.op_share": "ratio",
    "cli.cmd_simulate.op_share": "ratio",
    "config.load_config.self_ms": "ms",
    "config.build_model.op_share": "ratio",
    "config.build_class.op_share": "ratio",
    "extrapolate.estimate.calls": "count",
    "extrapolate.estimate.self_ms": "ms",
    "extrapolate.delta_of_characteristic.calls": "count",
    "extrapolate.delta_of_characteristic.self_ms": "ms",
    "spectral.SpectralModel.samples.calls": "count",
    "spectral.SpectralModel.samples.self_ms": "ms",
    "spectral.check_minimality.calls": "count",
    "spectral.check_minimality.self_ms": "ms",
    "spectral.coeffs_from_samples.calls": "count",
    "spectral.coeffs_from_samples.self_ms": "ms",
    "spectral.coeffs_from_samples.bytes_computed": "B",
    "minimax.maximize_delta.op_share": "ratio",
    "minimax.evaluations": "count",
    "minimax.diagnostics_used_ratio": "ratio",
    "minimax.class_constraint_report.calls": "count",
    "minimax.class_constraint_report.op_share": "ratio",
    "minimax.verify_saddle_point.op_share": "ratio",
    "minimax.characterization_residuals.op_share": "ratio",
    "oracle.projection_oracle.calls": "count",
    "oracle.projection_oracle.op_share": "ratio",
    "oracle.CirculantEmbedding.init.op_share": "ratio",
    "oracle.CirculantEmbedding.sample_block.calls": "count",
    "oracle.CirculantEmbedding.sample_block.op_share": "ratio",
    "oracle.monte_carlo_mse.op_share": "ratio",
    "oracle.replications": "count",
    "cli.self_ms": "ms",
    "config.self_ms": "ms",
    "spectral.self_ms": "ms",
    "operators.self_ms": "ms",
    "extrapolate.self_ms": "ms",
    "oracle.op_share": "ratio",
    "minimax.op_share": "ratio",
    "traced_op_ms": "ms",
    "trace_overhead_ratio": "ratio",
}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PIN_VARS})
    return env


def spawn(root: Path, run_dir: Path, args, seconds: float, index: int,
          deadline: float) -> dict:
    """Start one workload process, wait for it, and return its result record."""
    result = run_dir / f"process{index}.json"
    argv = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--params", str(run_dir / "params.json"), "--seconds", str(seconds),
            "--trace", str(args.trace), "--result", str(result)]
    spawned = time.monotonic_ns()
    argv += ["--spawned-ns", str(spawned)]
    proc = subprocess.run(argv, cwd=root, env=pinned_env(), stdout=sys.stderr,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.exit(f"perfbench: workload process exited with {proc.returncode}")
    return json.loads(result.read_text())


def median_hd(values) -> float:
    """Harrell-Davis estimate of the median: a beta-weighted mean of the order
    statistics.  Unlike the middle order statistic it does not jump from one
    cluster to the other when a run's op times split into a fast and a slow
    group, as they do when the host's load changes during the run.
    """
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    a = (n + 1) / 2.0
    cdf = [betainc(a, a, i / n) for i in range(n + 1)]
    return float(sum(xi * (hi - lo) for xi, lo, hi in zip(x, cdf, cdf[1:])))


def result_line(records: list[dict], trace: bool) -> dict:
    """The run's result object from its workload-process records."""
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
            "failed": failed, "metrics": _metrics(records, trace)}


def _metrics(records: list[dict], trace: bool) -> dict:
    if trace:
        (traced,) = records
        metrics = dict(traced["per_layer"])
        metrics["traced_op_ms"] = statistics.median(traced["traced_op_ns"]) * 1e-6
        metrics["trace_overhead_ratio"] = (statistics.median(traced["traced_op_ns"])
                                           / statistics.median(traced["op_ns"]))
        return {k: {"value": metrics[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    metrics = {
        "op_cost_p50": median_hd(c for r in records for c in r["op_cost"]),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    return {k: {"value": metrics[k], "unit": END_TO_END[k]} for k in END_TO_END}


def wall_time_lines(records: list[dict]) -> list[str]:
    """Ungated wall-time figures of an untraced run, with the probe's own."""
    probe = [d for r in records for d in r["probe_ns"]]
    op_ns = sum(t for r in records for t in r["op_ns"])
    return [
        f"op_ms_p50 = {median_hd(t for r in records for t in r['op_ns']) * 1e-6:.6g} ms",
        f"ops_per_s = {sum(r['ok_ops'] for r in records) / sum(r['run_s'] for r in records):.6g} 1/s",
        f"probe_ms_p50 = {statistics.median(probe) * 1e-6:.6g} ms "
        f"({len(probe)} samples, {sum(probe) / (sum(probe) + op_ns):.2%} of op time)",
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    missing = [str(path) for path in (root / "src" / "gapcast" / "cli.py",
                                      root / workloads.EXAMPLES) if not path.exists()]
    if missing:
        print(f"perfbench: not a gapcast checkout, missing {missing}", file=sys.stderr)
        return 2

    run_dir = root / ".perfbench_runs" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    params = workloads.generate(args.workload, args.seed, root, run_dir)
    (run_dir / "params.json").write_text(json.dumps(params, indent=1))

    n_proc = 1 if args.trace else PROCESSES
    records = [spawn(root, run_dir, args, args.seconds / n_proc, i, deadline)
               for i in range(n_proc)]

    line = result_line(records, bool(args.trace))
    env = records[-1]["env"]
    (run_dir / "environment.json").write_text(json.dumps(env, indent=1))

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} processes={len(records)}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "pin")
          + " pin=" + ",".join(f"{k}={v}" for k, v in env["pin"].items()))
    op_ms = sorted(t * 1e-6 for r in records for t in r["op_ns"])
    print(f"# untimed warm-up ops: {len(records)}; timed untraced ops: {len(op_ms)}"
          f" (min {op_ms[0]:.1f} ms, max {op_ms[-1]:.1f} ms)")
    for problem in (pr for r in records for pr in r["problems"]):
        print(f"# FAILED {problem}")
    if args.trace:
        pl = records[0]["per_layer"]
        print("# per traced op: function calls self_ms op_share")
        for target in sorted({k.rsplit(".", 1)[0] for k in pl if k.endswith(".calls")}):
            print(f"#   {target} {pl[target + '.calls']:g} {pl[target + '.self_ms']:.3f} "
                  f"{pl[target + '.op_share']:.3f}")
        print("# per traced op: layer self_ms op_share")
        for layer in LAYERS:
            print(f"#   {layer} {pl[layer + '.self_ms']:.3f} {pl[layer + '.op_share']:.3f}")
        for key in sorted(pl):
            if key not in PER_LAYER and not key.endswith((".calls", ".self_ms", ".op_share")):
                print(f"# {key} = {pl[key]:.6g}")
    else:
        for text in wall_time_lines(records):
            print(f"# {text}")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {line['failed'] / line['attempted']:.6g} "
          f"({line['failed']}/{line['attempted']} ops)")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Informational scaling table of ``estimate``: per-layer self time vs K and T.

    python3 perfbench/scaling.py

Run it from the root of a gapcast checkout.  It sweeps the truncation
K in {64, 128, 256, 512} with grid n = 16 K, and the dimension T in {1, 2, 4},
on a noisy diagonal AR(1) model with the gap S = {-3, -2}.  Each cell is the
median over three traced ``estimate`` calls after one untimed call.  It prints
a markdown table (and writes it to ``.perfbench_runs/scaling.md``); nothing
gates on it.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

from child import PIN_VARS, environment, require_pin
from tracer import Tracer, per_layer_metrics

KS = (64, 128, 256, 512)
DIMS = (1, 2, 4)
REPEATS = 3
POLES = (0.6, -0.4, 0.5, -0.3)
NOISE_POLES = (0.2, 0.3, -0.2, 0.1)
COLUMNS = ("spectral.self_ms", "operators.self_ms", "extrapolate.self_ms",
           "operators.build_operator_system.self_ms", "operators.assemble.self_ms",
           "operators.solve_coefficients.self_ms")


def main() -> int:
    os.environ.update({k: "1" for k in PIN_VARS})
    require_pin()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import gapcast.extrapolate as extrapolate
    from gapcast import FunctionalSpec, MissingPattern, ar1_model

    pattern = MissingPattern(intervals=((2, 1),))
    env = environment()
    head = ["K", "n", "T", r"\|S\|", "P*T", "estimate_ms"] + list(COLUMNS)
    rows = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for T in DIMS:
        for K in KS:
            model = ar1_model(POLES[:T], noise_poles=NOISE_POLES[:T], noise_scales=[0.5] * T,
                              grid_size=16 * K)
            functional = FunctionalSpec(coeffs=[[1.0] * T, [1.0] * T])
            extrapolate.estimate(model, pattern, functional, K=K)
            wall, cells = [], []
            for _ in range(REPEATS):
                tracer = Tracer()
                tracer.install()
                tracer.op = 0
                span = tracer.begin("op")
                start = time.perf_counter_ns()
                try:
                    # looked up on the module, so the tracer's wrapper is called
                    extrapolate.estimate(model, pattern, functional, K=K)
                finally:
                    wall.append((time.perf_counter_ns() - start) * 1e-6)
                    tracer.end(span)
                    tracer.uninstall()
                cells.append(per_layer_metrics(tracer.spans, tracer.counts, 1))
            size = int(cells[0]["operators.system_size"])
            row = [K, 16 * K, T, pattern.size, size, f"{statistics.median(wall):.1f}"]
            row += [f"{statistics.median(c[col] for c in cells):.1f}" for col in COLUMNS]
            rows.append("| " + " | ".join(str(x) for x in row) + " |")
            print(rows[-1], flush=True)
    note = (f"nproc={env['nproc']}, Python {env['python']}, NumPy {env['numpy']}, "
            f"SciPy {env['scipy']}, {env['blas']}, BLAS threads pinned to 1; "
            f"median of {REPEATS} traced calls")
    table = "\n".join(rows + ["", note])
    out = root / ".perfbench_runs"
    out.mkdir(exist_ok=True)
    (out / "scaling.md").write_text(table + "\n")
    print("\n" + table)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: seeded inputs, the op, and its checks.

One op is a fixed sequence of gapcast CLI commands.  ``generate`` runs in the
parent process and writes every seeded input gapcast sees; ``references``
runs once per workload process during set-up; ``check`` reads the artifacts
an op wrote and returns the names of the checks that failed.
"""

from __future__ import annotations

import random
from pathlib import Path

import yaml

EXAMPLES = Path("docs") / "examples"
NAMES = ("estimate-large", "minimax-search", "crosscheck")


def _load(root: Path, name: str) -> dict:
    return yaml.safe_load((root / EXAMPLES / name).read_text())


def _dump(path: Path, doc: dict) -> str:
    path.write_text(yaml.safe_dump(doc, sort_keys=True))
    return str(path)


def read_summary(path: Path) -> dict[str, str]:
    """``key = value`` lines of a gapcast summary file."""
    out = {}
    for line in path.read_text().splitlines():
        if not line.startswith("#") and " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


def generate(name: str, seed: int, root: Path, run_dir: Path) -> dict:
    """Write the seeded inputs of workload ``name``; return the op's parameters."""
    rng = random.Random(f"{name}:{seed}")
    out = run_dir / "out"
    params = {"out": str(out)}
    if name == "estimate-large":
        doc = _load(root, "benchmark.yaml")
        b1, b2 = rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)
        doc["model"].update(b1=b1, b2=b2)
        ex1 = _dump(run_dir / "example1.yaml", doc)
        noisy = _dump(run_dir / "noisy_ar1.yaml", _load(root, "noisy_ar1.yaml"))
        size = ["--grid", "8192", "--truncation", "512"]
        return params | {
            "commands": [
                ["estimate", "--config", ex1, "--out", str(out / "example1")] + size,
                ["estimate", "--config", noisy, "--out", str(out / "noisy")] + size,
            ],
            "b1": b1, "b2": b2, "noisy_config": noisy, "grid": 8192,
            "expected_example1": 10 + 8 * b1 + 4 * b1 ** 2 + 2 * b2 + b2 ** 2,
        }
    if name == "minimax-search":
        s = str(rng.randrange(2 ** 31))
        fixed = _dump(run_dir / "robust_fixed_power.yaml",
                      _load(root, "robust_fixed_power.yaml"))
        banded = _dump(run_dir / "robust_banded_noise.yaml",
                       _load(root, "robust_banded_noise.yaml"))
        return params | {
            "commands": [
                ["minimax", "--config", fixed, "--out", str(out / "fixed"), "--seed", s],
                ["minimax", "--config", banded, "--out", str(out / "banded"), "--seed", s],
            ],
            # the flat density is least favorable, so delta_star is the power
            "expected_fixed_delta": float(_load(root, "robust_fixed_power.yaml")
                                          ["minimax"]["data"]["power"]),
        }
    if name == "crosscheck":
        doc = _load(root, "noisy_ar1.yaml")
        # grid n >= 4 (window + N) for the largest window
        doc["oracle_check"] = {"windows": [100, 200, 400], "tolerance": 1.0e-4}
        doc["simulation"]["replications"] = 5000
        cfg = _dump(run_dir / "crosscheck.yaml", doc)
        s = str(rng.randrange(2 ** 31))
        return params | {
            "commands": [
                ["oracle-check", "--config", cfg, "--out", str(out / "cc")],
                ["simulate", "--config", cfg, "--out", str(out / "cc"), "--seed", s],
            ],
        }
    raise ValueError(f"unknown workload {name!r}")


def references(name: str, params: dict) -> dict:
    """Reference values computed once per process, before the first op."""
    if name != "estimate-large":
        return {}
    from gapcast.config import build_functional, build_model, build_pattern, load_config
    from gapcast.oracle import projection_oracle

    cfg = load_config(params["noisy_config"])
    cfg.numerics["grid_size"] = params["grid"]
    orc = projection_oracle(build_model(cfg), build_pattern(cfg), build_functional(cfg),
                            window=200)
    return {"noisy_oracle_200": orc.delta_oracle}


def check(name: str, params: dict, refs: dict, state: dict) -> list[str]:
    """Failed check names for the artifacts of the op just run.

    ``state`` persists across the ops of one process (crosscheck keeps the
    first ``mc.csv`` there).
    """
    failed = []
    out = Path(params["out"])
    if name == "estimate-large":
        ex1 = read_summary(out / "example1" / "result.summary")
        noisy = read_summary(out / "noisy" / "result.summary")
        if _rel(float(ex1["delta"]), params["expected_example1"]) > 1e-6:
            failed.append("example1 delta vs closed form")
        for label, summ in (("example1", ex1), ("noisy", noisy)):
            for key in ("two_form_rel_diff", "gap_coeff_max", "orthogonality_max"):
                if not float(summ[key]) <= 1e-8:
                    failed.append(f"{label} {key}")
        if _rel(float(noisy["delta"]), refs["noisy_oracle_200"]) > 1e-4:
            failed.append("noisy delta vs projection oracle at window 200")
    elif name == "minimax-search":
        fixed = read_summary(out / "fixed" / "lfd.summary")
        banded = read_summary(out / "banded" / "lfd.summary")
        if _rel(float(fixed["delta_star"]), params["expected_fixed_delta"]) > 1e-8:
            failed.append("fixed-power delta_star vs power")
        for label, summ in (("fixed-power", fixed), ("banded-noise", banded)):
            if summ.get("saddle_all_pass") != "true":
                failed.append(f"{label} saddle_all_pass")
    elif name == "crosscheck":
        comparison = (out / "cc" / "comparison.csv").read_text().splitlines()
        if "# converged=true" not in comparison:
            failed.append("oracle-check converged")
        mc = (out / "cc" / "mc.csv").read_bytes()
        header, row = [l for l in mc.decode().splitlines() if not l.startswith("#")]
        z = float(dict(zip(header.split(","), row.split(",")))["z_score"])
        if not abs(z) <= 3.0:
            failed.append("simulate |z| <= 3")
        if state.setdefault("mc.csv", mc) != mc:
            failed.append("mc.csv byte-identical across ops")
    return failed

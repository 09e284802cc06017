"""End-to-end tests of the command-line driver and the YAML run files.

Every test goes through ``gapcast.cli.main`` with a config written to a
temp directory, then parses the emitted artifacts the way a user would.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from gapcast.cli import _complex_table, _fmt, main
from gapcast.config import (
    build_class,
    build_functional,
    build_pattern,
    config_hash,
    dumps_config,
    load_config,
    loads_config,
)
import gapcast.cli as cli_module
import gapcast.extrapolate as extrapolate_module
import gapcast.minimax as minimax_module
import gapcast.operators as operators_module
from gapcast.extrapolate import FunctionalSpec, estimate
from gapcast.families import scalar_mixture_family
from gapcast.minimax import ClassData, DensityClass, OptConfig, maximize_delta
from gapcast.operators import MissingPattern
from gapcast.oracle import CirculantEmbedding
from gapcast.spectral import grid_points

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
ROBUST = EXAMPLES / "robust_fixed_power.yaml"

BENCH_YAML = """
model:
  kind: example1
  b1: 0.5
  b2: 0.3
pattern:
  intervals: [[2, 1]]
functional:
  coeffs: [[1.0, 1.0], [1.0, 1.0]]
numerics:
  grid_size: 1024
  truncation: 48
"""

BENCH_DELTA = 15.69  # 10 + 8 b1 + 4 b1^2 + 2 b2 + b2^2 at (0.5, 0.3)
# the quadrature of tr F_zeta^{-1}, 1 + b1^2 + 2 (1 + b2^2), exact on these grids
BENCH_MINIMALITY = 3.43


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_cli(args):
    return main([str(a) for a in args])


def read_summary(path):
    """Parse 'key = value' lines, skipping comment headers."""
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, value = line.split(" = ", 1)
        out[key.strip()] = value.strip()
    return out


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    header = None
    rows = []
    trailer = []
    for line in lines:
        if line.startswith("#"):
            trailer.append(line)
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows, trailer


def entry_point(args, **env):
    """``python -m gapcast.cli args`` in a fresh interpreter, which sees stderr as a user does."""
    src = Path(cli_module.__file__).resolve().parents[1]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-m", "gapcast.cli", *map(str, args)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)


def header_hash(path):
    for line in path.read_text().splitlines():
        if line.startswith("# config_sha256="):
            return line.split("=", 1)[1]
    raise AssertionError(f"no config hash header in {path}")


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_benchmark_outputs(tmp_path):
    cfg = write_config(tmp_path, BENCH_YAML)
    out = tmp_path / "out"
    assert run_cli(["estimate", "--config", cfg, "--out", out]) == 0

    summary = read_summary(out / "result.summary")
    delta = float(summary["delta"])
    assert abs(delta - BENCH_DELTA) <= 1e-6 * BENCH_DELTA
    assert float(summary["two_form_rel_diff"]) < 1e-8
    assert summary["truncation"] == "48"
    assert summary["grid_size"] == "1024"
    assert list(summary) == [
        "delta", "delta_operator", "delta_quadrature", "two_form_rel_diff", "truncation",
        "grid_size", "max_lag", "cond_B", "solve_residual", "cg_iterations", "gap_coeff_max",
        "orthogonality_max", "tap_tail_mass", "minimality_value", "delta_filter",
        "bracket_rel_width", "taps_window"]

    header, rows, _ = read_csv_rows(out / "taps.csv")
    assert header == ["lag", "tap1_re", "tap1_im", "tap2_re", "tap2_im"]
    assert all(int(r[0]) < 0 for r in rows)
    lags = {int(r[0]): [float(x) for x in r[1:]] for r in rows}
    tap = lags[-1]
    assert tap[0] == pytest.approx(1.11, abs=1e-6)   # 2(b1+b1^2)-(b2+b2^2)
    assert tap[2] == pytest.approx(0.39, abs=1e-6)   # b2+b2^2
    assert abs(tap[1]) < 1e-10 and abs(tap[3]) < 1e-10

    # the recorded hash is reproducible from the config text alone
    assert header_hash(out / "result.summary") == config_hash(loads_config(BENCH_YAML))

    # the shipped file sits on both closed forms up to rounding
    out = tmp_path / "example"
    assert run_cli(["estimate", "--config", EXAMPLES / "benchmark.yaml", "--out", out]) == 0
    summary = read_summary(out / "result.summary")
    assert abs(float(summary["delta"]) - BENCH_DELTA) <= 1e-12 * BENCH_DELTA
    assert abs(float(summary["minimality_value"]) - BENCH_MINIMALITY) <= \
        1e-13 * BENCH_MINIMALITY


def test_estimate_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BENCH_YAML)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["estimate", "--config", cfg, "--out", out_a]) == 0
    assert run_cli(["estimate", "--config", cfg, "--out", out_b]) == 0
    for name in ("result.summary", "taps.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("example,flags", [
    ("benchmark", []), ("noisy_ar1", []),
    ("benchmark", ["--grid", "2048", "--truncation", "300"]),   # the split route
])
def test_a_two_component_estimate_makes_no_lapack_eigen_or_inverse_call(
        tmp_path, monkeypatch, example, flags):
    # F's and G's PSD checks, F_zeta's eigenvalues and F_zeta^{-1} take the
    # closed 2 x 2 forms at every node
    calls = []
    for name in ("eigvalsh", "inv"):
        def spy(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    out = tmp_path / "out"
    assert run_cli(["estimate", "--config", EXAMPLES / f"{example}.yaml", *flags,
                    "--out", out]) == 0
    summary = read_summary(out / "result.summary")
    assert float(summary["minimality_value"]) > 0
    assert (int(summary["cg_iterations"]) > 0) == bool(flags)
    assert calls == []


def _per_float_rows(keys, values):
    """Rows as written one ``_fmt`` call per number, the reference layout."""
    return [",".join([_fmt(key)] + [_fmt(part) for z in row
                                    for part in (complex(z).real, complex(z).imag)])
            for key, row in zip(keys, values)]


def test_complex_table_writes_integer_keys_and_empty_tables():
    # '%.17g' of an integer below 2^53 is its '%d'
    rng = np.random.default_rng(3)
    values = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    head, body = _complex_table("lag", "tap", [-40, -7, -1], values, 2)
    assert head == "lag,tap1_re,tap1_im,tap2_re,tap2_im"
    assert body == "".join(row + "\n" for row in _per_float_rows([-40, -7, -1], values)).encode()
    assert _complex_table("lag", "tap", [], [], 2) == ("lag,tap1_re,tap1_im,tap2_re,tap2_im", b"")


def test_complex_table_matches_per_float_formatting():
    rng = np.random.default_rng(3)
    tens = np.array([float(f"1e{e}") for e in range(-300, 301)])
    edges = np.array([1e-280, 1e280, 2.2250738585072014e-308])
    cases = {
        "bit patterns": rng.integers(0, 2 ** 64, size=10 ** 5, dtype=np.uint64).view(float),
        "normals": rng.normal(size=20000) * 10.0 ** rng.integers(-30, 30, size=20000),
        "powers of ten": np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)]),
        # fixed notation from k = -4 to 16, exponent notation outside
        "switch points": np.array([9.9999999999999991e-05, 1e-4, 1.0000000000000001e-4,
                                   9.9999999999999991e-06, 1e-5, 9999999999999998.0, 1e16,
                                   1.0000000000000002e16, 99999999999999984.0, 1e17]),
        "integers": np.array([2.0 ** 53, 2.0 ** 53 - 1, 2.0 ** 53 + 2, 120000.0, 1e6, 3e22,
                              12345678901234567000.0, 40.0, 7.0, 100.0]),
        "ties": np.array([1234567890123456.25, 1234567890123456.75, 3 * 2.0 ** -24, 2.0 ** -25]),
        "edges": np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
                                 [5e-324, 1e-300, 4.9406564584124654e-320, 1e300]]),
        "non-finite and zero": np.array([np.nan, np.copysign(np.nan, -1.0), np.inf, 0.0]),
    }
    for numbers in cases.values():
        numbers = np.concatenate([numbers, -numbers])
        table = np.resize(numbers, (-(-len(numbers) // 5), 5))
        head, body = _complex_table("lambda", "h", table[:, 0],
                                    table[:, 1:].copy().view(complex), 2)
        assert head == "lambda,h1_re,h1_im,h2_re,h2_im"
        got = body.decode().replace("\n", ",").split(",")
        assert got.pop() == ""
        assert got == ["%.17g" % v for v in table.ravel().tolist()]
        # every finite number, its sign included, reads back as the same double
        back = np.array([float(text) for text in got])
        finite = np.isfinite(table.ravel())
        assert np.array_equal(back[finite].view(np.uint64), table.ravel()[finite].view(np.uint64))


@pytest.mark.parametrize("example", ["benchmark", "noisy_ar1", "robust_banded_noise"])
def test_taps_csv_reads_back_as_the_estimates_taps(tmp_path, monkeypatch, example):
    # every lag and every tap part reads back as the double the estimate holds
    results = []

    def recording_estimate(*args, **kwargs):
        results.append(estimate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli_module, "estimate", recording_estimate)
    out = tmp_path / "o"
    assert run_cli(["estimate", "--config", EXAMPLES / f"{example}.yaml", "--out", out]) == 0
    (res,) = results
    header, rows, _ = read_csv_rows(out / "taps.csv")
    assert len(header) == 1 + 2 * len(next(iter(res.taps.values())))
    assert [int(row[0]) for row in rows] == sorted(res.taps)
    back = np.array([[float(x) for x in row[1:]] for row in rows])
    want = np.array([res.taps[lag] for lag in sorted(res.taps)], dtype=complex).view(float)
    assert np.array_equal(back.view(np.uint64), want.view(np.uint64))


def test_estimate_white_no_gaps(tmp_path):
    text = """
model:
  kind: white
  scale: 1.7
pattern:
  intervals: []
functional:
  coeffs: [[1.0, 0.0], [0.0, 2.0]]
numerics:
  grid_size: 256
  truncation: 8
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli(["estimate", "--config", cfg, "--out", out]) == 0
    summary = read_summary(out / "result.summary")
    assert float(summary["delta"]) == pytest.approx(1.7 * 5.0, rel=1e-10)


def test_cli_numeric_overrides(tmp_path):
    cfg = write_config(tmp_path, BENCH_YAML)
    out = tmp_path / "out"
    rc = run_cli(["estimate", "--config", cfg, "--out", out,
                  "--grid", 512, "--truncation", 40])
    assert rc == 0
    summary = read_summary(out / "result.summary")
    assert summary["grid_size"] == "512"
    assert summary["truncation"] == "40"
    # overrides are part of the effective config, so the recorded hash moves
    assert header_hash(out / "result.summary") != config_hash(loads_config(BENCH_YAML))


def test_one_calls_override_does_not_reach_the_next(tmp_path, monkeypatch):
    # the parser is built once per process; each call still parses its own flags
    cfg = write_config(tmp_path, BENCH_YAML)
    grids = []
    monkeypatch.setitem(cli_module._COMMANDS, "estimate",
                        lambda run, out_dir: grids.append(run.numerics["grid_size"]) or 0)
    for flags in (["--grid", "512"], []):
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]) == 0
    assert grids == [512, 1024]
    assert cli_module._parser() is cli_module._parser()


def test_estimate_grid_file_model(tmp_path):
    n = 256
    lam = grid_points(n)
    F = np.tile(1.3 * np.eye(1), (n, 1, 1))
    npz = tmp_path / "density.npz"
    np.savez(npz, lam=lam, F=F)
    text = f"""
model:
  kind: grid_file
  path: {npz}
pattern:
  intervals: []
functional:
  coeffs: [[1.0]]
numerics:
  grid_size: {n}
  truncation: 8
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli(["estimate", "--config", cfg, "--out", out]) == 0
    summary = read_summary(out / "result.summary")
    assert float(summary["delta"]) == pytest.approx(1.3, rel=1e-9)

    # node mismatch is a config error
    bad = text.replace(f"grid_size: {n}", "grid_size: 512")
    cfg_bad = write_config(tmp_path, bad, name="bad.yaml")
    assert run_cli(["estimate", "--config", cfg_bad, "--out", tmp_path / "o2"]) == 2


def test_simulate_on_a_grid_file_too_coarse_to_resolve_names_the_remedy(tmp_path, capsys):
    # a flat 256-node density: the taps are the shortest window, 8 lags, and
    # their quadrature still needs 2048 nodes, and per-node data cannot be read
    # on more nodes than it has
    npz = tmp_path / "flat.npz"
    np.savez(npz, lam=grid_points(256), F=np.full((256, 1, 1), 1.3))
    cfg = write_config(tmp_path, f"""
model: {{kind: grid_file, path: {npz}}}
pattern: {{intervals: []}}
functional: {{coeffs: [[1.0]]}}
numerics: {{grid_size: 256, truncation: 16}}
""")
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 3
    assert capsys.readouterr().err == (
        "error: the time-domain quadrature needs 2048 grid nodes to resolve the covariances "
        "from the deepest tap to the horizon (9 lags) plus a margin of 256, but the density "
        "data gives 256; supply the density on at least 2048 nodes and raise "
        "numerics.grid_size to match\n")


def test_grid_file_with_a_non_psd_joint_density_is_a_config_error(tmp_path, capsys):
    # F = G = 1 and F_xe = 1.5: each density is PSD, the joint one is not
    n = 512
    ones = np.ones((n, 1, 1))
    npz = tmp_path / "joint.npz"
    np.savez(npz, lam=grid_points(n), F=ones, G=ones, Fxe=1.5 * ones)
    cfg = write_config(tmp_path, f"""
model:
  kind: grid_file
  path: {npz}
pattern:
  intervals: [[2, 1]]
functional:
  coeffs: [[1.0]]
numerics:
  grid_size: {n}
  truncation: 16
oracle_check:
  windows: [10]
simulation:
  replications: 10
""")
    for command in ("estimate", "oracle-check", "simulate"):
        out = tmp_path / command
        assert run_cli([command, "--config", cfg, "--out", out]) == 2
        assert "config error: model: joint signal-noise density" in capsys.readouterr().err
        assert not out.exists()


def _grid_file_run(tmp_path, F, coeffs="[[1.0]]", n=256):
    npz = tmp_path / "density.npz"
    np.savez(npz, lam=grid_points(n), F=F)
    return write_config(tmp_path, f"""
model: {{kind: grid_file, path: {npz}}}
pattern: {{intervals: [[2, 1]]}}
functional: {{coeffs: {coeffs}}}
numerics: {{grid_size: {n}, truncation: 16}}
""")


def test_grid_file_densities_take_the_functional_dimension(tmp_path, capsys):
    # T used to be the last axis of F: a number exited 2 with "tuple index out
    # of range", and a flat F of 256 values was read as T = 256
    cfg = _grid_file_run(tmp_path, np.float64(1.3))
    assert run_cli(["estimate", "--config", cfg, "--out", tmp_path / "number"]) == 0
    assert read_summary(tmp_path / "number" / "result.summary")["delta"] == _fmt(1.3)

    cfg = _grid_file_run(tmp_path, np.array([[2.0, 0.5], [0.5, 1.0]]), "[[1.0, 1.0]]")
    assert run_cli(["estimate", "--config", cfg, "--out", tmp_path / "matrix"]) == 0

    cfg = _grid_file_run(tmp_path, np.full(256, 1.3))
    assert run_cli(["estimate", "--config", cfg, "--out", tmp_path / "flat"]) == 2
    assert capsys.readouterr().err == (
        "config error: model: F: expected a number, a 1x1 matrix or a 256x1x1 per-node "
        "array, got shape (256,)\n")


def _ar1_run(tmp_path, b, name):
    """Unit-innovation AR(b) with the point -2 missing, one step ahead: as
    ``laurent`` its denominator is 1 + b^2 - b (z + 1/z)."""
    model = ("{kind: ar1, poles: [%r]}" % b if name == "ar1" else
             "{kind: laurent, entries: [{row: 0, col: 0, num_coeffs: [1.0], den_offset: -1, "
             "den_coeffs: [%r, %r, %r]}]}" % (-b, 1.0 + b * b, -b))
    cfg = write_config(tmp_path, f"model: {model}\npattern: {{intervals: [[2, 1]]}}\n"
                       f"functional: {{coeffs: [[1.0]]}}\nnumerics: {{grid_size: 4096}}\n",
                       name=f"{name}.yaml")
    assert run_cli(["estimate", "--config", cfg, "--out", tmp_path / name]) == 0
    return read_summary(tmp_path / name / "result.summary")


def test_a_laurent_model_reads_its_decay_off_its_denominators(tmp_path):
    # xi(-1) is observed, so delta is the one-step error of a unit-innovation
    # AR(1), 1; with no pole modulus the default truncation was 64 and delta
    # read 0.99987595716875033
    summary = _ar1_run(tmp_path, 0.95, "laurent")
    assert summary["truncation"] == "160"   # 8 ceil(1 / (1 - 0.95))
    assert float(summary["delta"]) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("b", [0.5, -0.6, 0.9, 0.95])
def test_a_laurent_model_reads_the_delta_of_its_ar1_twin(tmp_path, b):
    # delta, not K: the roots may lie a few ulp off |b|, which moves
    # ceil(1 / (1 - rho)) where it is an exact integer
    twin, laurent = (_ar1_run(tmp_path, b, name) for name in ("ar1", "laurent"))
    assert float(laurent["delta"]) == pytest.approx(float(twin["delta"]), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("den_offset,den_coeffs", [
    (-1, "[-1.0, 2.0, -1.0]"), (0, "[.nan]"), (0, "[0.0]")], ids=["root", "nan", "zero"])
def test_a_vanishing_laurent_denominator_prints_only_the_config_error(
        tmp_path, den_offset, den_coeffs):
    # the division used to print NumPy's divide and invalid RuntimeWarnings,
    # with their source line, before the config error; a child process sees
    # stderr as a user does, where pytest would catch the warnings
    cfg = write_config(tmp_path, "model: {kind: laurent, entries: [{row: 0, col: 0, "
                                 f"num_coeffs: [1.0], den_offset: {den_offset}, "
                                 f"den_coeffs: {den_coeffs}}}]}}\n"
                                 "pattern: {intervals: [[2, 1]]}\n"
                                 "functional: {coeffs: [[1.0]]}\n"
                                 "numerics: {grid_size: 256}\n")
    run = entry_point(["estimate", "--config", cfg, "--out", tmp_path / "out"])
    _, stderr = run.communicate(timeout=300)
    assert run.returncode == 2
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "config error: model: density 'F' is non-finite at grid node lambda="), stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rho", [".nan", "-0.5", "1.5"])
def test_a_grid_file_pole_modulus_outside_the_unit_interval_exits_2(tmp_path, capsys, rho):
    # .nan used to end in a raw ValueError, -0.5 to run at truncation 8 and
    # 1.5 to exit 3 with a lag message
    npz = tmp_path / "ar.npz"
    np.savez(npz, lam=grid_points(256), F=(1.0 / np.abs(1.0 - 0.5 * np.exp(
        1j * grid_points(256))) ** 2)[:, None, None])
    cfg = write_config(tmp_path, f"model: {{kind: grid_file, path: {npz}, "
                                 f"pole_modulus: {rho}}}\npattern: {{intervals: [[2, 1]]}}\n"
                                 f"functional: {{coeffs: [[1.0]]}}\n"
                                 f"numerics: {{grid_size: 256}}\n")
    assert run_cli(["estimate", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: model: pole_modulus must lie in [0, 1), got ")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("params,message", [
    ("{b_max: 1.2}", "b_max must lie in [0, 1), got 1.2"),
    ("{b_max: 1.0}", "b_max must lie in [0, 1), got 1.0"),
    ("{w_max: 1.5}", "w_max must lie in [0, 1], got 1.5"),
], ids=["b_max_1.2", "b_max_1", "w_max_1.5"])
def test_a_family_box_bound_outside_its_range_exits_2(tmp_path, capsys, params, message):
    # each used to exit 3 mid-search: a negative eigenvalue, a non-finite
    # density and a failed minimality check
    text = (ROBUST.read_text().replace("coeffs: [[1.0]]", "coeffs: [[1.0], [1.0]]")
            .replace("    kind: mixture\n", f"    kind: mixture\n    params: {params}\n"))
    assert f"params: {params}" in text and "[[1.0], [1.0]]" in text
    out = tmp_path / "out"
    assert run_cli(["minimax", "--config", write_config(tmp_path, text), "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: minimax.family: {message}\n"
    assert not (out / "lfd.summary").exists()


@pytest.mark.parametrize("command", ["estimate", "oracle-check", "simulate", "minimax"])
def test_a_functional_of_another_width_than_the_model_exits_2(tmp_path, capsys, command):
    # used to exit 3 from the estimate: "functional dimension 1 does not match model dim 2"
    cfg = write_config(tmp_path, MINIMAX_DATA_YAML.format(kind="D0_1", data="{power: 1.5}")
                       .replace("kind: white\n  scale: 1.5", "kind: ar1\n  poles: [0.5, 0.3]"))
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == ("config error: functional.coeffs: expected 2 "
                                       "column(s), one per model component, got 1\n")


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------


def test_an_oracle_window_beyond_the_grid_exits_2(tmp_path, capsys):
    # n = 1024 nodes and horizon N = 1 resolve windows up to 1024 / 4 - 1; a
    # longer one used to exit 3 naming only a lag ("too small for max_lag 256")
    cfg = write_config(tmp_path, BENCH_YAML + "oracle_check: {windows: [50, 256]}\n")
    assert run_cli(["oracle-check", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (
        "config error: oracle_check.windows: window 256 is too long for numerics.grid_size "
        "1024: the largest window allowed is 255 (grid_size / 4 less the functional's "
        "horizon); shorten the windows or raise numerics.grid_size\n")
    assert not (tmp_path / "out").exists()
    cfg = write_config(tmp_path, BENCH_YAML + "oracle_check: {windows: [255]}\n")
    assert run_cli(["oracle-check", "--config", cfg, "--out", tmp_path / "out"]) == 0
    # --grid is checked by the same rule, also on benchmark.yaml's windows up to 200
    for path, window in ((cfg, 255), (EXAMPLES / "benchmark.yaml", 200)):
        assert run_cli(["oracle-check", "--config", path, "--out", tmp_path / "out2",
                        "--grid", 512]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: oracle_check.windows: window {window} is too long for "
            "numerics.grid_size 512: the largest window allowed is 127 ")
        assert not (tmp_path / "out2").exists()

ORACLE_LADDERS = {   # run file, windows, tolerance
    "benchmark": (BENCH_YAML, [20, 40, 80, 160], "1.0e-3"),
    # windows 400 and 510 (= 2048 / 4 - 2, the longest the grid resolves) hold
    # 794 and 1014 observed unknowns
    "noisy_ar1_long": ((EXAMPLES / "noisy_ar1.yaml").read_text(), [100, 400, 510], "1.0e-4"),
    # AR(0.99) in AR(0.2) noise up to window 1024 = 4096 / 4
    "near_unit": ("model: {kind: ar1, poles: [0.99], noise: {poles: [0.2], scales: [0.5]}}\n"
                  "pattern: {intervals: [[2, 1]]}\nfunctional: {coeffs: [[1.0]]}\n"
                  "numerics: {grid_size: 4096}\n", [25, 200, 1024], "1.0e-8"),
}


@pytest.mark.parametrize("name", sorted(ORACLE_LADDERS))
def test_oracle_check_converges_and_is_monotone(tmp_path, name):
    text, windows, tolerance = ORACLE_LADDERS[name]
    cfg = write_config(tmp_path, text + f"oracle_check:\n  windows: {windows}\n"
                                        f"  tolerance: {tolerance}\n")
    out = tmp_path / "out"
    assert run_cli(["oracle-check", "--config", cfg, "--out", out]) == 0

    header, rows, trailer = read_csv_rows(out / "comparison.csv")
    assert header == ["window", "delta_spectral", "delta_oracle",
                      "abs_diff", "rel_diff", "within_tol"]
    assert [int(r[0]) for r in rows] == windows
    # a longer window projects on more, so its error is no larger
    oracle = [float(r[2]) for r in rows]
    for prev, cur in zip(oracle, oracle[1:]):
        assert cur <= prev * (1 + 1e-13)
    assert rows[-1][5] == "true"
    assert any(t == "# converged=true" for t in trailer)
    if name == "benchmark":
        # both routes sit on the frozen benchmark value
        assert float(rows[-1][1]) == pytest.approx(BENCH_DELTA, rel=1e-6)
        assert float(rows[-1][2]) == pytest.approx(BENCH_DELTA, rel=1e-4)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_YAML = BENCH_YAML + """
simulation:
  replications: 2000
  seed: 7
"""


def read_mc(path) -> dict:
    """The one data row of ``mc.csv``, by column name."""
    header, (row,), _ = read_csv_rows(path)
    return dict(zip(header, row))


def test_simulate_z_score_and_determinism(tmp_path):
    cfg = write_config(tmp_path, SIM_YAML)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["simulate", "--config", cfg, "--out", out_a]) == 0
    assert run_cli(["simulate", "--config", cfg, "--out", out_b]) == 0
    assert (out_a / "mc.csv").read_bytes() == (out_b / "mc.csv").read_bytes()

    header, _, _ = read_csv_rows(out_a / "mc.csv")
    assert header == ["replications", "seed", "mse", "stderr",
                      "delta_spectral", "z_score", "mse_exact"]
    row = read_mc(out_a / "mc.csv")
    assert row["replications"] == "2000" and row["seed"] == "7"
    assert float(row["delta_spectral"]) == pytest.approx(BENCH_DELTA, rel=1e-6)
    assert abs(float(row["z_score"])) < 4.0
    assert float(row["mse_exact"]) == pytest.approx(BENCH_DELTA, rel=1e-12)
    assert "# seed=7" in (out_a / "mc.csv").read_text().splitlines()


CORRELATED_YAML = """
model:
  kind: ma_pair
  signal_coeffs: [[[1.0]], [[0.6]]]
  noise_coeffs: [[[0.8]], [[-0.3]]]
  innovation_cov: [[1.0, 0.5], [0.5, 1.0]]
pattern:
  intervals: [[2, 1], [6, 0]]
functional:
  coeffs: [[1.0], [0.5]]
numerics:
  grid_size: 2048
  truncation: 64
oracle_check:
  windows: [25, 100, 400]
  tolerance: 1.0e-10
"""
CORRELATED_DELTA = 2.0396309963099633


def test_correlated_signal_and_noise_through_every_command(tmp_path):
    # F_xe != 0 reaches the CLI: the operator route, the oracle at every
    # window and the exact error of the written taps agree to rounding
    cfg = write_config(tmp_path, CORRELATED_YAML)
    runs = {}
    for run in ("a", "b"):
        for command in ("estimate", "oracle-check", "simulate"):
            assert run_cli([command, "--config", cfg, "--out", tmp_path / run / command]) == 0
        runs[run] = {path.relative_to(tmp_path / run): path.read_bytes()
                     for path in sorted((tmp_path / run).rglob("*.*"))}
    assert len(runs["a"]) == 4 and runs["a"] == runs["b"]
    out = tmp_path / "a"
    summary = read_summary(out / "estimate" / "result.summary")
    delta = float(summary["delta"])
    assert delta == pytest.approx(CORRELATED_DELTA, rel=1e-13)
    assert float(summary["delta_quadrature"]) == pytest.approx(delta, rel=1e-13)
    _, rows, trailer = read_csv_rows(out / "oracle-check" / "comparison.csv")
    assert [int(r[0]) for r in rows] == [25, 100, 400]
    assert all(r[5] == "true" for r in rows) and "# converged=true" in trailer
    assert float(read_mc(out / "simulate" / "mc.csv")["mse_exact"]) == pytest.approx(
        delta, rel=1e-12)


def test_simulate_seed_override(tmp_path):
    cfg = write_config(tmp_path, SIM_YAML)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["simulate", "--config", cfg, "--out", out_a]) == 0
    assert run_cli(["simulate", "--config", cfg, "--out", out_b, "--seed", 11]) == 0
    text_b = (out_b / "mc.csv").read_text().splitlines()
    assert "# seed=11" in text_b
    row_a, row_b = read_mc(out_a / "mc.csv"), read_mc(out_b / "mc.csv")
    assert row_a["seed"] == "7" and row_b["seed"] == "11"
    assert row_a["mse"] != row_b["mse"]  # different draws, different mse


def test_simulate_zero_functional_is_exact(tmp_path):
    text = SIM_YAML.replace("coeffs: [[1.0, 1.0], [1.0, 1.0]]",
                            "coeffs: [[0.0, 0.0]]")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
    row = read_mc(out / "mc.csv")
    assert row["mse"] == "0"               # mse identically zero
    assert row["delta_spectral"] == "0"    # spectral value likewise
    assert row["mse_exact"] == "0"


def test_simulate_seed_is_one_64_bit_word(tmp_path, capsys):
    # a seed of 2**64 or more does not fit the stream key: a config error,
    # from the flag and from the run file alike
    cfg = write_config(tmp_path, SIM_YAML)
    too_big = str(2 ** 64)
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "a",
                    "--seed", too_big]) == 2
    assert "config error: simulation:" in capsys.readouterr().err
    big_file = write_config(tmp_path, SIM_YAML.replace("seed: 7", f"seed: {too_big}"),
                            name="big.yaml")
    assert run_cli(["simulate", "--config", big_file, "--out", tmp_path / "b"]) == 2
    assert "config error: simulation:" in capsys.readouterr().err
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "c",
                    "--seed", str(2 ** 64 - 1)]) == 0
    assert read_mc(tmp_path / "c" / "mc.csv")["seed"] == str(2 ** 64 - 1)


def test_simulate_builds_no_path_sampler(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate built a CirculantEmbedding")

    monkeypatch.setattr(CirculantEmbedding, "__init__", refuse)
    cfg = write_config(tmp_path, SIM_YAML)
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 0
    assert float(read_mc(tmp_path / "out" / "mc.csv")["mse_exact"]) == pytest.approx(
        BENCH_DELTA, rel=1e-12)


# ---------------------------------------------------------------------------
# minimax
# ---------------------------------------------------------------------------

SINGLETON_MINIMAX = """
model:
  kind: white
  scale: 1.5
pattern:
  intervals: []
functional:
  coeffs: [[1.0]]
numerics:
  grid_size: 256
  truncation: 8
minimax:
  kind: D0_1
  data:
    power: 1.5
  family:
    kind: singleton
"""


def test_minimax_singleton_matches_estimate(tmp_path):
    cfg = write_config(tmp_path, SINGLETON_MINIMAX)
    out = tmp_path / "out"
    assert run_cli(["minimax", "--config", cfg, "--out", out]) == 0

    summary = read_summary(out / "lfd.summary")
    assert summary["class"] == "D0_1"
    assert summary["family"] == "singleton"
    assert float(summary["delta_star"]) == pytest.approx(1.5, rel=1e-9)
    assert summary["evaluations"] == "1"
    assert summary["stopped"] == "certified"
    # the class bound decides the saddle check: no violation, and no saddle.csv
    assert summary["delta_upper"] == summary["delta_star"]
    assert summary["saddle_all_pass"] == "true"
    assert summary["saddle_max_violation"] == "0"
    assert sorted(p.name for p in out.iterdir()) == ["lfd.summary", "residuals.csv"]

    rheader, rrows, _ = read_csv_rows(out / "residuals.csv")
    assert rheader == ["name", "structure", "residual", "scale",
                       "relative", "params"]
    assert rrows  # characterization equations were emitted
    for row in rrows:
        json.loads(json.loads(",".join(row[5:])))  # params field round-trips


# a two-dimensional singleton whose class reads the diagonal (flavor 2): no
# closed-form bound exists, so the saddle check cannot certify it
SINGLETON_2D_MINIMAX = SINGLETON_MINIMAX.replace(
    "coeffs: [[1.0]]", "coeffs: [[1.0, 0.5]]").replace("kind: D0_1", "kind: D0_2").replace(
    "power: 1.5", "power: [1.5, 1.5]")


def test_a_class_without_a_bound_fails_the_saddle_check(tmp_path, monkeypatch):
    # the check used to score 100 copies of the one member and pass; now only
    # the search's one evaluation checks the class, and the nan gap fails
    cfg = write_config(tmp_path, SINGLETON_2D_MINIMAX)
    checked = []
    real = minimax_module._check_in_class
    monkeypatch.setattr(minimax_module, "_check_in_class",
                        lambda cls, model: checked.append(model) or real(cls, model))
    out = tmp_path / "out"
    assert run_cli(["minimax", "--config", cfg, "--out", out]) == 0
    assert len(checked) == 1
    summary = read_summary(out / "lfd.summary")
    assert summary["delta_upper"] == summary["fw_gap"] == "nan"
    assert summary["saddle_all_pass"] == "false"
    assert summary["saddle_max_violation"] == "nan"
    assert not (out / "saddle.csv").exists()


# the example-1 pair as a one-member class of fixed trace power, its own mean
# trace: the search has nothing to move, and the class's vertex density (all
# the power at one node, along conj(A - h)) makes the filter's error 15.43
EXAMPLE1_D0_MINIMAX = """
model: {kind: example1, b1: 0.5, b2: 0.3}
pattern: {intervals: [[2, 1]]}
functional: {coeffs: [[1.0, 0.5], [0.2, -1.0]]}
numerics: {grid_size: 256, truncation: 16}
minimax:
  kind: D0_1
  data: {power: 3.7655677655677655}
  family: {kind: singleton}
"""
# the same member under a weighted trace tr(W F); 6.43... is its mean
EXAMPLE1_D0_3_MINIMAX = EXAMPLE1_D0_MINIMAX.replace("D0_1", "D0_3").replace(
    "power: 3.7655677655677655",
    "power: 6.4322344322344325, weight_f: [[2.0, 0.5], [0.5, 1.0]]")


@pytest.mark.parametrize("flavor", [1, 3])
def test_a_two_component_class_bound_decides_the_saddle_check(tmp_path, flavor):
    # at T = 2 the saddle check used to sample the singleton family, 100 copies
    # of the maximizer, and read saddle_all_pass = true with violation 0
    text = EXAMPLE1_D0_MINIMAX if flavor == 1 else EXAMPLE1_D0_3_MINIMAX
    path, out = write_config(tmp_path, text), tmp_path / "out"
    assert run_cli(["minimax", "--config", path, "--out", out]) == 0
    summary = read_summary(out / "lfd.summary")
    assert summary["delta_star"] == "2.8899999999890866"
    # P max_n r_n^T W^{-1} conj(r_n), r = A - h, from an estimate of its own
    cfg = load_config(path)
    cls, _, _ = build_class(cfg)
    est = estimate(cls.family.build(()), build_pattern(cfg), build_functional(cfg), K=16)
    r = build_functional(cfg).a_on_grid(256) - est.h_grid
    weight = np.eye(2) if flavor == 1 else np.array(cls.data.weight_f)
    along = np.linalg.solve(weight, np.conj(r).T).T
    bound = cls.data.power * np.max(np.sum(r * along, axis=1).real)
    assert float(summary["delta_upper"]) == pytest.approx(bound, rel=1e-12)
    if flavor == 1:
        assert float(summary["delta_upper"]) == pytest.approx(15.430139230306821, rel=1e-12)
    assert float(summary["fw_gap"]) == float(summary["delta_upper"]) - 2.8899999999890866
    assert summary["saddle_all_pass"] == "false"
    assert summary["saddle_max_violation"] == summary["fw_gap"]
    assert not (out / "saddle.csv").exists()


# a detuned point of the mixture family, evaluated in place of a search
FIXED_THETA_MINIMAX = """
model:
  kind: white
  scale: 2.0
pattern:
  intervals: [[1, 0]]
functional:
  coeffs: [[1.0]]
numerics:
  grid_size: 512
  truncation: 16
minimax:
  kind: D0_1
  data:
    power: 2.0
  family:
    kind: mixture
  theta: [0.85, 0.7]
"""


def test_minimax_fixed_candidate_fails_saddle(tmp_path):
    cfg = write_config(tmp_path, FIXED_THETA_MINIMAX)
    out = tmp_path / "out"
    assert run_cli(["minimax", "--config", cfg, "--out", out]) == 0

    summary = read_summary(out / "lfd.summary")
    assert summary["evaluations"] == "1"
    assert summary["saddle_all_pass"] == "false"
    # the saddle check reads the class bound: its violation is the duality gap
    assert float(summary["fw_gap"]) > 1e-3
    assert summary["saddle_max_violation"] == summary["fw_gap"]
    assert summary["stopped"] == "budget"

    assert not (out / "saddle.csv").exists()
    # the characterization sees the detuned point too: its one equation is
    # off by 42% of its scale
    _, rrows, _ = read_csv_rows(out / "residuals.csv")
    assert [row[:2] for row in rrows] == [["signal-side equation", "D0 flavor 1"]]
    assert float(rrows[0][4]) == pytest.approx(0.4223, abs=5e-4)


@pytest.mark.parametrize("theta", [".nan", ".inf"])
def test_a_non_finite_theta_exits_2(tmp_path, capsys, theta):
    # NaN used to exit 3 from the density reader, inf to be clipped to w_max (exit 0)
    cfg = write_config(tmp_path, FIXED_THETA_MINIMAX.replace("[0.85, 0.7]", f"[{theta}, 0.5]"))
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == 2
    value = float(theta[1:])
    assert capsys.readouterr().err == ("config error: minimax.theta: expected 2 finite "
                                       f"value(s), one per family parameter, got {[value, 0.5]}\n")
    assert not (tmp_path / "out").exists()


def test_a_theta_outside_the_family_box_exits_2(tmp_path, capsys):
    # used to be clipped: exit 0 with theta_star = 0.5 0.80000000000000004
    cfg = write_config(tmp_path, FIXED_THETA_MINIMAX.replace("[0.85, 0.7]", "[0.5, 1.5]"))
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == ("config error: minimax.theta: [0.5, 1.5] lies outside "
                                       "the family's box [0.0, 0.9] x [-0.8, 0.8]\n")
    assert not (tmp_path / "out").exists()

    # a point on the box's edge is a point of the family
    cfg = write_config(tmp_path, FIXED_THETA_MINIMAX.replace("[0.85, 0.7]", "[0.9, -0.8]"))
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "edge"]) == 0
    assert read_summary(tmp_path / "edge" / "lfd.summary")["theta_star"] == (
        f"{_fmt(0.9)} {_fmt(-0.8)}")


@pytest.mark.parametrize("old,new,message", [
    ("kind: white", "kind: whte", "model.kind: unknown model kind 'whte'"),
    ("scale: 1.5", "sclae: 1.5", "model: unknown key(s) ['sclae']"),
    ("scale: 1.5", "scale: '1.5'", "model.scale: expected a numeric value, got '1.5'"),
    # the shipped example as it was before T came from the functional
    ("kind: white", "kind: white\n  dim: 1", "model: unknown key(s) ['dim']"),
])
def test_minimax_reads_the_model_section(tmp_path, capsys, old, new, message):
    # a stock family never builds the model; a misspelled kind used to exit 0
    text = (ROBUST.parent / "robust_banded_noise.yaml").read_text()
    assert old in text
    cfg = write_config(tmp_path, text.replace(old, new))
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_scalar_family_under_a_wider_functional_exits_2(tmp_path, capsys):
    # used to exit 3 from the search: "functional dimension 2 does not match model dim 1"
    cfg = write_config(tmp_path, """
model: {kind: white}
pattern: {intervals: []}
functional: {coeffs: [[1.0, 0.5]]}
numerics: {grid_size: 512, truncation: 16}
minimax:
  kind: D0_1
  data: {power: 2.0}
  family: {kind: mixture}
""")
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (
        "config error: functional.coeffs: expected 1 column(s), one per component of "
        "the family's densities, got 2\n")


def test_a_grid_that_cannot_resolve_the_lags_exits_3(tmp_path, capsys):
    # K = 96 and the gap's depth 3 couple lags up to 99; 256 nodes resolve 64
    out = tmp_path / "out"
    assert run_cli(["estimate", "--config", EXAMPLES / "benchmark.yaml", "--grid", 256,
                    "--out", out]) == 3
    assert capsys.readouterr().err == ("error: a grid of 256 nodes resolves lags up to 64, "
                                       "not 99; lag 99 needs at least 512 nodes\n")
    assert not (out / "result.summary").exists()


@pytest.mark.parametrize("K", [2000000, 35184372088832])
def test_a_truncation_no_grid_resolves_exits_3_before_forming_u_k(tmp_path, capsys, K):
    # K = 2^45 used to allocate the lags 0..K of U_K (256 TiB) before any table
    # refused the lag, and end in a raw MemoryError traceback; both used to
    # advise a grid above the largest that numerics.grid_size accepts
    out = tmp_path / "out"
    assert run_cli(["estimate", "--config", EXAMPLES / "noisy_ar1.yaml",
                    "--truncation", K, "--out", out]) == 3
    assert capsys.readouterr().err == (
        f"error: a grid of 2048 nodes resolves lags up to 512, not {K + 5}; no accepted "
        f"grid resolves lag {K + 5}: the largest, 4194304 nodes, resolves lags up to 1048576\n")
    assert not out.exists()


def test_a_truncation_the_largest_grid_resolves_names_that_grid(tmp_path, capsys):
    # lag 1048576 = 4194304 / 4 is the longest an accepted grid resolves
    assert run_cli(["estimate", "--config", EXAMPLES / "noisy_ar1.yaml",
                    "--truncation", 1048571, "--out", tmp_path / "out"]) == 3
    assert capsys.readouterr().err == (
        "error: a grid of 2048 nodes resolves lags up to 512, not 1048576; "
        "lag 1048576 needs at least 4194304 nodes\n")


@pytest.mark.parametrize("grid", [100, 35184372088832])
@pytest.mark.parametrize("command", ["estimate", "oracle-check", "simulate", "minimax"])
def test_grid_flag_is_checked_for_every_command(tmp_path, capsys, command, grid):
    # minimax used to build its family on a grid of its own and exit 0; 2^45
    # nodes used to pass the check and exit 2 at the wrong key, `model`, with
    # numpy's "Unable to allocate 256. TiB"
    assert run_cli([command, "--config", ROBUST, "--out", tmp_path / "out",
                    "--grid", grid]) == 2
    assert capsys.readouterr().err == ("config error: numerics.grid_size: grid_size must be "
                                       f"a power of two from 64 to 4194304, got {grid}\n")
    assert not (tmp_path / "out").exists()


def test_minimax_family_follows_the_grid_flag():
    cfg = load_config(ROBUST)
    cfg.numerics["grid_size"] = 2048   # what --grid 2048 does
    cls, _, _ = build_class(cfg)
    fam = cls.family
    assert {fam.build(theta).grid_size for theta in (fam.lower, fam.center)} == {2048}


# xi(0) + xi(1) with the point -2 missing: the family optimum is on the
# family's boundary, far below the class bound, so the search is not certified
TWO_STEP_MINIMAX = """
model:
  kind: white
  scale: 2.0
pattern:
  intervals: [[2, 0]]
functional:
  coeffs: [[1.0], [1.0]]
numerics:
  grid_size: 512
  truncation: 16
minimax:
  kind: D0_1
  data: {power: 2.0}
  family: {kind: mixture}
  opt: {starts: 2, budget: 150, seed: 0}
"""


def test_minimax_search_follows_the_truncation_flag(tmp_path):
    path = write_config(tmp_path, TWO_STEP_MINIMAX)
    cfg = load_config(path)
    cls, opt, _ = build_class(cfg)
    pattern, functional = build_pattern(cfg), build_functional(cfg)
    traces = {}
    for K in (cfg.truncation, 40):
        assert run_cli(["minimax", "--config", path, "--out", tmp_path / str(K),
                        "--truncation", K]) == 0
        lines = (tmp_path / str(K) / "lfd.summary").read_text().splitlines()
        assert "stopped = certified" not in lines
        traces[K] = [line for line in lines if line.startswith("eval ")]
        want = maximize_delta(cls, pattern, functional, opt, K=K).evaluations
        assert [line.split("delta = ")[1] for line in traces[K]] == \
            [_fmt(ev.delta) for ev in want]
    assert traces[cfg.truncation] != traces[40]


def test_saddle_check_fails_where_the_class_bound_beats_the_family(tmp_path):
    # the family optimum is far below the class bound: the sampled check of
    # five family members used to pass with saddle_all_pass = true
    for name, flags in [("512", []), ("1024", ["--grid", 1024, "--truncation", 64])]:
        out = tmp_path / name
        assert run_cli(["minimax", "--config", write_config(tmp_path, TWO_STEP_MINIMAX),
                        "--out", out] + flags) == 0
        summary = read_summary(out / "lfd.summary")
        assert summary["saddle_all_pass"] == "false"
        assert float(summary["saddle_max_violation"]) > 1
        # the reference is the search's own delta_star: one quantity, bit for bit
        assert summary["saddle_max_violation"] == summary["fw_gap"]
        assert not (out / "saddle.csv").exists()


def _scaled(text, c):
    """A minimax run file whose model scale and class power (and band edge),
    which the family reads too, are c times."""
    doc = yaml.safe_load(text)
    doc["model"]["scale"] *= c
    for key in ("power", "upper"):
        if key in doc["minimax"]["data"]:
            doc["minimax"]["data"][key] *= c
    return yaml.safe_dump(doc)


# a band class at a fixed point whose residuals are written: at unit scale no
# node binds; in units 1e7 times smaller every node used to count as binding
# at the lower edge (an absolute floor), and the relative residual read 0.234
DVU_BAND_MINIMAX = """
model: {kind: white, scale: 2.0}
pattern: {intervals: [[2, 0]]}
functional: {coeffs: [[1.0], [1.0]]}
numerics: {grid_size: 512, truncation: 16}
minimax:
  kind: DVU_1
  data: {power: 2.0, upper: 100.0}
  family: {kind: mixture}
  theta: [0.85, 0.7]
"""


@pytest.mark.parametrize("name", ["two_step", "robust_fixed_power", "dvu_band"])
def test_minimax_does_not_depend_on_units(tmp_path, name):
    # the same class written in units 1e7 times smaller or 1e9 times larger:
    # the search, its certificate, the saddle verdict and the relative
    # residuals (dimensionless, to 1e-12) must not move.  The two-step class used to pass its saddle
    # check at 2e-7 and to leave the class at 2e9 (a power off by 1.2e-16 of
    # itself read as a violation)
    text = {"two_step": TWO_STEP_MINIMAX, "robust_fixed_power": ROBUST.read_text(),
            "dvu_band": DVU_BAND_MINIMAX}[name]
    runs, relative = {}, {}
    for c in (1e-7, 1.0, 1e9):
        out = tmp_path / repr(c)
        assert run_cli(["minimax", "--config", write_config(tmp_path, _scaled(text, c)),
                        "--out", out]) == 0
        runs[c] = read_summary(out / "lfd.summary")
        relative[c] = [float(row[4]) for row in read_csv_rows(out / "residuals.csv")[1]]
        assert not (out / "saddle.csv").exists()
    unit = runs[1.0]
    assert unit["saddle_all_pass"] == ("true" if name == "robust_fixed_power" else "false")
    if name == "dvu_band":
        assert relative[1.0] == [pytest.approx(0.396, abs=5e-4)]
    for c in runs:
        assert relative[c] == pytest.approx(relative[1.0], rel=0.0, abs=1e-12), c
    assert float(unit["saddle_max_violation"]) == max(float(unit["fw_gap"]), 0.0)
    delta = float(unit["delta_star"])
    for c, summary in runs.items():
        for key in ("saddle_all_pass", "stopped", "evaluations", "theta_star"):
            assert summary[key] == unit[key], (c, key)
        for key in ("delta_star", "saddle_max_violation"):
            assert abs(float(summary[key]) / c - float(unit[key])) <= 1e-12 * delta, (c, key)


@pytest.mark.parametrize("c", [1e-12, 1e-7, 1.0, 1e9])
def test_a_negative_density_is_refused_at_any_scale(tmp_path, capsys, c):
    # F = -0.5c with G = c: at c = 1e-12 it used to run and write delta = 0
    n = 512
    ones = np.ones((n, 1, 1))
    npz = tmp_path / "negative.npz"
    np.savez(npz, lam=grid_points(n), F=-0.5 * c * ones, G=c * ones)
    cfg = write_config(tmp_path, f"""
model: {{kind: grid_file, path: {npz}}}
pattern: {{intervals: [[2, 0]]}}
functional: {{coeffs: [[1.0]]}}
numerics: {{grid_size: {n}, truncation: 16}}
""")
    assert run_cli(["estimate", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "config error: model: density F has a negative eigenvalue" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


UNSUPPORTED_CLASSES = {
    # a pair without residual equations; this run used to leave an
    # lfd.summary reading stopped = certified, and a saddle.csv
    "mismatched-pair": ("""
model: {kind: white, scale: 1.5}
pattern: {intervals: []}
functional: {coeffs: [[1.0]]}
numerics: {grid_size: 256, truncation: 8}
minimax:
  kind: D0_1
  g_kind: DVU_2
  data: {power: 1.5, noise_power: 0.8, lower: 0.0, upper: 8.0}
  family: {kind: mixture}
  opt: {starts: 2, budget: 60}
""", "unsupported class pair (D0_1, DVU_2)"),
    # no pair of one kind has residual equations; the per-side report of
    # such a pair is pinned in test_minimax
    "one-kind-pair": ("""
model: {kind: white, scale: 1.5}
pattern: {intervals: [[2, 0]]}
functional: {coeffs: [[1.0]]}
numerics: {grid_size: 512, truncation: 16}
minimax:
  kind: DVU_1
  g_kind: DVU_1
  data: {power: 1.0, noise_power: 0.8, upper: 8.0}
  family: {kind: mixture}
  opt: {starts: 2, budget: 60, seed: 0}
""", "unsupported class pair (DVU_1, DVU_1)"),
    # no class on the noise; a noisy mixture run like this one used to score
    # 579 points and sample 100 saddle filters before it was refused, and now
    # a mixture has a noise side only under a noise-side class
    "noisy-without-g_kind": ("""
model: {kind: ar1, poles: [0.5], noise: {poles: [0.2], scales: [0.5]}}
pattern: {intervals: [[2, 0]]}
functional: {coeffs: [[1.0]]}
numerics: {grid_size: 512, truncation: 16}
minimax:
  kind: D0_1
  data: {power: 1.5}
  family: {kind: singleton}
  opt: {starts: 4, budget: 2000}
""", "a noisy model needs both a signal-side and a noise-side class"),
}


@pytest.mark.parametrize("name", sorted(UNSUPPORTED_CLASSES))
def test_minimax_unsupported_class_exits_4_before_the_search(tmp_path, capsys, monkeypatch,
                                                             name):
    text, message = UNSUPPORTED_CLASSES[name]
    calls, optimal_delta = [], minimax_module.optimal_delta

    def spy(*args, **kwargs):
        calls.append(args)
        return optimal_delta(*args, **kwargs)

    monkeypatch.setattr(minimax_module, "optimal_delta", spy)
    cfg = write_config(tmp_path, text)
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == 4
    assert f"unsupported class: {message}\n" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("coeffs,data,key,family", [
    ("[[1.0]]", "{power: -2.0, weight_f: [[-1.0]]}", "weight_f", "singleton"),
    ("[[1.0, 0.5]]", "{power: 2.0, weight_f: [[1.0, 0.0], [0.0, -1.0]]}", "weight_f",
     "singleton"),
    ("[[1.0]]", "{power: 2.0, weight_f: [[1.0]], noise_power: 0.8, upper: 8.0, "
                "weight_g: [[-1.0]]}", "weight_g", "singleton"),
    # a stock family's own refusal ("power must be positive", a non-finite
    # density) used to come first, at minimax.family
    ("[[1.0]]", "{power: 2.0, weight_f: [[-1.0]]}", "weight_f", "mixture"),
    ("[[1.0]]", "{power: 2.0, weight_f: [[0.0]]}", "weight_f", "mixture"),
], ids=["negative-f", "indefinite-f", "negative-g", "mixture-negative-f", "mixture-zero-f"])
def test_minimax_flavor_3_weight_not_positive_definite_exits_2(tmp_path, capsys, coeffs,
                                                                data, key, family):
    # a negative weight used to run the search to its budget and write
    # delta_upper = nan
    g_kind = "  g_kind: DVU_3\n" if key == "weight_g" else ""
    cfg = write_config(tmp_path, f"""
model: {{kind: white, scale: 2.0}}
pattern: {{intervals: [[2, 0]]}}
functional: {{coeffs: {coeffs}}}
numerics: {{grid_size: 512, truncation: 16}}
minimax:
  kind: D0_3
{g_kind}  data: {data}
  family: {{kind: {family}}}
""")
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == 2
    dim = coeffs.count(",") + 1
    assert (f"config error: minimax.data.{key}: expected a Hermitian positive definite "
            f"{dim}x{dim} matrix, got [[") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# exit codes and config handling
# ---------------------------------------------------------------------------

MINIMAX_DATA_YAML = """
model:
  kind: white
  scale: 1.5
pattern:
  intervals: []
functional:
  coeffs: [[1.0]]
numerics:
  grid_size: 256
  truncation: 8
minimax:
  kind: {kind}
  data: {data}
  family:
    kind: singleton
"""


@pytest.mark.parametrize("kind,data", [
    ("D0_1", "{power: lots}"),                      # not a number
    ("DVU_1", "{power: 1.5, lower: 0.0}"),          # no upper band edge
    ("D0_1", "{}"),                                 # no power
    ("D0_3", "{power: 1.5}"),                       # no weight_f
    ("Deps_1", "{power: 1.5, anchor_f: 1.5}"),      # no eps
    ("D1delta_1", "{anchor_f: 1.5}"),               # no radius
])
def test_bad_minimax_data_exits_2(tmp_path, capsys, kind, data):
    cfg = write_config(tmp_path, MINIMAX_DATA_YAML.format(kind=kind, data=data))
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "config error: minimax" in capsys.readouterr().err


@pytest.mark.parametrize("upper,code", [
    ([8.0] * 512, 2),         # one value per node, but not an n x T x T array
    ([8.0] * 100, 2),
    ([[[8.0]]] * 512, 0),     # the per-node form
], ids=["flat-512", "flat-100", "nested-512"])
def test_density_data_of_an_unreadable_shape_exits_2(tmp_path, capsys, upper, code):
    # the flat lists used to end as a numerical error (exit 3) naming no key
    doc = yaml.safe_load(ROBUST.with_name("robust_banded_noise.yaml").read_text())
    doc["minimax"]["data"]["upper"] = upper
    cfg = write_config(tmp_path, yaml.safe_dump(doc))
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == code
    if code:
        assert ("config error: minimax.data.upper: expected a number, a 1x1 matrix or "
                "a 512x1x1 per-node array, got shape") in capsys.readouterr().err


@pytest.mark.parametrize("key,value,message", [
    ("upper", np.nan, "density 'data.upper' is non-finite at grid node lambda=-3.141593"),
    ("upper", np.inf, "density 'data.upper' is non-finite at grid node lambda=-3.141593"),
    ("lower", np.nan, "density 'data.lower' is non-finite at grid node lambda=-3.141593"),
    ("anchor_f", np.nan, "density 'data.anchor_f' is non-finite at grid node lambda=-3.141593"),
    ("power", np.nan, "expected finite values, got nan"),
    ("noise_power", np.inf, "expected finite values, got inf"),
], ids=["upper-nan", "upper-inf", "lower-nan", "anchor_f-nan", "power-nan", "noise_power-inf"])
def test_non_finite_class_data_exits_2(tmp_path, capsys, key, value, message):
    # each used to run the whole search and exit 0, writing fw_gap = nan
    doc = yaml.safe_load(ROBUST.with_name("robust_banded_noise.yaml").read_text())
    doc["minimax"]["data"][key] = float(value)
    cfg = write_config(tmp_path, yaml.safe_dump(doc))
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert f"config error: minimax.data.{key}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,data,key", [
    ("DVU_3", "{power: 1.5, upper: 8.0, weight_f: [1.0, 2.0]}", "weight_f"),
    ("Deps_1", "{power: 1.5, anchor_f: 1.5, eps: [0.2, 0.3]}", "eps"),
    ("D1delta_1", "{anchor_f: [1.5, 1.5], radius: 0.5}", "anchor_f"),
])
def test_class_data_its_kind_cannot_read_exits_2(tmp_path, capsys, kind, data, key):
    cfg = write_config(tmp_path, MINIMAX_DATA_YAML.format(kind=kind, data=data))
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert f"config error: minimax.data.{key}: expected a" in capsys.readouterr().err


VALID_MINIMAX = MINIMAX_DATA_YAML.format(kind="D0_1", data="{power: 1.5}")


@pytest.mark.parametrize("command,text,key", [
    ("estimate", BENCH_YAML.replace("grid_size: 1024", "grid_size: abc"),
     "numerics.grid_size"),
    ("estimate", BENCH_YAML.replace("truncation: 48", "truncation: abc"),
     "numerics.truncation"),
    ("oracle-check", BENCH_YAML + "oracle_check: {windows: [x]}",
     "oracle_check.windows[0]"),
    ("oracle-check", BENCH_YAML + "oracle_check: {windows: 5}", "oracle_check.windows"),
    ("oracle-check", BENCH_YAML + "oracle_check: {windows: [0]}", "oracle_check.windows"),
    ("oracle-check", BENCH_YAML + "oracle_check: {tolerance: x}",
     "oracle_check.tolerance"),
    ("minimax", VALID_MINIMAX + "  theta: [0.5]\n", "minimax.theta"),  # singleton: no params
    # quoted numbers are strings, not integers
    ("estimate", BENCH_YAML.replace("truncation: 48", "truncation: '48'"),
     "numerics.truncation"),
    ("estimate", BENCH_YAML.replace("[[2, 1]]", "[['2', 1]]"), "pattern.intervals[0]"),
    ("minimax", VALID_MINIMAX + "  opt: {budget: '40'}\n", "minimax.opt.budget"),
    # and not floats either
    ("minimax", VALID_MINIMAX.replace("data: {power: 1.5}", "data: {power: '2.0'}"),
     "minimax.data.power"),
    ("minimax", VALID_MINIMAX.replace("data: {power: 1.5}", "data: {power: [1.5, '2']}"),
     "minimax.data.power"),
    ("estimate", BENCH_YAML.replace("b1: 0.5", "b1: '0.5'"), "model.b1"),
    ("oracle-check", BENCH_YAML + "oracle_check: {tolerance: '1.0e-4'}",
     "oracle_check.tolerance"),
    ("oracle-check", BENCH_YAML + "oracle_check: {tolerance: 1e-4}",
     "oracle_check.tolerance"),
    ("oracle-check", BENCH_YAML + "oracle_check: {tolerance: true}",
     "oracle_check.tolerance"),
    # out of range: NaN and -1 used to exit 0 with converged=false, inf with a
    # vacuous converged=true
    ("oracle-check", BENCH_YAML + "oracle_check: {tolerance: .nan}",
     "oracle_check.tolerance"),
    ("oracle-check", BENCH_YAML + "oracle_check: {tolerance: -1.0}",
     "oracle_check.tolerance"),
    ("oracle-check", BENCH_YAML + "oracle_check: {tolerance: .inf}",
     "oracle_check.tolerance"),
], ids=["grid_size", "truncation", "windows_x", "windows_5", "windows_0", "tolerance",
        "theta_length", "quoted_truncation", "quoted_interval",
        "quoted_budget", "quoted_power", "quoted_power_entry", "quoted_b1",
        "quoted_tolerance", "tolerance_1e-4", "boolean_tolerance", "tolerance_nan",
        "tolerance_negative", "tolerance_inf"])
def test_malformed_numbers_exit_2(tmp_path, capsys, command, text, key):
    cfg = write_config(tmp_path, text)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert f"config error: {key}:" in capsys.readouterr().err


LAURENT_YAML = """
model:
  kind: laurent
  entries:
    - {row: 0, col: 0, num_offset: 0, num_coeffs: [2.0]}
pattern:
  intervals: [[2, 1]]
functional:
  coeffs: [[1.0]]
numerics:
  grid_size: 256
  truncation: 8
"""

NOISY_AR1_YAML = """
model:
  kind: ar1
  poles: [0.6]
  scales: [1.0]
  noise: {poles: [0.2]}
pattern:
  intervals: [[1, 1]]
functional:
  coeffs: [[1.0]]
numerics:
  grid_size: 256
  truncation: 8
"""

MIXTURE_MINIMAX = VALID_MINIMAX.replace(
    "    kind: singleton\n", "    kind: mixture\n")


def _assert_config_error(tmp_path, capsys, command, text, key):
    cfg = write_config(tmp_path, text)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and not (tmp_path / "out").exists()
    return err


@pytest.mark.parametrize("command,text,key", [
    ("estimate", BENCH_YAML.replace("truncation: 48", "truncation: 48.9"),
     "numerics.truncation"),
    ("estimate", BENCH_YAML.replace("truncation: 48", "truncation: true"),
     "numerics.truncation"),
    ("estimate", BENCH_YAML.replace("grid_size: 1024", "grid_size: 1024.5"),
     "numerics.grid_size"),
    ("estimate", BENCH_YAML.replace("[[2, 1]]", "[[2.7, 1]]"), "pattern.intervals[0]"),
    ("estimate", BENCH_YAML.replace("[[2, 1]]", "[[5, 0], [2, 1.5]]"),
     "pattern.intervals[1]"),
    ("oracle-check", BENCH_YAML + "oracle_check: {windows: [25.5]}",
     "oracle_check.windows[0]"),
    ("simulate", BENCH_YAML + "simulation: {replications: 10.5}",
     "simulation.replications"),
    ("minimax", VALID_MINIMAX + "  opt: {starts: 2.5}\n", "minimax.opt.starts"),
    # a stock family is built on numerics.grid_size
    ("minimax", MIXTURE_MINIMAX.replace("grid_size: 256\n", "grid_size: 256.5\n"),
     "numerics.grid_size"),
    ("estimate", LAURENT_YAML.replace("row: 0", "row: 0.5"), "model.entries[0].row"),
    ("estimate", LAURENT_YAML.replace("num_offset: 0", "num_offset: 0.5"),
     "model.entries[0].num_offset"),
], ids=["truncation", "truncation_bool", "grid_size", "interval", "second_interval",
        "windows", "replications", "opt_starts", "family_grid_size", "laurent_row", "laurent_offset"])
def test_fractional_integers_exit_2(tmp_path, capsys, command, text, key):
    _assert_config_error(tmp_path, capsys, command, text, key)


WHITE_YAML = VALID_MINIMAX.split("minimax:")[0]


@pytest.mark.parametrize("command,text,key", [
    # each of these used to run and exit 0 on the quoted value
    ("estimate", WHITE_YAML.replace("scale: 1.5", "scale: '2.0'"), "model.scale"),
    ("estimate", NOISY_AR1_YAML.replace("scales: [1.0]", "scales: ['1.0']"), "model.scales"),
    ("estimate", "model: {kind: grid_file, path: grid.npz, pole_modulus: '0.5'}\npattern:"
     + LAURENT_YAML.split("pattern:")[1], "model.pole_modulus"),
    ("estimate", LAURENT_YAML.replace("num_coeffs: [2.0]", "num_coeffs: ['2.0']"),
     "model.entries[0].num_coeffs"),
    ("estimate", WHITE_YAML.replace("coeffs: [[1.0]]", "coeffs: [['1.0']]"),
     "functional.coeffs"),
], ids=["white_scale", "ar1_scales", "grid_file_pole_modulus", "laurent_num_coeffs",
        "functional_coeffs"])
def test_quoted_model_and_functional_numbers_exit_2(tmp_path, capsys, command, text, key):
    _assert_config_error(tmp_path, capsys, command, text, key)


@pytest.mark.parametrize("command", ["estimate", "oracle-check", "simulate", "minimax"])
def test_truncation_below_the_horizon_exits_2(tmp_path, capsys, command):
    # used to exit 3 from the operator route ("smaller than functional horizon")
    assert run_cli([command, "--config", ROBUST, "--out", tmp_path / "out",
                    "--truncation", -1]) == 2
    assert capsys.readouterr().err.startswith("config error: numerics.truncation: ")


def test_truncation_at_the_horizon_is_the_least_accepted(tmp_path, capsys):
    # BENCH_YAML's functional has two rows: its horizon is 1
    _assert_config_error(tmp_path, capsys, "estimate",
                         BENCH_YAML.replace("truncation: 48", "truncation: 0"),
                         "numerics.truncation")
    # and so is the flag
    assert run_cli(["estimate", "--config", EXAMPLES / "benchmark.yaml", "--truncation", 0,
                    "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith("config error: numerics.truncation: ")
    cfg = write_config(tmp_path, BENCH_YAML.replace("truncation: 48", "truncation: 1"))
    assert run_cli(["estimate", "--config", cfg, "--out", tmp_path / "out"]) == 0


def test_integral_values_accepted(tmp_path):
    # a float with no fractional part reads as the integer
    text = LAURENT_YAML.replace("row: 0", "row: 0.0").replace("truncation: 8",
                                                                "truncation: 8.0")
    cfg = write_config(tmp_path, text)
    assert run_cli(["estimate", "--config", cfg, "--out", tmp_path / "out"]) == 0
    assert read_summary(tmp_path / "out" / "result.summary")["truncation"] == "8"


@pytest.mark.parametrize("command,text,key,name", [
    ("simulate", BENCH_YAML + "simulation: {replicatons: 7}", "simulation",
     "replicatons"),
    ("simulate", BENCH_YAML + "simulation: {path_length: 100}", "simulation",
     "path_length"),
    ("oracle-check", BENCH_YAML + "oracle_check: {window: [25]}", "oracle_check",
     "window"),
    ("minimax", VALID_MINIMAX + "  opt: {strats: 2}\n", "minimax.opt", "strats"),
    ("minimax", VALID_MINIMAX + "  saddle_sample: 3\n", "minimax", "saddle_sample"),
    ("estimate", BENCH_YAML.replace("intervals: [[2, 1]]", "interval: [[2, 1]]"),
     "pattern", "interval"),
    ("estimate", VALID_MINIMAX.replace("scale: 1.5", "scael: 1.5"), "model", "scael"),
    ("estimate", BENCH_YAML.replace("b2: 0.3", "b2: 0.3\n  b3: 0.1"), "model", "b3"),
    ("estimate", NOISY_AR1_YAML.replace("noise: {poles: [0.2]}", "noise: {pole: [0.2]}"),
     "model.noise", "pole"),
    ("estimate", LAURENT_YAML.replace("num_coeffs", "num_coefs"), "model.entries[0]",
     "num_coefs"),
    ("estimate", BENCH_YAML.replace("[1.0, 1.0]]", "[1.0, 1.0]]\n  truncate: true"),
     "functional", "truncate"),
    ("estimate", BENCH_YAML + "output: {dir: elsewhere}", "output", "dir"),
    ("minimax", VALID_MINIMAX.replace("kind: singleton", "kind: singleton\n    param: {}"),
     "minimax.family", "param"),
    # retired: they sized the circulant embedding, which simulate no longer builds
    ("simulate", SIM_YAML + "  window: 60\n", "simulation", "window"),
    ("simulate", SIM_YAML + "  embedding_margin: 900\n", "simulation", "embedding_margin"),
    ("simulate", SIM_YAML + "  psd_tol: 1.0e-8\n", "simulation", "psd_tol"),
    # retired: the search takes numerics.truncation, and the flag only relabeled output
    ("minimax", VALID_MINIMAX + "  opt: {truncation: 8}\n", "minimax.opt", "truncation"),
    ("estimate", BENCH_YAML.replace("[1.0, 1.0]]", "[1.0, 1.0]]\n  truncated: true"),
     "functional", "truncated"),
    # retired: the step schedule is fixed (0.25 of each range, halved below 1e-6)
    ("minimax", VALID_MINIMAX + "  opt: {initial_step: 0.25}\n", "minimax.opt", "initial_step"),
    ("minimax", VALID_MINIMAX + "  opt: {min_step: 1.0e-6}\n", "minimax.opt", "min_step"),
    # retired: white and laurent take T from functional.coeffs, and the
    # residuals are always written
    ("estimate", VALID_MINIMAX.replace("kind: white", "kind: white\n  dim: 1"), "model", "dim"),
    ("estimate", LAURENT_YAML.replace("kind: laurent", "kind: laurent\n  dim: 1"), "model",
     "dim"),
    ("minimax", VALID_MINIMAX + "  skip_residuals: true\n", "minimax", "skip_residuals"),
    # retired: a laurent model reads its decay rate off its denominators
    ("estimate", LAURENT_YAML.replace("kind: laurent", "kind: laurent\n  pole_modulus: 0.5"),
     "model", "pole_modulus"),
    # retired: a stock family reads its power (noise power) from minimax.data
    *[("minimax", VALID_MINIMAX.replace("kind: singleton",
                                        f"{family}\n    params: {{{name}: {value}}}"),
       "minimax.family.params", name)
      for family, name, value in [("kind: mixture", "power", 1.5),
                                  ("kind: mixture", "noise_power", 0.8),
                                  ("kind: ar1_fixed_power", "power", 1.5),
                                  ("kind: contamination", "power", 1.5)]],
    # retired: the contamination family reads eps and its anchor from minimax.data
    *[("minimax", VALID_MINIMAX.replace("kind: singleton",
                                        f"kind: contamination\n    params: {{{key}: 0.3}}"),
       "minimax.family.params", key) for key in ("eps", "anchor_power", "anchor_pole")],
], ids=["simulation", "path_length", "oracle_check", "minimax_opt", "minimax",
        "pattern", "model_white", "model_example1", "model_noise", "model_entry",
        "functional", "output", "minimax_family", "window", "embedding_margin", "psd_tol",
        "opt_truncation", "functional_truncated", "opt_initial_step", "opt_min_step",
        "white_dim", "laurent_dim", "skip_residuals", "laurent_pole_modulus", "mixture_power",
        "mixture_noise_power",
        "ar1_fixed_power_power", "contamination_power", "contamination_eps",
        "contamination_anchor_power", "contamination_anchor_pole"])
def test_unknown_keys_exit_2(tmp_path, capsys, command, text, key, name):
    err = _assert_config_error(tmp_path, capsys, command, text, key)
    assert err == f"config error: {key}: unknown key(s) [{name!r}]\n"


@pytest.mark.parametrize("extra,key", [
    ("  opt: {starts: 0}\n", "minimax.opt"),
    ("  opt: {starts: -2}\n", "minimax.opt"),
    ("  opt: {budget: 0}\n", "minimax.opt"),
    ("  opt: {budget: -1}\n", "minimax.opt"),
    # negative seeds used to escape as a raw NumPy ValueError
    ("  opt: {seed: -1}\n", "minimax.opt"),
], ids=["starts_0", "starts_negative", "budget_0", "budget_negative", "opt_seed"])
def test_out_of_range_minimax_options_exit_2(tmp_path, capsys, extra, key):
    _assert_config_error(tmp_path, capsys, "minimax", MIXTURE_MINIMAX + extra, key)


@pytest.mark.parametrize("key,value", [("saddle_samples", "100"), ("saddle_seed", "1"),
                                       ("saddle_tol", "1.0e-6")])
def test_saddle_settings_are_unknown_keys(tmp_path, capsys, key, value):
    # the saddle check has no settings: its draw and its slack are fixed
    cfg = write_config(tmp_path, MIXTURE_MINIMAX + f"  {key}: {value}\n")
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"config error: minimax: unknown key(s) ['{key}']\n"
    assert not (tmp_path / "out").exists()


def test_the_mixture_label_is_an_unknown_key(tmp_path, capsys):
    # the family's name in lfd.summary is fixed by its kind
    cfg = write_config(tmp_path, MIXTURE_MINIMAX.replace(
        "kind: mixture\n", "kind: mixture\n    params: {label: mine}\n"))
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (
        "config error: minimax.family.params: unknown key(s) ['label']\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,data,family,error", [
    # the class data is checked before the family is built: a class that fixes
    # the power names it first
    ("D0_1", "{}", "mixture", ": D0_1 requires data.power"),
    ("D1delta_1", "{anchor_f: 1.0, radius: 2.0}", "ar1_fixed_power",
     ".data: missing required key 'power'"),
    ("D0_1", "{eps: 0.2, anchor_f: 1.0}", "contamination", ": D0_1 requires data.power"),
    ("D0_1\n  g_kind: DVU_1", "{power: 1.5, upper: 8.0}", "mixture",
     ": DVU_1 requires data.noise_power"),
    # eps and the anchor are the class's facts under Deps, the family's own
    # (written at minimax.data) under any other kind
    ("Deps_1", "{power: 1.5, anchor_f: 1.0}", "contamination", ": Deps_1 requires data.eps"),
    ("Deps_1", "{power: 1.5, eps: 0.2}", "contamination", ": Deps_1 requires data.anchor_f"),
    ("D0_1", "{power: 1.5, anchor_f: 1.0}", "contamination",
     ".data: missing required key 'eps'"),
    ("D0_1", "{power: 1.5, eps: 0.2}", "contamination",
     ".data: missing required key 'anchor_f'"),
    ("D1delta_1", "{power: 1.5, anchor_f: 1.0, radius: 0.5}", "contamination",
     ".data: missing required key 'eps'"),
], ids=["mixture", "ar1_fixed_power-D1delta", "contamination", "mixture-noise",
        "contamination-Deps-eps", "contamination-Deps-anchor_f", "contamination-D0-eps",
        "contamination-D0-anchor_f", "contamination-D1delta-eps"])
def test_a_stock_family_without_a_fact_it_reads_exits_2(tmp_path, capsys, kind, data,
                                                        family, error):
    cfg = write_config(tmp_path, MINIMAX_DATA_YAML.format(kind=kind, data=data).replace(
        "kind: singleton", f"kind: {family}"))
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"config error: minimax{error}\n"
    assert not (tmp_path / "out").exists()


# a contamination search states eps and its anchor once, at minimax.data
DEPS_1 = """
model: {kind: white, scale: 2.0}
pattern: {intervals: [[2, 0]]}
functional: {coeffs: [[1.0]]}
numerics: {grid_size: 512, truncation: 16}
minimax:
  kind: Deps_1
  data: {power: 2.5, anchor_f: 2.0, eps: 0.3}
  family: {kind: contamination}
  opt: {starts: 4, budget: 300, seed: 0}
"""
DEPS_3 = DEPS_1.replace("[[1.0]]}", "[[1.0], [1.0]]}").replace("Deps_1", "Deps_3").replace(
    "power: 2.5", "power: 5.0").replace("eps: 0.3}", "eps: 0.3, weight_f: [[2.0]]}")


@pytest.mark.parametrize("text,want", [
    (DEPS_1, {"delta_star": "2.5", "stopped": "certified", "evaluations": "1"}),
    (DEPS_3, {"delta_star": "5.8067288870335787", "fw_gap": "0.9311907441543843",
              "stopped": "converged", "evaluations": "212"}),
], ids=["Deps_1", "Deps_3"])
def test_a_contamination_search_reads_eps_and_the_anchor_from_the_class(tmp_path, text, want):
    # the numbers the same runs gave with the family's own copies
    # (params: {anchor_power: 2.0, anchor_pole: 0.0, eps: 0.3})
    out = tmp_path / "out"
    assert run_cli(["minimax", "--config", write_config(tmp_path, text), "--out", out]) == 0
    summary = read_summary(out / "lfd.summary")
    assert {key: summary[key] for key in want} == want


@pytest.mark.parametrize("eps", ["1.5", "1.0", "0.0", "-0.2"])
def test_a_contamination_eps_outside_the_unit_interval_exits_2(tmp_path, capsys, eps):
    # eps = 1.5 under a one-member family used to certify delta_star = 2 and exit 0
    cfg = write_config(tmp_path, DEPS_1.replace("power: 2.5", "power: 2.0").replace(
        "eps: 0.3", f"eps: {eps}").replace("kind: contamination", "kind: singleton"))
    assert run_cli(["minimax", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (
        f"config error: minimax.data.eps: expected a number in (0, 1), got {float(eps)}\n")


# an L1 ball fixes no power: the mixture's power is its own, written at
# minimax.data as under every class
D1DELTA_MIXTURE = """
model: {kind: white}
pattern: {intervals: [[2, 0]]}
functional: {coeffs: [[1.0], [1.0]]}
numerics: {grid_size: 512, truncation: 16}
minimax:
  kind: D1delta_1
  data: {power: 1.0, anchor_f: 1.0, radius: 2.0}
  family: {kind: mixture, params: {w_max: 0.5}}
  opt: {starts: 2, budget: 40, seed: 0}
"""


def test_a_ball_search_reads_the_family_power_from_the_class_data(tmp_path):
    # the run the same class and family made when the power was written as
    # family.params.power: the library family of that power, its trace and,
    # from that run's lfd.summary and residuals.csv, the maximizer
    out = tmp_path / "out"
    assert run_cli(["minimax", "--config", write_config(tmp_path, D1DELTA_MIXTURE),
                    "--out", out]) == 0
    fam = scalar_mixture_family(power=1.0, w_max=0.5, grid_size=512)
    cls = DensityClass(kind="D1delta_1", data=ClassData(anchor_f=1.0, radius=2.0), family=fam)
    want = maximize_delta(cls, MissingPattern(intervals=((2, 0),)),
                          FunctionalSpec(coeffs=np.array([[1.0], [1.0]])),
                          OptConfig(starts=2, budget=40, seed=0), K=16).evaluations
    lines = (out / "lfd.summary").read_text().splitlines()
    assert [line.split("delta = ")[1] for line in lines if line.startswith("eval ")] == \
        [_fmt(ev.delta) for ev in want]
    summary = read_summary(out / "lfd.summary")
    assert {key: summary[key] for key in ("family", "stopped", "evaluations", "theta_star")} \
        == {"family": "white/AR(1) mixture", "stopped": "budget", "evaluations": "40",
            "theta_star": "0.5 0.56210937500000002"}
    for key, value in (("delta_star", 2.3639406539523247), ("fw_gap", 6.484112472391077),
                       ("delta_upper", 8.8480531263434017)):
        assert float(summary[key]) == pytest.approx(value, rel=1e-12), key
    assert [float(row[4]) for row in read_csv_rows(out / "residuals.csv")[1]] == \
        pytest.approx([1.0, 0.809988972679341], rel=1e-12)


@pytest.mark.parametrize("kinds,data,cls_data,powers", [
    # without a noise-side class the mixture has no noise side
    ("D0_1", "{power: 1.5, noise_power: 0.8}", dict(power=1.5), dict(power=1.5)),
    ("D0_2", "{power: [1.5]}", dict(power=np.array([1.5])), dict(power=1.5)),
    ("D0_3", "{power: 3.0, weight_f: [[2.0]]}",
     dict(power=3.0, weight_f=np.array([[2.0]])), dict(power=1.5)),
    ("D0_4", "{power: [[1.5]]}", dict(power=np.array([[1.5]])), dict(power=1.5)),
    ("D0_3\n  g_kind: DVU_3", "{power: 3.0, noise_power: 0.4, weight_f: [[2.0]], "
     "weight_g: [[0.5]], lower: 0.1, upper: 8.0}",
     dict(power=3.0, noise_power=0.4, weight_f=np.array([[2.0]]),
          weight_g=np.array([[0.5]]), lower=0.1, upper=8.0), dict(power=1.5, noise_power=0.8)),
], ids=["D0_1-noise_power", "D0_2", "D0_3", "D0_4", "D0_3xDVU_3"])
def test_a_stock_family_reads_its_power_in_each_flavor(tmp_path, kinds, data, cls_data,
                                                       powers):
    # data.power is the mean of the side's projection: a 1-vector or a 1 x 1
    # matrix at T = 1, and w times the scalar density's power at flavor 3
    out = tmp_path / "out"
    text = MINIMAX_DATA_YAML.format(kind=kinds, data=data).replace(
        "kind: singleton", "kind: mixture\n  opt: {starts: 2, budget: 20, seed: 0}")
    assert run_cli(["minimax", "--config", write_config(tmp_path, text), "--out", out]) == 0
    fam = scalar_mixture_family(**powers, grid_size=256)
    kind, _, g_kind = kinds.partition("\n  g_kind: ")
    cls = DensityClass(kind=kind, g_kind=g_kind or None, data=ClassData(**cls_data),
                       family=fam)
    want = maximize_delta(cls, MissingPattern(intervals=()),
                          FunctionalSpec(coeffs=np.array([[1.0]])),
                          OptConfig(starts=2, budget=20, seed=0), K=8)
    lines = (out / "lfd.summary").read_text().splitlines()
    assert [line.split("delta = ")[1] for line in lines if line.startswith("eval ")] == \
        [_fmt(ev.delta) for ev in want.evaluations]
    assert read_summary(out / "lfd.summary")["stopped"] == want.stopped


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, MIXTURE_MINIMAX)
    assert run_cli(["minimax", "--config", cfg, "--seed", "-1",
                    "--out", tmp_path / "out"]) == 2
    assert "config error: minimax.opt:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "oracle-check"])
def test_a_seed_flag_where_nothing_is_drawn_exits_2(tmp_path, capsys, command):
    # both used to accept --seed and ignore it (exit 0)
    out = tmp_path / "out"
    assert run_cli([command, "--config", EXAMPLES / "benchmark.yaml", "--seed", 3,
                    "--out", out]) == 2
    assert capsys.readouterr().err == (f"config error: --seed: {command} draws nothing at "
                                       "random; only simulate and minimax read a seed\n")
    assert not out.exists()


def test_seed_flag_over_a_null_opt(tmp_path):
    # a null opt is no section: the flag's seed drives the search
    cfg = write_config(tmp_path, MIXTURE_MINIMAX + "  opt: null\n")
    assert run_cli(["minimax", "--config", cfg, "--seed", "3",
                    "--out", tmp_path / "out"]) == 0
    assert "# seed=3" in (tmp_path / "out" / "lfd.summary").read_text().splitlines()


def test_seed_flag_over_a_list_opt_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, MIXTURE_MINIMAX + "  opt: []\n")
    assert run_cli(["minimax", "--config", cfg, "--seed", "3",
                    "--out", tmp_path / "out"]) == 2
    assert "config error: minimax.opt:" in capsys.readouterr().err


def test_known_model_keys_accepted(tmp_path):
    assert run_cli(["estimate", "--config", write_config(tmp_path, NOISY_AR1_YAML),
                    "--out", tmp_path / "out"]) == 0


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run_cli(["estimate", "--config", tmp_path / "nope.yaml"]) == 2
    assert "config error:" in capsys.readouterr().err


def test_invalid_yaml_exits_2(tmp_path):
    cfg = write_config(tmp_path, "model: [unclosed\n")
    assert run_cli(["estimate", "--config", cfg]) == 2


def test_unknown_section_exits_2(tmp_path):
    cfg = write_config(tmp_path, BENCH_YAML + "\nextras:\n  x: 1\n")
    assert run_cli(["estimate", "--config", cfg]) == 2
    # keys of mixed types are reported, not compared
    cfg = write_config(tmp_path, BENCH_YAML + "\nextras: 1\n7: 2\n")
    assert run_cli(["estimate", "--config", cfg]) == 2


def test_unknown_model_kind_exits_2(tmp_path):
    cfg = write_config(tmp_path, BENCH_YAML.replace("kind: example1",
                                                    "kind: fancy"))
    assert run_cli(["estimate", "--config", cfg]) == 2


def test_overlapping_intervals_exit_2(tmp_path):
    cfg = write_config(tmp_path, BENCH_YAML.replace(
        "intervals: [[2, 1]]", "intervals: [[1, 2], [2, 1]]"))
    assert run_cli(["estimate", "--config", cfg]) == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    # unit-root moving average: the observation density vanishes at zero
    text = """
model:
  kind: ma_pair
  signal_coeffs: [[[1.0]], [[-1.0]]]
pattern:
  intervals: []
functional:
  coeffs: [[1.0]]
numerics:
  grid_size: 256
  truncation: 8
"""
    cfg = write_config(tmp_path, text)
    assert run_cli(["estimate", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert capsys.readouterr().err == ("error: minimality check failed: observation "
                                       "density singular at lambda=0.000000\n")
    assert not (tmp_path / "o" / "result.summary").exists()


@pytest.mark.parametrize("model,coeffs,cond", [
    # two equal AR(0.9) components, one at 1e-13 of the other's power
    ("{kind: ar1, poles: [0.9, 0.9], scales: [1.0, 1.0e-13]}", "[[1.0, 1.0]]", "3.610e+15"),
    # the noiseless unit-root MA(1): each 1 x 1 node is its own condition
    # number 1, but |1 + e^{i lambda}|^2 falls from 4 at 0 to 1.5e-32 at pi
    ("{kind: ma_pair, signal_coeffs: [[[1.0]], [[1.0]]]}", "[[1.0]]", "2.667e+32"),
], ids=["two_ar1", "unit_root_ma1"])
def test_an_ill_conditioned_observation_density_exits_3(tmp_path, capsys, model, coeffs, cond):
    cfg = write_config(tmp_path, f"model: {model}\npattern: {{intervals: []}}\n"
                                 f"functional: {{coeffs: {coeffs}}}\n"
                                 "numerics: {grid_size: 256, truncation: 8}\n")
    assert run_cli(["estimate", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert capsys.readouterr().err == (
        f"error: minimality check failed: condition number {cond} exceeds ceiling "
        "1.0e+12: largest eigenvalue at lambda=0.000000, smallest at lambda=-3.141593\n")
    assert not (tmp_path / "o" / "result.summary").exists()


@pytest.mark.parametrize("example,delta", [
    ("benchmark", BENCH_DELTA),
    # with noise and a gap Schur step: the delta the dense solve gives at grid
    # 2048, truncation 64
    ("noisy_ar1", 8.5919928228423181)])
def test_large_estimate_is_solved_by_conjugate_gradients(tmp_path, monkeypatch, example, delta):
    # 2 (2 + 513) = 1030 and 2 (3 + 513) = 1032 unknowns: above the crossover
    results = []

    def recording_estimate(*args, **kwargs):
        results.append(estimate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli_module, "estimate", recording_estimate)
    out = tmp_path / "o"
    assert run_cli(["estimate", "--config", EXAMPLES / f"{example}.yaml", "--grid", 8192,
                    "--truncation", 512, "--out", out]) == 0
    summary = read_summary(out / "result.summary")
    assert abs(float(summary["delta"]) - delta) <= 1e-12 * delta
    assert int(summary["cg_iterations"]) > 0
    assert float(summary["solve_residual"]) <= 1e-13
    if example == "benchmark":
        assert abs(float(summary["minimality_value"]) - BENCH_MINIMALITY) <= \
            1e-13 * BENCH_MINIMALITY

    # the taps as one _fmt call per number would write them
    (res,) = results
    lags = sorted(res.taps)
    lines = (out / "taps.csv").read_bytes().split(b"\n")
    rows = _per_float_rows(lags, [res.taps[lag] for lag in lags])
    assert lines[2:] == [row.encode() for row in rows] + [b""]
    assert len(res.h_grid) == 8192


@pytest.mark.parametrize("example", ["benchmark", "noisy_ar1"])
def test_a_wrong_solve_exits_3(tmp_path, capsys, monkeypatch, example):
    # coefficients 1% off raise delta above the exact error of its own filter,
    # which no filter on the observed past can beat
    real = extrapolate_module.solve_coefficients

    def wrong(system, a):
        sol = real(system, a)
        return dataclasses.replace(sol, c=1.01 * sol.c)

    monkeypatch.setattr(extrapolate_module, "solve_coefficients", wrong)
    out = tmp_path / "o"
    assert run_cli(["estimate", "--config", EXAMPLES / f"{example}.yaml", "--out", out]) == 3
    err = capsys.readouterr().err
    match = re.fullmatch(r"error: the optimal error \S+ exceeds the exact error \S+ of its "
                         r"own filter \(bracket width (\S+), below -1\.0e-13\): the solve is "
                         r"wrong\n", err)
    assert match and -2e-2 <= float(match.group(1)) <= -5e-3
    assert not out.exists()


def test_a_correct_solve_near_the_conditioning_ceiling_exits_0(tmp_path):
    # a mixed AR(1) pair, one innovation at 1e-9 of the other's: cond_B reads
    # 7.1e10, and the two error routes part by 3.8e-7 through the solve's
    # rounding alone.  The bracket's width sits as far below 0 and is
    # accepted: the refusal allows cond_B * eps, 1.6e-5, here
    cfg = write_config(tmp_path, (
        "model: {kind: ar1, poles: [-0.449, 0.804], scales: [1.0, 1.0e-9],\n"
        "        mix: [[1.222, 0.217], [0.486, 0.638]]}\n"
        "pattern: {intervals: [[2, 1]]}\n"
        "functional: {coeffs: [[-0.627, -1.321], [-0.108, 0.999]]}\n"
        "numerics: {grid_size: 512, truncation: 24}\n"))
    out = tmp_path / "o"
    assert run_cli(["estimate", "--config", cfg, "--out", out]) == 0
    summary = read_summary(out / "result.summary")
    cond = float(summary["cond_B"])
    assert 1e10 <= cond <= 1e12
    assert float(summary["two_form_rel_diff"]) >= 1e3 * extrapolate_module.ROUNDING_ALLOWANCE
    assert abs(float(summary["bracket_rel_width"])) <= cond * np.finfo(float).eps


def test_unconverged_conjugate_gradients_exit_3(tmp_path, capsys, monkeypatch):
    # with the iteration cap at 1 they cannot converge on a non-white model
    monkeypatch.setattr(operators_module, "CG_MAX_ITERATIONS", 1)
    out = tmp_path / "o"
    assert run_cli(["estimate", "--config", EXAMPLES / "noisy_ar1.yaml", "--grid", 4096,
                    "--truncation", 600, "--out", out]) == 3
    assert ("error: conjugate gradients not converged after 1 iteration(s): relative residual"
            in capsys.readouterr().err)
    assert not out.exists()


def test_bad_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x.yaml"])


def test_config_round_trip_and_hash_stability(tmp_path):
    cfg = loads_config(BENCH_YAML)
    again = loads_config(dumps_config(cfg))
    assert again.to_dict() == cfg.to_dict()
    assert config_hash(again) == config_hash(cfg)

    # permuting YAML keys must not move the hash (canonical dump)
    data = yaml.safe_load(BENCH_YAML)
    shuffled = {k: data[k] for k in reversed(list(data))}
    assert config_hash(loads_config(yaml.safe_dump(shuffled))) == config_hash(cfg)

    path = write_config(tmp_path, BENCH_YAML)
    assert load_config(path).to_dict() == cfg.to_dict()


# ---------------------------------------------------------------------------
# the real entry point, one interpreter per run
# ---------------------------------------------------------------------------

ARTIFACTS = {"estimate": ["result.summary", "taps.csv"],
             "oracle-check": ["comparison.csv"], "simulate": ["mc.csv"],
             "minimax": ["lfd.summary", "residuals.csv"]}
# (run file or its text, flags, exit code): every shipped example through each
# command that reads it, and the runs above whose artifacts carry a claim
ENTRY_POINT_RUNS = {
    "estimate": [(EXAMPLES / f"{name}.yaml", flags, 0)
                 for flags in ([], ["--grid", 8192, "--truncation", 512])
                 for name in ("benchmark", "noisy_ar1")],
    "oracle-check": [(EXAMPLES / f"{name}.yaml", [], 0) for name in ("benchmark", "noisy_ar1")],
    "simulate": [(EXAMPLES / f"{name}.yaml", [], 0) for name in ("benchmark", "noisy_ar1")]
    # a seed is one 64-bit word of the stream key
    + [(EXAMPLES / "benchmark.yaml", ["--seed", 2 ** 64], 2)],
    "minimax": [(ROBUST, [], 0), (EXAMPLES / "robust_banded_noise.yaml", [], 0),
                (ROBUST, ["--grid", 1024, "--truncation", 24], 0)]
    + [(text, [], 0) for text in (FIXED_THETA_MINIMAX, TWO_STEP_MINIMAX,
                                  _scaled(TWO_STEP_MINIMAX, 1e-7), EXAMPLE1_D0_MINIMAX, DEPS_3)],
}


@pytest.mark.parametrize("command", sorted(ENTRY_POINT_RUNS))
def test_artifacts_are_byte_identical_across_interpreters(tmp_path, command):
    # each run twice, in interpreters that hash strings differently, with
    # BLAS at the one thread the byte-for-byte promise is made for
    env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    for i, (config, flags, code) in enumerate(ENTRY_POINT_RUNS[command]):
        if isinstance(config, str):
            config = write_config(tmp_path, config, name=f"run{i}.yaml")
        runs = [entry_point([command, "--config", config, *flags,
                             "--out", tmp_path / side / str(i)], PYTHONHASHSEED=side, **env)
                for side in ("1", "2")]
        stderr = [run.communicate(timeout=300)[1] for run in runs]
        assert [run.returncode for run in runs] == [code, code], stderr
        assert stderr[0] == stderr[1]
        names = sorted(path.name for path in (tmp_path / "1" / str(i)).glob("*"))
        assert names == (ARTIFACTS[command] if code == 0 else []), (config, flags)
    trees = [{path.relative_to(tmp_path / side): path.read_bytes()
              for path in (tmp_path / side).rglob("*") if path.is_file()} for side in ("1", "2")]
    assert trees[0] == trees[1]

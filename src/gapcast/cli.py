"""Command-line front end.

Four subcommands share one config-file format: ``estimate`` runs the spectral
pipeline and writes the error with diagnostics and the filter's taps;
``oracle-check`` compares it against the finite-window projection solution
over a schedule of windows; ``simulate`` samples the filter's error from its
exact time-domain law; ``minimax`` searches an admissible class for its least
favorable member and writes its saddle verdict and characterization residuals.

Outputs are plain text and CSV, deterministic byte for byte for a given
config, seed and BLAS thread count (threaded BLAS sums in another order), and
each file records the config hash it came from. Floats are written as
``%.17g`` (inside JSON as Python's shortest repr), so each reads back as the
same double, and every line ends in ``\n`` on every platform.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .config import (
    RunConfig,
    build_class,
    build_functional,
    build_model,
    build_oracle_check,
    build_pattern,
    build_simulation,
    config_hash,
    load_config,
)
from .errors import ConfigError, GapcastError, UnsupportedClassError
from .extrapolate import estimate, optimal_delta
from .minimax import (
    characterization_residuals,
    check_residual_support,
    maximize_delta,
    verify_saddle_point,
)
from .oracle import monte_carlo_mse, projection_ladder

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNSUPPORTED = 4


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write(path: Path, lines: list[str], body: bytes = b""):
    """Write ``lines``, each ended by ``\\n`` on every platform, then ``body`` as it is."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes("".join(f"{line}\n" for line in lines).encode() + body)


def _header(digest: str, seed: int | None = None) -> list[str]:
    """Comment lines that open an artifact: the config hash ``digest``, then the seed."""
    lines = [f"# config_sha256={digest}"]
    if seed is not None:
        lines.append(f"# seed={seed}")
    return lines


def _complex_table(key_name: str, prefix: str, keys, values, dim: int) -> tuple[str, bytes]:
    """A CSV header line, then the rows: per key the key and its ``dim`` complex values.

    Column t of a row is written as ``<prefix>t_re,<prefix>t_im``; every
    number, the key included, is written as ``%.17g``.
    """
    header = [key_name] + [f"{prefix}{t}_{part}" for t in range(1, dim + 1)
                           for part in ("re", "im")]
    table = np.empty((len(keys), 1 + 2 * dim))
    table[:, 0] = keys
    table[:, 1:] = np.asarray(values, dtype=complex).reshape(len(keys), dim).view(float)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return ",".join(header), "".join(line % tuple(row) for row in table.tolist()).encode()


def cmd_estimate(cfg: RunConfig, out_dir: Path) -> int:
    model = build_model(cfg)
    pattern = build_pattern(cfg)
    functional = build_functional(cfg)
    res = estimate(model, pattern, functional, K=cfg.truncation)

    digest = config_hash(cfg)
    lines = _header(digest) + [f"{key} = {_fmt(val)}" for key, val in
                               [("delta", res.delta), *vars(res.diagnostics).items()]]
    _write(out_dir / "result.summary", lines)

    lags = sorted(res.taps)
    head, body = _complex_table("lag", "tap", lags, [res.taps[lag] for lag in lags], model.dim)
    _write(out_dir / "taps.csv", _header(digest) + [head], body)
    return EXIT_OK


def cmd_oracle_check(cfg: RunConfig, out_dir: Path) -> int:
    model = build_model(cfg)
    pattern = build_pattern(cfg)
    functional = build_functional(cfg)
    K = cfg.truncation   # a numerics error is reported before an oracle_check one
    windows, tol = build_oracle_check(cfg)
    delta = optimal_delta(model, pattern, functional, K=K)

    rows = _header(config_hash(cfg)) + [
        "window,delta_spectral,delta_oracle,abs_diff,rel_diff,within_tol"]
    last_rel = np.inf
    for orc in projection_ladder(model, pattern, functional, windows):
        diff = abs(orc.delta_oracle - delta)
        rel = diff / max(abs(delta), 1e-300)
        last_rel = rel
        rows.append(",".join([
            str(orc.window), _fmt(delta), _fmt(orc.delta_oracle),
            _fmt(diff), _fmt(rel), _fmt(rel <= tol)]))
    rows.append(f"# converged={_fmt(last_rel <= tol)}")
    _write(out_dir / "comparison.csv", rows)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    model = build_model(cfg)
    pattern = build_pattern(cfg)
    functional = build_functional(cfg)
    sim = build_simulation(cfg)
    res = estimate(model, pattern, functional, K=cfg.truncation)
    mc = monte_carlo_mse(model, pattern, functional, res.taps, sim)
    z = (mc.mse - res.delta) / mc.stderr if mc.stderr > 0 else float("nan")
    rows = _header(config_hash(cfg), seed=sim.seed) + [
        "replications,seed,mse,stderr,delta_spectral,z_score,mse_exact",
        ",".join([str(mc.replications), str(mc.seed), _fmt(mc.mse), _fmt(mc.stderr),
                  _fmt(res.delta), _fmt(z), _fmt(mc.mse_exact)]),
    ]
    _write(out_dir / "mc.csv", rows)
    return EXIT_OK


def cmd_minimax(cfg: RunConfig, out_dir: Path) -> int:
    cls, opt, theta = build_class(cfg)
    pattern = build_pattern(cfg)
    functional = build_functional(cfg)
    # a class whose residuals cannot be fitted is refused before the search
    check_residual_support(cls, cls.family.build(cls.family.center))
    result = maximize_delta(cls, pattern, functional, opt, K=cfg.truncation, theta=theta)
    saddle = verify_saddle_point(result)
    # every check runs before the first artifact: a refused run writes none
    residuals = characterization_residuals(result).entries

    digest = config_hash(cfg)
    lines = _header(digest, seed=opt.seed)
    lines += [
        f"class = {cls.kind}" + (f" x {cls.g_kind}" if cls.g_kind else ""),
        f"family = {cls.family.label}",
        f"delta_star = {_fmt(result.delta_star)}",
        f"fw_gap = {_fmt(result.fw_gap)}",
        f"delta_upper = {_fmt(result.delta_upper)}",
        f"stopped = {result.stopped}",
        "theta_star = " + " ".join(_fmt(t) for t in result.theta_star),
        f"boundary = {_fmt(result.boundary)}",
        f"evaluations = {len(result.evaluations)}",
        f"saddle_all_pass = {_fmt(saddle.all_pass)}",
        f"saddle_max_violation = {_fmt(saddle.max_violation)}",
        "",
        "# evaluation trace",
    ]
    for i, ev in enumerate(result.evaluations):
        theta = " ".join(_fmt(t) for t in ev.theta)
        lines.append(f"eval {i}: theta = [{theta}]  delta = {_fmt(ev.delta)}")
    _write(out_dir / "lfd.summary", lines)

    rrows = _header(digest) + ["name,structure,residual,scale,relative,params"]
    for e in residuals:
        params = json.dumps(e.params, sort_keys=True, default=_fmt)
        rrows.append(",".join([
            e.name, e.structure, _fmt(e.residual), _fmt(e.scale),
            _fmt(e.relative), json.dumps(params)]))
    _write(out_dir / "residuals.csv", rrows)
    return EXIT_OK


_COMMANDS = {
    "estimate": cmd_estimate,
    "oracle-check": cmd_oracle_check,
    "simulate": cmd_simulate,
    "minimax": cmd_minimax,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gapcast",
        description="Optimal and minimax-robust linear extrapolation for "
                    "vector stationary sequences with noisy, gappy observations.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the YAML run file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the simulation / search seed (simulate and "
                             "minimax only)")
    parser.add_argument("--grid", type=int, default=None,
                        help="override numerics.grid_size")
    parser.add_argument("--truncation", type=int, default=None,
                        help="override numerics.truncation")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.grid is not None:
            cfg.numerics["grid_size"] = args.grid
        if args.truncation is not None:
            cfg.numerics["truncation"] = args.truncation
        if args.seed is not None:
            if args.command == "simulate":
                cfg.simulation["seed"] = args.seed
            elif args.command == "minimax":
                opt = cfg.minimax.get("opt")
                if opt is None:   # a null section is no section, as the schema reads it
                    opt = cfg.minimax["opt"] = {}
                if not isinstance(opt, dict):
                    raise ConfigError("expected a mapping", location="minimax.opt")
                opt["seed"] = args.seed
            else:
                raise ConfigError(f"{args.command} draws nothing at random; only simulate "
                                  "and minimax read a seed", location="--seed")
        out_dir = Path(args.out if args.out is not None else cfg.out_dir)
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedClassError as exc:
        print(f"unsupported class: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except GapcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Four subcommands share one config-file format: ``estimate`` runs the spectral
pipeline and writes the error with diagnostics and filter tables;
``oracle-check`` compares it against the finite-window projection solution
over a schedule of windows; ``simulate`` samples the filter's error from its
exact time-domain law; ``minimax`` searches an admissible class for its least
favorable member and writes its saddle verdict and characterization residuals.

Outputs are plain text and CSV, deterministic byte for byte for a given
config, seed and BLAS thread count (threaded BLAS sums in another order), and
each file records the config hash it came from. Floats are written as
``%.17g`` (inside JSON as Python's shortest repr), so each reads back as the
same double, and every line ends in ``\n`` on every platform. ``estimate``'s
two tables are formatted by one vectorized kernel that writes Python's own
``'%.17g' %`` text, byte for byte.
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


# ``'%.17g' %`` for a whole table at once. Each number's 17 significant digits
# are an integer n in [10^16, 10^17) with |x| ~ n 10^(k-16): |x| is multiplied
# by 10^(16-k) in double-double arithmetic (Dekker's two-product, error below
# 2^-46) and rounded to the nearest integer. A number whose digits this cannot
# certify -- not finite, outside [1e-280, 1e280], within 2^-20 of a rounding
# tie, with k = floor(log10|x|) one too small or, after one retry at k - 1,
# too large, or rounding up to 10^17 -- is written by Python instead.
_BLOCK_ROWS = 1024          # rows per pass: keeps every temporary small
_K_MIN, _K_MAX = -280, 280  # decimal exponents certified: no product overflows or underflows
_SPLIT = 134217729.0        # 2^27 + 1, Dekker's splitting constant


@functools.cache
def _powers_of_ten():
    """10^(16-k) for k in [_K_MIN, _K_MAX] as hi + lo, and hi split in halves.

    Both parts are rounded from exact integer arithmetic, so hi + lo is
    10^(16-k) within a relative 2^-106.
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
        h = num / den
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))   # num / den - h
    hi = np.array(hi)
    t = _SPLIT * hi
    upper = t - (t - hi)
    return hi, upper, hi - upper, np.array(lo)


def _as_u32(chars) -> np.ndarray:
    """Rows of four bytes as one uint32 each, in the machine's byte order."""
    return np.frombuffer(np.asarray(chars, dtype=np.uint8).tobytes(), dtype=np.uint32)


@functools.cache
def _exponents():
    """Per k in [_K_MIN, _K_MAX]: the sign and three digits after the ``e``, as one uint32."""
    k = np.arange(_K_MIN, _K_MAX + 1)
    a = abs(k)
    return _as_u32(np.column_stack([np.where(k < 0, ord("-"), ord("+")),
                                    np.where(a >= 100, a // 100 + ord("0"), 0),
                                    a // 10 % 10 + ord("0"), a % 10 + ord("0")]).ravel())


@functools.cache
def _quads():
    """Per integer below 10^4: its four digits as one uint32, and its trailing zeros."""
    q = np.arange(10000)[:, None]
    return (_as_u32((q // np.array([1000, 100, 10, 1]) % 10 + ord("0")).ravel()),
            (q % np.array([10, 100, 1000, 10000]) == 0).sum(axis=1))


# a number's text is gathered from 32 bytes: NUL, sign, dot, 'e', the exponent's
# sign and three digits (the first NUL below 100), 4 spare, then "000" and n's
# 17 digits
_SIGN, _DOT, _EXP, _ZERO, _DIGIT = 1, 2, 3, 12, 15
_HEADS = _as_u32([[0, sign, dot, ord("e")] for sign in (0, ord("-")) for dot in (0, ord("."))])
# per keep in 0..17: a mask of "000" and the 17 digits that turns digit keep and later into NUL
_KEEP = _as_u32([[255 * (j < 3 + keep) for j in range(20)] for keep in range(18)]).reshape(18, 5)


def _layouts() -> np.ndarray:
    """Byte indices of the text, per layout: fixed for k = -4..16, then exponent.

    As ``%g``: fixed notation for -4 <= k < 17, else ``d.ddde+XX``.
    """
    digits = list(range(_DIGIT, _DIGIT + 17))
    rows = [[_SIGN, _ZERO, _DOT] + [_ZERO] * (-k - 1) + digits for k in range(-4, 0)]
    rows += [[_SIGN] + digits[:k + 1] + [_DOT] + digits[k + 1:] for k in range(17)]
    rows.append([_SIGN, digits[0], _DOT] + digits[1:] + list(range(_EXP, _EXP + 5)))
    width = max(map(len, rows)) + 1   # the last byte is the separator
    return np.array([row + [0] * (width - len(row)) for row in rows])


_LAYOUTS = _layouts()


def _scaled(ax: np.ndarray, k: np.ndarray):
    """ax 10^(16-k) as hi + lo: Dekker's exact product ax b, plus ax b_lo."""
    b, b_upper, b_lower, b_lo = (np.take(table, k - _K_MIN) for table in _powers_of_ten())
    t = _SPLIT * ax
    a_upper = t - (t - ax)
    a_lower = ax - a_upper
    p = ax * b
    q = ((((a_upper * b_upper - p) + a_upper * b_lower) + a_lower * b_upper)
         + a_lower * b_lower) + ax * b_lo
    hi = p + q
    return hi, q - (hi - p)


def _significand(x: np.ndarray):
    """17 digits n and exponent k with |x| = n 10^(k-16) after rounding, and the
    mask of the numbers whose n and k are certified (zeros: n = k = 0)."""
    ax = np.abs(x)
    ok = (ax >= 1e-280) & (ax <= 1e280)
    ax = np.where(ok, ax, 1.0)
    k = np.clip(np.floor(np.log10(ax)), _K_MIN, _K_MAX).astype(np.int64)
    hi, lo = _scaled(ax, k)
    # log10 rounds a number just below a power of ten up to it, and k comes out
    # one too large: those are scaled again at k - 1
    high = np.flatnonzero((hi < 1e16) | ((hi == 1e16) & (lo < 0)))
    if high.size:
        k[high] = np.maximum(k[high] - 1, _K_MIN)
        hi[high], lo[high] = _scaled(ax[high], k[high])
    # hi >= 10^16 > 2^53 is an even integer: rounding lo rounds hi + lo, ties to even
    r = np.rint(lo)
    n = hi.astype(np.int64) + r.astype(np.int64)
    ok &= (hi > 1e16) | ((hi == 1e16) & (lo >= 0))   # else k is still too large
    ok &= n < 10 ** 17                  # else k is one too small, or n rounded up to 10^17
    ok &= np.abs(np.abs(lo - r) - 0.5) > 2.0 ** -20   # else too near a tie
    zero = x == 0
    n[zero] = 0
    k[zero] = 0
    return n, k, ok | zero


def _text(x: np.ndarray, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of n 10^(k-16) with the sign of x: one NUL-padded row each."""
    m = len(x)
    groups = np.empty((m, 5), dtype=np.uint32)
    upper, lower = np.divmod(n, 10 ** 8)
    groups[:, 0], rest = np.divmod(upper.astype(np.uint32), 10 ** 8)
    groups[:, 1], groups[:, 2] = np.divmod(rest, 10 ** 4)
    groups[:, 3], groups[:, 4] = np.divmod(lower.astype(np.uint32), 10 ** 4)
    quads, trailing_zeros = _quads()
    zeros = np.take(trailing_zeros, groups)
    trailing = zeros[:, 0]
    for j in range(1, 5):
        trailing = trailing * (groups[:, j] == 0) + zeros[:, j]
    significant = 17 - trailing   # below 1 for n = 0
    expo = (k < -4) | (k > 16)
    integer = np.where(expo | (k < 0), 1, k + 1)   # digits before the dot
    dot = (significant > integer) | (~expo & (k < 0))
    pool = np.empty((m, 8), dtype=np.uint32)
    pool[:, 0] = _HEADS[2 * np.signbit(x) + dot]
    pool[:, 1] = np.take(_exponents(), k - _K_MIN)
    pool[:, 3:] = np.take(quads, groups)
    pool[:, 3:] &= np.take(_KEEP, np.maximum(significant, integer), axis=0)
    index = np.take(_LAYOUTS, np.where(expo, len(_LAYOUTS) - 1, k + 4), axis=0)
    index += np.arange(0, 32 * m, 32)[:, None]
    return np.take(pool.view(np.uint8), index)


def _format_rows(table: np.ndarray) -> bytes:
    """CSV lines of a 2-D float table, each number as ``'%.17g' %`` writes it."""
    rows, cols = table.shape
    sep = np.full(cols, ord(","), dtype=np.uint8)
    sep[-1] = ord("\n")
    out = []
    for start in range(0, rows, _BLOCK_ROWS):
        x = table[start:start + _BLOCK_ROWS].ravel()
        n, k, ok = _significand(x)
        text = _text(x, n, k)
        for i in np.flatnonzero(~ok):
            text[i] = 0
            s = "%.17g" % float(x[i])
            text[i, :len(s)] = np.frombuffer(s.encode(), dtype=np.uint8)
        text[:, -1] = np.tile(sep, len(x) // cols)
        out.append(text.tobytes().translate(None, b"\0"))
    return b"".join(out)


def _complex_table(key_name: str, prefix: str, keys, values, dim: int) -> tuple[str, bytes]:
    """A CSV header line, then the rows: per key the key and its ``dim`` complex values.

    Column t of a row is written as ``<prefix>t_re,<prefix>t_im``; every
    number, the key included, reads as ``'%.17g' %`` writes it.
    """
    header = [key_name] + [f"{prefix}{t}_{part}" for t in range(1, dim + 1)
                           for part in ("re", "im")]
    table = np.empty((len(keys), 1 + 2 * dim))
    table[:, 0] = keys
    table[:, 1:] = np.asarray(values, dtype=complex).reshape(len(keys), dim).view(float)
    return ",".join(header), _format_rows(table)


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
    head, body = _complex_table("lambda", "h", res.lam, res.h_grid, model.dim)
    _write(out_dir / "h_grid.csv", _header(digest) + [head], body)
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

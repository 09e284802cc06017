"""Run configuration: structured text files driving the command-line tools.

A run file is YAML with top-level sections ``model``, ``pattern``,
``functional`` and, as needed, ``numerics``, ``simulation``, ``oracle_check``,
``minimax``, ``output``.  Parsing is strict: unknown sections or malformed
entries fail with a message anchored at the offending key, and a parsed
configuration serializes back to an equivalent document (this round trip
backs the reproducibility hash embedded in every output file).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, GapcastError, InvalidParameterError
from .extrapolate import FunctionalSpec
from .minimax import (
    ClassData,
    DensityClass,
    OptConfig,
    ar1_fixed_power_family,
    contamination_family,
    scalar_mixture_family,
    singleton_family,
)
from .operators import MissingPattern
from .oracle import SimulationConfig
from .spectral import (
    SpectralModel,
    ar1_model,
    check_grid_size,
    density_from_samples,
    grid_points,
    laurent_density,
    laurent_entry,
    ma_pair_model,
    make_ar1_pair,
    white_model,
)

_SECTIONS = ("model", "pattern", "functional", "numerics", "simulation",
             "oracle_check", "minimax", "output")
_NUMERICS = ("grid_size", "truncation")
_MINIMAX = ("kind", "g_kind", "data", "family", "opt", "theta", "saddle_samples",
            "saddle_seed", "saddle_tol", "skip_residuals")
# keys of the model section besides ``kind``, per model kind
_MODEL_KEYS = {
    "example1": ("b1", "b2"),
    "white": ("dim", "scale"),
    "ar1": ("poles", "scales", "mix", "noise"),
    "ma_pair": ("signal_coeffs", "noise_coeffs", "innovation_cov"),
    "laurent": ("dim", "entries", "pole_modulus"),
    "grid_file": ("path", "pole_modulus"),
}
_LAURENT_ENTRY = ("row", "col", "num_offset", "num_coeffs", "den_offset", "den_coeffs")


def _real(value) -> float:
    """``value`` as a float; a boolean or a string is refused."""
    if isinstance(value, (bool, str)):
        raise TypeError(value)
    return float(value)


def _float_array(value):
    """``value`` as a float, or an array of floats each read by ``_real``."""
    entries = np.asarray(value, dtype=object)
    arr = np.array([_real(v) for v in entries.flat]).reshape(entries.shape)
    return float(arr) if arr.ndim == 0 else arr


def _integer(value) -> int:
    """``value`` as an int; a boolean, a string or a fractional number is refused."""
    if isinstance(value, (bool, str)) or not float(value).is_integer():
        raise ValueError(value)
    return value if isinstance(value, int) else int(float(value))


def _boolean(value) -> bool:
    """``value`` if it is a YAML boolean (true/false); anything else is refused."""
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


_EXPECTED = {_integer: "an integer", _boolean: "a boolean (true or false)"}


def _cast(value, kind, where: str):
    """``kind(value)`` (_integer, _boolean, _real or _float_array); a ConfigError at ``where``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        expected = _EXPECTED.get(kind, "a numeric value")
        raise ConfigError(f"expected {expected}, got {value!r}", location=where) from exc


def _reject_unknown(section: dict, known, where: str):
    unknown = sorted(set(section) - set(known), key=str)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown}", location=where)


@dataclass
class RunConfig:
    """Validated run file: raw sections plus convenience accessors."""

    model: dict
    pattern: dict
    functional: dict
    numerics: dict = dc_field(default_factory=dict)
    simulation: dict = dc_field(default_factory=dict)
    oracle_check: dict = dc_field(default_factory=dict)
    minimax: dict = dc_field(default_factory=dict)
    output: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {}
        for name in _SECTIONS:
            section = getattr(self, name)
            if section:
                out[name] = section
        return out

    @property
    def grid_size(self) -> int:
        n = _cast(self.numerics.get("grid_size", 4096), _integer, "numerics.grid_size")
        try:
            return check_grid_size(n)
        except InvalidParameterError as exc:
            raise ConfigError(str(exc), location="numerics.grid_size") from exc

    @property
    def truncation(self) -> int | None:
        K = self.numerics.get("truncation")
        return None if K is None else _cast(K, _integer, "numerics.truncation")

    @property
    def out_dir(self) -> str:
        return str(self.output.get("directory", "."))


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r}", location=where)
    return section[key]


def _expect_map(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError("expected a mapping", location=where)
    return value


def loads_config(text: str) -> RunConfig:
    try:
        doc = yaml.safe_load(text)
    except Exception as exc:
        # besides YAMLError, the constructors raise their own errors on scalars
        # that match a tag but not its range or form (ValueError for the
        # timestamp 2001-13-01, IndexError for "!!int -", KeyError, ...)
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if doc is None:
        raise ConfigError("empty configuration")
    doc = _expect_map(doc, "top level")
    _reject_unknown(doc, _SECTIONS, "top level")
    for name in ("model", "pattern", "functional"):
        if name not in doc:
            raise ConfigError(f"missing required section {name!r}", location="top level")
    kwargs = {name: _expect_map(doc.get(name, {}) or {}, name) for name in _SECTIONS}
    _reject_unknown(kwargs["numerics"], _NUMERICS, "numerics")
    _reject_unknown(kwargs["output"], ("directory",), "output")
    cfg = RunConfig(**kwargs)
    # Fail fast on structural problems; builders re-raise with locations.
    build_pattern(cfg)
    build_functional(cfg)
    cfg.grid_size, cfg.truncation   # the properties refuse malformed numbers and grids
    return cfg


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", location=str(path)) from exc
    return loads_config(text)


def dumps_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True, default_flow_style=None)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(dumps_config(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Section builders
# ---------------------------------------------------------------------------


def build_model(cfg: RunConfig) -> SpectralModel:
    sec = cfg.model
    kind = _require(sec, "kind", "model")
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise ConfigError(f"unknown model kind {kind!r}", location="model.kind")
    _reject_unknown(sec, ("kind",) + _MODEL_KEYS[kind], "model")
    n = cfg.grid_size
    try:
        if kind == "example1":
            return make_ar1_pair(_cast(_require(sec, "b1", "model"), _real, "model.b1"),
                                 _cast(_require(sec, "b2", "model"), _real, "model.b2"),
                                 grid_size=n)
        if kind == "white":
            return white_model(_cast(sec.get("dim", 1), _integer, "model.dim"),
                               scale=sec.get("scale", 1.0), grid_size=n)
        if kind == "ar1":
            noise = _expect_map(sec.get("noise", {}) or {}, "model.noise")
            _reject_unknown(noise, ("poles", "scales", "mix"), "model.noise")
            return ar1_model(
                poles=_require(sec, "poles", "model"),
                scales=sec.get("scales"), mix=sec.get("mix"),
                noise_poles=noise.get("poles"), noise_scales=noise.get("scales"),
                noise_mix=noise.get("mix"), grid_size=n)
        if kind == "ma_pair":
            return ma_pair_model(
                signal_coeffs=[np.asarray(c, dtype=float)
                               for c in _require(sec, "signal_coeffs", "model")],
                noise_coeffs=None if sec.get("noise_coeffs") is None else
                [np.asarray(c, dtype=float) for c in sec["noise_coeffs"]],
                innovation_cov=None if sec.get("innovation_cov") is None else
                np.asarray(sec["innovation_cov"], dtype=float), grid_size=n)
        if kind == "laurent":
            dim = _cast(_require(sec, "dim", "model"), _integer, "model.dim")
            entries = {}
            for i, ent in enumerate(_require(sec, "entries", "model")):
                where = f"model.entries[{i}]"
                ent = _expect_map(ent, where)
                _reject_unknown(ent, _LAURENT_ENTRY, where)
                r, c = (_cast(_require(ent, key, where), _integer, f"{where}.{key}")
                        for key in ("row", "col"))
                num_offset, den_offset = (_cast(ent.get(key, 0), _integer, f"{where}.{key}")
                                          for key in ("num_offset", "den_offset"))
                entries[(r, c)] = laurent_entry(
                    num_offset, ent.get("num_coeffs", (1.0,)),
                    den_offset, ent.get("den_coeffs", (1.0,)))
            F = laurent_density(dim, entries)
            return SpectralModel(dim=dim, F=F, grid_size=n,
                                 pole_modulus=sec.get("pole_modulus"))
        if kind == "grid_file":
            path = Path(_require(sec, "path", "model"))
            try:
                data = np.load(path)
            except OSError as exc:
                raise ConfigError(f"cannot read grid file: {exc}",
                                  location="model.path") from exc
            lam = np.asarray(data["lam"])
            if len(lam) != n or not np.allclose(lam, grid_points(n)):
                raise ConfigError(
                    f"grid file nodes do not match grid_size {n}",
                    location="model.path")
            F = density_from_samples(data["F"])
            d = np.asarray(data["F"]).shape[-1]
            G = density_from_samples(data["G"]) if "G" in data else None
            Fxe = density_from_samples(data["Fxe"]) if "Fxe" in data else None
            return SpectralModel(dim=d, F=F, G=G, F_xe=Fxe, grid_size=n,
                                 pole_modulus=sec.get("pole_modulus"))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc), location="model") from exc


def build_pattern(cfg: RunConfig) -> MissingPattern:
    sec = cfg.pattern
    _reject_unknown(sec, ("intervals",), "pattern")
    intervals = sec.get("intervals", [])
    if intervals is None:
        intervals = []
    try:
        pairs = [(m, k) for m, k in intervals]
    except (TypeError, ValueError) as exc:
        raise ConfigError("intervals must be pairs [offset, extra_length]",
                          location="pattern.intervals") from exc
    parsed = tuple((_cast(m, _integer, f"pattern.intervals[{i}]"),
                    _cast(k, _integer, f"pattern.intervals[{i}]"))
                   for i, (m, k) in enumerate(pairs))
    try:
        return MissingPattern(intervals=parsed)
    except Exception as exc:
        raise ConfigError(str(exc), location="pattern.intervals") from exc


def build_functional(cfg: RunConfig) -> FunctionalSpec:
    sec = cfg.functional
    _reject_unknown(sec, ("coeffs",), "functional")
    coeffs = _require(sec, "coeffs", "functional")
    try:
        return FunctionalSpec(coeffs=np.atleast_2d(np.asarray(coeffs, dtype=complex)))
    except Exception as exc:
        raise ConfigError(str(exc), location="functional.coeffs") from exc


def _from_section(cls, sec: dict, where: str):
    """Dataclass ``cls`` built from the keys of ``sec`` that name its fields.

    An absent or null key keeps the field's default; a value is read as a float
    where that default is a float and as an integer otherwise.  A key that names
    no field is an error.
    """
    _reject_unknown(sec, [f.name for f in fields(cls)], where)
    kwargs = {}
    for f in fields(cls):
        value = sec.get(f.name)
        if value is not None:
            kind = _real if isinstance(f.default, float) else _integer
            kwargs[f.name] = _cast(value, kind, f"{where}.{f.name}")
    try:
        return cls(**kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), location=where) from exc


def build_simulation(cfg: RunConfig) -> SimulationConfig:
    return _from_section(SimulationConfig, cfg.simulation, "simulation")


def build_oracle_check(cfg: RunConfig) -> tuple[list[int], float]:
    """The oracle_check section: the window ladder and the relative tolerance."""
    sec = cfg.oracle_check
    _reject_unknown(sec, ("windows", "tolerance"), "oracle_check")
    windows = sec.get("windows")
    if windows is None:
        windows = [25, 50, 100, 200]
    if not isinstance(windows, list) or not windows:
        raise ConfigError("expected a non-empty list of window lengths",
                          location="oracle_check.windows")
    windows = [_cast(w, _integer, f"oracle_check.windows[{i}]") for i, w in enumerate(windows)]
    if min(windows) < 1:
        raise ConfigError("window lengths must be >= 1", location="oracle_check.windows")
    return windows, _cast(sec.get("tolerance", 1e-4), _real, "oracle_check.tolerance")


_FAMILY_BUILDERS = {
    "mixture": scalar_mixture_family,
    "ar1_fixed_power": ar1_fixed_power_family,
    "contamination": contamination_family,
}


def build_class(cfg: RunConfig) -> tuple[DensityClass, OptConfig, dict]:
    """The minimax section: admissible class, optimizer settings, extras."""
    sec = cfg.minimax
    if not sec:
        raise ConfigError("missing required section 'minimax'", location="top level")
    _reject_unknown(sec, _MINIMAX, "minimax")
    kind = _require(sec, "kind", "minimax")
    data_map = _expect_map(sec.get("data", {}) or {}, "minimax.data")
    bad = sorted(set(data_map) - {f.name for f in fields(ClassData)})
    if bad:
        raise ConfigError(f"unknown constraint field(s) {bad}", location="minimax.data")
    data = ClassData(**{key: _cast(value, _float_array, f"minimax.data.{key}")
                        for key, value in data_map.items() if value is not None})

    fam_sec = _expect_map(_require(sec, "family", "minimax"), "minimax.family")
    _reject_unknown(fam_sec, ("kind", "params"), "minimax.family")
    fam_kind = _require(fam_sec, "kind", "minimax.family")
    if fam_kind == "singleton":
        fam = singleton_family(build_model(cfg))
    elif isinstance(fam_kind, str) and fam_kind in _FAMILY_BUILDERS:
        params = _expect_map(fam_sec.get("params", {}) or {}, "minimax.family.params")
        grid_size = cfg.grid_size   # a bad grid is an error at numerics.grid_size
        try:
            fam = _FAMILY_BUILDERS[fam_kind](**params, grid_size=grid_size)
        except (TypeError, ValueError, GapcastError) as exc:
            raise ConfigError(str(exc), location="minimax.family.params") from exc
    else:
        raise ConfigError(f"unknown family kind {fam_kind!r}",
                          location="minimax.family.kind")

    try:
        cls = DensityClass(kind=kind, g_kind=sec.get("g_kind"), data=data, family=fam)
    except Exception as exc:
        raise ConfigError(str(exc), location="minimax") from exc

    opt = _from_section(OptConfig, _expect_map(sec.get("opt", {}) or {}, "minimax.opt"),
                        "minimax.opt")

    theta = sec.get("theta")
    if theta is not None:
        theta = np.atleast_1d(_cast(theta, _float_array, "minimax.theta"))
        if theta.shape != (fam.dim,):
            raise ConfigError(f"expected {fam.dim} value(s), one per family parameter",
                              location="minimax.theta")
    extras = {
        "saddle_samples": _cast(sec.get("saddle_samples", 100), _integer,
                                "minimax.saddle_samples"),
        "saddle_seed": _cast(sec.get("saddle_seed", 1), _integer, "minimax.saddle_seed"),
        "saddle_tol": _cast(sec.get("saddle_tol", 1e-6), _real, "minimax.saddle_tol"),
        "theta": theta,
        "skip_residuals": _cast(sec.get("skip_residuals", False), _boolean,
                                "minimax.skip_residuals"),
    }
    for key, least in (("saddle_samples", 1), ("saddle_seed", 0)):
        if extras[key] < least:
            raise ConfigError(f"expected an integer >= {least}, got {extras[key]}",
                              location=f"minimax.{key}")
    if not (math.isfinite(extras["saddle_tol"]) and extras["saddle_tol"] >= 0):
        raise ConfigError(f"expected a finite number >= 0, got {extras['saddle_tol']}",
                          location="minimax.saddle_tol")
    return cls, opt, extras

"""Run configuration: structured text files driving the command-line tools.

A run file is YAML with top-level sections ``model``, ``pattern``,
``functional`` and, as needed, ``numerics``, ``simulation``, ``oracle_check``,
``minimax``, ``output``.  Parsing is strict: every key is read by one schema
(``_SCHEMA``, ``_MODELS``, ``_FAMILIES``), so an unknown section or key or a
malformed value fails with a message anchored at the offending key.  The raw
sections are kept as written, and a parsed configuration serializes back to an
equivalent document (this round trip backs the reproducibility hash embedded in
every output file).
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np
import yaml

from .errors import (
    ConfigError,
    DataShapeError,
    GapcastError,
    InvalidParameterError,
    SingularDensityError,
)
from .extrapolate import FunctionalSpec
from .families import (
    ar1_fixed_power_family,
    contamination_family,
    scalar_mixture_family,
    singleton_family,
)
from .minimax import ClassData, DensityClass, OptConfig
from .operators import MissingPattern
from .oracle import SimulationConfig
from .spectral import (
    SpectralModel,
    ar1_model,
    check_grid_size,
    grid_points,
    laurent_density,
    laurent_entry,
    ma_pair_model,
    make_ar1_pair,
    white_model,
)

_SECTIONS = ("model", "pattern", "functional", "numerics", "simulation",
             "oracle_check", "minimax", "output")

# libyaml's parser and emitter where PyYAML has them: the resolver,
# constructors and representers of SafeLoader/SafeDumper, several times faster
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


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


def _interval(value) -> tuple[int, int]:
    """A gap ``[offset, extra_length]`` as a pair of integers, read as one value."""
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError(value)
    return _integer(value[0]), _integer(value[1])


_EXPECTED = {_integer: "an integer", _interval: "a pair [offset, extra_length] of integers"}


def _fields(cls) -> dict:
    """The table of dataclass ``cls``: a float where the default is one, else an integer."""
    return {f.name: _real if isinstance(f.default, float) else _integer for f in fields(cls)}


# The schema: one table per section, per model kind and per family kind.  A
# table maps each key to its reader (_integer, _real, _float_array or str), to
# the table of a nested section, or to a one-entry list ``[entry]``
# for a list whose items are each read by ``entry``.
_AR1 = {"poles": _float_array, "scales": _float_array, "mix": _float_array}
_MODELS = {   # the keys of the model section besides ``kind``
    "example1": {"b1": _real, "b2": _real},
    "white": {"scale": _float_array},
    "ar1": {**_AR1, "noise": _AR1},
    "ma_pair": {"signal_coeffs": _float_array, "noise_coeffs": _float_array,
                "innovation_cov": _float_array},
    "laurent": {"pole_modulus": _real, "entries": [{
        "row": _integer, "col": _integer, "num_offset": _integer,
        "num_coeffs": _float_array, "den_offset": _integer, "den_coeffs": _float_array}]},
    "grid_file": {"path": str, "pole_modulus": _real},
}
_FAMILIES = {   # each family kind's builder and the table of its params
    "singleton": (singleton_family, {}),
    "mixture": (scalar_mixture_family, {"power": _real, "w_max": _real, "b_max": _real,
                                        "noise_power": _real}),
    "ar1_fixed_power": (ar1_fixed_power_family, {"power": _real, "b_max": _real}),
    "contamination": (contamination_family, {"anchor_power": _real, "anchor_pole": _real,
                                             "eps": _real, "power": _real, "b_max": _real}),
}
_SCHEMA = {   # every section but model; minimax.family is read by its kind
    "pattern": {"intervals": [_interval]},
    "functional": {"coeffs": _float_array},
    "numerics": {"grid_size": _integer, "truncation": _integer},
    "simulation": _fields(SimulationConfig),
    "oracle_check": {"windows": [_integer], "tolerance": _real},
    "minimax": {"kind": str, "g_kind": str,
                "data": {**{f.name: _float_array for f in fields(ClassData)}, "eps": _real},
                "opt": _fields(OptConfig), "theta": _float_array},
    "output": {"directory": str},
}


def _reject_unknown(section: dict, known, where: str):
    unknown = sorted(set(section) - set(known), key=str)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown}", location=where)


def _read(section, table: dict, where: str) -> dict:
    """The non-null keys of mapping ``section``, each read as ``table`` says.

    A key the table does not name is an error at ``where``; a value that its
    reader refuses is an error at ``where.key`` (``where.key[i]`` in a list).
    """
    _reject_unknown(_expect_map(section, where), table, where)
    return {key: _value(value, table[key], f"{where}.{key}")
            for key, value in section.items() if value is not None}


def _value(value, kind, where: str):
    """``value`` read by the table entry ``kind``; a ConfigError at ``where``."""
    if isinstance(kind, dict):
        return _read(value, kind, where)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"expected a list, got {value!r}", location=where)
        return [_value(item, kind[0], f"{where}[{i}]") for i, item in enumerate(value)]
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        expected = _EXPECTED.get(kind, "a numeric value")
        raise ConfigError(f"expected {expected}, got {value!r}", location=where) from exc


@contextmanager
def _at(where: str, errors=Exception):
    """Re-raise ``errors`` from the block as a ConfigError at ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except errors as exc:
        raise ConfigError(str(exc), location=where) from exc


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

    def _section(self, name: str) -> dict:
        """Section ``name`` read by its schema table."""
        return _read(getattr(self, name), _SCHEMA[name], name)

    @property
    def grid_size(self) -> int:
        n = self._section("numerics").get("grid_size", 4096)
        with _at("numerics.grid_size", InvalidParameterError):
            return check_grid_size(n)

    @property
    def truncation(self) -> int | None:
        """The operator order K; one below the functional's horizon is refused."""
        K = self._section("numerics").get("truncation")
        if K is not None and K < (horizon := build_functional(self).horizon):
            raise ConfigError(f"expected an integer >= {horizon} (the functional's "
                              f"horizon), got {K}", location="numerics.truncation")
        return K

    @property
    def out_dir(self) -> str:
        return self._section("output").get("directory", ".")


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
        doc = yaml.load(text, Loader=_LOADER)
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
    cfg = RunConfig(**{name: _expect_map(doc.get(name, {}) or {}, name)
                       for name in _SECTIONS})
    # Fail fast on structural problems; builders re-raise with locations.
    build_pattern(cfg)
    build_functional(cfg)
    cfg.grid_size, cfg.truncation, cfg.out_dir   # the accessors read their sections too
    _model_section(cfg)   # every command reads the model section, minimax included
    return cfg


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", location=str(path)) from exc
    return loads_config(text)


def dumps_config(cfg: RunConfig) -> str:
    return yaml.dump(cfg.to_dict(), Dumper=_DUMPER, sort_keys=True, default_flow_style=None)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(dumps_config(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Section builders
# ---------------------------------------------------------------------------


def _model_section(cfg: RunConfig) -> tuple[str, dict]:
    """The model kind and the model section read by that kind's table."""
    kind = _require(cfg.model, "kind", "model")
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ConfigError(f"unknown model kind {kind!r}", location="model.kind")
    return kind, _read(cfg.model, {"kind": str, **_MODELS[kind]}, "model")


def build_model(cfg: RunConfig) -> SpectralModel:
    """The model section.  ``white``, ``laurent`` and ``grid_file`` take their
    dimension T from ``functional.coeffs``; the other kinds' must equal its width.
    """
    kind, sec = _model_section(cfg)
    n, T = cfg.grid_size, build_functional(cfg).dim
    with _at("model"):
        if kind == "example1":
            model = make_ar1_pair(_require(sec, "b1", "model"), _require(sec, "b2", "model"),
                                  grid_size=n)
        elif kind == "white":
            model = white_model(T, scale=sec.get("scale", 1.0), grid_size=n)
        elif kind == "ar1":
            noise = sec.get("noise", {})
            model = ar1_model(
                poles=_require(sec, "poles", "model"),
                scales=sec.get("scales"), mix=sec.get("mix"),
                noise_poles=noise.get("poles"), noise_scales=noise.get("scales"),
                noise_mix=noise.get("mix"), grid_size=n)
        elif kind == "ma_pair":
            model = ma_pair_model(
                signal_coeffs=_require(sec, "signal_coeffs", "model"),
                noise_coeffs=sec.get("noise_coeffs"),
                innovation_cov=sec.get("innovation_cov"), grid_size=n)
        elif kind == "laurent":
            entries = {}
            for i, ent in enumerate(_require(sec, "entries", "model")):
                r, c = (_require(ent, key, f"model.entries[{i}]") for key in ("row", "col"))
                entries[(r, c)] = laurent_entry(
                    ent.get("num_offset", 0), ent.get("num_coeffs", (1.0,)),
                    ent.get("den_offset", 0), ent.get("den_coeffs", (1.0,)))
            model = SpectralModel(dim=T, F=laurent_density(T, entries), grid_size=n,
                                  pole_modulus=sec.get("pole_modulus"))
        else:   # grid_file: the densities are density data of the functional's dimension
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
            model = SpectralModel(dim=T, F=data["F"], G=data.get("G"),
                                  F_xe=data.get("Fxe"), grid_size=n,
                                  pole_modulus=sec.get("pole_modulus"))
    if model.dim != T:
        raise ConfigError(f"expected {model.dim} column(s), one per model component, "
                          f"got {T}", location="functional.coeffs")
    return model


def build_pattern(cfg: RunConfig) -> MissingPattern:
    intervals = cfg._section("pattern").get("intervals", ())
    with _at("pattern.intervals"):
        return MissingPattern(intervals=tuple(intervals))


def build_functional(cfg: RunConfig) -> FunctionalSpec:
    coeffs = _require(cfg._section("functional"), "coeffs", "functional")
    with _at("functional.coeffs"):
        return FunctionalSpec(coeffs=np.atleast_2d(np.asarray(coeffs, dtype=float)))


def build_simulation(cfg: RunConfig) -> SimulationConfig:
    with _at("simulation", InvalidParameterError):
        return SimulationConfig(**cfg._section("simulation"))


def build_oracle_check(cfg: RunConfig) -> tuple[list[int], float]:
    """The oracle_check section: the window ladder and the relative tolerance."""
    sec = cfg._section("oracle_check")
    windows = sec.get("windows", [25, 50, 100, 200])
    if not windows or min(windows) < 1:
        raise ConfigError("expected a non-empty list of window lengths, each >= 1",
                          location="oracle_check.windows")
    # the covariances of a window reach lag window + N, which a grid of n
    # nodes resolves up to n/4
    n = cfg.grid_size
    largest = n // 4 - build_functional(cfg).horizon
    if max(windows) > largest:
        raise ConfigError(f"window {max(windows)} is too long for numerics.grid_size {n}: "
                          f"the largest window allowed is {largest} (grid_size / 4 less the "
                          f"functional's horizon); shorten the windows or raise "
                          f"numerics.grid_size", location="oracle_check.windows")
    tol = sec.get("tolerance", 1e-4)
    # a NaN or negative tolerance fails every window, an infinite one passes them all
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"expected a finite number >= 0, got {tol}",
                          location="oracle_check.tolerance")
    return windows, tol


def build_class(cfg: RunConfig) -> tuple[DensityClass, OptConfig, np.ndarray | None]:
    """The minimax section: admissible class, optimizer settings, fixed ``theta``."""
    if not cfg.minimax:
        raise ConfigError("missing required section 'minimax'", location="top level")
    family = _expect_map(_require(cfg.minimax, "family", "minimax"), "minimax.family")
    fam_kind = _require(family, "kind", "minimax.family")
    if not isinstance(fam_kind, str) or fam_kind not in _FAMILIES:
        raise ConfigError(f"unknown family kind {fam_kind!r}",
                          location="minimax.family.kind")
    builder, params = _FAMILIES[fam_kind]
    sec = _read(cfg.minimax, {**_SCHEMA["minimax"],
                              "family": {"kind": str, "params": params}}, "minimax")
    kind = _require(sec, "kind", "minimax")
    T = build_functional(cfg).dim

    if fam_kind == "singleton":
        fam = builder(build_model(cfg))
    else:
        with _at("minimax.family.params", (TypeError, ValueError, GapcastError)):
            # a bad grid stays a ConfigError at numerics.grid_size
            fam = builder(**sec["family"].get("params", {}), grid_size=cfg.grid_size)
            width = fam.build(fam.center).dim
        if width != T:
            raise ConfigError(f"expected {width} column(s), one per component of the "
                              f"family's densities, got {T}", location="functional.coeffs")

    try:   # the class, and the constants the search and the saddle check read, once
        cls = DensityClass(kind=kind, g_kind=sec.get("g_kind"),
                           data=ClassData(**sec.get("data", {})), family=fam)
        cls.constants(cfg.grid_size, T)
    except DataShapeError as exc:
        raise ConfigError(exc.detail, location=f"minimax.{exc.key}") from exc
    except SingularDensityError as exc:   # non-finite density data
        raise ConfigError(str(exc), location=f"minimax.{exc.key}") from exc
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), location="minimax") from exc

    with _at("minimax.opt", InvalidParameterError):
        opt = OptConfig(**sec.get("opt", {}))

    theta = sec.get("theta")
    if theta is not None:
        with _at("minimax.theta", InvalidParameterError):
            theta = fam.point(theta)
    return cls, opt, theta

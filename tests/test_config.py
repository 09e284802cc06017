"""Robustness of the run-file parser and the section builders.

``loads_config`` either returns a configuration or raises ``ConfigError``
(exit code 2 at the command line); no input text may escape as another
exception.  The property is fuzzed over raw text and over YAML mappings
shaped like run files; inputs that once escaped are pinned as regressions.
The section builders (``build_model``, ``build_simulation``, ``build_class``)
are held to the same property over mapping-shaped sections.
"""

import copy
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import gapcast.config as config_module
from gapcast.cli import main
from gapcast.config import (
    _FAMILIES as FAMILY_TABLES,
    _MODELS as MODEL_TABLES,
    _SCHEMA as SCHEMA,
    _float_array,
    _integer,
    _interval,
    _real,
    build_class,
    build_functional,
    build_model,
    build_oracle_check,
    build_pattern,
    build_simulation,
    config_hash,
    loads_config,
)
from gapcast.errors import ConfigError
from gapcast.minimax import F_KINDS, ClassData, OptConfig
from gapcast.spectral import grid_points

import test_cli

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

VALID = """\
model: {kind: white}
pattern: {intervals: [[2, 1]]}
functional: {coeffs: [[1.0], [0.5]]}
"""


def _parses_or_config_error(text: str):
    try:
        loads_config(text)
    except ConfigError:
        pass


_KEYS = st.sampled_from(["model", "pattern", "functional", "numerics", "simulation",
                         "oracle_check", "minimax", "output", "kind", "dim",
                         "intervals", "coeffs", "truncated", "grid_size",
                         "truncation", "directory"]) | st.text(max_size=6)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=8))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12)
_NUMBERS = st.integers() | st.floats() | st.booleans() | st.text(max_size=4)
_INTERVALS = st.lists(st.tuples(st.integers(min_value=1), st.integers(min_value=0))
                      .map(list) | st.lists(_NUMBERS, max_size=3), max_size=3)
_RUN_FILES = st.fixed_dictionaries(
    {"model": st.dictionaries(_KEYS, _VALUES, max_size=3),
     "pattern": st.fixed_dictionaries({"intervals": _INTERVALS}),
     "functional": st.fixed_dictionaries(
         {"coeffs": st.lists(st.lists(_NUMBERS, max_size=3), max_size=3)},
         optional={"truncated": _SCALARS})},
    optional={"numerics": _VALUES, "simulation": _VALUES, "output": _VALUES,
              "minimax": _VALUES})


# plain and explicitly tagged scalars that resolve to YAML's typed tags
_TYPED = st.from_regex(r"\A(!!(int|float|bool|timestamp|binary) )?([0-9]{4}-[0-9]{1,2}"
                       r"-[0-9]{1,2}|[-+]?(0x|0o|0b)?[0-9a-f_.:]{0,6}|[-+]?\.(inf|nan))\Z")
_TEXTS = (st.text(max_size=60)
          | st.text(alphabet="{}[]:,-?!&*#|>'\" \n.e0129abtz", max_size=60)
          | st.builds("{}: {}\n".format, _KEYS, _TYPED)
          | st.builds("{}pattern: {{intervals: [[2, {}]]}}\n".format,
                      st.just(VALID.split("pattern")[0]), _TYPED))


@FUZZ
@given(_TEXTS)
def test_loads_config_text_fuzz(text):
    _parses_or_config_error(text)


@FUZZ
@given(_RUN_FILES | st.dictionaries(_KEYS, _VALUES, max_size=5))
def test_loads_config_mapping_fuzz(doc):
    _parses_or_config_error(yaml.safe_dump(doc, sort_keys=False))


@pytest.mark.parametrize("text", [
    # YAML scalars that match a tag's pattern but not its range
    "a: 2001-13-01\n",
    VALID + "output: {directory: 2001-02-30}\n",
    "x: !!int 0x\n",
    "x: !!float abc\n",
    "x: !!int -\n",
    "x: !!timestamp\n",
    "x: !!bool .inf\n",
    # a gap set far too large to enumerate
    VALID.replace("[[2, 1]]", "[[2, 10000000000000000000000]]"),
    VALID.replace("[[2, 1]]", "[[2, 100000]]"),
    # quoted numbers (and 1e3, which YAML 1.1 reads as a string) are not integers
    VALID.replace("[[2, 1]]", "[['1', 1]]"),
    VALID.replace("[[2, 1]]", "[[2, '1e3']]"),
    VALID + "numerics: {truncation: \"96\"}\n",
    VALID + "numerics: {truncation: '1e3'}\n",
    VALID + "numerics: {grid_size: 1e3}\n",
    # a grid no model accepts is refused at load, whatever the command
    VALID + "numerics: {grid_size: 100}\n",
    VALID + "numerics: {grid_size: 32}\n",
])
def test_loads_config_regressions(text):
    with pytest.raises(ConfigError):
        loads_config(text)


# Section builders.  Each section is a valid one with up to two of its keys
# replaced by drawn values, so that most draws get past the key checks into
# the builders.  Grid sizes stay at or below 1024 so that every drawn model is
# cheap to sample; no grid_file path is drawn.
_GRIDS = st.sampled_from([64, 128, 256, 512, 1024, 1024.0, 100, 0, -64, 2.5, "512", None])
_LISTS = st.lists(_NUMBERS, max_size=3) | st.lists(st.lists(_NUMBERS, max_size=3), max_size=3)
_FIELD_VALUES = _NUMBERS | st.none() | _LISTS | _VALUES


def _perturbed(templates, values, extra_keys=()):
    """A template with up to two of its keys (or ``extra_keys``) set to drawn ``values``."""
    return st.sampled_from(templates).flatmap(lambda template: st.dictionaries(
        st.sampled_from(sorted(template) + list(extra_keys)), values, max_size=2
    ).map(lambda drawn: {**template, **drawn}))


_MODELS = _perturbed(
    [{"kind": "example1", "b1": 0.5, "b2": 0.3},
     {"kind": "white", "scale": 1.5},
     {"kind": "ar1", "poles": [0.6, -0.2], "mix": [[1.0, 0.3], [0.0, 1.0]],
      "noise": {"poles": [0.2, 0.1], "scales": [0.5, 0.5]}},
     {"kind": "ma_pair", "signal_coeffs": [[[1.0]], [[0.5]]], "noise_coeffs": [[[1.0]]],
      "innovation_cov": [[1.0, 0.2], [0.2, 1.0]]},
     {"kind": "laurent", "pole_modulus": 0.5,
      "entries": [{"row": 0, "col": 0, "num_offset": 0, "num_coeffs": [2.0],
                   "den_coeffs": [1.0]}]},
     {"kind": "grid_file"}],
    _FIELD_VALUES | st.lists(st.dictionaries(
        st.sampled_from(["row", "col", "num_offset", "num_coeffs", "den_offset",
                         "den_coeffs"]), _NUMBERS | _LISTS, max_size=6), max_size=3),
    extra_keys=["pole_modulus"])
_SIMULATIONS = _perturbed(
    [{"replications": 200, "seed": 7}], _NUMBERS | st.none())
_FAMILIES = [
    {"kind": "singleton"},
    {"kind": "mixture", "params": {"power": 1.5, "noise_power": 0.8}},
    {"kind": "ar1_fixed_power", "params": {"power": 1.5, "b_max": 0.7}},
    {"kind": "contamination",
     "params": {"anchor_power": 1.5, "anchor_pole": 0.3, "eps": 0.2, "power": 1.5}},
    {"kind": ["mixture"]},
]
_PARAMS = st.dictionaries(
    st.sampled_from(["power", "w_max", "b_max", "noise_power", "anchor_power",
                     "anchor_pole", "eps"]) | _KEYS, _NUMBERS | st.none() | _LISTS,
    max_size=2)
_FAMILY = st.tuples(st.sampled_from(_FAMILIES), _PARAMS).map(
    lambda t: {**t[0], "params": {**t[0].get("params", {}), **t[1]}})
_MINIMAX = _perturbed(
    [{"kind": "D0_1", "data": {"power": 1.5}, "family": family, "opt": {"starts": 2}}
     for family in _FAMILIES]
    + [{"kind": "D0_1", "g_kind": "DVU_1",
        "data": {"power": 1.5, "noise_power": 0.8, "lower": 0.0, "upper": 8.0},
        "family": _FAMILIES[1]}],
    _FIELD_VALUES | st.sampled_from(F_KINDS) | _FAMILY
    | st.dictionaries(st.sampled_from([f.name for f in fields(ClassData)]),
                      _FIELD_VALUES, max_size=4)
    | st.dictionaries(st.sampled_from([f.name for f in fields(OptConfig)]),
                      _NUMBERS | st.none(), max_size=3),
    extra_keys=["g_kind", "theta"])
_SECTION_FILES = st.fixed_dictionaries(
    {"model": _MODELS,
     "pattern": st.just({"intervals": [[2, 1]]}),
     "functional": st.just({"coeffs": [[1.0]]}),
     "numerics": st.fixed_dictionaries({"grid_size": _GRIDS},
                                       optional={"truncation": st.sampled_from(
                                           [8, 16, 16.0, 0, -1, 2.5, "8", None])}),
     "simulation": _SIMULATIONS, "minimax": _MINIMAX})


@FUZZ
@given(_SECTION_FILES)
def test_section_builders_fuzz(doc):
    try:
        cfg = loads_config(yaml.safe_dump(doc, sort_keys=False))
    except ConfigError:
        return
    for build in (build_model, build_simulation, build_class):
        try:
            build(cfg)
        except ConfigError:
            pass


@pytest.mark.parametrize("family", [
    "{kind: []}",                                               # unhashable kind
    "{kind: mixture, params: {power: -1.0}}",                   # refused power
    "{kind: contamination, params: {anchor_power: 4.0, anchor_pole: 0.0, eps: 0.2, "
    "power: 1.0}}",                                             # no admissible member
    "{kind: mixture, params: {power: 1.0, grid_size: 512}}",    # shadowed numerics
])
def test_build_class_regressions(family):
    # each escaped build_class as a raw TypeError or a non-config error, or
    # (the last) overrode numerics.grid_size
    cfg = loads_config(VALID + "minimax: {kind: D0_1, data: {power: 1.0}, "
                       f"family: {family}}}\n")
    with pytest.raises(ConfigError, match="minimax.family"):
        build_class(cfg)


def test_loads_config_accepts_valid_file():
    assert loads_config(VALID).pattern == {"intervals": [[2, 1]]}


# Each fenced YAML block of the run-file reference, merged over VALID, must load
# and pass the builder of its section: a key the parser no longer takes cannot
# stay documented.
DOCS = Path(__file__).resolve().parent.parent / "docs" / "config.md"
_DOC_BLOCKS = re.findall(r"```yaml\n(.*?)```", DOCS.read_text(), re.S)
_SECTION_CHECKS = {
    "pattern": build_pattern,
    "functional": build_functional,
    "numerics": lambda cfg: (cfg.grid_size, cfg.truncation),
    "simulation": build_simulation,
    "oracle_check": build_oracle_check,
    "minimax": build_class,
    "output": lambda cfg: cfg.out_dir,
}


def test_docs_show_every_optional_section():
    shown = {name for block in _DOC_BLOCKS for name in yaml.safe_load(block)}
    assert shown == set(_SECTION_CHECKS)


@pytest.mark.parametrize("block", _DOC_BLOCKS,
                         ids=[",".join(yaml.safe_load(b)) for b in _DOC_BLOCKS])
def test_documented_sections_load(block):
    section = yaml.safe_load(block)
    cfg = loads_config(yaml.safe_dump({**yaml.safe_load(VALID), **section}))
    for name in section:
        _SECTION_CHECKS[name](cfg)


def _with_valid(block: str) -> str:
    """A documented block completed to a run file by the sections of VALID it lacks."""
    shown = yaml.safe_load(block)
    return block + "".join(line + "\n" for line in VALID.splitlines()
                           if line.split(":")[0] not in shown)


_RUN_TEXTS = {path.name: path.read_text()
              for path in sorted((DOCS.parent / "examples").glob("*.yaml"))}
_RUN_TEXTS.update({"config.md:" + ",".join(yaml.safe_load(b)): _with_valid(b)
                   for b in _DOC_BLOCKS})


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
@pytest.mark.parametrize("name", sorted(_RUN_TEXTS))
def test_libyaml_parser_reads_what_the_python_parser_reads(name, monkeypatch):
    read = {}
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(config_module, "_LOADER", loader)
        cfg = loads_config(_RUN_TEXTS[name])
        read[loader] = (cfg.to_dict(), config_hash(cfg))
    assert read[yaml.CSafeLoader] == read[yaml.SafeLoader]


# Run files as the CLI tests write them, and the forms the hash must see
# through unchanged: null, exponent floats, flow and block lists, nested
# minimax sections and long per-node arrays.
_CLI_TEXTS = {name: text for name, text in vars(test_cli).items()
              if name.isupper() and isinstance(text, str) and "\nmodel:" in text}
_DUMP_TEXTS = {**_RUN_TEXTS, **{"test_cli:" + name: text for name, text in _CLI_TEXTS.items()},
               "nulls-and-exponents": test_cli.BENCH_YAML + """
simulation: {replications: 20, seed: null}
oracle_check: {windows: [25, 50], tolerance: 1.0e-4}
output: {directory: null}
""",
               "long-flow-list": test_cli.BENCH_YAML + "oracle_check: {windows: ["
               + ", ".join(str(w) for w in range(100, 160)) + "]}\n",
               "nested-minimax": test_cli.VALID_MINIMAX.replace(
                   "data: {power: 1.5}", "data: {power: 1.5, eps: 1.0e-9}") + """\
  opt: {starts: 2, budget: 40, seed: 0}
""",
               "per-node-band": _RUN_TEXTS["robust_banded_noise.yaml"].replace(
                   "upper: 8.0", "upper: [" + ", ".join(["[[8.0]]"] * 512) + "]")}


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
@pytest.mark.parametrize("name", sorted(_DUMP_TEXTS))
def test_libyaml_emitter_writes_what_the_python_emitter_writes(name, monkeypatch):
    cfg = loads_config(_DUMP_TEXTS[name])
    written = {}
    for dumper in (yaml.CSafeDumper, yaml.SafeDumper):
        monkeypatch.setattr(config_module, "_DUMPER", dumper)
        written[dumper] = config_module.dumps_config(cfg)
    assert written[yaml.CSafeDumper] == written[yaml.SafeDumper]
    assert written[yaml.SafeDumper] == yaml.safe_dump(cfg.to_dict(), sort_keys=True,
                                                      default_flow_style=None)


def test_dumped_text_covers_the_forms_it_must_keep():
    text = {name: config_module.dumps_config(loads_config(t)) for name, t in _DUMP_TEXTS.items()}
    assert "seed: null" in text["nulls-and-exponents"]
    assert "tolerance: 0.0001" in text["nulls-and-exponents"]
    assert "eps: 1.0e-09" in text["nested-minimax"]
    assert "intervals:\n  - [2, 1]\n" in text["test_cli:BENCH_YAML"]
    assert "\n    146, 147," in text["long-flow-list"]   # wrapped at the line width
    assert text["per-node-band"].count("[8.0]") == 512


# The schema.  Every numeric key of every table (each section, each model kind,
# each family kind) refuses a quoted number and a boolean with a config error at
# that key, whatever command reads it.  The run files below are minimal valid
# ones; the walk sets one key at a time on a copy.
_NUMERIC_READERS = {_integer, _real, _float_array, _interval}   # not str
_MODEL_BASES = {
    "example1": {"kind": "example1", "b1": 0.5, "b2": 0.3},
    "white": {"kind": "white", "scale": 1.5},
    "ar1": {"kind": "ar1", "poles": [0.5], "scales": [1.0], "mix": [[1.0]],
            "noise": {"poles": [0.2], "scales": [0.5], "mix": [[1.0]]}},
    "ma_pair": {"kind": "ma_pair", "signal_coeffs": [[[1.0]], [[0.5]]],
                "noise_coeffs": [[[1.0]]], "innovation_cov": [[1.0, 0.2], [0.2, 1.0]]},
    "laurent": {"kind": "laurent", "pole_modulus": 0.5,
                "entries": [{"row": 0, "col": 0, "num_offset": 0, "num_coeffs": [2.0],
                             "den_offset": 0, "den_coeffs": [1.0]}]},
    "grid_file": {"kind": "grid_file", "path": "grid.npz", "pole_modulus": 0.5},
}
_FAMILY_PARAMS = {
    "singleton": {},
    "mixture": {"power": 1.5, "w_max": 0.9, "b_max": 0.8, "noise_power": 0.8},
    "ar1_fixed_power": {"power": 1.5, "b_max": 0.7},
    "contamination": {"anchor_power": 1.5, "anchor_pole": 0.3, "eps": 0.2, "power": 1.5,
                      "b_max": 0.8},
}
_COMMANDS = {"simulation": "simulate", "oracle_check": "oracle-check", "minimax": "minimax"}


def _run_file(model="white", family="singleton") -> dict:
    dim = 2 if model == "example1" else 1
    return {"model": copy.deepcopy(_MODEL_BASES[model]),
            "pattern": {"intervals": [[2, 1]]},
            "functional": {"coeffs": [[1.0] * dim, [0.5] * dim]},
            "numerics": {"grid_size": 64, "truncation": 8},
            "simulation": {"replications": 10, "seed": 1},
            "oracle_check": {"windows": [10], "tolerance": 1.0e-4},
            "minimax": {"kind": "D0_1", "g_kind": "DVU_1" if family == "mixture" else None,
                        "data": {"power": 1.5, "noise_power": 0.8, "lower": 0.0,
                                 "upper": 8.0},
                        "family": {"kind": family, "params": dict(_FAMILY_PARAMS[family])},
                        "opt": {"starts": 1, "budget": 5}},
            "output": {"directory": "out"}}


def _numeric_paths(table, path):
    for key, kind in table.items():
        here = path + (key,)
        if isinstance(kind, list):
            here, kind = here + (0,), kind[0]
        if isinstance(kind, dict):
            yield from _numeric_paths(kind, here)
        elif kind in _NUMERIC_READERS:
            yield here


_TYPED_KEYS = (
    [(model, "singleton", path) for model, table in MODEL_TABLES.items()
     for path in _numeric_paths(table, ("model",))]
    + [("white", family, path) for family, (_, params) in FAMILY_TABLES.items()
       for path in _numeric_paths(params, ("minimax", "family", "params"))]
    + [("white", "singleton", path) for name, table in SCHEMA.items()
       for path in _numeric_paths(table, (name,))])


def _location(path) -> str:
    return path[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[1:])


def _set(doc: dict, path, value):
    node = doc
    for key, after in zip(path, path[1:]):
        if isinstance(node, dict) and key not in node:
            node[key] = [{}] if isinstance(after, int) else {}
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("model,family", [(m, "singleton") for m in MODEL_TABLES]
                         + [("white", f) for f in FAMILY_TABLES if f != "singleton"])
def test_schema_walk_run_files_are_valid(tmp_path, monkeypatch, model, family):
    monkeypatch.chdir(tmp_path)
    np.savez("grid.npz", lam=grid_points(64), F=np.ones((64, 1, 1)))
    cfg = loads_config(yaml.safe_dump(_run_file(model, family)))
    build_model(cfg), build_simulation(cfg), build_oracle_check(cfg), build_class(cfg)


@pytest.mark.parametrize("value", ["2", True], ids=["quoted", "boolean"])
@pytest.mark.parametrize("model,family,path", _TYPED_KEYS,
                         ids=[f"{m}-{f}-{_location(p)}" for m, f, p in _TYPED_KEYS])
def test_every_typed_key_refuses_strings_and_booleans(tmp_path, capsys, model, family,
                                                     path, value):
    doc = _run_file(model, family)
    _set(doc, path, value)
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(doc))
    command = _COMMANDS.get(path[0], "estimate")
    assert main([command, "--config", str(tmp_path / "run.yaml"),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {_location(path)}:" in capsys.readouterr().err


def _schema_keys(table):
    for key, kind in table.items():
        yield key
        kind = kind[0] if isinstance(kind, list) else kind
        if isinstance(kind, dict):
            yield from _schema_keys(kind)


def test_every_schema_key_is_documented():
    text = DOCS.read_text()
    tables = [*SCHEMA.values(), *MODEL_TABLES.values(), *(p for _, p in FAMILY_TABLES.values())]
    keys = {key for table in tables for key in _schema_keys(table)}
    keys |= set(SCHEMA) | set(MODEL_TABLES) | set(FAMILY_TABLES)
    missing = sorted(key for key in keys
                     if f"`{key}`" not in text and not re.search(rf"\b{key}:", text))
    assert missing == []

"""The benchmark reaches into gapcast by name.

``perfbench/tracer.py`` lists the functions its traced run wraps as
``(module, attribute)`` pairs in ``TARGETS``; the workload and scaling scripts
import further names and read attributes of what they get back.  A rename in
the package would only surface when the benchmark runs, so these tests read
the benchmark sources (without importing them) and check that every name
still resolves.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _tracer_constant(name):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no {name}")


@pytest.mark.parametrize("module,attr", _tracer_constant("TARGETS"))
def test_tracer_target_resolves(module, attr):
    assert module in _tracer_constant("LAYERS")
    mod = importlib.import_module(f"gapcast.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth)), attr
    else:
        assert callable(getattr(mod, attr, None)), attr


def test_cli_dispatch_table_is_patchable():
    # the tracer also rewraps the CLI's command table
    from gapcast import cli

    assert set(cli._COMMANDS.values()) >= {
        getattr(cli, attr) for module, attr in _tracer_constant("TARGETS")
        if module == "cli" and attr.startswith("cmd_")}


def _gapcast_names():
    """(file, module, name) for each gapcast name a benchmark file imports or reads.

    Covers ``from gapcast[.module] import name`` and ``alias.name`` after
    ``import gapcast.module as alias``.
    """
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gapcast":
                found |= {(path.name, node.module, a.name) for a in node.names}
            elif isinstance(node, ast.Import):
                aliases |= {a.asname: a.name for a in node.names
                            if a.asname and a.name.startswith("gapcast.")}
        found |= {(path.name, aliases[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases}
    return sorted(found)


def test_benchmark_scripts_name_gapcast():
    names = {name for path, _, name in _gapcast_names()
             if path in ("workloads.py", "scaling.py")}
    assert names >= {"load_config", "build_model", "build_pattern", "build_functional",
                     "projection_oracle", "ar1_model", "FunctionalSpec", "MissingPattern",
                     "estimate"}


@pytest.mark.parametrize("path,module,name", _gapcast_names())
def test_benchmark_import_resolves(path, module, name):
    assert hasattr(importlib.import_module(module), name), f"{path}: {module}.{name}"


def test_benchmark_reads_pattern_size_and_system_matrix():
    # scaling.py prints pattern.size; tracer.COUNTERS reads the system's Bmat
    from gapcast import MissingPattern, build_operator_system, white_model

    pattern = MissingPattern(intervals=((2, 1),))
    assert pattern.size == 2
    system = build_operator_system(white_model(1, grid_size=64), pattern, K=2)
    assert system.Bmat.shape == (5, 5)

"""The benchmark's traced run wraps gapcast functions by name.

``perfbench/tracer.py`` lists them as ``(module, attribute)`` pairs in
``TARGETS``.  A rename in the package would only surface when the traced
benchmark runs, so this test reads that list (without importing the
benchmark code) and checks that every entry still resolves.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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

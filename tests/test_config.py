"""Robustness of the run-file parser.

``loads_config`` either returns a configuration or raises ``ConfigError``
(exit code 2 at the command line); no input text may escape as another
exception.  The property is fuzzed over raw text and over YAML mappings
shaped like run files; inputs that once escaped are pinned as regressions.
"""

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from gapcast.config import loads_config
from gapcast.errors import ConfigError

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

VALID = """\
model: {kind: white, dim: 1}
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
])
def test_loads_config_regressions(text):
    with pytest.raises(ConfigError):
        loads_config(text)


def test_loads_config_accepts_valid_file():
    assert loads_config(VALID).pattern == {"intervals": [[2, 1]]}

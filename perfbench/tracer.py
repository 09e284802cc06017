"""Span tracer that wraps gapcast's public functions from outside the package.

gapcast imports functions by name (``from .operators import
build_operator_system``), so wrapping a function in its defining module is
not enough: every module attribute that refers to the original is replaced,
and so is every entry of ``cli._COMMANDS``, which the CLI dispatches through.
``extrapolate.estimate`` imports ``check_minimality`` inside the function; that
lookup goes to ``spectral`` at call time and finds the wrapper there.

Spans live in memory as ``[name, start_ns, end_ns, parent, op]`` lists and are
written out as JSON lines once the run is over.  Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute) pairs wrapped as ``<module>.<attribute>``; an attribute
# "Class.method" wraps a method on the class.
TARGETS = (
    ("cli", "main"),
    ("cli", "cmd_estimate"),
    ("cli", "cmd_oracle_check"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_minimax"),
    ("config", "load_config"),
    ("config", "build_model"),
    ("config", "build_pattern"),
    ("config", "build_functional"),
    ("config", "build_simulation"),
    ("config", "build_class"),
    ("spectral", "SpectralModel.samples"),
    ("spectral", "check_minimality"),
    ("spectral", "coeffs_from_samples"),
    ("operators", "build_operator_system"),
    ("operators", "assemble"),
    ("operators", "solve_coefficients"),
    ("extrapolate", "estimate"),
    ("extrapolate", "delta_of_characteristic"),
    ("minimax", "maximize_delta"),
    ("minimax", "evaluate_candidate"),
    ("minimax", "class_constraint_report"),
    ("minimax", "verify_saddle_point"),
    ("minimax", "characterization_residuals"),
    ("oracle", "projection_oracle"),
    ("oracle", "monte_carlo_mse"),
    ("oracle", "CirculantEmbedding.__init__"),
    ("oracle", "CirculantEmbedding.sample_block"),
)

LAYERS = ("cli", "config", "spectral", "operators", "extrapolate", "oracle", "minimax")


# Work counts read off a call's arguments and result: span name -> (metric,
# function).  Per op they are summed, except the system size, a maximum.
COUNTERS = {
    "spectral.coeffs_from_samples": ("spectral.coeffs_from_samples.bytes_computed",
                                     lambda args, res: args[0].nbytes + res.data.nbytes),
    "operators.build_operator_system": ("operators.system_size",
                                        lambda args, res: res.Bmat.shape[0]),
    "operators.solve_coefficients": ("operators.cholesky_flops_computed",
                                     lambda args, res: args[0].Bmat.shape[0] ** 3 / 3.0),
    "minimax.maximize_delta": ("minimax.evaluations",
                               lambda args, res: len(res.evaluations)),
    "oracle.monte_carlo_mse": ("oracle.replications", lambda args, res: res.replications),
}
MAX_COUNTS = {"operators.system_size"}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[str, float, int | None]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op: int | None = None

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        metric, counter = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                self.counts.append((metric, counter(args, result), self.op))
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every target wherever gapcast looks it up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"gapcast.{layer}")
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "gapcast" or name.startswith("gapcast.")}
        for short, attr in TARGETS:
            mod = mods[f"gapcast.{short}"]
            name = f"{short}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
            table = mods["gapcast.cli"]._COMMANDS
            for key, value in list(table.items()):
                if value is original:
                    self._patches.append((table, key, value))
                    table[key] = wrapper

    def _set(self, obj, key, wrapper):
        self._patches.append((obj, key, vars(obj)[key]))
        setattr(obj, key, wrapper)

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            if isinstance(obj, dict):
                obj[key] = original
            else:
                setattr(obj, key, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans) -> list[int]:
    """Self time of each span in ns: duration minus the union of its children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, op) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def per_layer_metrics(spans, counts, n_ops: int) -> dict[str, float]:
    """Per-op call counts, self times, op shares and work counts of traced ops.

    A share is self time over the time of the traced ops.  Spans outside a
    traced op (``op is None``) are ignored.  Every target and layer gets a
    value, zero where the workload never reaches it.
    """
    selfs = self_times(spans)
    calls = {f"{s}.{a}": 0 for s, a in TARGETS}
    self_ns = dict.fromkeys(calls, 0)
    incl_ns = dict.fromkeys(calls, 0)
    op_ns = 0
    for (name, start, end, parent, op), own in zip(spans, selfs):
        if op is None:
            continue
        if name == "op":
            op_ns += end - start
            continue
        calls[name] += 1
        self_ns[name] += own
        incl_ns[name] += end - start
    work = {metric: 0.0 for metric, _ in COUNTERS.values()}
    for metric, value, op in counts:
        if op is not None:
            work[metric] = max(work[metric], value) if metric in MAX_COUNTS \
                else work[metric] + value

    per_op = 1.0 / n_ops
    m: dict[str, float] = {}

    def ms(ns):
        return ns * 1e-6 * per_op

    def share(ns):
        return ns / op_ns if op_ns > 0 else 0.0

    layer_ns = dict.fromkeys(LAYERS, 0)
    for name in calls:
        m[f"{name}.calls"] = calls[name] * per_op
        m[f"{name}.self_ms"] = ms(self_ns[name])
        m[f"{name}.op_share"] = share(self_ns[name])
        layer_ns[name.split(".")[0]] += self_ns[name]
    for layer, ns in layer_ns.items():
        m[f"{layer}.self_ms"] = ms(ns)
        m[f"{layer}.op_share"] = share(ns)

    for metric, value in work.items():
        m[metric] = float(value) if metric in MAX_COUNTS else value * per_op
    # An estimate's diagnostics reach an artifact only through cmd_estimate
    # (result.summary) or as the one estimate a minimax search keeps.
    used = calls["cli.cmd_estimate"] + calls["minimax.maximize_delta"] \
        + calls["minimax.evaluate_candidate"]
    estimates = calls["extrapolate.estimate"]
    m["minimax.diagnostics_used_ratio"] = used / estimates if estimates else 0.0
    init_ns = incl_ns["oracle.CirculantEmbedding.__init__"]
    m["oracle.CirculantEmbedding.init_ms"] = ms(init_ns)
    m["oracle.CirculantEmbedding.init.op_share"] = share(init_ns)
    mc_s = incl_ns["oracle.monte_carlo_mse"] * 1e-9
    m["oracle.replications_per_s"] = work["oracle.replications"] / mc_s if mc_s > 0 else 0.0
    return m

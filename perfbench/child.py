"""One workload process: set-up, warm-up op, then a closed loop of timed ops.

Started by run.py with BLAS threads pinned to one.  Every op calls
``gapcast.cli.main`` in-process for each command of the workload and then
checks the artifacts.  With ``--trace 0`` a speed probe samples the CPU during
every timed op, and each op's time is also given in probe units (``op_cost``).
With ``--trace 1`` ops alternate between traced and untraced, so both sides of
``trace_overhead_ratio`` see the same machine conditions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def require_pin():
    """Exit loudly unless every BLAS thread variable is pinned to one."""
    bad = {k: os.environ.get(k) for k in PIN_VARS if os.environ.get(k) != "1"}
    if bad:
        sys.exit(f"perfbench: BLAS threads not pinned to 1 in this process: {bad}")
    if "numpy" in sys.modules:
        sys.exit("perfbench: numpy was imported before the BLAS pin was checked")


def environment() -> dict:
    """Machine and library facts recorded next to the results."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pin": {k: os.environ[k] for k in PIN_VARS},
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpeedProbe:
    """Samples how fast the CPU runs a fixed reference computation.

    On a shared virtual machine the speed of a virtual CPU changes by up to
    1.7x within seconds, as other guests load the host.  Every ``INTERVAL_S``
    of wall time a SIGALRM handler runs the reference, a fixed sequence of
    small NumPy calls (about 0.5 ms), on the process's own CPU and records
    ``(start ns, duration ns)``.  The handler runs between two bytecodes, so
    it interrupts an op where the op itself runs Python, never inside a BLAS
    call.  Of the references tried (a pure-Python loop, small NumPy calls, a
    pass over a 4 MiB array, a 160x160 matrix product), the small NumPy calls
    followed the op times of all three workloads most closely.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((48, 48))
        self._spd = self._a @ self._a.T + 48.0 * np.eye(48)
        self._v = rng.standard_normal(512)
        self.samples: list[tuple[int, int]] = []

    def reference(self) -> None:
        np = self._np
        np.linalg.cholesky(self._spd)
        self._a @ self._a
        for _ in range(20):
            np.fft.rfft(self._v)
            self._v * 2.0
            np.exp(self._v[:8])

    def sample(self) -> tuple[int, int]:
        start = time.perf_counter_ns()
        self.reference()
        return start, time.perf_counter_ns() - start

    def _on_alarm(self, signum, frame):
        self.samples.append(self.sample())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def op_cost(start: int, end: int, samples) -> tuple[int, float]:
    """(op ns without the probe samples, op cost in probe units) of one op.

    ``samples`` are the probe's ``(start, duration)`` pairs that fall inside
    ``[start, end)``, in order, at least one.  Each stretch of op time is
    divided by the duration of the sample that ends it; the stretch after the
    last sample by the last sample's.  So the cost counts how many probe runs
    the CPU would have finished in the op's time, at the speed it had then.
    """
    net, cost, prev = 0, 0.0, start
    for t, d in samples:
        net += t - prev
        cost += (t - prev) / d
        prev = t + d
    net += end - prev
    cost += (end - prev) / samples[-1][1]
    return net, cost


def run_op(cli, workloads, name, params, refs, state,
           tracer=None, op=None) -> tuple[int, int, list[str]]:
    """Run the op's commands, then check; returns (start ns, end ns, failed checks).

    Only the commands are timed (and, when traced, inside the op's root span).
    """
    failed = []
    if tracer is not None:
        tracer.install()
        tracer.op = op
        root_span = tracer.begin("op")
    start = time.perf_counter_ns()
    try:
        for argv in params["commands"]:
            try:
                code = cli.main(list(argv))
            except Exception:
                code = "a traceback:\n" + traceback.format_exc()
            if code != 0:
                failed.append(f"`gapcast {argv[0]}` exited with {code}")
    finally:
        end = time.perf_counter_ns()
        if tracer is not None:
            tracer.end(root_span)
            tracer.op = None
            tracer.uninstall()
    if not failed:
        try:
            failed = workloads.check(name, params, refs, state)
        except (OSError, KeyError, ValueError) as exc:
            failed = [f"artifacts unreadable: {exc!r}"]
    return start, end, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--params", required=True, help="JSON file written by run.py")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-ns", type=int, required=True,
                   help="time.monotonic_ns() of the parent just before the spawn")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    require_pin()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import gapcast.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        sys.exit(f"perfbench: gapcast imported from {cli.__file__}, not from {root / 'src'}")
    import workloads

    params = json.loads(Path(args.params).read_text())
    name = args.workload
    refs = workloads.references(name, params)
    state: dict = {}
    problems: list[str] = []

    def record(op_index, failed):
        problems.extend(f"op {op_index}: {f}" for f in failed)

    *_, failed = run_op(cli, workloads, name, params, refs, state)
    record("warm-up", failed)
    attempted, n_failed = 1, int(bool(failed))
    setup_s = (time.monotonic_ns() - args.spawned_ns) * 1e-9

    tracer = probe = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    else:
        probe = SpeedProbe()
    times = {False: [], True: []}
    costs, probe_ns = [], []
    ok_ops = 0
    # On a shared virtual machine each virtual CPU can sit on a differently
    # loaded host core for tens of seconds.  Moving the process to the next
    # CPU every two ops samples all of them within one run; a traced op and
    # its untraced partner share a CPU.
    env = environment()
    cpus = sorted(os.sched_getaffinity(0))
    if probe is not None:
        probe.start()
    start = time.perf_counter_ns()
    deadline = start + int(args.seconds * 1e9)
    i = 0
    # at least two ops, so a traced run times both sides
    while i < 2 or time.perf_counter_ns() < deadline:
        os.sched_setaffinity(0, {cpus[i // 2 % len(cpus)]})
        traced = tracer is not None and i % 2 == 0
        if probe is not None:
            probe.samples.clear()
        op_start, op_end, failed = run_op(cli, workloads, name, params, refs, state,
                                          tracer if traced else None, i)
        if probe is None:
            times[traced].append(op_end - op_start)
        else:
            inside = [s for s in probe.samples if op_start <= s[0] < op_end]
            if inside:
                net, cost = op_cost(op_start, op_end, inside)
            else:   # an op shorter than the probe interval
                net = op_end - op_start
                cost = net / probe.sample()[1]
            times[False].append(net)
            costs.append(cost)
            probe_ns.extend(d for _, d in inside)
        record(i, failed)
        attempted += 1
        n_failed += int(bool(failed))
        ok_ops += not failed
        i += 1
    run_ns = time.perf_counter_ns() - start
    if probe is not None:
        probe.stop()
    result = {"setup_s": setup_s, "op_ns": times[False], "traced_op_ns": times[True],
              "op_cost": costs, "probe_ns": probe_ns,
              "run_s": run_ns * 1e-9, "ok_ops": ok_ops, "peak_rss_mb": peak_rss_mb(),
              "env": env, "attempted": attempted, "failed": n_failed,
              "problems": problems}
    if tracer is not None:
        from tracer import per_layer_metrics
        tracer.write_jsonl(Path(args.result).parent / "spans.jsonl")
        result["per_layer"] = per_layer_metrics(tracer.spans, tracer.counts,
                                                len(times[True]))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

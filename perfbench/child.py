"""Run one gravimean CLI invocation and record when its phases happened.

    python child.py TIMING_JSON TRACE_JSON|- -- CLI_ARGS...

The phase marks (child start, `gravimean.cli` imported, config loaded,
`cli.main` entered and left) are `time.perf_counter()` readings, which on
Linux share one monotonic clock with the parent that spawned this process.
Beside them go CPU-time marks: the process CPU time when the config is
loaded, and the CPU time of this process plus its reaped children (the pool
workers) when `cli.main` is entered and left.

With a TRACE_JSON path, the public functions of `cli`, `io`, `analytic`,
`grid` and `montecarlo` (and `numpy.fft.fft`/`ifft`) are wrapped wherever a
gravimean module binds them, every call is kept as a span in memory, and the
spans are written to TRACE_JSON once `cli.main` returns. Pool workers forked
by `montecarlo.run_ensemble` inherit the wrappers but record nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

T_START = perf_counter()

# (module, attribute, span name) for every wrapped function. The wrapper
# replaces the function under every name a gravimean module binds it to, so
# `cli.evolve_grid` and `grid.evolve` share one wrapper.
TRACED = (
    ("gravimean.grid", "evolve", "grid.evolve"),
    ("gravimean.grid", "step", "grid.step"),
    ("gravimean.grid", "moments", "grid.moments"),
    ("gravimean.grid", "energy", "grid.energy"),
    ("gravimean.grid", "init_gaussian", "grid.init_gaussian"),
    ("gravimean.montecarlo", "run_ensemble", "montecarlo.run_ensemble"),
    ("gravimean.montecarlo", "run_trial", "montecarlo.run_trial"),
    ("gravimean.montecarlo", "_chunk_counts", "montecarlo.chunk"),
    ("gravimean.io", "load_config", "io.load_config"),
    ("gravimean.io", "emit_trajectory", "io.emit_trajectory"),
    ("gravimean.io", "write_manifest", "io.write_manifest"),
    ("gravimean.analytic", "trajectory", "analytic.trajectory"),
    ("numpy.fft", "fft", "fft"),
    ("numpy.fft", "ifft", "fft"),
)


def cpu_time() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_kib() -> int:
    """High-water RSS of this process image. Unlike ru_maxrss it does not
    carry over, across exec, the RSS of the parent that spawned it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _fft_attrs(args, kwargs, result):
    n = result.shape[-1]
    return {"n": n, "batch": result.size // n if n else 0}


def _emit_attrs(args, kwargs, result):
    table, path = args
    return {"rows": len(table.t), "bytes": os.path.getsize(path)}


def _trajectory_attrs(args, kwargs, result):
    return {"samples": int(result["t"].size)}


ATTRS = {"fft": _fft_attrs, "io.emit_trajectory": _emit_attrs,
         "analytic.trajectory": _trajectory_attrs}


class Tracer:
    """Spans as [name, start, end, parent index, attrs], kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = True
        self.pools = []
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self):
        self.active = False

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self):
        for module_name, attr, name in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == module_name or mod_name.split(".")[0] == "gravimean":
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        sys.modules["gravimean.montecarlo"].ProcessPoolExecutor = self._pool_class()

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Counts the jobs dispatched and the worker processes started."""

            def map(self, fn, *iterables, **kwargs):
                jobs = [list(it) for it in iterables]
                tracer.pools.append({"chunks": len(jobs[0]), "workers": 0})
                return super().map(fn, *jobs, **kwargs)

            def shutdown(self, *args, **kwargs):
                if tracer.pools and self._processes:
                    tracer.pools[-1]["workers"] = len(self._processes)
                return super().shutdown(*args, **kwargs)

        return TracedPool


def main(argv):
    timing_path, trace_path = argv[0], argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: child.py TIMING_JSON TRACE_JSON|- -- CLI_ARGS...")
    cli_args = argv[3:]
    marks = {"start": T_START}

    marks["import_start"] = perf_counter()
    import gravimean.cli as cli
    marks["import_end"] = perf_counter()

    tracer = Tracer() if trace_path != "-" else None
    if tracer is not None:
        tracer.install()
    load_config = cli.load_config

    def load_config_marked(path):
        loaded = load_config(path)
        if "config_loaded" not in marks:
            marks["config_loaded"] = perf_counter()
            marks["setup_cpu"] = cpu_time()
        return loaded

    cli.load_config = load_config_marked

    run = tracer.wrap("cli.main", cli.main) if tracer is not None else cli.main
    marks["main_cpu_start"] = cpu_time()
    marks["main_start"] = perf_counter()
    code = run(cli_args)
    marks["main_end"] = perf_counter()
    marks["main_cpu_end"] = cpu_time()
    marks["peak_rss_kib"] = peak_rss_kib()
    sys.stdout.flush()

    with open(timing_path, "w") as fh:
        json.dump({"marks": marks, "exit_code": code}, fh)
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump({"spans": tracer.spans, "pools": tracer.pools}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

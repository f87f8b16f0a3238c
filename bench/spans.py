"""In-memory span tracer for the ergokit benchmark's traced run.

The tracer replaces the entry points the CLI calls with timing wrappers,
bound where the calling module looks each name up, so the package itself is
left untouched.  Each call becomes a span (id, name, start, end, parent id,
cpu); spans stay in memory and are written out once the command has ended.
Per-layer metrics are derived from the spans and from counts recorded at the
same call boundaries.

start and end are wall-clock times; the metrics use cpu, the CPU time of the
call, like the benchmark's end-to-end cpu_s.  The ensemble may run on a
thread pool, where a call's wall time also counts waiting for the
interpreter lock while another thread computes.  So a function the CLI calls
directly is charged the CPU time of the whole process (its work may run on
pool threads while the calling thread waits), and a function below it the
CPU time of its own thread, summed over calls.

Every metric is a number.  A layer the workload never calls reads 0: no
calls, no time, and 0 for its per-call times and its acceptance ratio.  A
wrapped name that no longer exists is recorded as missing, and a call whose
arguments or result no longer have the expected shape as unobserved; the
metrics that depend on them read 0 as well instead of failing the run, and
bench/run.py names them on standard error.
"""

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

MAIN_SPAN = "cli.main"
TRAJECTORY_DUMP = "trajectories.csv"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _observe_sample(add, args, kwargs, result):
    add("noise.draws", int(_arg(args, kwargs, 2, "count")))


def _observe_rejection(add, args, kwargs, result):
    add("noise.accepted", int(_arg(args, kwargs, 1, "count")))
    add("noise.proposed", int(result[1]))


def _observe_moment(add, args, kwargs, result):
    add("noise.quad_evals", int(result.grid_size or 0))


def _observe_run(add, args, kwargs, result):
    for path in result:
        add("simulate.steps", int(path.states.shape[0]) - 1)
        add("simulate.censored", int(bool(path.diverged)))
        add("simulate.states_bytes", int(path.states.nbytes))


def _observe_write(add, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    text = _arg(args, kwargs, 1, "text")
    add("cli.bytes_written", len(text.encode("utf-8")))
    if os.path.basename(path) == TRAJECTORY_DUMP:
        data_lines = sum(1 for line in text.splitlines() if not line.startswith("#"))
        add("cli.rows_dumped", data_lines - 1)  # minus the header


# (module, attribute, span name, observer).  One span name may be bound in
# several modules when more than one module calls the function.  The Expol2
# rejection loop is private, but it is the only place the proposal count
# (and so the acceptance rate) is visible.
TARGETS = (
    ("cli", "validate_config", "config.validate_config", None),
    ("cli", "run_trajectories", "simulate.run_trajectories", _observe_run),
    ("cli", "aggregate_ensemble", "simulate.aggregate_ensemble", None),
    ("cli", "shell_estimate_envelope", "ergodicity.shell_estimate_envelope", None),
    ("cli", "check_threshold_model", "ergodicity.check_model", None),
    ("cli", "check_bekk_model", "ergodicity.check_model", None),
    ("cli", "write_text_atomic", "config.write_text_atomic", _observe_write),
    ("cli", "abs_moment", "noise.abs_moment", _observe_moment),
    ("ergodicity", "abs_moment", "noise.abs_moment", _observe_moment),
    ("simulate", "sample", "noise.sample", _observe_sample),
    ("ergodicity", "sample", "noise.sample", _observe_sample),
    ("noise", "_rejection_sample_expol2", "noise.expol2_rejection", _observe_rejection),
    ("simulate", "step", "models.step", None),
    ("models", "psd_sqrt", "norms.psd_sqrt", None),
)

# Direct children of the command span that compute rather than serialize;
# the rest of the command span is cli.serialize_s.
_COMPUTE_CHILDREN = (
    "config.validate_config",
    "simulate.run_trajectories",
    "simulate.aggregate_ensemble",
    "ergodicity.shell_estimate_envelope",
    "ergodicity.check_model",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent id, cpu]
        self.counts = defaultdict(int)
        self.missing = set()
        self.unobserved = set()  # span names whose counts could not be read
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key, amount):
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name, fn, observe=None, cpu_clock=time.thread_time):
        """fn with each call recorded as a span; observe(add, args, kwargs,
        result) records counts after the span has closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # A span opened on a worker thread belongs to what the main
            # thread waits in (run_trajectories when it uses a pool).
            parent_stack = stack or tracer._main_stack
            parent = parent_stack[-1] if parent_stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            cpu_start = cpu_clock()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = cpu_clock() - cpu_start
                stack.pop()
                with tracer._lock:
                    tracer.spans.append([span_id, name, start, end, parent, cpu])
            if observe is not None and name not in tracer.unobserved:
                try:
                    observe(tracer._add, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    tracer.unobserved.add(name)
            return result

        return wrapper

    def install(self, modules):
        """Bind the wrappers of TARGETS; `modules` maps short names to the
        imported ergokit modules."""
        for module_name, attr, name, observe in TARGETS:
            fn = getattr(modules[module_name], attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            clock = time.process_time if module_name == "cli" else time.thread_time
            setattr(modules[module_name], attr, self.wrap(name, fn, observe, clock))

    def write(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "cpu"],
                       "missing": sorted(self.missing),
                       "unobserved": sorted(self.unobserved),
                       "spans": sorted(self.spans)}, handle)

    def metrics(self):
        return layer_metrics(self.spans, self.counts, self.unobserved)


def layer_metrics(spans, counts, unobserved=()):
    """Per-layer metrics of one traced command (set-up metrics excluded)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)
        children[span[4]].append(span)

    def calls(name):
        return len(by_name[name])

    def busy(*names):
        return sum((span[5] for name in names for span in by_name[name]), 0.0)

    def self_time(name, subtracted):
        """CPU time of the spans called name minus that of their children
        named in subtracted."""
        return sum((
            span[5] - sum(child[5] for child in children[span[0]] if child[1] in subtracted)
            for span in by_name[name]
        ), 0.0)

    def count(key, name):
        return 0 if name in unobserved else counts[key]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    out = {}
    out["noise.sample_s"] = busy("noise.sample")
    out["noise.draws"] = count("noise.draws", "noise.sample")
    out["noise.ns_per_draw"] = ratio(out["noise.sample_s"], out["noise.draws"], 1e9)
    out["noise.acceptance"] = ratio(
        count("noise.accepted", "noise.expol2_rejection"),
        count("noise.proposed", "noise.expol2_rejection"),
    )
    out["noise.abs_moment_s"] = busy("noise.abs_moment")
    out["noise.quad_evals"] = count("noise.quad_evals", "noise.abs_moment")

    out["models.step_calls"] = calls("models.step")
    out["models.step_s"] = busy("models.step")
    out["norms.psd_sqrt_calls"] = calls("norms.psd_sqrt")
    out["norms.psd_sqrt_s"] = busy("norms.psd_sqrt")
    out["norms.us_per_psd_sqrt"] = ratio(
        out["norms.psd_sqrt_s"], out["norms.psd_sqrt_calls"], 1e6
    )

    run = "simulate.run_trajectories"
    out["simulate.run_s"] = busy(run)
    out["simulate.recurrence_s"] = self_time(run, ("noise.sample",))
    out["simulate.steps"] = count("simulate.steps", run)
    out["simulate.ns_per_step"] = ratio(
        out["simulate.recurrence_s"], out["simulate.steps"], 1e9
    )
    out["simulate.censored"] = count("simulate.censored", run)
    out["simulate.states_bytes"] = count("simulate.states_bytes", run)
    out["simulate.aggregate_s"] = busy("simulate.aggregate_ensemble")

    out["ergodicity.check_s"] = busy(
        "ergodicity.check_model", "ergodicity.shell_estimate_envelope"
    )
    out["ergodicity.shell_envelope_s"] = busy("ergodicity.shell_estimate_envelope")

    out["cli.serialize_s"] = self_time(MAIN_SPAN, _COMPUTE_CHILDREN)
    out["cli.bytes_written"] = count("cli.bytes_written", "config.write_text_atomic")
    out["cli.rows_dumped"] = count("cli.rows_dumped", "config.write_text_atomic")
    return out

"""ergokit benchmark: one workload, measured through the real CLI entry point.

    python3 bench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --list

Run from the root of a checkout.  Every operation is one CLI command in a
fresh interpreter (bench/op.py), so import cost and peak RSS are real.
Operations repeat until --seconds is used up and each metric is the median
over them.  Every operation passes through the correctness gate in gate();
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: cpu_s (CPU time of the command
after import, user + system over all threads), setup_s (CPU time from the
start of the interpreter until ergokit.cli is imported and the workload
config passes validate_config) and peak_rss_mb.  They are CPU times because
on a shared host the wall time of these CPU-bound commands also counts the
time the host gives the CPUs to others, which swung it by 20% between runs.

--trace 1 alternates traced and untraced operations and reports the
per-layer metrics of BENCHMARK.json (see bench/spans.py).  cli.wall_s is the
wall time of the untraced commands, and trace.overhead_s the traced minus
the untraced median cpu_s.  One operation always runs at DEFAULT_SEED, so
that its artifacts can be compared with the reference sha256s in
bench/reference.json; cli.artifacts_identical counts the ones that match,
and every mismatch is printed with its old and new hash.

--list prints every metric with its unit and, for the per-layer ones, the
layer, the end-to-end metric it should move and the workloads it is read on;
on the other workloads it reads 0.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OP = os.path.join(BENCH_DIR, "op.py")
WORK_DIR = os.path.join(ROOT, ".bench_work")

# The built-in experiments' seed; the reference artifact hashes are for it.
DEFAULT_SEED = 20260814

# No operation takes near this long today (the slowest is under 10 s); a
# hung command must not hold the run past its 180 s limit.
OP_TIMEOUT_S = 120

# name -> (builtin config the workload starts from, overrides, CLI argv).
# "{doc}" is the generated config file and "{out}" the operation's output
# directory.  Reproduce takes a built-in name, so its seed goes through
# ERGOKIT_SEED; the other commands read the generated config, seed included.
WORKLOADS = {
    "threshold-ergodic": (
        "example2-ergodic", {},
        ["reproduce", "example2-ergodic", "--threads", "2", "--out", "{out}"],
    ),
    "bekk-demo": (
        "bekk-demo", {},
        ["reproduce", "bekk-demo", "--out", "{out}"],
    ),
    "checker-s2": (
        "example2-ergodic", {"checks": {"s": 2.0, "envelope": "shell"}},
        ["check", "{doc}", "--out", "{out}/report.json"],
    ),
    "censored-dump": (
        "example2-unit-root",
        {
            "model": {"B": [[1.02, 0.0], [0.0, 1.02]]},
            "simulation": {"n_traj": 100, "T": 999, "snapshots": [100, 999],
                           "divergence_threshold": 1e6},
        },
        ["simulate", "{doc}", "--out", "{out}"],
    ),
}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def _child(mode, spec, spec_path, env=None):
    """Run bench/op.py in a fresh interpreter."""
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    proc = subprocess.run(
        [sys.executable, OP, mode, spec_path], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=OP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"bench/op.py {mode} exited {proc.returncode}:\n{proc.stderr}")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _verdict(out_dir):
    report = os.path.join(out_dir, "report.json")
    if os.path.exists(report):
        return _load_json(report)["verdict"]
    with open(os.path.join(out_dir, "verdict.txt")) as handle:
        first = handle.readline()  # "check: <verdict> (gamma = ...)"
    return first.split()[1]


def gate(ref, out_dir, result):
    """Failure reasons of one operation against the workload's reference;
    an empty list means the operation passed."""
    if result["exit"] is None:
        return ["the command raised:\n" + result["error"]]
    problems = []
    if result["exit"] != ref["exit"]:
        problems.append(f"exit code {result['exit']}, expected {ref['exit']}")
    try:
        verdict = _verdict(out_dir)
        if verdict != ref["verdict"]:
            problems.append(f"verdict {verdict}, expected {ref['verdict']}")
        if "expectations" in ref:
            with open(os.path.join(out_dir, "comparison.txt")) as handle:
                lines = [line.rstrip("\n") for line in handle if line.startswith("  [")]
            if lines != ref["expectations"]:
                problems.append(f"comparison.txt expectations {lines}")
        if "noise_moment" in ref:
            report = _load_json(os.path.join(out_dir, "report.json"))
            value, want = report["noise_moment"]["value"], ref["noise_moment"]
            if not abs(value - want["value"]) <= want["tolerance"]:
                problems.append(f"noise moment {value!r}, reference {want['value']!r}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"artifacts missing or malformed: {type(exc).__name__}: {exc}")
    return problems


class WorkloadRun:
    """One benchmark run of one workload: its work directory and operations."""

    def __init__(self, name, seed, trace):
        self.name = name
        self.base, self.patch, self.argv = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.work = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
        self.ref = _load_json(os.path.join(BENCH_DIR, "reference.json"))["workloads"][name]
        self.docs = {}
        self.ops = []

    def doc(self, seed):
        """The generated workload config for a seed, built once per run."""
        if seed not in self.docs:
            path = os.path.join(self.work, f"workload-{seed}.json")
            _child("prepare", {"root": ROOT, "base": self.base, "patch": self.patch,
                               "seed": seed, "doc": path}, path + ".spec")
            self.docs[seed] = path
        return self.docs[seed]

    def operation(self, seed, traced):
        index = len(self.ops)
        out = os.path.join(self.work, f"op{index}")
        os.makedirs(out)
        doc = self.doc(seed)
        spec = {
            "root": ROOT, "doc": doc, "trace": traced,
            "argv": [arg.format(doc=doc, out=out) for arg in self.argv],
            "result": os.path.join(self.work, f"op{index}.result.json"),
            "spans": os.path.join(WORK_DIR, f"{self.name}.spans.json"),
        }
        env = {k: v for k, v in os.environ.items() if k != "ERGOKIT_SEED"}
        if self.argv[0] == "reproduce":
            env["ERGOKIT_SEED"] = str(seed)
        _child("run", spec, os.path.join(self.work, f"op{index}.spec"), env)
        result = _load_json(spec["result"])
        result.update(seed=seed, traced=traced)
        result["failures"] = gate(self.ref, out, result)
        result["artifacts"] = {
            name: _sha256(os.path.join(out, name)) for name in sorted(os.listdir(out))
        }
        shutil.rmtree(out)
        self.ops.append(result)

    def measure(self, seconds):
        """Start operations until `seconds` have passed; the planned ones
        (seed, traced) are always started."""
        plan = [(self.seed, False)]
        if self.trace:
            plan.insert(0, (self.seed, True))
            if self.seed != DEFAULT_SEED:
                plan.append((DEFAULT_SEED, False))
        for seed, _ in plan:
            self.doc(seed)
        deadline = time.monotonic() + seconds
        while len(self.ops) < len(plan) or time.monotonic() < deadline:
            if len(self.ops) < len(plan):
                seed, traced = plan[len(self.ops)]
            else:
                seed, traced = self.seed, self.trace and not self.ops[-1]["traced"]
            self.operation(seed, traced)
            if self.ops[-1]["exit"] is None and len(self.ops) >= len(plan):
                break  # a crashed command would likely crash again


def _median(values):
    """Median; a count stays a whole number."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def end_to_end(ops):
    return {key: _median(op[key] for op in ops)
            for key in ("cpu_s", "setup_s", "peak_rss_mb")}


def per_layer(bench_run):
    ops = bench_run.ops
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"] and op["seed"] == bench_run.seed]
    out = {key: _median(op["layers"][key] for op in traced) for key in traced[0]["layers"]}
    for kind in ("missing", "unobserved"):
        names = sorted({name for op in traced for name in op[kind]})
        if names:
            print(f"traced names {kind}, their metrics read 0: {', '.join(names)}",
                  file=sys.stderr)
    out["setup.import_s"] = _median(op["import_s"] for op in ops)
    out["config.validate_s"] = _median(op["validate_s"] for op in ops)
    out["cli.wall_s"] = _median(op["wall_s"] for op in untraced)
    out["trace.overhead_s"] = (_median(op["cpu_s"] for op in traced)
                               - _median(op["cpu_s"] for op in untraced))
    # measure() always runs one operation at DEFAULT_SEED when traced.
    default_op = next(op for op in ops if op["seed"] == DEFAULT_SEED)
    reference, actual = bench_run.ref["artifacts"], default_op["artifacts"]
    out["cli.artifacts_identical"] = 0
    for name in sorted(set(reference) | set(actual)):
        if reference.get(name) == actual.get(name):
            out["cli.artifacts_identical"] += 1
        else:
            print(f"artifact {bench_run.name}/{name} changed at seed {DEFAULT_SEED}: "
                  f"reference {reference.get(name)} now {actual.get(name)}")
    return out


def list_metrics(benchmark, layers):
    for metric in benchmark["end_to_end"]:
        print(f"{metric['name']:28} {metric['unit']:6} end-to-end, "
              f"{metric['better']} is better, bound {metric['bound']}")
    for metric in benchmark["per_layer"]:
        info = layers[metric["name"]]
        print(f"{metric['name']:28} {metric['unit']:6} layer {info['layer']}, "
              f"moves {info['moves']}, on {', '.join(info['on'])}")
    print("A layer a workload never calls reads 0 there (see bench/spans.py).")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args(argv)

    benchmark = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = args.seconds or benchmark["run_seconds"]
    if args.list:
        list_metrics(benchmark, _load_json(os.path.join(BENCH_DIR, "reference.json"))["layers"])
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "ergokit", "__init__.py")):
        raise HarnessError(f"no ergokit package under {os.path.join(ROOT, 'src')}")

    # ergokit seeds numpy generators, which need a non-negative seed.
    bench_run = WorkloadRun(args.workload, args.seed % (1 << 63), bool(args.trace))
    os.makedirs(bench_run.work)
    try:
        bench_run.measure(seconds)
    finally:
        shutil.rmtree(bench_run.work, ignore_errors=True)

    for op in bench_run.ops:
        for problem in op["failures"]:
            print(f"FAILED {args.workload} seed {op['seed']}: {problem}")
    values = per_layer(bench_run) if args.trace else end_to_end(bench_run.ops)
    metrics_spec = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    for metric in metrics_spec:
        value = values.get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise HarnessError(f"metric {metric['name']} has no numeric value: {value!r}")
    failed = sum(1 for op in bench_run.ops if op["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench_run.ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }))
    return 0


def _terminate(signum, frame):
    # Raising here lets subprocess.run kill and reap the running operation.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except (HarnessError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)

"""One benchmark operation, run in a fresh interpreter by bench/run.py.

    python3 bench/op.py prepare <spec.json>
        Import ergokit from the checkout, build the workload's config
        document from builtin_configs() plus the workload's overrides and
        seed, and write it to spec["doc"].
    python3 bench/op.py run <spec.json>
        Import ergokit from the checkout, validate spec["doc"] (the end of
        set-up), run one CLI command through ergokit.cli.main, and write
        the timings, peak RSS and, when traced, the per-layer metrics to
        spec["result"].

The package is imported from <root>/src, so each commit runs its own code;
the operation stops with an error if the import resolves anywhere else.

Times are CPU times of this process (user + system, all threads) unless
named wall: on a shared host the wall time of a CPU-bound command also
counts the time the host gives its CPUs to others.  set-up is the CPU time
from the start of the interpreter until the config has been validated.
"""

import copy
import importlib
import json
import os
import resource
import sys
import time
import traceback


def _import_ergokit(root):
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    start = time.process_time()
    cli = importlib.import_module("ergokit.cli")
    import_s = time.process_time() - start
    package_dir = os.path.dirname(os.path.realpath(sys.modules["ergokit"].__file__))
    if package_dir != os.path.join(src, "ergokit"):
        raise SystemExit(
            f"ergokit was imported from {package_dir}, not from the checkout's {src}"
        )
    return cli, import_s


def _merge(base, patch):
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = copy.deepcopy(value)


def prepare(spec):
    _import_ergokit(spec["root"])
    config = importlib.import_module("ergokit.config")
    doc = copy.deepcopy(config.builtin_configs()[spec["base"]])
    _merge(doc, spec["patch"])
    doc["simulation"]["seed"] = spec["seed"]
    with open(spec["doc"], "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)


def run(spec):
    cli, import_s = _import_ergokit(spec["root"])
    config = importlib.import_module("ergokit.config")
    with open(spec["doc"]) as handle:
        doc = json.load(handle)
    start = time.process_time()
    config.validate_config(doc)
    setup_s = time.process_time()
    result = {"import_s": import_s, "validate_s": setup_s - start, "setup_s": setup_s}

    tracer = None
    main = cli.main
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install({
            name: importlib.import_module(f"ergokit.{name}")
            for name in ("cli", "ergodicity", "models", "noise", "simulate")
        })
        main = tracer.wrap(spans.MAIN_SPAN, main, cpu_clock=time.process_time)

    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        result["exit"] = main(spec["argv"])
    except Exception:  # a crash in the command is a failed operation
        result["exit"] = None
        result["error"] = traceback.format_exc()
    result["cpu_s"] = time.process_time() - cpu_start
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = sorted(tracer.missing)
        result["unobserved"] = sorted(tracer.unobserved)
        tracer.write(spec["spans"])
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    mode, spec_path = sys.argv[1:3]
    with open(spec_path) as handle:
        op_spec = json.load(handle)
    {"prepare": prepare, "run": run}[mode](op_spec)

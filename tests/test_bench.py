"""The benchmark's commands stay valid CLI commands.

bench/run.py is read and executed from its text, never imported, so that no
bytecode is written under bench/.  Each workload starts from a built-in
config and runs one argv through the real CLI, so an option that the
benchmark passes (such as `--threads 2`) cannot be dropped from the CLI
while the benchmark still uses it.
"""

import json
from pathlib import Path

import pytest

from ergokit.cli import build_parser
from ergokit.config import builtin_configs

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _workloads():
    namespace = {"__name__": "bench_run", "__file__": str(RUN)}
    exec(compile(RUN.read_text(), str(RUN), "exec"), namespace)
    return namespace["WORKLOADS"]


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_is_a_valid_command(tmp_path, name):
    base, _, argv = WORKLOADS[name]
    assert base in builtin_configs()
    doc, out = str(tmp_path / "workload.json"), str(tmp_path / "out")
    filled = [arg.replace("{doc}", doc).replace("{out}", out) for arg in argv]
    args = build_parser().parse_args(filled)
    assert args.command == filled[0]
    if args.command == "reproduce":
        assert args.name in builtin_configs()


def test_every_declared_workload_has_a_command():
    declared = json.loads((RUN.parents[1] / "BENCHMARK.json").read_text())["workloads"]
    assert {workload["name"] for workload in declared} <= set(WORKLOADS)

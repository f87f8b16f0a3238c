"""Command-line front end: schema-checked config ingestion, drift/structure
checking, ensemble simulation with CSV/JSON artifacts, moment estimation,
and one-command reproduction of the built-in experiments.

Exit codes: 0 sufficient_condition_met, 2 condition_failed, 3 inconclusive,
1 for schema violations, malformed input, numeric failures, or I/O
failures.  Every file artifact ends with a provenance footer (tool version,
master seed, config hash) and is written atomically; outputs are
byte-identical across repeated runs.  `--threads` is accepted and changes no
result.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    builtin_configs,
    config_hash,
    format_float,
    json_dumps,
    moment_to_dict,
    provenance,
    provenance_comment,
    report_to_dict,
    summary_to_dict,
    validate_config,
    write_text_atomic,
)
from .ergodicity import (
    VERDICT_FAILED,
    VERDICT_INCONCLUSIVE,
    VERDICT_MET,
    check_model,
    shell_estimate_envelope,
)
from .noise import Expol2, StdGaussian, abs_moment
from .simulate import require_seed, simulate_ensemble

_EXIT_BY_VERDICT = {VERDICT_MET: 0, VERDICT_FAILED: 2, VERDICT_INCONCLUSIVE: 3}

# Full per-step trajectory dumps are only written for small runs; ensembles
# beyond this many rows still get snapshot and summary artifacts.
_TRAJECTORY_DUMP_ROW_CAP = 100_000

_SHELL_RADIUS = 100.0
_SHELL_SAMPLES = 4000


def _env_seed_override():
    raw = os.environ.get("ERGOKIT_SEED")
    if raw is None:
        return None
    try:
        seed = int(raw)
    except ValueError:
        seed = raw  # not an integer, which require_seed refuses by name
    try:
        return require_seed(seed, "ERGOKIT_SEED")
    except ValueError as exc:
        raise ConfigError(str(exc))


def _load_config_file(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _build_report(parsed):
    """Run the ergodicity checker described by a validated config."""
    model, checks = parsed["model"], parsed["checks"]
    envelope = checks["envelope"]
    if envelope == "analytic":
        envelope = None
    elif envelope == "shell":
        envelope = shell_estimate_envelope(
            model, checks["s"], m_ball=1.0, radius=_SHELL_RADIUS,
            n_samples=_SHELL_SAMPLES, seed=parsed["simulation"].master_seed,
        )
    return check_model(model, noise_spec=parsed["noise"], envelope=envelope,
                       extra_notes=parsed["notes"])


def _json_artifact(payload, seed, cfg_hash):
    """Text of a JSON artifact: payload with its provenance key added."""
    return json_dumps({**payload, "provenance": provenance(seed, cfg_hash)}) + "\n"


def cmd_check(args):
    doc = _load_config_file(args.config)
    parsed = validate_config(doc, seed_override=_env_seed_override())
    report = _build_report(parsed)
    text = _json_artifact(report_to_dict(report), parsed["simulation"].master_seed,
                          config_hash(doc))
    print(text, end="")
    if args.out:
        write_text_atomic(args.out, text)
    return _EXIT_BY_VERDICT[report.verdict]


def _snapshot_csv(summary, seed, cfg_hash):
    dim = len(summary.snapshots[0].mean)
    cols = ["time", "count"]
    cols += [f"mean_x{j + 1}" for j in range(dim)]
    cols += [f"second_x{j + 1}" for j in range(dim)]
    cols += ["norm_mean", "norm_q10", "norm_q50", "norm_q90"]
    lines = [",".join(cols)]
    for s in summary.snapshots:
        row = [str(s.time), str(s.count)]
        row += [format_float(v) for v in s.mean]
        row += [format_float(v) for v in s.second_moment]
        row += [format_float(v) for v in
                (s.norm_mean, s.norm_q10, s.norm_q50, s.norm_q90)]
        lines.append(",".join(row))
    lines.append(provenance_comment(seed, cfg_hash))
    return "\n".join(lines) + "\n"


def _trajectory_csv(paths, seed, cfg_hash):
    """Yield the text of trajectories.csv in pieces: the header line, the
    rows of one path at a time, then the provenance footer.

    Each path is filled in by one `%` over its flattened states, so the
    dump never holds more than one path's text.
    """
    dim = paths[0].states.shape[1]
    yield ",".join(["traj_id", "t"] + [f"x_{j + 1}" for j in range(dim)]) + "\n"
    # Simulation never keeps a non-finite state, so %.17g prints each value
    # exactly as format_float would.
    values = ",%.17g" * dim + "\n"
    tails = []  # tails[t] is row t's template after the path id
    for i, p in enumerate(paths):
        rows = p.states.shape[0]
        tails.extend(f",{t}{values}" for t in range(len(tails), rows))
        traj_id = str(i)
        template = traj_id + traj_id.join(tails[:rows])
        yield template % tuple(p.states.ravel().tolist())
    yield provenance_comment(seed, cfg_hash) + "\n"


def _simulation_verdict_lines(report, summary, cfg):
    last = summary.snapshots[-1]
    med = "nan" if math.isnan(last.norm_q50) else format_float(last.norm_q50)
    return [
        f"check: {report.verdict} (gamma = {format_float(report.gamma)})",
        (
            f"simulation: {summary.diverged_count}/{summary.n_traj} trajectories "
            f"diverged at threshold {format_float(cfg.divergence_threshold)}; "
            f"median l1 norm at t={last.time}: {med}"
        ),
    ]


def _dumps_trajectories(cfg):
    """Whether a run is small enough for trajectories.csv; only such a run
    keeps whole paths, and every larger one streams."""
    return cfg.n_traj * (cfg.horizon + 1) <= _TRAJECTORY_DUMP_ROW_CAP


def _write_simulation_artifacts(out_dir, parsed, doc):
    cfg = parsed["simulation"]
    cfg_hash = config_hash(doc)
    os.makedirs(out_dir, exist_ok=True)
    summary = simulate_ensemble(cfg, keep_paths=_dumps_trajectories(cfg))
    report = _build_report(parsed)

    write_text_atomic(
        os.path.join(out_dir, "snapshots.csv"),
        _snapshot_csv(summary, cfg.master_seed, cfg_hash),
    )
    if summary.paths is not None:
        write_text_atomic(
            os.path.join(out_dir, "trajectories.csv"),
            _trajectory_csv(summary.paths, cfg.master_seed, cfg_hash),
        )
    write_text_atomic(
        os.path.join(out_dir, "summary.json"),
        _json_artifact(summary_to_dict(summary), cfg.master_seed, cfg_hash),
    )
    verdict_lines = _simulation_verdict_lines(report, summary, cfg)
    verdict_lines.append(provenance_comment(cfg.master_seed, cfg_hash))
    write_text_atomic(
        os.path.join(out_dir, "verdict.txt"), "\n".join(verdict_lines) + "\n"
    )
    return report, summary


def cmd_simulate(args):
    doc = _load_config_file(args.config)
    parsed = validate_config(doc, seed_override=_env_seed_override())
    report, summary = _write_simulation_artifacts(args.out, parsed, doc)
    print(f"wrote {args.out}: " + "; ".join(
        _simulation_verdict_lines(report, summary, parsed["simulation"])
    ))
    return 0


def cmd_moments(args):
    noise = Expol2() if args.noise == "expol2" else StdGaussian(args.dim)
    if noise.dim != args.dim:
        raise ValueError(f"--dim is {args.dim} but {args.noise} noise has dim {noise.dim}")
    method = {"mc": "monte_carlo"}.get(args.method, args.method)
    require_seed(args.seed, "--seed")
    seed_override = _env_seed_override()
    seed = args.seed if seed_override is None else seed_override
    rng = None
    if method == "monte_carlo":
        rng = np.random.default_rng(seed)
    moment = abs_moment(noise, args.s, method=method, budget=args.budget, rng=rng)
    print(json_dumps({"noise": args.noise, **moment_to_dict(moment)}))
    return 0


def _comparison_expectations(name):
    """Expected outcomes per built-in experiment, phrased as testable claims."""
    failed = ("verdict condition_failed", lambda r, s: r.verdict == VERDICT_FAILED)
    gamma_at_least_1 = ("gamma at least 1", lambda r, s: r.gamma >= 1.0)
    medians_grow = (
        "median l1 norm strictly increasing across snapshots",
        lambda r, s: _strictly_increasing([q.norm_q50 for q in s.snapshots]),
    )
    if name == "example2-ergodic":
        return [
            ("verdict sufficient_condition_met",
             lambda r, s: r.verdict == VERDICT_MET),
            ("gamma below 1", lambda r, s: r.gamma < 1.0),
            ("no trajectory diverged", lambda r, s: s.diverged_count == 0),
            ("median l1 norm stays below 10 at every snapshot",
             lambda r, s: all(snap.norm_q50 < 10.0 for snap in s.snapshots)),
        ]
    if name == "example2-unit-root":
        return [failed, gamma_at_least_1, medians_grow]
    if name == "example2-variance":
        return [
            failed,
            gamma_at_least_1,
            ("structural witnesses fail",
             lambda r, s: any(not c.passed for c in r.structural)),
            # The reference account expects visible divergence here; simulation
            # shows bounded paths (the README's acceptance section says why), so
            # this expectation is listed and honestly marked when it fails.
            medians_grow,
        ]
    if name == "bekk-demo":
        return [
            failed,
            ("degeneracy locus is a line, not the whole plane",
             lambda r, s: _check_passed(r, "degeneracy_locus")),
            ("skeleton escapes the degenerate line in one step",
             lambda r, s: _skeleton_escapes_in_one_step(r)),
        ]
    raise ValueError(f"unknown experiment {name!r}")


def _strictly_increasing(values):
    return all(b > a for a, b in zip(values, values[1:]))


def _check_passed(report, name):
    return any(c.name == name and c.passed for c in report.structural)


def _skeleton_escapes_in_one_step(report):
    for c in report.structural:
        if c.name == "skeleton_escape":
            return c.passed and all(step == 1.0 for _, step in c.witnesses)
    return False


def _comparison_text(name, report, summary, seed, cfg_hash):
    lines = [
        f"experiment: {name}",
        f"checker verdict: {report.verdict}",
        f"gamma: {format_float(report.gamma)}",
        f"diverged trajectories: {summary.diverged_count}/{summary.n_traj}",
        "",
        "expected outcome vs observed:",
    ]
    mismatches = 0
    for label, predicate in _comparison_expectations(name):
        ok = bool(predicate(report, summary))
        mismatches += 0 if ok else 1
        lines.append(f"  [{'OK' if ok else 'MISMATCH'}] {label}")
    lines.append("")
    if mismatches:
        lines.append(
            f"{mismatches} expectation(s) not reproduced; see the acceptance "
            "section of README.md for the analysis"
        )
    else:
        lines.append("all expectations reproduced")
    lines.append(provenance_comment(seed, cfg_hash))
    return "\n".join(lines) + "\n"


def cmd_reproduce(args):
    configs = builtin_configs()
    if args.name not in configs:
        known = ", ".join(sorted(configs))
        print(f"unknown experiment {args.name!r}; available: {known}",
              file=sys.stderr)
        return 1
    doc = configs[args.name]
    parsed = validate_config(doc, seed_override=_env_seed_override())
    cfg = parsed["simulation"]
    cfg_hash = config_hash(doc)
    os.makedirs(args.out, exist_ok=True)

    write_text_atomic(os.path.join(args.out, "config.json"),
                      _json_artifact(doc, cfg.master_seed, cfg_hash))

    report, summary = _write_simulation_artifacts(args.out, parsed, doc)
    write_text_atomic(os.path.join(args.out, "report.json"),
                      _json_artifact(report_to_dict(report), cfg.master_seed, cfg_hash))
    write_text_atomic(
        os.path.join(args.out, "comparison.txt"),
        _comparison_text(args.name, report, summary, cfg.master_seed, cfg_hash),
    )
    print(f"wrote {args.out}: {args.name} -> {report.verdict}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ergokit",
        description=(
            "Simulate nonlinear stochastic difference equations and check "
            "sufficient conditions for geometric ergodicity."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="run structural checks and the drift criterion"
    )
    p_check.add_argument("config", help="path to a JSON experiment config")
    p_check.add_argument("--out", help="also write the report JSON here")
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="run an ensemble and emit artifacts")
    p_sim.add_argument("config", help="path to a JSON experiment config")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--threads", type=int, default=1,
                       help="accepted; results are identical for any value")
    p_sim.set_defaults(func=cmd_simulate)

    p_mom = sub.add_parser("moments", help="estimate E[||e||_s] for a noise kind")
    p_mom.add_argument("--noise", choices=("expol2", "gaussian"), required=True)
    p_mom.add_argument("--s", type=float, required=True)
    p_mom.add_argument("--method", choices=("quadrature", "mc", "analytic"),
                       default="quadrature")
    p_mom.add_argument("--budget", type=int, default=100_000,
                       help="Monte Carlo sample count (mc method only)")
    p_mom.add_argument("--dim", type=int, default=2,
                       help="noise dimension (expol2 has dim 2 only)")
    p_mom.add_argument("--seed", type=int, default=0,
                       help="Monte Carlo seed (mc method only)")
    p_mom.set_defaults(func=cmd_moments)

    p_rep = sub.add_parser(
        "reproduce", help="run a built-in experiment end to end"
    )
    p_rep.add_argument("name", help="experiment name (see error text for list)")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.add_argument("--threads", type=int, default=1,
                       help="accepted; results are identical for any value")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: numeric failure ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

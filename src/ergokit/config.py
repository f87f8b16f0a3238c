"""Experiment config schema, built-in experiment definitions, deterministic
JSON emission, and report serialization.

Configs are plain JSON documents validated against a closed schema: unknown
keys are rejected with the offending path so typos never silently change an
experiment.  All emitted JSON prints floats with 17 significant digits
(non-finite values become null) so repeated runs are byte-identical.
"""

import dataclasses
import hashlib
import math
import os
import tempfile

from . import __version__
from .ergodicity import SOURCE_USER, DriftEnvelope
from .models import AffineMap, BekkArch, ThresholdAffine2D
from .noise import Expol2, StdGaussian
from .norms import require_exponent
from .simulate import DEFAULT_DIVERGENCE_THRESHOLD, SimulationConfig, require_seed


class ConfigError(ValueError):
    """Schema violation; the message carries the offending JSON path."""


def _fail(path, message):
    raise ConfigError(f"{message} at {path}")


def _require_keys(doc, path, required, optional=()):
    if not isinstance(doc, dict):
        _fail(path, "expected an object")
    for key in doc:
        if key not in required and key not in optional:
            _fail(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in doc:
            _fail(f"{path}.{key}", "missing required key")


def _as_real(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    return value


def _as_number(value, path):
    if not math.isfinite(_as_real(value, path)):
        _fail(path, "expected a finite number")
    return float(value)


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    return value


def _as_vector(value, path, length=2):
    if not isinstance(value, list) or len(value) != length:
        _fail(path, f"expected a list of {length} numbers")
    return tuple(_as_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _as_matrix(value, path, size=2):
    if not isinstance(value, list) or len(value) != size:
        _fail(path, f"expected a {size}x{size} matrix")
    return tuple(_as_vector(row, f"{path}[{i}]", size) for i, row in enumerate(value))


def model_from_config(doc, path="$.model"):
    if not isinstance(doc, dict) or "kind" not in doc:
        _fail(path, "expected an object with a 'kind' key")
    kind = doc["kind"]
    if kind == "threshold":
        _require_keys(doc, path, ("kind", "a", "B", "D_main", "D_c", "D_const"))
        return ThresholdAffine2D(
            a=_as_vector(doc["a"], f"{path}.a"),
            b_mat=_as_matrix(doc["B"], f"{path}.B"),
            d_main=_as_matrix(doc["D_main"], f"{path}.D_main"),
            d_c=_as_vector(doc["D_c"], f"{path}.D_c"),
            d_const=_as_vector(doc["D_const"], f"{path}.D_const"),
        )
    if kind == "bekk":
        _require_keys(doc, path, ("kind", "A", "B", "f"))
        _require_keys(doc["f"], f"{path}.f", ("a", "B"))
        f_map = AffineMap(
            matrix=_as_matrix(doc["f"]["B"], f"{path}.f.B"),
            offset=_as_vector(doc["f"]["a"], f"{path}.f.a"),
        )
        return BekkArch(
            f=f_map,
            a_mat=_as_matrix(doc["A"], f"{path}.A"),
            b_mat=_as_matrix(doc["B"], f"{path}.B"),
        )
    _fail(f"{path}.kind", f"unknown model kind {kind!r}")


def noise_from_config(doc, path="$.noise"):
    if not isinstance(doc, dict) or "kind" not in doc:
        _fail(path, "expected an object with a 'kind' key")
    kind = doc["kind"]
    if kind == "expol2":
        _require_keys(doc, path, ("kind",))
        return Expol2()
    if kind == "gaussian":
        _require_keys(doc, path, ("kind",), optional=("dim",))
        dim = _as_int(doc.get("dim", 2), f"{path}.dim")
        try:
            return StdGaussian(dim)
        except ValueError as exc:
            _fail(f"{path}.dim", str(exc))
    _fail(f"{path}.kind", f"unknown noise kind {kind!r}")


def _checks_from_config(doc, model, path="$.checks"):
    default_s = model.analytic_envelope_s
    if doc is None:
        return {"s": default_s, "envelope": "analytic"}
    _require_keys(doc, path, (), optional=("s", "envelope"))
    s = _as_real(doc.get("s", default_s), f"{path}.s")
    try:
        s = require_exponent(s)
    except ValueError as exc:
        _fail(f"{path}.s", str(exc))
    envelope = doc.get("envelope", "analytic")
    env_path = f"{path}.envelope"
    if isinstance(envelope, str):
        if envelope not in ("analytic", "shell"):
            _fail(env_path, f"unknown envelope mode {envelope!r}")
        if envelope == "analytic" and s != default_s:
            _fail(f"{path}.s", (
                f"the analytic envelope for this model family fixes s={default_s:g}; "
                "use a shell or explicit envelope for other exponents"
            ))
    elif isinstance(envelope, dict):
        _require_keys(envelope, env_path, ("a_f", "b_f", "a_g", "b_g", "M"))
        try:
            envelope = DriftEnvelope(
                s=s,
                a_f=_as_number(envelope["a_f"], f"{env_path}.a_f"),
                b_f=_as_number(envelope["b_f"], f"{env_path}.b_f"),
                a_g=_as_number(envelope["a_g"], f"{env_path}.a_g"),
                b_g=_as_number(envelope["b_g"], f"{env_path}.b_g"),
                m_ball=_as_number(envelope["M"], f"{env_path}.M"),
                source=SOURCE_USER,
            )
        except ConfigError:
            raise
        except ValueError as exc:
            _fail(env_path, str(exc))
    else:
        _fail(env_path, "expected 'analytic', 'shell' or an envelope object")
    return {"s": s, "envelope": envelope}


def validate_config(doc, seed_override=None):
    """Normalize a config document into constructed objects.

    Returns a dict with the model spec, noise spec, SimulationConfig, the
    checks description ({'s', 'envelope'}), and free-text notes.  Raises
    ConfigError naming the offending JSON path on any schema violation.
    """
    # "provenance" is emitted on reproduced configs and ignored on re-parse
    # so emitted configs round-trip.
    _require_keys(doc, "$", ("model", "noise", "simulation"),
                  optional=("checks", "notes", "provenance"))
    model = model_from_config(doc["model"])
    noise = noise_from_config(doc["noise"])
    try:
        model.require_noise(noise)
    except ValueError as exc:
        _fail("$.noise.dim", str(exc))
    sim_doc = doc["simulation"]
    _require_keys(sim_doc, "$.simulation", ("T", "n_traj", "snapshots", "seed"),
                  optional=("divergence_threshold",))
    horizon = _as_int(sim_doc["T"], "$.simulation.T")
    n_traj = _as_int(sim_doc["n_traj"], "$.simulation.n_traj")
    snaps = sim_doc["snapshots"]
    if not isinstance(snaps, list) or not snaps:
        _fail("$.simulation.snapshots", "expected a nonempty list of integers")
    snapshots = tuple(
        _as_int(t, f"$.simulation.snapshots[{i}]") for i, t in enumerate(snaps)
    )
    try:
        seed = require_seed(sim_doc["seed"], "seed")
    except ValueError as exc:
        _fail("$.simulation.seed", str(exc))
    if seed_override is not None:
        try:
            seed = require_seed(seed_override, "seed_override")
        except ValueError as exc:
            raise ConfigError(str(exc))
    threshold = sim_doc.get("divergence_threshold", DEFAULT_DIVERGENCE_THRESHOLD)
    threshold = _as_number(threshold, "$.simulation.divergence_threshold")
    notes = doc.get("notes", "")
    if not isinstance(notes, str):
        _fail("$.notes", "expected a string")
    try:
        sim = SimulationConfig(
            model=model, noise=noise, x0=(0.0,) * model.dim, horizon=horizon,
            n_traj=n_traj, snapshot_times=snapshots, master_seed=seed,
            divergence_threshold=threshold,
        )
    except ValueError as exc:
        _fail("$.simulation", str(exc))
    checks = _checks_from_config(doc.get("checks"), model)
    return {
        "model": model, "noise": noise, "simulation": sim,
        "checks": checks, "notes": notes,
    }


def builtin_configs():
    """The built-in experiment documents with exact coefficient sets."""
    threshold_base = {
        "kind": "threshold",
        "a": [0.0, 0.0],
        "B": [[0.2, 0.1], [0.1, 0.3]],
        "D_main": [[0.1, -0.15], [-0.15, 0.1]],
        "D_c": [0.2, -0.25],
        "D_const": [1.0, 1.0],
    }
    ergodic = {
        "model": dict(threshold_base),
        "noise": {"kind": "expol2"},
        "simulation": {"T": 10000, "n_traj": 200,
                       "snapshots": [100, 1000, 5000, 10000],
                       "seed": 20260814},
        "checks": {"s": 1.0, "envelope": "analytic"},
        "notes": (
            "a reference figure of 0.981 circulates for this example's drift "
            "coefficient; the column-sum formulas used here give 0.8137; both "
            "are below 1, so the sufficient condition holds either way"
        ),
    }
    unit_root = {
        "model": {**threshold_base, "B": [[1.0, 0.0], [0.0, 1.0]]},
        "noise": {"kind": "expol2"},
        "simulation": {"T": 10000, "n_traj": 50,
                       "snapshots": [100, 1000, 10000],
                       "seed": 20260814},
        "checks": {"s": 1.0, "envelope": "analytic"},
        "notes": "unit-root mean matrix: the drift coefficient cannot drop below 1",
    }
    variance = {
        "model": {**threshold_base,
                  "D_main": [[0.4, 0.4], [0.4, 0.4]],
                  "D_c": [0.4, 0.4]},
        "noise": {"kind": "expol2"},
        "simulation": {"T": 10000, "n_traj": 50,
                       "snapshots": [100, 1000, 10000],
                       "seed": 20260814},
        "checks": {"s": 1.0, "envelope": "analytic"},
        "notes": (
            "volatility coefficients raised to 0.4: the drift bound and both "
            "structural witnesses fail"
        ),
    }
    bekk_demo = {
        "model": {
            "kind": "bekk",
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "B": [[1.0, 1.0], [1.0, 1.0]],
            "f": {"a": [1.0, 0.0], "B": [[0.4, 0.0], [0.0, 0.4]]},
        },
        "noise": {"kind": "gaussian", "dim": 2},
        "simulation": {"T": 500, "n_traj": 50, "snapshots": [100, 500],
                       "seed": 20260814},
        "checks": {"s": 2.0, "envelope": "analytic"},
        "notes": (
            "rank-one B: the volatility determinant vanishes on the line "
            "x1 = x2, and the mean map leaves that line in one step"
        ),
    }
    return {
        "example2-ergodic": ergodic,
        "example2-unit-root": unit_root,
        "example2-variance": variance,
        "bekk-demo": bekk_demo,
    }


def format_float(value):
    """17-significant-digit decimal; non-finite values map to JSON null."""
    v = float(value)
    if not math.isfinite(v):
        return "null"
    return f"{v:.17g}"


def json_dumps(obj, sort_keys=False):
    """Deterministic JSON emitter using format_float for every float.

    Objects are printed one key per line with 2-space indentation per
    depth; arrays are printed inline.
    """

    def render(value, depth):
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            return format_float(value)
        if isinstance(value, str):
            return _escape_string(value)
        if isinstance(value, (list, tuple)):
            items = [render(v, depth + 1) for v in value]
            return "[" + ", ".join(items) + "]"
        if isinstance(value, dict):
            keys = sorted(value) if sort_keys else list(value)
            lead = "\n" + " " * (2 * (depth + 1))
            close = "\n" + " " * (2 * depth)
            items = [
                f"{lead}{_escape_string(str(k))}: {render(value[k], depth + 1)}"
                for k in keys
            ]
            if not items:
                return "{}"
            return "{" + ",".join(items) + close + "}"
        raise TypeError(f"cannot serialize {type(value).__name__}")

    return render(obj, 0)


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def _escape_string(text):
    out = (_ESCAPES.get(ch) or (f"\\u{ord(ch):04x}" if ord(ch) < 0x20 else ch)
           for ch in text)
    return '"' + "".join(out) + '"'


def config_hash(doc):
    """sha256 of the sort-keys canonical serialization of a config document."""
    return hashlib.sha256(
        json_dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()


def provenance(master_seed, cfg_hash):
    return {
        "tool_version": __version__,
        "master_seed": int(master_seed),
        "config_hash": cfg_hash,
    }


def provenance_comment(master_seed, cfg_hash):
    """One-line footer for CSV outputs."""
    return f"# ergokit {__version__} seed={int(master_seed)} config={cfg_hash[:12]}"


def write_text_atomic(path, text):
    """Write via a temp file and rename, so readers never see partial files.

    `text` is a str or an iterable of str pieces; pieces are written as they
    come and never joined.  If writing fails, or the iterable raises, the
    temp file is removed and an existing file at `path` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ergokit-")
    try:
        # mkstemp creates the file 0600; give it the mode open(path, "w") would.
        umask = os.umask(0o077)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def moment_to_dict(moment):
    return dataclasses.asdict(moment)


def envelope_to_dict(envelope):
    return {
        "s": envelope.s,
        "a_f": envelope.a_f,
        "b_f": envelope.b_f,
        "a_g": envelope.a_g,
        "b_g": envelope.b_g,
        "M": envelope.m_ball,
        "source": envelope.source,
    }


def report_to_dict(report):
    return {
        "structural": [
            {
                "name": c.name,
                "passed": c.passed,
                "witnesses": {k: v for k, v in c.witnesses},
            }
            for c in report.structural
        ],
        "gamma": report.gamma,
        "noise_moment": moment_to_dict(report.noise_moment),
        "envelope": envelope_to_dict(report.envelope),
        "verdict": report.verdict,
        "notes": report.notes,
    }


def snapshot_stats_to_dict(stats):
    return dataclasses.asdict(stats)


def summary_to_dict(summary):
    return {
        "n_traj": summary.n_traj,
        "diverged_count": summary.diverged_count,
        "divergence_steps": list(summary.divergence_steps),
        "snapshots": [snapshot_stats_to_dict(s) for s in summary.snapshots],
    }

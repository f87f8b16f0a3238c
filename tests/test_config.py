import ast
import dataclasses
import inspect
import math
import os
import re
import stat

import pytest

from ergokit import config, noise
from ergokit.config import (
    ConfigError,
    builtin_configs,
    config_hash,
    format_float,
    json_dumps,
    model_from_config,
    report_to_dict,
    summary_to_dict,
    validate_config,
    write_text_atomic,
)
from ergokit.ergodicity import DriftEnvelope, check_model
from ergokit.models import BekkArch, ThresholdAffine2D
from ergokit.noise import Expol2, StdGaussian
from ergokit.simulate import SimulationConfig, simulate_ensemble


def ergodic_doc():
    return builtin_configs()["example2-ergodic"]


def test_builtin_configs_validate():
    for name, doc in builtin_configs().items():
        parsed = validate_config(doc)
        assert isinstance(parsed["simulation"], SimulationConfig)
        assert parsed["checks"]["s"] in (1.0, 2.0)
    ergodic = validate_config(ergodic_doc())
    assert isinstance(ergodic["model"], ThresholdAffine2D)
    assert "0.981" in ergodic["notes"]
    bekk = validate_config(builtin_configs()["bekk-demo"])
    assert isinstance(bekk["model"], BekkArch)
    assert isinstance(bekk["noise"], StdGaussian)
    assert isinstance(ergodic["noise"], Expol2)


def test_model_coefficients_round_trip():
    doc = ergodic_doc()["model"]
    m = model_from_config(doc)
    assert m.b_mat == ((0.2, 0.1), (0.1, 0.3))
    assert m.d_main == ((0.1, -0.15), (-0.15, 0.1))
    assert m.d_c == (0.2, -0.25)
    assert m.d_const == (1.0, 1.0)


def test_unknown_keys_rejected_with_path():
    doc = ergodic_doc()
    with pytest.raises(ConfigError, match=r"\$\.bogus"):
        validate_config({**doc, "bogus": 1})
    with pytest.raises(ConfigError, match=r"\$\.model\.extra"):
        validate_config({**doc, "model": {**doc["model"], "extra": 1}})
    with pytest.raises(ConfigError, match=r"\$\.simulation\.thread"):
        validate_config(
            {**doc, "simulation": {**doc["simulation"], "thread": 4}}
        )
    with pytest.raises(ConfigError, match=r"\$\.checks\.tolerance"):
        validate_config({**doc, "checks": {"s": 1.0, "tolerance": 0.1}})


def test_missing_keys_rejected_with_path():
    doc = ergodic_doc()
    trimmed = {k: v for k, v in doc.items() if k != "noise"}
    with pytest.raises(ConfigError, match=r"\$\.noise"):
        validate_config(trimmed)
    model = {k: v for k, v in doc["model"].items() if k != "D_c"}
    with pytest.raises(ConfigError, match=r"\$\.model\.D_c"):
        validate_config({**doc, "model": model})


def test_value_type_errors_carry_paths():
    doc = ergodic_doc()
    with pytest.raises(ConfigError, match=r"\$\.model\.B"):
        validate_config({**doc, "model": {**doc["model"], "B": "big"}})
    with pytest.raises(ConfigError, match=r"\$\.simulation\.T"):
        validate_config(
            {**doc, "simulation": {**doc["simulation"], "T": 10.5}}
        )
    with pytest.raises(ConfigError, match=r"\$\.simulation\.seed"):
        validate_config(
            {**doc, "simulation": {**doc["simulation"], "seed": True}}
        )
    with pytest.raises(ConfigError, match=r"\$\.simulation\.snapshots"):
        validate_config(
            {**doc, "simulation": {**doc["simulation"], "snapshots": []}}
        )
    with pytest.raises(ConfigError, match=r"\$\.simulation"):
        validate_config(
            {**doc, "simulation": {**doc["simulation"], "snapshots": [20000]}}
        )
    with pytest.raises(ConfigError, match=r"\$\.model\.kind"):
        validate_config({**doc, "model": {"kind": "garch"}})
    with pytest.raises(ConfigError, match=r"\$\.noise\.kind"):
        validate_config({**doc, "noise": {"kind": "cauchy"}})



def test_noise_dimension_mismatch_is_a_config_error():
    # The noise section is at fault, also when the simulation section is
    # invalid too; a matching explicit dim is accepted.
    doc = ergodic_doc()
    bad_sim = {**doc["simulation"], "snapshots": [20000]}
    for dim, sim in ((3, doc["simulation"]), (1, bad_sim), (3, bad_sim)):
        with pytest.raises(ConfigError, match=rf"noise has dim {dim} but the model has "
                                              r"dim 2 at \$\.noise\.dim$"):
            validate_config({**doc, "noise": {"kind": "gaussian", "dim": dim},
                             "simulation": sim})
    assert validate_config({**doc, "noise": {"kind": "gaussian", "dim": 2}})["noise"].dim == 2


@pytest.mark.parametrize("dim", [0, -1])
def test_gaussian_dim_below_1_is_a_config_error(dim):
    doc = {**ergodic_doc(), "noise": {"kind": "gaussian", "dim": dim}}
    with pytest.raises(ConfigError, match=rf"^dim must be >= 1, got {dim} at \$\.noise\.dim$"):
        validate_config(doc)


def test_analytic_envelope_at_the_wrong_s_is_a_config_error():
    doc = ergodic_doc()
    with pytest.raises(ConfigError, match=r"fixes s=1; .* at \$\.checks\.s$"):
        validate_config({**doc, "checks": {"s": 2.0, "envelope": "analytic"}})
    bekk = builtin_configs()["bekk-demo"]
    with pytest.raises(ConfigError, match=r"fixes s=2; .* at \$\.checks\.s$"):
        validate_config({**bekk, "checks": {"s": 1.0}})
    # Other envelopes take any s.
    validate_config({**doc, "checks": {"s": 2.0, "envelope": "shell"}})


def test_seed_override_applies():
    parsed = validate_config(ergodic_doc(), seed_override=42)
    assert parsed["simulation"].master_seed == 42


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, -1, 2 ** 64])
def test_seed_must_fit_64_unsigned_bits(seed):
    # mix64 reduces the seed mod 2^64, so a wider seed would simulate as
    # another one while its provenance names the full value.
    doc = ergodic_doc()
    doc["simulation"] = {**doc["simulation"], "seed": seed}
    if 0 <= seed < 2 ** 64:
        assert validate_config(doc)["simulation"].master_seed == seed
    else:
        with pytest.raises(ConfigError, match=r"\[0, 2\^64\) at \$\.simulation\.seed"):
            validate_config(doc)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, -1, 2 ** 64, 2 ** 64 + 20260814])
def test_every_seed_path_holds_the_64_bit_range(seed):
    # mix64 would run 2^64 + 20260814 as the seed-20260814 ensemble.
    sim = validate_config(ergodic_doc())["simulation"]
    if 0 <= seed < 2 ** 64:
        assert dataclasses.replace(sim, master_seed=seed).master_seed == seed
        assert validate_config(ergodic_doc(), seed_override=seed)["simulation"].master_seed == seed
        return
    with pytest.raises(ValueError, match=r"^master_seed -?\d+ is not an integer in \[0, 2\^64\)$"):
        dataclasses.replace(sim, master_seed=seed)
    # The override names itself, not master_seed or $.simulation.
    with pytest.raises(ConfigError, match=r"^seed_override -?\d+ is not an integer in \[0, 2\^64\)$"):
        validate_config(ergodic_doc(), seed_override=seed)


@pytest.mark.parametrize("seed", [True, 1.5, "7"])
def test_seed_override_must_be_an_integer(seed):
    # int() would run True as seed 1, 1.5 as 1 and "7" as 7.
    with pytest.raises(ConfigError, match="^" + re.escape(
            f"seed_override {seed!r} is not an integer in [0, 2^64)") + "$"):
        validate_config(ergodic_doc(), seed_override=seed)


def test_user_envelope_parsing():
    doc = ergodic_doc()
    env_doc = {"a_f": 0.0, "b_f": 0.4, "a_g": 2.0, "b_g": 0.25, "M": 1.0}
    parsed = validate_config({**doc, "checks": {"s": 1.0, "envelope": env_doc}})
    env = parsed["checks"]["envelope"]
    assert isinstance(env, DriftEnvelope)
    assert env.source == "user_supplied"
    assert env.b_g == 0.25
    # b_f = 0 (a zero mean matrix) is a valid bound; a negative one is not.
    zero_bf = {**env_doc, "b_f": 0.0}
    parsed = validate_config({**doc, "checks": {"s": 1.0, "envelope": zero_bf}})
    assert parsed["checks"]["envelope"].b_f == 0.0
    bad = {**env_doc, "b_f": -0.1}
    with pytest.raises(ConfigError, match=r"\$\.checks\.envelope"):
        validate_config({**doc, "checks": {"s": 1.0, "envelope": bad}})
    with pytest.raises(ConfigError, match=r"\$\.checks\.envelope"):
        validate_config({**doc, "checks": {"s": 1.0, "envelope": "magic"}})


def test_provenance_key_is_ignored_on_reparse():
    doc = dict(ergodic_doc())
    doc["provenance"] = {"tool_version": "0.1.0", "master_seed": 1,
                         "config_hash": "ab"}
    parsed = validate_config(doc)
    assert parsed["simulation"].master_seed == 20260814


def test_format_float():
    assert format_float(0.25) == "0.25"
    assert format_float(float("nan")) == "null"
    assert format_float(float("inf")) == "null"
    assert format_float(1.0) == "1"
    # Round-trip at 17 significant digits is exact for doubles.
    for v in (0.1, 2.1724538509055162, -1e-300, 3.5e10):
        assert float(format_float(v)) == v


def test_json_dumps_shapes_and_determinism():
    doc = {"b": [1, 2.5, None, True], "a": {"x": float("nan")}, "s": 'q"\n'}
    text = json_dumps(doc)
    assert text == json_dumps(doc)
    assert '"x": null' in text
    assert '"q\\"\\n"' in text
    # Insertion order by default, sorted on request.
    assert text.index('"b"') < text.index('"a"')
    sorted_text = json_dumps(doc, sort_keys=True)
    assert sorted_text.index('"a"') < sorted_text.index('"b"')
    # Integers are not floats.
    assert "[1, 2.5, null, true]" in text
    with pytest.raises(TypeError):
        json_dumps({"bad": object()})
    import json as stdlib_json

    parsed = stdlib_json.loads(text)
    assert parsed["b"] == [1, 2.5, None, True]


def test_config_hash_is_key_order_independent():
    a = {"x": 1, "y": {"p": 0.25, "q": 2}}
    b = {"y": {"q": 2, "p": 0.25}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "x": 2})


def test_write_text_atomic(tmp_path):
    target = tmp_path / "out.txt"
    write_text_atomic(str(target), "first\n")
    assert target.read_text() == "first\n"
    write_text_atomic(str(target), "second\n")
    assert target.read_text() == "second\n"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".ergokit-")]
    assert leftovers == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_write_text_atomic_gives_the_mode_open_would(tmp_path, umask, mode):
    target = tmp_path / "out.txt"
    old = os.umask(umask)
    try:
        write_text_atomic(str(target), "text\n")
        assert os.umask(umask) == umask  # the umask is left as it was
    finally:
        os.umask(old)
    assert stat.S_IMODE(target.stat().st_mode) == mode


def test_write_text_atomic_writes_pieces(tmp_path):
    target, plain = tmp_path / "out.txt", tmp_path / "plain.txt"
    pieces = ["traj_id,t\n", "", "0,0\n" * 50_000, "# footer\n"]
    write_text_atomic(str(target), iter(pieces))
    with open(plain, "w"):
        pass
    assert target.read_text() == "".join(pieces)
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_write_text_atomic_keeps_the_old_file_when_the_pieces_raise(tmp_path):
    target = tmp_path / "out.txt"
    write_text_atomic(str(target), "old\n")

    def pieces():
        yield "new\n" * 50_000
        raise RuntimeError("no more pieces")

    with pytest.raises(RuntimeError, match="no more pieces"):
        write_text_atomic(str(target), pieces())
    assert target.read_text() == "old\n"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".ergokit-")]
    assert leftovers == []


def test_report_and_summary_serialize():
    parsed = validate_config(ergodic_doc())
    report = check_model(parsed["model"], noise_spec=parsed["noise"],
                         extra_notes=parsed["notes"])
    payload = report_to_dict(report)
    assert payload["verdict"] == "sufficient_condition_met"
    assert "0.981" in payload["notes"]
    names = [c["name"] for c in payload["structural"]]
    assert names == ["coefexpol", "d_main_nonsingular"]
    text = json_dumps(payload)
    assert '"gamma"' in text

    small = SimulationConfig(model=parsed["model"], noise=parsed["noise"],
                             x0=(0.0, 0.0), horizon=20, n_traj=3,
                             snapshot_times=(10, 20), master_seed=5)
    summary_payload = summary_to_dict(simulate_ensemble(small))
    assert summary_payload["n_traj"] == 3
    assert len(summary_payload["snapshots"]) == 2
    assert summary_payload["divergence_steps"] == [None, None, None]
    json_dumps(summary_payload)


def _noise_kinds():
    """The `kind` strings that config.noise_from_config compares with."""
    tree = ast.parse(inspect.getsource(config.noise_from_config))
    return sorted(
        node.comparators[0].value for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
        and node.left.id == "kind" and isinstance(node.comparators[0], ast.Constant))


def test_every_noise_law_is_built_by_some_config_kind():
    # A law that no config builds is reached by no command: delete it or
    # give it a kind.
    laws = {cls for cls in vars(noise).values()
            if isinstance(cls, type) and issubclass(cls, noise._NoiseSpec)
            and cls is not noise._NoiseSpec}
    built = {type(config.noise_from_config({"kind": kind})) for kind in _noise_kinds()}
    assert laws == built

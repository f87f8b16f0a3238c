import math
import os

import pytest

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
from ergokit.ergodicity import DriftEnvelope, check_threshold_model
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
    doc = ergodic_doc()
    with pytest.raises(ConfigError, match=r"noise has dim 3 .* at \$\.simulation$"):
        validate_config({**doc, "noise": {"kind": "gaussian", "dim": 3}})


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


def test_report_and_summary_serialize():
    parsed = validate_config(ergodic_doc())
    report = check_threshold_model(parsed["model"], noise_spec=parsed["noise"],
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

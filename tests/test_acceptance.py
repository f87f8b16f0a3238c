"""End-to-end acceptance suite: one test per shipped criterion, in order.

Each test prints a PASS/FAIL line per claim (shown with pytest -s, and in
the failure report otherwise).  Two expectations are known not to replicate
and are asserted faithfully anyway, so they fail honestly rather than being
weakened: the s=2 legs of the matrix-norm property suite, and the variance
variant's divergence under simulation.  README.md's acceptance section gives
the analysis for both.
"""

import json
import math
import time

import numpy as np
import pytest

from ergokit.cli import main
from ergokit.config import builtin_configs, validate_config
from ergokit.ergodicity import (
    VERDICT_FAILED,
    VERDICT_MET,
    check_bekk_model,
    check_coefexpol,
    check_threshold_model,
    threshold_envelope,
)
from ergokit.models import (
    AffineMap,
    BekkArch,
    ThresholdAffine2D,
    eval_g,
    g_determinant,
)
from ergokit.noise import Expol2, abs_moment
from ergokit.norms import (
    frobenius_norm,
    matrix_col_sum_norm,
    psd_sqrt,
    vector_s_norm,
)
from ergokit.simulate import (
    aggregate_ensemble,
    run_trajectories,
    simulate_ensemble,
    snapshot_distance,
)


def _lines(results):
    """Print one PASS/FAIL line per claim; return the failed labels."""
    failed = []
    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}: {label}")
        if not ok:
            failed.append(label)
    return failed


def _example2_model():
    return validate_config(builtin_configs()["example2-ergodic"])["model"]


def test_criterion_1_noise_moment():
    start = time.monotonic()
    quad = abs_moment(Expol2(), 1.0, method="quadrature")
    mc = abs_moment(Expol2(), 1.0, method="monte_carlo", budget=10 ** 6,
                    rng=np.random.default_rng(314159))
    elapsed = time.monotonic() - start
    gap = abs(mc.value - quad.value)
    failed = _lines([
        (f"quadrature E||e||_1 = {quad.value:.6f} within [1.64, 1.68]",
         1.64 <= quad.value <= 1.68),
        (f"monte carlo ({mc.sample_count} draws) within 3 standard errors: "
         f"gap {gap:.2e} <= {3 * mc.std_error:.2e}", gap <= 3 * mc.std_error),
        (f"runtime {elapsed:.2f}s < 5s", elapsed < 5.0),
    ])
    assert not failed, failed


def test_criterion_2_drift_checker_on_threshold_examples():
    env = threshold_envelope(_example2_model())
    parsed = validate_config(builtin_configs()["example2-ergodic"])
    report = check_threshold_model(parsed["model"], noise_spec=parsed["noise"],
                                   extra_notes=parsed["notes"])
    unit_root = validate_config(builtin_configs()["example2-unit-root"])
    report_ur = check_threshold_model(unit_root["model"],
                                      noise_spec=unit_root["noise"])
    variance = validate_config(builtin_configs()["example2-variance"])
    report_var = check_threshold_model(variance["model"],
                                       noise_spec=variance["noise"])
    failed = _lines([
        ("b_f equals 0.4 exactly", env.b_f == 0.4),
        ("b_g equals 0.25 exactly", env.b_g == 0.25),
        (f"gamma = {report.gamma:.6f} < 1 with verdict sufficient_condition_met",
         report.gamma < 1.0 and report.verdict == VERDICT_MET),
        ("report notes carry the 0.981 reference figure next to the "
         "formula-derived value",
         "0.981" in report.notes and f"{report.gamma:.6g}" in report.notes),
        (f"unit-root variant verdict {report_ur.verdict} == condition_failed",
         report_ur.verdict == VERDICT_FAILED),
        (f"variance variant verdict {report_var.verdict} == condition_failed",
         report_var.verdict == VERDICT_FAILED),
    ])
    assert not failed, failed


def test_criterion_3_norm_property_suite():
    start = time.monotonic()
    rng = np.random.default_rng(12345)
    slack = 1e-10
    results = []
    for s in (0.5, 0.75, 1.0, 2.0):
        worst_tri = worst_sub = worst_comp = -math.inf
        for _ in range(10 ** 4):
            a = rng.uniform(-2.0, 2.0, (2, 2))
            b = rng.uniform(-2.0, 2.0, (2, 2))
            x = rng.uniform(-2.0, 2.0, 2)
            y = rng.uniform(-2.0, 2.0, 2)
            worst_tri = max(
                worst_tri,
                vector_s_norm(x + y, s) - vector_s_norm(x, s) - vector_s_norm(y, s),
            )
            worst_sub = max(
                worst_sub,
                matrix_col_sum_norm(a @ b, s)
                - matrix_col_sum_norm(a, s) * matrix_col_sum_norm(b, s),
            )
            worst_comp = max(
                worst_comp,
                vector_s_norm(a @ x, s)
                - matrix_col_sum_norm(a, s) * vector_s_norm(x, s),
            )
        results.append((f"s={s}: triangle slack {worst_tri:.2e} <= 1e-10",
                        worst_tri <= slack))
        results.append((f"s={s}: submultiplicativity slack {worst_sub:.2e} <= 1e-10",
                        worst_sub <= slack))
        results.append((f"s={s}: compatibility slack {worst_comp:.2e} <= 1e-10",
                        worst_comp <= slack))
    elapsed = time.monotonic() - start
    results.append((f"runtime {elapsed:.2f}s < 10s", elapsed < 10.0))
    failed = _lines(results)
    # The s=2 submultiplicativity/compatibility legs are mathematically false
    # for the max-column norm and fail here by design; see README.md's
    # acceptance section for the all-ones counterexample.
    assert not failed, failed


def test_criterion_4_psd_sqrt_and_frobenius_identity():
    rng = np.random.default_rng(2024)
    recon_ok = True
    worst_recon = 0.0
    for i in range(10 ** 3):
        dim = 2 + i % 7
        m = rng.standard_normal((dim, dim))
        mat = m @ m.T
        root = psd_sqrt(mat)
        err = frobenius_norm(root @ root - mat) / (1.0 + frobenius_norm(mat))
        worst_recon = max(worst_recon, err)
        recon_ok = recon_ok and err <= 1e-10

    ident_ok = True
    worst_ident = 0.0
    for _ in range(10 ** 4):
        w = rng.standard_normal((2, 2))
        b = w @ w.T
        a = rng.uniform(-2.0, 2.0, (2, 2))
        x = rng.uniform(-3.0, 3.0, 2)
        model = BekkArch(f=AffineMap(((0.0, 0.0), (0.0, 0.0)), (0.0, 0.0)),
                         a_mat=tuple(map(tuple, a)), b_mat=tuple(map(tuple, b)))
        g = eval_g(model, x)
        lhs = frobenius_norm(g) ** 2
        rhs = float(np.trace(b) + (a @ x) @ (a @ x))
        err = abs(lhs - rhs) / (1.0 + rhs)
        worst_ident = max(worst_ident, err)
        ident_ok = ident_ok and err <= 1e-8
    failed = _lines([
        (f"1000 psd square roots reconstruct within 1e-10 relative "
         f"(worst {worst_recon:.2e})", recon_ok),
        (f"Frobenius identity within 1e-8 relative on 10^4 draws "
         f"(worst {worst_ident:.2e})", ident_ok),
    ])
    assert not failed, failed


def test_criterion_5_bekk_degeneracy():
    rng = np.random.default_rng(98765)
    agree = True
    worst = 0.0
    zero_f = AffineMap(((0.0, 0.0), (0.0, 0.0)), (0.0, 0.0))
    for _ in range(10 ** 4):
        w = rng.uniform(-2.0, 2.0, 2)
        b = np.outer(w, w)
        a = rng.uniform(-2.0, 2.0, (2, 2))
        x = rng.uniform(-5.0, 5.0, 2)
        model = BekkArch(f=zero_f, a_mat=tuple(map(tuple, a)),
                         b_mat=tuple(map(tuple, b)))
        v = a @ x
        direct = float(np.linalg.det(b + np.outer(v, v)))
        closed = g_determinant(model, x)
        err = abs(direct - closed) / (1.0 + max(abs(direct), abs(closed)))
        worst = max(worst, err)
        agree = agree and err <= 1e-10

    demo = validate_config(builtin_configs()["bekk-demo"])["model"]
    report = check_bekk_model(demo)
    by_name = {c.name: c for c in report.structural}
    deg = by_name["degeneracy_locus"]
    c1, c2 = dict(deg.witnesses)["c1"], dict(deg.witnesses)["c2"]
    is_x1_eq_x2_line = deg.passed and abs(c1 + c2) <= 1e-12 * max(abs(c1), abs(c2))

    on_line_ok = True
    direction = np.array([1.0, 1.0]) / math.sqrt(2.0)
    for _ in range(100):
        p = rng.uniform(-100.0, 100.0) * direction
        det = g_determinant(demo, p)
        on_line_ok = on_line_ok and abs(det) <= 1e-8 * (1.0 + float(p @ p))
    failed = _lines([
        (f"closed-form vs direct determinant within 1e-10 relative on 10^4 "
         f"rank-1 instances (worst {worst:.2e})", agree),
        ("degeneracy of B=[[1,1],[1,1]], A=I is the line x1 = x2",
         is_x1_eq_x2_line),
        ("sampled on-line determinants within 1e-8 of zero at scale",
         on_line_ok),
    ])
    assert not failed, failed


def test_criterion_6_simulation_dichotomy():
    start = time.monotonic()
    ergodic = validate_config(builtin_configs()["example2-ergodic"])
    cfg = ergodic["simulation"]
    paths = run_trajectories(cfg)
    summary = aggregate_ensemble(cfg, paths)
    norms = np.array([np.sum(np.abs(p.states), axis=1) for p in paths])
    mean_norm = norms.mean(axis=0)
    anchor = mean_norm[1000]
    window = mean_norm[1000:]
    running = np.cumsum(window) / np.arange(1, window.size + 1)
    band_ok = bool(np.all((running >= 0.8 * anchor) & (running <= 1.2 * anchor)))
    ks = snapshot_distance(summary.snapshot_samples[2], summary.snapshot_samples[3])

    unit_root = validate_config(builtin_configs()["example2-unit-root"])
    med_ur = [s.norm_q50 for s in simulate_ensemble(unit_root["simulation"]).snapshots]
    variance = validate_config(builtin_configs()["example2-variance"])
    med_var = [s.norm_q50 for s in simulate_ensemble(variance["simulation"]).snapshots]
    elapsed = time.monotonic() - start

    failed = _lines([
        (f"ergodic ensemble (200 trajectories, T=10^4): zero divergences at "
         f"threshold 1e9 ({summary.diverged_count} observed)",
         summary.diverged_count == 0),
        (f"running mean of ||X_t||_1 over [10^3, 10^4] stays within 20% of "
         f"its t=10^3 value (range [{running.min() / anchor:.3f}, "
         f"{running.max() / anchor:.3f}])", band_ok),
        (f"snapshots at t=5000 and t=10000 look alike: KS = {ks:.3f} <= 0.15",
         ks <= 0.15),
        (f"unit-root medians strictly increase across t in {{1e2,1e3,1e4}}: "
         f"{[round(m, 2) for m in med_ur]}",
         med_ur[0] < med_ur[1] < med_ur[2]),
        (f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0),
        (f"variance-variant medians strictly increase across t in "
         f"{{1e2,1e3,1e4}}: {[round(m, 2) for m in med_var]}",
         med_var[0] < med_var[1] < med_var[2]),
    ])
    # The variance-variant leg does not replicate (medians stay flat); it is
    # asserted as stated and fails honestly; README.md's acceptance section
    # explains the flat medians.
    assert not failed, failed


def test_criterion_7_byte_identical_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ERGOKIT_SEED", raising=False)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["reproduce", "bekk-demo", "--out", str(out_a)]) == 0
    assert main(["reproduce", "bekk-demo", "--out", str(out_b)]) == 0
    assert main(["reproduce", "bekk-demo", "--out", str(out_c),
                 "--threads", "4"]) == 0
    capsys.readouterr()
    artifacts = ("config.json", "report.json", "summary.json",
                 "snapshots.csv", "trajectories.csv", "verdict.txt",
                 "comparison.txt")
    same_serial = all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in artifacts
    )
    same_threads = all(
        (out_a / n).read_bytes() == (out_c / n).read_bytes() for n in artifacts
    )

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(builtin_configs()["example2-unit-root"]))
    rep_a = tmp_path / "rep_a.json"
    rep_b = tmp_path / "rep_b.json"
    assert main(["check", str(cfg_path), "--out", str(rep_a)]) == 2
    assert main(["check", str(cfg_path), "--out", str(rep_b)]) == 2
    capsys.readouterr()
    failed = _lines([
        ("repeated reproduce runs emit byte-identical artifacts", same_serial),
        ("thread count does not change any artifact byte", same_threads),
        ("repeated check reports are byte-identical",
         rep_a.read_bytes() == rep_b.read_bytes()),
    ])
    assert not failed, failed


def test_criterion_8_structural_checks():
    model = _example2_model()
    res = check_coefexpol(model)
    witnesses = dict(res.witnesses)
    zeroed = ThresholdAffine2D(a=model.a, b_mat=model.b_mat,
                               d_main=model.d_main, d_c=model.d_c,
                               d_const=(0.0, 0.0))
    res_zero = check_coefexpol(zeroed)

    demo = validate_config(builtin_configs()["bekk-demo"])["model"]
    report = check_bekk_model(demo)
    escape = {c.name: c for c in report.structural}["skeleton_escape"]
    steps = [step for _, step in escape.witnesses]
    failed = _lines([
        ("coefexpol passes on the ergodic example with witnesses 0.25 and 0.45",
         res.passed and witnesses["main_column_witness"] == 0.25
         and witnesses["c_column_witness"] == 0.45),
        ("coefexpol fails when the constant volatility column is zeroed",
         not res_zero.passed),
        (f"skeleton escapes the degenerate line in one step for the demo "
         f"model (steps {steps})",
         escape.passed and all(s == 1.0 for s in steps)),
    ])
    assert not failed, failed

"""Byte-level pins of `ergokit simulate` and `ergokit check` artifacts.

The threshold-censored hashes were frozen from the two-loop implementation (a
fused threshold loop beside a generic one), the ergodic-over-cap ones from the
loop that stepped one path at a time, and the check ones while eigenvalues
came from a hand-written Jacobi solver, each before that code was replaced;
they must not move unless a change records why.

bekk-small was first frozen with the BEKK volatility computed by the Jacobi
`psd_sqrt`.  Its closed-form 2x2 root moves the trajectory values by at most
6.5e-13 (1.0e-13 relative to 1 + |x|), so every file of that case changed
(verdict.txt prints the last median l1 norm, 7.2688511096440891 before and
7.2688511096440811 after):

    snapshots.csv     2c8ded7c4570... -> 55b6441443b5...
    summary.json      2dc05715d9e5... -> f7d8b4e6d0c7...
    trajectories.csv  231a86caea09... -> 8b1455176759...
    verdict.txt       caf96153ae6e... -> 82f2580c949e...

It was re-frozen when BEKK's step moved from a stacked matmul, whose rounding
of g @ u depends on the BLAS and the CPU, to the one lane kernel's
f + g11 u1 + g12 u2 summed left to right.  239 of 328 trajectory values move,
by at most 4.1e-13 (6.3e-14 relative to 1 + |x|), and the last median l1
norm from 7.2688511096440811 to 7.2688511096440829:

    snapshots.csv     55b6441443b5... -> a35df9dff0da...
    summary.json      f7d8b4e6d0c7... -> 624f5959e45c...
    trajectories.csv  8b1455176759... -> 93b96e16ad9b...
    verdict.txt       82f2580c949e... -> 569e487e3a03...

example2-ergodic-shell-s2 was first frozen with the s = 2 noise moment from
nested adaptive Simpson (1.237030558147227).  The graded Gauss-Legendre
product rule gives 1.2370305581374037 (9.8e-12 lower; the mpmath value is
1.2370305581477301), which moves gamma in its last digits; the shell
envelope, verdict and exit code are unchanged:

    report.json  40264c070b638b6faf2e0b0a23f8c11454bada7da47495743a44bf6088c52d51
              -> ab59538d1d73d3060cc05fb342efd553d153552fc40759f7df8825970650edb9

The threshold reports and verdicts were then re-frozen when the Expol2
normalization Z and the s <= 1 moment moved from adaptive Simpson to the
depth-40 graded Gauss-Legendre rule.  Z moved from 8.2e-12 above the mpmath
value 1.973732150089823779 to 6.1e-16 above it, the s = 1 moment from
1.6547848786891797 to 1.6547848786785642 (its grid_size, now a point count,
from 1289 to 2624) and the s = 2 moment to 1.237030558147713.  The largest
change of a printed number is that of the s = 1 moment, 1.06e-11; gamma
moved by at most 2.65e-12.  No verdict or exit code changed, and no
simulation artifact other than verdict.txt:

    check example2-ergodic, example2-ergodic-signed (gamma 0.813696219672295
    -> 0.81369621966964112)
      report.json  86061852e59b... -> 5c6196acd4d3...
                   75c3f82e1b4f... -> a567268bb187...
    check example2-ergodic-shell-s2 (gamma 0.67007800013868823
    -> 0.6700780001412574)
      report.json  ab59538d1d73... -> 78c1521455a4...
    simulate ergodic-over-cap
      verdict.txt  51caff2a4c47... -> 16c1575bd2e9...
    simulate threshold-censored (gamma 1.4336962196722949
    -> 1.433696219669641)
      verdict.txt  07a09f020bfc... -> f086d5dd447e...

bekk-demo-shell-s2 was frozen while BEKK lanes were still stepped, and shell
samples still evaluated, one state at a time through eval_f and eval_g, before
both moved to the lane form (lane_kernel / lane_terms); the lane form must
reproduce the per-state envelope bit for bit.

Both shell-s2 reports were then re-frozen when the shell sampler moved from
box rejection to exact draws (a generalized-Gaussian direction times a radius
of density proportional to r^(d-1)): the same seed now gives other samples,
so the fitted envelope and gamma move.  The envelope fit itself (the hull
edge spanning the shell midpoint, found by alternating tangents) reproduced
every hash on the box-rejection samples first.  Verdicts and exit codes are
unchanged:

    check example2-ergodic-shell-s2 (gamma 0.6700780001412574
    -> 0.6685468150025289, exit 3)
      report.json  78c1521455a4... -> 19c33bfc44da...
    check bekk-demo-shell-s2 (gamma 1.6504941310109376
    -> 1.6476284394436786, exit 2)
      report.json  29e69a3ef3e9... -> 97535b917c46...

Every Expol2 simulation artifact was then re-frozen when the Expol2 sampler
became a filter over consecutive pairs of random() doubles (a value and its
acceptance uniform) in place of rounds of k values followed by k acceptance
uniforms: the same seeds give other noise draws, so every state moves.
threshold-censored now censors 9 of 12 paths (steps 115 to 246), where it
censored 6 (steps 147 to 230); ergodic-over-cap still censors none, and its
last median l1 norm moves from 2.2588327720228696 to 1.3846241143657929.
In the same change the example2-ergodic notes lost a parenthetical that
cited decision notes the repository does not have, so the check reports
of the three configs built from those notes differ only in notes and
config_hash; no verdict, gamma or exit code changed:

    simulate ergodic-over-cap
      snapshots.csv     8deeb11d7159... -> e180ad150620...
      summary.json      7795d8df94f0... -> 77b36e80a30e...
      verdict.txt       16c1575bd2e9... -> aa3fec111086...
    simulate threshold-censored
      snapshots.csv     e3de7918b3af... -> 085004ea40d3...
      summary.json      4a7b5d16927f... -> e20da6e98b40...
      trajectories.csv  373ae85fe3ea... -> ce4d8f393830...
      verdict.txt       f086d5dd447e... -> 7abffb7b2c38...
    check example2-ergodic
      report.json  5c6196acd4d3... -> ecf00088b2dd...
    check example2-ergodic-signed
      report.json  a567268bb187... -> e4c50e39aa31...
    check example2-ergodic-shell-s2
      report.json  19c33bfc44da... -> 543900b4c3f1...

The built-in bundles (`reproduce NAME` at seed 20260814, not pinned here)
moved with them; bekk-demo's seven files are unchanged.  The unit-root
medians at t = 1e2, 1e3, 1e4 went from 13.17, 50.2, 148.54 to 14.91,
66.93, 40.89, and the variance variant's from 1.62, 1.47, 1.73 to 1.32,
1.62, 1.81, so comparison.txt now reads [MISMATCH] for the unit root and
[OK] for the variance variant:

    example2-ergodic
      comparison.txt  ad574dbde96e... -> 10fc7e8384f8...
      config.json     19ae7cdf0e8c... -> 13e7a5e56312...
      report.json     5c6196acd4d3... -> ecf00088b2dd...
      snapshots.csv   c089c219fe71... -> cde3a7cb5708...
      summary.json    f7d8aa7c867f... -> 145e5853535d...
      verdict.txt     86a7d27743c8... -> 4be51d1d3b4d...
    example2-unit-root (config.json and report.json unchanged)
      comparison.txt  185725134793... -> 7bc0f5e5e6e3...
      snapshots.csv   00c51291516d... -> cf3f9584e567...
      summary.json    4ceda1700177... -> a0c13ed88d22...
      verdict.txt     900e73f76b3b... -> 3963cfe15a69...
    example2-variance (config.json and report.json unchanged)
      comparison.txt  31e95f80d9ce... -> 983aab7d0158...
      snapshots.csv   cfa5dacfc088... -> 4dd8cc6352be...
      summary.json    03bf2fc94568... -> 2935e7717110...
      verdict.txt     1748b9527239... -> 36f957e628cf...

`moments --noise expol2 --s 1 --method mc` (budget 100000, seed 0) moved
from 1.6546072503125393 (standard error 0.00172292) to 1.6554175217291625
(0.00172213); the quadrature value is 1.6547848786785642.  Its output
moved 8d0d0d4ce944... -> 853658a03e05....
"""

import hashlib
import json

import numpy as np
import pytest

from ergokit.cli import main
from ergokit.config import builtin_configs


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("ERGOKIT_SEED", raising=False)


def _doc(name, model=None, **simulation):
    doc = {k: v for k, v in builtin_configs()[name].items() if k != "notes"}
    if model:
        doc["model"] = {**doc["model"], **model}
    doc["simulation"] = {"seed": 11, **simulation}
    return doc


# Explosive threshold model: 9 of 12 paths cross the divergence threshold
# between steps 115 and 246 and are censored mid-run.
THRESHOLD_CENSORED = _doc(
    "example2-unit-root", model={"B": [[1.02, 0.0], [0.0, 1.02]]},
    T=300, n_traj=12, snapshots=[50, 300], divergence_threshold=1000.0,
)
BEKK_SMALL = _doc("bekk-demo", T=40, n_traj=4, snapshots=[20, 40])
# 20 x 5001 = 100,020 rows, just over the dump cap: no trajectories.csv.
ERGODIC_OVER_CAP = _doc("example2-ergodic", T=5000, n_traj=20,
                        snapshots=[100, 1000, 5000])

GOLDEN = {
    "ergodic-over-cap": (ERGODIC_OVER_CAP, {
        "snapshots.csv": "e180ad150620d6b070972baedc8bc05561ffb956ed930e6251b73616d43f8609",
        "summary.json": "77b36e80a30e9c5e0b4cf82f181b3e4cc08e5576604b10a35763ef702702f52c",
        "verdict.txt": "aa3fec1110866cdc39ef3f35a3a950f1cd6dbda7fc817fec88d937bc37a07089",
    }),
    "threshold-censored": (THRESHOLD_CENSORED, {
        "snapshots.csv": "085004ea40d3889693af711c26fb7f386e5f7092f15836bea1fe58b46ba044e7",
        "summary.json": "e20da6e98b4001a20acffa549258e0bcc1aadb88103752694cfed9f2d706c764",
        "trajectories.csv": "ce4d8f393830447a360814822710acfc52a38cff6c384f157e2ad6c4c6697a5e",
        "verdict.txt": "7abffb7b2c3853b123f244dbc8909ea64547f31a94345f097b33cf7448fc5b36",
    }),
    "bekk-small": (BEKK_SMALL, {
        "snapshots.csv": "a35df9dff0da73b4d618792fbf7ae3e9d81a10cb7c98aa3c6f09a0fb9fd47d92",
        "summary.json": "624f5959e45c33afb547b461b2cf1dd28d66705018b05987c6a6e3c78a4705e4",
        "trajectories.csv": "93b96e16ad9bfe7fd7cac2942840493951b1aa17da22af55f6e26b116ba342f5",
        "verdict.txt": "569e487e3a03f357bd51213c191c73a7602d8aef6c011a79ae668544b89ed862",
    }),
}


# `check` on built-in configs.  With their analytic envelopes, the BEKK report
# takes b_f from induced_norm_bounds at s = 2 and the min_eigenvalue witness
# from the closed-form spectrum of bekk_b_eigenvalues (both froze their hashes
# through LAPACK's eigh, which gave the same bits here); the shell-s2 case
# runs the s = 2 noise moment and the shell envelope's induced norm bounds.
# Name -> (config, exit code, report.json sha256).
SHELL_S2 = {**builtin_configs()["example2-ergodic"],
            "checks": {"s": 2.0, "envelope": "shell"}}
BEKK_SHELL_S2 = {**builtin_configs()["bekk-demo"],
                 "checks": {"s": 2.0, "envelope": "shell"}}


def _check_doc(name, **model):
    doc = builtin_configs()[name]
    return {**doc, "model": {**doc["model"], **model}}


# Degeneracy branches of the BEKK report (B = I is everywhere regular, B = 0
# everywhere singular) and a threshold model with coefficients of both signs,
# frozen before the threshold arithmetic and the BEKK degeneracy vocabulary
# each moved to a single form.
BEKK_B_IDENTITY = _check_doc("bekk-demo", B=[[1.0, 0.0], [0.0, 1.0]])
BEKK_B_ZERO = _check_doc("bekk-demo", B=[[0.0, 0.0], [0.0, 0.0]])
ERGODIC_SIGNED = _check_doc("example2-ergodic", a=[0.3, -0.2],
                            B=[[-0.2, 0.1], [0.15, -0.3]], D_c=[-0.2, 0.25])
CHECK_GOLDEN = {
    "bekk-demo": (builtin_configs()["bekk-demo"], 2,
                  "73335c2898823d358a025cf1d4ffb577da713ba8e6c42233bb03e6b6e30bc359"),
    "bekk-demo-shell-s2": (BEKK_SHELL_S2, 2,
                           "97535b917c462aab6765295c826efa4270217d12b45f5ed8ba8a624be4010e16"),
    "example2-ergodic": (builtin_configs()["example2-ergodic"], 0,
                         "ecf00088b2ddcb41b3f7cedcb55ccc4f1c55e691fb139325234b5acdf7fa1205"),
    "bekk-demo-B-identity": (BEKK_B_IDENTITY, 2,
                             "a16aed9d5b4c96f2baae2f907fd4559bb74e93cdcdc7a0c5032a803d391baa18"),
    "bekk-demo-B-zero": (BEKK_B_ZERO, 2,
                         "a4a216c550b02918cdf026f7350ea2990ec042cc274ef99d70b8cbc8791f5fcd"),
    "example2-ergodic-shell-s2": (SHELL_S2, 3,
                                  "543900b4c3f12a2e47b68ab28a44f7a498e174a76c87a17d2b0c5d662166787e"),
    "example2-ergodic-signed": (ERGODIC_SIGNED, 0,
                                "e4c50e39aa31a66baa8dfde7e8fb5399202253d59b6bac0d63c1b33c8e4ee90a"),
}


def _check_report_hash(tmp_path, doc, code):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert main(["check", str(config), "--out", str(report)]) == code
    return hashlib.sha256(report.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CHECK_GOLDEN))
def test_check_report_matches_golden_hash(tmp_path, capsys, name):
    doc, code, digest = CHECK_GOLDEN[name]
    assert _check_report_hash(tmp_path, doc, code) == digest
    capsys.readouterr()


def test_no_command_calls_lapack(tmp_path, capsys, monkeypatch):
    # With numpy's eigen and singular value routines refusing, every check
    # golden and `reproduce bekk-demo` keep their exit codes and reports.
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg was called")

    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for name, (doc, code, digest) in sorted(CHECK_GOLDEN.items()):
        (tmp_path / name).mkdir()
        assert _check_report_hash(tmp_path / name, doc, code) == digest, name
    out = tmp_path / "bekk-demo-bundle"
    assert main(["reproduce", "bekk-demo", "--out", str(out)]) == 0
    report = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    assert report == CHECK_GOLDEN["bekk-demo"][2]
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_artifacts_match_golden_hashes(tmp_path, name):
    doc, hashes = GOLDEN[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", str(config), "--out", str(out)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }
    assert got == hashes

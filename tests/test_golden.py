"""Byte-level pins of `ergokit simulate` artifacts.

The threshold-censored and bekk-small hashes were frozen from the two-loop
implementation (a fused threshold loop beside a generic one), and the
ergodic-over-cap ones from the loop that stepped one path at a time, each
before the recurrence was rewritten; they must not move unless a change
records why.
"""

import hashlib
import json

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


# Explosive threshold model: 6 of 12 paths cross the divergence threshold
# between steps 147 and 230 and are censored mid-run.
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
        "snapshots.csv": "8deeb11d7159c9aa60b78c150fa6c05e7cecd03a3440ad684fd3504f6e01d83d",
        "summary.json": "7795d8df94f0fa548795f7a4a396e16514e5f1394e0c0f757e1734e15d126c50",
        "verdict.txt": "51caff2a4c47c042a4cf371c753377b1023681f01cbc726afc310f34d7fddf8b",
    }),
    "threshold-censored": (THRESHOLD_CENSORED, {
        "snapshots.csv": "e3de7918b3af1e1ed0ac54eb0e070184744c8d179de80d3b6f2f3b576c78211a",
        "summary.json": "4a7b5d16927f0ddc8bebd15b6b64c6004d249cb8903d88bf27e3f098933dd813",
        "trajectories.csv": "373ae85fe3eaa262682df4d9b874973b1b39508e667069ed551df8c53b26cc43",
        "verdict.txt": "07a09f020bfc23840daaa1463af99b460b839940d3b2aea745d6f30f7cf59205",
    }),
    "bekk-small": (BEKK_SMALL, {
        "snapshots.csv": "2c8ded7c4570de8b69c51d22ac1d15d63e57bd5d146115cae9491fc5d8cecd95",
        "summary.json": "2dc05715d9e574e79781de355ebd6559a8f4841c3eaa70f73c577bd21f1b47d7",
        "trajectories.csv": "231a86caea09fa5a08db876163f4c1463672d40c391f08b19d9922fa71388d1a",
        "verdict.txt": "caf96153ae6edb608edac498c7ef23ae4e25840be2e8a8c7d142e7d7f0560d73",
    }),
}


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

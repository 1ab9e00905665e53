"""Byte gate: ``simulate`` and ``sweep`` outputs stay byte-identical.

Each case runs the command in process through ``cli.main`` and compares
the SHA-256 of every file it writes with a recorded digest: the
``simulate`` digests from the code before the oracle and sampler were
consolidated, the ``sweep`` digests from the paired sweep, whose repeats
each draw one sample for every swept value.  A change that moves any of
these bytes must say why and re-record the digests.
"""

import hashlib
import json

import pytest

from grouploss.cli import EXIT_OK, main

SPECS = {
    "realistic": {"kind": "realistic"},
    "link1d-poly": {"kind": "link1d", "link": "poly"},
}
RULES = ("brier", "logloss")
SIZES = ["--n", "3000", "--oracle-n", "50000", "--seed", "3"]
SWEEPS = {
    "sweep-ratio-tree.csv": ["--axis", "region_ratio", "--values", "10,30"],
    "sweep-bins-stump.csv": ["--axis", "bins", "--values", "5,15", "--partition", "stump"],
}

DIGESTS = {
    "link1d-poly/brier/data.csv":
        "35230083bcde001343798dada19091ae030552089fbd0e2ff9b40c7ea8e5c86a",
    "link1d-poly/brier/summary.json":
        "5438f6376413763ecc4d33b6b7fff0cded63c0d004a5532679b10d0e1517ddb0",
    "link1d-poly/brier/sweep-bins-stump.csv":
        "bb03f5c52b9d8a4dfbe97b3e9ad69c4c5ac5eff3e7f4adab7a7047d0285a383f",
    "link1d-poly/brier/sweep-ratio-tree.csv":
        "2a6319d761d023b81281713cd82dc37b0dc65c5e95f20ffd161cb24fb0fbd215",
    "link1d-poly/logloss/data.csv":
        "35230083bcde001343798dada19091ae030552089fbd0e2ff9b40c7ea8e5c86a",
    "link1d-poly/logloss/summary.json":
        "1e5195601b4d0d003a1bb669dd8f840c6a16e9e9b9f557ba3a6b1b9eb1a336e5",
    "link1d-poly/logloss/sweep-bins-stump.csv":
        "0f962fae64cff9a2c3934be88ba96573162417c84cfcfaa4c62ecb91e5e9686c",
    "link1d-poly/logloss/sweep-ratio-tree.csv":
        "a404c9ca93cb2c6d84d8845b03192480484a67e94fd00fab4cb0920d606a6803",
    "realistic/brier/data.csv":
        "c4aa2e88952d1d600be00d1466ca7e1e435fec72accaed236e94e8f9c0ade206",
    "realistic/brier/summary.json":
        "601b917181d35f7248c21ad8dbbfd7ec7df5ccf68d4dae63bc2b02e3afba4889",
    "realistic/brier/sweep-bins-stump.csv":
        "9eedd556005e4f8c6586dc90e9c62240c25a72f91d58182ab461d23134ee078d",
    "realistic/brier/sweep-ratio-tree.csv":
        "133673a5d4c31b19ce7cf6eec7e2129cda2439028d932b45eb99391f1b6ad729",
    "realistic/logloss/data.csv":
        "c4aa2e88952d1d600be00d1466ca7e1e435fec72accaed236e94e8f9c0ade206",
    "realistic/logloss/summary.json":
        "0e4337e6ea386a41449707ad80ca0b957ab9786fffff002191cb20d418c82f4b",
    "realistic/logloss/sweep-bins-stump.csv":
        "30cd27640cc5cdd4e3eb18b8b5e6ef492e6d7bf011768994a13fc1c9022716a9",
    "realistic/logloss/sweep-ratio-tree.csv":
        "8a549bfe996757cec51602515db4b79a60e95d8d49a6e357f6687b655be6088a",
}


def _outputs(tmp_path, spec, rule):
    """``{name: sha256}`` of every file simulate and sweep write."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPECS[spec]))
    paths = {name: tmp_path / name for name in ("summary.json", "data.csv", *SWEEPS)}
    code = main([
        "simulate", str(spec_path), "--rule", rule, *SIZES,
        "--out", str(paths["data.csv"]), "--summary-out", str(paths["summary.json"]),
    ])
    assert code == EXIT_OK
    for name, axis in SWEEPS.items():
        code = main([
            "sweep", str(spec_path), "--rule", rule, *axis, *SIZES,
            "--repeats", "2", "--out", str(paths[name]),
        ])
        assert code == EXIT_OK
    return {
        f"{spec}/{rule}/{name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in paths.items()
    }


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("spec", sorted(SPECS))
def test_outputs_match_recorded_digests(tmp_path, spec, rule):
    got = _outputs(tmp_path, spec, rule)
    assert got == {key: DIGESTS[key] for key in got}

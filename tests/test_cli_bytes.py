"""Byte gate: ``simulate`` and ``sweep`` outputs stay byte-identical.

Each case runs the command in process through ``cli.main`` and compares
the SHA-256 of every file it writes with a digest recorded from the
code before the oracle and sampler were consolidated.  A change that
moves any of these bytes must say why and re-record the digests.
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
        "cff16e6d299936fd245f3903dbc010628dc8a99e0ab00ca22b52c9313f07f796",
    "link1d-poly/brier/sweep-ratio-tree.csv":
        "4df27ee3684178bdf800f47ca32955fd822eb6b677f591d0119993badb8b9045",
    "link1d-poly/logloss/data.csv":
        "35230083bcde001343798dada19091ae030552089fbd0e2ff9b40c7ea8e5c86a",
    "link1d-poly/logloss/summary.json":
        "1e5195601b4d0d003a1bb669dd8f840c6a16e9e9b9f557ba3a6b1b9eb1a336e5",
    "link1d-poly/logloss/sweep-bins-stump.csv":
        "2087576ba629820e81f357df8d0038d979cbc30a7892a49ce834d5ee1bf72821",
    "link1d-poly/logloss/sweep-ratio-tree.csv":
        "44a057638a2857cefd6429a804995d3f496c6c0adf556faa7765f88776e0892d",
    "realistic/brier/data.csv":
        "c4aa2e88952d1d600be00d1466ca7e1e435fec72accaed236e94e8f9c0ade206",
    "realistic/brier/summary.json":
        "601b917181d35f7248c21ad8dbbfd7ec7df5ccf68d4dae63bc2b02e3afba4889",
    "realistic/brier/sweep-bins-stump.csv":
        "4fb5613c2449c51ed67731b0b273b4adfcbb53195160cfa4496d144fcdee1b6a",
    "realistic/brier/sweep-ratio-tree.csv":
        "cc08bde078bb2b36037326e93e8a0bab2392a33b3a4fa4bbc553782599acdf3a",
    "realistic/logloss/data.csv":
        "c4aa2e88952d1d600be00d1466ca7e1e435fec72accaed236e94e8f9c0ade206",
    "realistic/logloss/summary.json":
        "0e4337e6ea386a41449707ad80ca0b957ab9786fffff002191cb20d418c82f4b",
    "realistic/logloss/sweep-bins-stump.csv":
        "b4075189f14b517b79acf24d5feed5571f1a0d352d3af5e2da3d68e3f135624b",
    "realistic/logloss/sweep-ratio-tree.csv":
        "2111d0284ece80878177823bcdc00d80ceb7a00d1bdc532a1398363de8a8ed4e",
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

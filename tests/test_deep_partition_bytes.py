"""Byte gate for deep partitions across many bins.

The report digest matrix (``tests/test_digests.py``) runs at most two
features at region ratio 30, so no bin there has more than ~70 leaves.
These cases run the eight-feature simulator, where a bin's tree at
region ratio 2 has hundreds of leaves, and compare the SHA-256 of the
report JSON plus the reliability diagram CSV with digests recorded
before the fitted partition became one forest for all bins.
"""

import hashlib

import pytest

from grouploss.cli import RunConfig, run_pipeline
from grouploss.simulate import RealisticSimulator, sample_realistic

D = 8
ROWS = 20_000
SEED = 1

DIGESTS = {
    "tree-ratio-10":
        "c65174c3ecd152b0b999e731c9b8bdfcd3f7098bd8469107dc2ed1647c650bb2",
    "tree-ratio-2":
        "25ab24bc94f34c42f4d6842b963bed60c94a868dc93f5ba4e933a44bd4263b5e",
    "stump":
        "e98fe75075778d8a39b5db26230ec0303529becf8cdbe6c19897cbb10940a85e",
    "kmeans-8":
        "b49704d6e44dce646a85d8e1872fdd809e6f128c7ba2c0936cdf0ac5ea7ef6ed",
}
CONFIGS = {
    "tree-ratio-10": {"region_ratio": 10},
    "tree-ratio-2": {"region_ratio": 2},
    "stump": {"partition": "stump"},
    "kmeans-8": {"partition": "kmeans:8"},
}


@pytest.fixture(scope="module")
def d8_dataset():
    # the fine-regions-d8 benchmark input's simulator, at fewer rows
    sim = RealisticSimulator(
        d=D,
        omega=(1.0,) + (0.0,) * (D - 1),
        omega_perp=(0.0, 1.0) + (0.0,) * (D - 2),
        sigma_eigenvalues=(1.0,) * D,
    )
    ds, _ = sample_realistic(sim, ROWS, SEED)
    return ds


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_deep_partition_report_bytes(d8_dataset, case):
    report = run_pipeline(d8_dataset, RunConfig(seed=SEED, **CONFIGS[case]))
    text = report.to_json() + report.diagram_csv()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[case]

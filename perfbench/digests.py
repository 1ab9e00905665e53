"""SHA-256 digests of ``report.json`` over a fixed matrix of runs.

A change that claims to keep behaviour must leave every digest equal to
the one recorded in ``report_digests.txt``.  The matrix covers both
simulators, three seeds, the three partition strategies and both scoring
rules, plus isotonic recalibration and the top-label and classwise
reductions.  Reports are built in process with ``cli.run_pipeline``; the
``estimate`` command writes the same bytes for the same rows.

    python3 perfbench/run.py --digests                  # compare
    python3 perfbench/run.py --digests > perfbench/report_digests.txt  # record
"""

import hashlib
import os
import sys

from grouploss import cli
from grouploss.simulate import LinkSimulator1D, default_realistic, sample_link_1d, sample_realistic

N_ROWS = 20_000
SEEDS = (0, 1, 2)
PARTITIONS = ("tree", "stump", "kmeans:4")
RULES = ("brier", "logloss")
EXTRA_CONFIGS = (
    {"recalibrate": "isotonic"},
    {"reduction": "top-label"},
    {"reduction": "classwise:0"},
)
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "report_digests.txt")


SAMPLERS = {
    "realistic": lambda seed: sample_realistic(default_realistic(), N_ROWS, seed)[0],
    "link1d-poly": lambda seed: sample_link_1d(LinkSimulator1D(link="poly"), N_ROWS, seed)[0],
}


def cases():
    """Yield (case name, simulator name, RunConfig)."""
    for sim_name in SAMPLERS:
        for seed in SEEDS:
            for partition in PARTITIONS:
                for rule in RULES:
                    cfg = cli.RunConfig(rule=rule, partition=partition, seed=seed)
                    yield f"{sim_name} seed={seed} {partition} {rule}", sim_name, cfg
        for extra in EXTRA_CONFIGS:
            cfg = cli.RunConfig(seed=SEEDS[0], **extra)
            label = " ".join(f"{k}={v}" for k, v in extra.items())
            yield f"{sim_name} seed={SEEDS[0]} tree brier {label}", sim_name, cfg


def digest_lines():
    datasets = {}
    for name, sim_name, cfg in cases():
        key = (sim_name, cfg.seed)
        if key not in datasets:
            datasets[key] = SAMPLERS[sim_name](cfg.seed)
        report = cli.run_pipeline(datasets[key], cfg)
        yield f"{hashlib.sha256(report.to_json().encode('utf-8')).hexdigest()}  {name}"


def main():
    reference = None
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = dict(
                reversed(line.rstrip("\n").split("  ", 1)) for line in fh if line.strip()
            )
    mismatched = 0
    for line in digest_lines():
        print(line, flush=True)
        digest, name = line.split("  ", 1)
        if reference is not None and reference.get(name) != digest:
            mismatched += 1
            print(f"differs from the reference: {name}", file=sys.stderr)
    if reference is None:
        print(f"no reference digests at {REFERENCE}", file=sys.stderr)
        return 0
    print(f"{mismatched} report digest(s) differ from the reference", file=sys.stderr)
    return 1 if mismatched else 0

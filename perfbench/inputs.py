"""Seeded CSV inputs for the benchmark, generated outside the program.

The program only ever sees the files written here.  Values are drawn from
the leaves of the program's own domain hierarchy trees (the vocabulary the
binning agent accepts), skewed within each top-level group so some leaves
are rare and binning has to generalise.  The same seed always gives
byte-identical files.
"""

from __future__ import annotations

import csv
import itertools
import random

#: Zipf exponent of the leaves within one top-level group.
SKEW = 0.8


def _skewed_column(rng: random.Random, tree, n: int) -> list[str]:
    """Top-level group uniformly, then a Zipf-skewed leaf within it.

    Uniform groups keep every depth-1 node (the usage-metrics frontier)
    populated well above k even at 2k rows, so binning never fails;
    the skew inside a group still leaves rare leaves for it to generalise.
    """
    groups = tree.children(tree.root)
    draws = []
    picks = rng.choices(range(len(groups)), k=n)
    counts = [0] * len(groups)
    for group in picks:
        counts[group] += 1
    for group, count in zip(groups, counts):
        leaves = [str(leaf.value) for leaf in tree.leaves(group)]
        rng.shuffle(leaves)
        weights = list(itertools.accumulate(1.0 / (rank + 1) ** SKEW for rank in range(len(leaves))))
        draws.append(iter(rng.choices(leaves, cum_weights=weights, k=count)))
    return [next(draws[group]) for group in picks]


def _ages(rng: random.Random, n: int) -> list[int]:
    """An adult-skewed age mixture inside the age tree's [0, 150) domain."""
    ages = []
    for _ in range(n):
        age = rng.gauss(48.0, 18.0) if rng.random() < 0.85 else rng.uniform(0.0, 100.0)
        ages.append(min(110, max(0, int(age))))
    return ages


def _write(path: str, header: list[str], columns: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))


def write_medical_csv(path: str, rows: int, seed: int, trees) -> None:
    """``ssn,age,zip_code,doctor,symptom,prescription`` with unique 9-digit SSNs."""
    rng = random.Random(f"medical:{seed}:{rows}")
    ssns = [f"{value:09d}" for value in rng.sample(range(10_000_000, 1_000_000_000), rows)]
    columns = [ssns, _ages(rng, rows)]
    header = ["ssn", "age", "zip_code", "doctor", "symptom", "prescription"]
    for column in header[2:]:
        columns.append(_skewed_column(rng, trees[column], rows))
    _write(path, header, columns)


def write_finance_csv(path: str, rows: int, seed: int, trees) -> None:
    """``account_id,region,merchant_category,channel,amount_band`` with 10-digit accounts."""
    rng = random.Random(f"finance:{seed}:{rows}")
    accounts = [f"{value:010d}" for value in rng.sample(range(100_000_000, 10_000_000_000), rows)]
    columns = [accounts]
    header = ["account_id", "region", "merchant_category", "channel", "amount_band"]
    for column in header[1:]:
        columns.append(_skewed_column(rng, trees[column], rows))
    _write(path, header, columns)

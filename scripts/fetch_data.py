#!/usr/bin/env python3
"""Download the benchmark CSVs used by the quantitative tests.

Run on a machine with internet access:

    python scripts/fetch_data.py [--dest data]

writes data/pima.csv (768 rows, 8 features + 0/1 label) and data/magic.csv
(19,020 rows, 10 features + g/h label), both headerless with the label in
the last column, the layout `load_csv` reads: run one with
`bodl run --stream csv:data/pima.csv`. The tests look for the files under
./data at the repository root, or under BODL_DATA_DIR if it is set.
"""

from __future__ import annotations

import argparse
import csv
import sys
import urllib.request
from pathlib import Path

SOURCES = {
    "pima.csv": "https://raw.githubusercontent.com/jbrownlee/Datasets/master/pima-indians-diabetes.csv",
    "magic.csv": "https://archive.ics.uci.edu/ml/machine-learning-databases/magic/magic04.data",
}

EXPECTED_ROWS = {"pima.csv": 768, "magic.csv": 19020}


def fetch(url: str) -> str:
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.read().decode("utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dest", default="data", help="output directory")
    args = parser.parse_args()
    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)

    failures = 0
    for name, url in SOURCES.items():
        target = dest / name
        if target.exists():
            print(f"{target} already present, skipping")
            continue
        print(f"fetching {url}")
        try:
            text = fetch(url)
        except Exception as exc:  # noqa: BLE001 - report and continue
            print(f"  FAILED: {exc}", file=sys.stderr)
            failures += 1
            continue
        rows = [r for r in csv.reader(text.splitlines()) if r and any(c.strip() for c in r)]
        expected = EXPECTED_ROWS[name]
        if len(rows) != expected:
            print(f"  FAILED: got {len(rows)} rows, expected {expected}", file=sys.stderr)
            failures += 1
            continue
        with open(target, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        print(f"  wrote {target} ({len(rows)} rows)")
    if failures:
        print(f"{failures} download(s) failed; quantitative benchmark tests "
              "will be skipped until the files exist", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

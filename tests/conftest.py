import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Every property draws the same examples on every run, keeps no example
# database and has no deadline per example; a test sets only max_examples.
settings.register_profile("bodl", derandomize=True, database=None, deadline=None)
settings.load_profile("bodl")

sys.path.insert(0, str(Path(__file__).resolve().parent))   # for oracles.py


def dataset_path(filename: str) -> Path:
    """Where a fetched dataset file lives: $BODL_DATA_DIR, or ./data at the repository root."""
    root = Path(os.environ.get("BODL_DATA_DIR", Path(__file__).resolve().parents[1] / "data"))
    return root / filename


def requires_dataset(filename: str):
    return pytest.mark.skipif(
        not dataset_path(filename).exists(),
        reason=f"{filename} not present; fetch it with scripts/fetch_data.py",
    )

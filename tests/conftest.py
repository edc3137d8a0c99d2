import os
import sys
from pathlib import Path

import pytest

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

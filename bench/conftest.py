import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture(autouse=True)
def _no_seed_env(monkeypatch):
    # the env var overrides config seeds; the benchmark clears it too
    monkeypatch.delenv("BUBBLELINK_SEED", raising=False)

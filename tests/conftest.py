import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from xmodal import util  # noqa: E402


@pytest.fixture
def worker(monkeypatch):
    """Run `util.run_pair`'s second job on the worker thread whatever the width
    and core count: the text model in stage 1, the text tower in stage 2, the
    image side in evaluation."""
    monkeypatch.setattr(util, "CONCURRENT_MIN_WIDTH", 0)
    monkeypatch.setattr(util, "_spare_core", lambda: True)


@pytest.fixture
def fine_switching():
    """Interleave the two threads as finely as possible."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(switch)

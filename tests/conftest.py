import os
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
def child(monkeypatch):
    """Let `util.run_pair` fork whatever the core count, so stage 1's text
    model, built on the calling thread, trains in a forked child (the tests'
    features are narrower than `util.CONCURRENT_MIN_WIDTH`); then check that
    no child process is left, running or unreaped.

    BLAS counts as held to one thread, and threads alive when the test
    starts, such as a BLAS pool, do not count against the fork; any thread
    the test starts does. The tests' matrices are too small for a BLAS pool
    to run."""
    monkeypatch.setattr(util, "_spare_core", lambda: True)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    count, before = util._thread_count, util._thread_count()
    monkeypatch.setattr(util, "_thread_count", lambda: count() - before + 1)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def fine_switching():
    """Interleave the two threads as finely as possible."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(switch)

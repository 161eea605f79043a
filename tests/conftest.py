import os

import pytest

from mrplab import construction, exact


@pytest.fixture(autouse=True)
def no_child_process_left():
    """After each test, the test process has no child: whatever forked a
    worker has waited for it, a bare ``os.fork`` child as much as any other."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process{f' ({pid}, now reaped)' if pid else ''}")


@pytest.fixture
def set_cores(monkeypatch):
    """``set_cores(cores, methods=None)``: the number of available cores a fork
    map sees and, where `methods` (the process start methods of the platform
    simulated) lacks ``"fork"``, no ``os.fork``."""
    def set_(cores, methods=None):
        monkeypatch.setattr(construction, "_available_cores", lambda: cores)
        if methods and "fork" not in methods:
            monkeypatch.delattr(os, "fork", raising=False)
    return set_


@pytest.fixture
def integral_columns(monkeypatch):
    """The column count of each mixing integral `mrplab.exact` takes during the test, in order."""
    columns, batch = [], exact._batch

    def recording(res, *args):
        columns.append(len(res.value))
        return batch(res, *args)

    monkeypatch.setattr(exact, "_batch", recording)
    return columns

import json
import os
import subprocess
import sys

import pytest

import mrplab
from mrplab import construction, exact

# run by `fresh_cli` in a new interpreter: argv is the result file, the core
# count (0: as found) and the CLI's arguments
_FRESH_CLI = """
import json, runpy, sys
out, cores, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
before = set(sys.modules)
if cores:
    from mrplab import construction
    construction._available_cores = lambda: cores
sys.argv = ["mrplab", *argv]
try:
    runpy.run_module("mrplab.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
with open(out, "w") as f:
    json.dump({"code": code, "modules": sorted(set(sys.modules) - before)}, f)
"""


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


@pytest.fixture
def fresh_cli(tmp_path):
    """``fresh_cli(*args, cores=0)``: run ``python -m mrplab.cli args`` in a new
    interpreter, waited for, and return its exit code and the sorted names of
    the modules it imported.  With `cores`, the child's fork maps see that
    many available cores (1: every suite runs in the child itself)."""
    src = os.path.dirname(os.path.dirname(mrplab.__file__))
    out = tmp_path / "fresh_cli.json"

    def run(*args, cores=0):
        subprocess.run(
            [sys.executable, "-c", _FRESH_CLI, str(out), str(cores), *map(str, args)],
            check=True, env={**os.environ, "PYTHONPATH": src},
        )
        result = json.loads(out.read_text())
        return result["code"], result["modules"]
    return run

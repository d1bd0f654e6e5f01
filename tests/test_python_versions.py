"""pyproject.toml's `requires-python = ">=3.10"`: the same outputs under
the other Python versions on PATH.

Each of python3.10, python3.12 and python3.13 that runs gets one
process, which runs the twelve `mdl verify` suites (seed 1, 20 trials,
lem14 4) with --json and `mdl tau --help`.  Their stdout and exit codes
must equal those of the interpreter running the tests.  An interpreter
that is not on PATH, or that does not start, is skipped.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
STARTED = "python started"

RUN = f"""
print({STARTED!r}, flush=True)
import contextlib, io, json
from mdl import harness
from mdl.cli import main

argvs = [["verify", lemma, "--trials", "4" if lemma == "lem14" else "20", "--seed", "1",
          "--json"] for lemma in sorted(harness.SUITES)] + [["tau", "--help"]]
out = []
for argv in argvs:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out.append([argv, code, buf.getvalue()])
print(json.dumps(out))
"""


def outputs(python, cwd):
    """[argv, exit code, stdout] of each command under `python`, or None
    when `python` does not start."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([python, "-c", RUN], cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=300)
    except OSError:
        return None
    started, _, rest = proc.stdout.partition("\n")
    if started != STARTED:
        return None
    assert proc.returncode == 0, proc.stderr
    return json.loads(rest)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return outputs(sys.executable, tmp_path_factory.mktemp("reference"))


@pytest.mark.parametrize("name", ["python3.10", "python3.12", "python3.13"])
def test_outputs_match_under_other_python_versions(name, reference, tmp_path):
    python = shutil.which(name)
    got = outputs(python, tmp_path) if python else None
    if got is None:
        pytest.skip(f"{name} is not on PATH or does not start")
    assert got == reference

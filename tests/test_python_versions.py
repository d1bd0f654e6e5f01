"""pyproject.toml's `requires-python = ">=3.10"`: the same outputs under
the other Python versions on PATH.

Each of python3.10, python3.12 and python3.13 that runs gets one
process, which runs the twelve `mdl verify` suites (seed 1, 20 trials,
lem14 4) with --json, `mdl tau --help` and `mdl gen linear_random` over
GF(2), GF(3), GF(4) and GF(9) with three seeds.  Their stdout, exit
codes and the sha256 of each generated file must equal those of the
interpreter running the tests.  The generator's draw is the rejection
scheme of `random.randrange` spelled out over `getrandbits`, so a
release that changed that scheme would show here.  A pyenv shim
that does not start by itself is tried again with PYENV_VERSION set to
each installed version of its minor release.  An interpreter that is
not on PATH, or that does not start either way, is skipped.

Every file in src/mdl must also parse under the 3.10 grammar.  That
checks syntax only, not the standard-library APIs a file uses.
"""

import ast
import glob
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
import contextlib, hashlib, io, json
from mdl import harness
from mdl.cli import main

argvs = [["verify", lemma, "--trials", "4" if lemma == "lem14" else "20", "--seed", "1",
          "--json"] for lemma in sorted(harness.SUITES)] + [["tau", "--help"]]
argvs += [["gen", "linear_random", rank, cols, q, "--seed", seed, "-o", f"lr{{q}}_{{seed}}.mtd"]
          for q, rank, cols in (("2", "5", "14"), ("3", "4", "12"), ("4", "3", "10"),
                                ("9", "2", "9")) for seed in ("0", "1", "7")]
out = []
for argv in argvs:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out.append([argv, code, buf.getvalue()])
    if argv[0] == "gen":
        with open(argv[-1], "rb") as fh:
            out[-1].append(hashlib.sha256(fh.read()).hexdigest())
print(json.dumps(out))
"""


def outputs(python, cwd, **env_vars):
    """[argv, exit code, stdout] of each command under `python`, or None
    when `python` does not start."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1", **env_vars)
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


def pyenv_versions(name):
    """The installed pyenv versions of the minor release that `name`
    (python3.X) names, or [] without pyenv."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return []
    proc = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True,
                          timeout=60)
    minor = name.removeprefix("python")
    return [v for v in proc.stdout.split() if v.startswith(minor + ".")]


@pytest.mark.parametrize("name", ["python3.10", "python3.12", "python3.13"])
def test_outputs_match_under_other_python_versions(name, reference, tmp_path):
    python = shutil.which(name)
    got = outputs(python, tmp_path) if python else None
    for version in pyenv_versions(name) if python and got is None else ():
        got = outputs(python, tmp_path, PYENV_VERSION=version)
        if got is not None:
            break
    if got is None:
        pytest.skip(f"{name} is not on PATH or does not start")
    assert got == reference


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "mdl", "*.py"))),
                         ids=os.path.basename)
def test_sources_parse_under_python_310_grammar(path):
    with open(path, encoding="utf-8") as fh:
        ast.parse(fh.read(), filename=path, feature_version=(3, 10))

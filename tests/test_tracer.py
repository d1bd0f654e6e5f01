"""perfbench's tracer still installs on src/ and still yields every
per-layer metric BENCHMARK.json declares.

The tracer wraps mdl functions and methods by name from outside the
package, so a rename or an inlined function in src/ breaks `run.py
--trace 1` without failing any other test.  The tracer rebinds names
for good, so it runs in its own process: one small job of each
command shape the benchmark runs, each exit code checked, then
`tracing.layer_metrics` of what it saw.  Nothing under perfbench/ is
written (no bytecode either).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUN = """
import contextlib, io, json, sys
perfbench, src = sys.argv[1:3]
sys.path[:0] = [perfbench, src]
import tracing
import mdl
from mdl import catalog
from mdl.cli import main

tracer = tracing.Tracer()
tracer.install(mdl)
for name, family, params in (("fano", "pg", (3, 2)), ("pg42", "pg", (4, 2)),
                             ("tower", "u24_tower", (2,))):
    catalog.write_matroid(catalog.gen(family, params), name + ".mtd")
argvs = [
    (["tau", "pg42.mtd", "--a", "2"], 0),
    (["tauw", "fano.mtd", "--d", "3"], 0),
    (["cover", "thm4", "fano.mtd", "--a", "1", "--b", "4"], 0),
    (["rep", "fano.mtd", "--q", "3"], 1),
    (["pg", "pg42.mtd", "--n", "4", "--q", "2"], 0),
    (["stack", "find", "tower.mtd", "--q", "2", "--h", "2", "--t", "2"], 0),
    (["round", "pg42.mtd"], 0),
    (["verify", "lem11", "--trials", "2", "--seed", "0"], 0),
]
codes = []
for argv, want in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append([" ".join(argv), main(argv), want])
print(json.dumps({"codes": codes, "metrics": sorted(tracing.layer_metrics(tracer.snapshot()))}))
"""


def test_tracer_installs_and_reports_every_layer(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]} - {"trace.overhead_s"}
    proc = subprocess.run(
        [sys.executable, "-B", "-c", RUN, os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    for argv, code, want in out["codes"]:
        assert code == want, argv
    assert declared <= set(out["metrics"])

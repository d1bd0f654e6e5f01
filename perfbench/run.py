"""Benchmark for mdl: run one workload's `mdl` jobs and report metrics.

    python3 perfbench/run.py --workload cover --seed 1 --seconds 36 --trace 0

The workload runs in this single-threaded process.  Jobs call
`mdl.cli.main` in-process with their output captured, on inputs made
from --seed (see workloads.py), and every output is checked by
checks.py, which shares no code with mdl.

A run repeats whole rounds of the fixed job list until the workload's
fixed number of timed rounds (workloads.TIMED_ROUNDS) is done and
--seconds have passed; later rounds are checked but not timed.  Right
after every job the run times the fixed reference computation of
reference.py.  The shared host's speed drifts by a third for minutes at
a time, and the reference drifts with it, so each round's job times are
divided by the median reference time of that round, and a job's time is
the median of its quotients over the timed rounds, in seconds at the
reference speed (times reference.REF_S).  The raw times go to the
result file.  Reported with --trace 0 (lower is better for all):

    setup_s      median over SETUP_PROBES fresh probe processes, spread
                 evenly over the timed rounds, of the time from process
                 start until the first job is ready (imports, mdl's
                 field tables, generating and writing the inputs),
                 divided by the median time of a reference probe
                 process (reference.probe) started right after each,
                 times reference.PROBE_S
    wall_s       wall time of the job list: sum of per-job times
    job_p50_s    median per-job time (under forty jobs: no tail)
    peak_rss_mb  peak resident memory of this process

With --trace 1 the run also installs the tracer (tracing.py), repeats
set-up and the job list twice under it, checks that both traced passes
give the plain outputs and identical counts, and reports the per-layer
metrics plus the tracing overhead (traced wall_s, the mean of the two
passes, minus plain wall_s).

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Results, and with --trace 1 the spans, are written under
.perfbench_work/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import checks
import reference
import tracing
import workloads

SETUP_PROBES = 20
PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import workloads; workloads.probe(*sys.argv[2:])"
REF_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import reference; reference.probe()"


@dataclass(frozen=True)
class Outcome:
    seconds: float
    rc: int | None  # None when mdl raised instead of returning
    out: str
    err: str

    @property
    def failed(self) -> bool:
        """mdl raised, or exited 2 (usage, cap or premise error)."""
        return self.rc is None or self.rc == 2


def run_job(mdl, job: workloads.Job) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = mdl.cli.main(list(job.argv))
        except Exception:  # noqa: BLE001 - an escaped exception is a failed job
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return Outcome(seconds, rc, out.getvalue(), err.getvalue())


@dataclass
class Rounds:
    """What a run keeps of its rounds.  Only each job's reference
    outcome holds output; later outcomes are compared with it and
    dropped, so retained memory does not grow with the round count."""
    times: list[list[tuple[float, float]]]  # per round, per job: (job s, reference s)
    refs: list[Outcome]  # per job: its first outcome that did not fail, else its first
    failed: int
    unsteady: set[int]  # jobs whose output changed between rounds


def run_rounds(mdl, jobs, timed_rounds: int, seconds: float, between) -> Rounds:
    """Whole rounds until `timed_rounds` are done and `seconds` have
    passed; `between(n)` runs after round n."""
    res = Rounds([], [], 0, set())
    start = time.perf_counter()
    while len(res.times) < timed_rounds or time.perf_counter() - start < seconds:
        row = []
        for i, job in enumerate(jobs):
            o = run_job(mdl, job)
            row.append((o.seconds, reference.reference()))
            res.failed += o.failed
            if i == len(res.refs):
                res.refs.append(o)
            elif res.refs[i].failed and not o.failed:
                res.refs[i] = o
            elif not o.failed and (o.rc, o.out) != (res.refs[i].rc, res.refs[i].out):
                res.unsteady.add(i)
        res.times.append(row)
        between(len(res.times))
    return res


def time_to_ready(argv: list[str]) -> float:
    """Seconds from spawning a fresh interpreter until it prints "ready"."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"probe {argv[2][:60]!r} exited {rc}")
    return seconds


def round_speed(row) -> float:
    """Median reference seconds of one round of (job s, reference s)."""
    return statistics.median(c for _, c in row)


def job_seconds(rows, i: int) -> float:
    """Job i's median time over `rows`, in seconds at the reference speed."""
    return reference.REF_S * statistics.median(row[i][0] / round_speed(row) for row in rows)


def check_outputs(jobs, rounds: Rounds) -> list[tuple[str, str | None]]:
    """(check name, failure reason or None) for every job that did not fail."""
    verdicts = []
    for i, (job, ref) in enumerate(zip(jobs, rounds.refs)):
        if ref.failed:
            continue
        try:
            reason = job.check(ref.rc, ref.out)
        except Exception as exc:  # noqa: BLE001 - unreadable output is a wrong one
            reason = f"output unreadable: {exc!r}"
        if reason is None and i in rounds.unsteady:
            reason = "output differs between rounds"
        verdicts.append((job.name, reason))
    return verdicts


def traced_pass(mdl, tracer, jobs) -> tuple[list[Outcome], float, dict]:
    """Outcomes, wall time at the reference speed, and the counts."""
    tracer.reset_totals()
    outcomes, row = [], []
    for job in jobs:
        o = run_job(mdl, job)
        outcomes.append(o)
        row.append((o.seconds, reference.reference()))
    wall = reference.REF_S * sum(t for t, _ in row) / round_speed(row)
    return outcomes, wall, tracer.snapshot()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def merge(*snaps: dict) -> dict:
    out: dict = {}
    for snap in snaps:
        for key, table in snap.items():
            acc = out.setdefault(key, {})
            for k, v in table.items():
                acc[k] = acc.get(k, 0) + v
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    mdl = workloads.load_mdl(root)
    checks.self_test()
    work = os.path.join(root, ".perfbench_work")
    tag = f"{args.workload}-seed{args.seed}"
    inputs = os.path.join(work, tag)
    shutil.rmtree(inputs, ignore_errors=True)  # no stale inputs or counterexamples
    os.makedirs(inputs)

    probe_dir = inputs + "-probe"
    shutil.rmtree(probe_dir, ignore_errors=True)
    os.makedirs(probe_dir)
    timed = workloads.TIMED_ROUNDS[args.workload]
    setup: list[float] = []
    setup_ref: list[float] = []
    probe_argv = [sys.executable, "-c", PROBE, bench_dir, root, args.workload, str(args.seed),
                  probe_dir]
    ref_argv = [sys.executable, "-c", REF_PROBE, bench_dir]

    def probe_after(n: int) -> None:
        """Set-up probes, each followed by a reference probe, spread
        evenly over the timed rounds.  A probe slows whatever runs right
        after it, so a reference computation that is not counted
        follows them."""
        due = SETUP_PROBES * min(n, timed) // timed - len(setup)
        for _ in range(due):
            setup.append(time_to_ready(probe_argv))
            setup_ref.append(time_to_ready(ref_argv))
        if due > 0:
            reference.reference()

    workloads.prepare(mdl, args.workload, args.seed, inputs)
    jobs = workloads.jobs(args.workload, inputs)
    os.chdir(inputs)  # `mdl verify` writes counterexamples to the working directory

    rounds = run_rounds(mdl, jobs, timed, args.seconds, probe_after)
    timed_rows = rounds.times[:timed]
    job_s = [job_seconds(timed_rows, i) for i in range(len(jobs))]
    speed = statistics.median(c for row in timed_rows for _, c in row)
    wall = sum(job_s)
    verdicts = check_outputs(jobs, rounds)
    attempted, failed = len(rounds.times) * len(jobs), rounds.failed
    metrics = {
        "setup_s": (reference.PROBE_S * statistics.median(setup) / statistics.median(setup_ref), "s"),
        "wall_s": (wall, "s"),
        "job_p50_s": (statistics.median(job_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds.times),
              "timed_rounds": timed, "ref_s": reference.REF_S,
              "reference_median_s": speed, "setup_samples_s": setup,
              "setup_reference_s": setup_ref,
              "jobs": [{"name": j.name, "argv": list(j.argv), "at_ref_speed_s": b,
                        "raw_median_s": statistics.median(r[i][0] for r in timed_rows),
                        "times_s": [r[i][0] for r in rounds.times],
                        "reference_s": [r[i][1] for r in rounds.times], "exit": rounds.refs[i].rc}
                       for i, (j, b) in enumerate(zip(jobs, job_s))]}

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(mdl)
        traced_inputs = inputs + "-traced"
        shutil.rmtree(traced_inputs, ignore_errors=True)
        os.makedirs(traced_inputs)
        workloads.prepare(mdl, args.workload, args.seed, traced_inputs)
        setup_snap = tracer.snapshot()
        same_inputs = all(_read(os.path.join(inputs, f)) == _read(os.path.join(traced_inputs, f))
                          for f in os.listdir(traced_inputs) if f.endswith(".mtd"))
        verdicts.append(("traced set-up writes the plain inputs", None if same_inputs else "inputs differ"))
        os.chdir(traced_inputs)
        passes = [traced_pass(mdl, tracer, jobs) for _ in range(2)]
        for p, (outs, _, _) in enumerate(passes, 1):
            differ = [j.name for j, o, ref in zip(jobs, outs, rounds.refs) if (o.rc, o.out) != (ref.rc, ref.out)]
            verdicts.append((f"traced pass {p} outputs equal plain outputs",
                             f"differ on {differ}" if differ else None))
        (_, wall1, snap1), (_, wall2, snap2) = passes
        same_counts = (snap1["counts"], snap1["closure_grounds"]) == (snap2["counts"], snap2["closure_grounds"])
        verdicts.append(("traced passes give identical counts", None if same_counts else "counts differ"))
        attempted += sum(len(outs) for outs, _, _ in passes)
        failed += sum(o.failed for outs, _, _ in passes for o in outs)
        traced_wall = (wall1 + wall2) / 2
        layers = tracing.layer_metrics(merge(setup_snap, snap1))
        layers["trace.overhead_s"] = (traced_wall - wall, "s")
        report["traced_wall_s"] = traced_wall
        report["layers"] = {k: v for k, (v, _) in layers.items()}
        tracer.write(os.path.join(work, f"trace-{tag}.json.gz"))
        result_metrics = layers
    else:
        result_metrics = metrics

    correct = all(reason is None for _, reason in verdicts)
    report.update(checks=dict(verdicts), failed=failed, attempted=attempted)
    with open(os.path.join(work, f"result-{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds.times)} "
          f"timed={timed} jobs={len(jobs)}")
    for job, b, o in zip(jobs, job_s, rounds.refs):
        print(f"job {job.name}: {b:.4f} s (median of {timed} at the reference speed), exit {o.rc}")
        if o.failed:
            print(f"  failed: {o.err.strip().splitlines()[-1] if o.err.strip() else 'no message'}")
    for name, reason in verdicts:
        print(f"check {name}: {'ok' if reason is None else 'FAILED: ' + reason}")
    for name, (value, unit) in {**metrics, **(layers if args.trace else {})}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"attempted={attempted} failed={failed} correct={str(correct).lower()}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

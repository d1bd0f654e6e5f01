"""Steadiness check: two sets of benchmark runs of one commit, compared.

    python3 perfbench/steady.py --runs 10 --first-seed 101

Runs run.py `--runs` times on every workload of BENCHMARK.json, each
run on its own seed and for its run_seconds (set A), waits GAP_S
seconds, then does the same on the next `--runs` seeds (set B).  For
each workload and end-to-end metric it prints each set's median and
quartiles, the quartile spread as a share of the median, and whether
the two sets agree within the bounds in BENCHMARK.json: every spread
within its bound, and set B's median within the bound of set A's in
either direction.  It also checks that both sets fail the same share
of operations.  Exit code 0 when everything agrees.  The raw figures
go to .perfbench_work/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GAP_S = 300  # pause between the two sets, so that they run at different times


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(workloads, seeds, seconds) -> dict:
    out = {}
    for w in workloads:
        out[w] = []
        for seed in seeds:
            res = run_once(w, seed, seconds)
            out[w].append(res)
            figures = " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
            print(f"  {w} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {figures}", flush=True)
    return out


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile spread / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def compare(spec: dict, set_a: dict, set_b: dict) -> bool:
    ok = True
    for w in set_a:
        print(f"{w}:")
        shares = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w])
                  for s in (set_a, set_b)]
        good = all(r["correct"] for s in (set_a, set_b) for r in s[w]) and shares[0] == shares[1]
        print(f"  correct in every run and equal failed shares {shares}: {good}")
        ok &= good
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summary([r["metrics"][name]["value"] for r in set_a[w]])
            b = summary([r["metrics"][name]["value"] for r in set_b[w]])
            shift = (b[0] - a[0]) / a[0]
            agree = max(a[3], b[3]) <= bound and abs(shift) <= bound
            ok &= agree
            print(f"  {name:12s} A {a[0]:.4f} [{a[1]:.4f}, {a[2]:.4f}] spread {a[3]:6.1%} | "
                  f"B {b[0]:.4f} [{b[1]:.4f}, {b[2]:.4f}] spread {b[3]:6.1%} | "
                  f"shift {shift:+6.1%} bound {bound:.0%}: {'agree' if agree else 'DISAGREE'}")
    return ok


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds_a = range(args.first_seed, args.first_seed + args.runs)
    seeds_b = range(args.first_seed + args.runs, args.first_seed + 2 * args.runs)

    started = time.strftime("%Y%m%d-%H%M%S")
    print(f"set A, seeds {seeds_a.start}..{seeds_a.stop - 1}", flush=True)
    set_a = run_set(workloads, seeds_a, seconds)
    time.sleep(GAP_S)
    print(f"set B, seeds {seeds_b.start}..{seeds_b.stop - 1}", flush=True)
    set_b = run_set(workloads, seeds_b, seconds)
    ok = compare(spec, set_a, set_b)
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    with open(os.path.join(work, f"steady-{started}.json"), "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "gap_s": GAP_S, "A": set_a, "B": set_b}, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

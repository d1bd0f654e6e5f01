"""Traced mode: spans and counts at each mdl layer's public entry points.

The tracer wraps functions from outside the package; nothing under
src/ changes.  A wrapped name is replaced at every binding that holds
it (module globals of every mdl module, and class attributes for
methods), because `reduce` imports `tau` and `stacks` imports
`tau_weighted` by name, so wrapping `covers` alone would miss them.

Spans are kept in memory (name, parent, start, end) and written out at
the end.  A span's self time is its duration minus the time its child
spans cover.  `total_s` counts the outermost span of a name only, so a
recursive function is not counted twice.  Counts are read from what
the program already computed (memo sizes, cached ranks, returned
lists), never by making extra oracle calls, so they equal the
program's own work and repeat exactly from run to run.

Rank lookups are counted but get no span: there are millions of them,
and their time stays in the self time of the span that asked.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[list] = []  # [span index, name id, start, child time]
        # per name id
        self._depth: list[int] = []
        self._self: list[float] = []
        self._total: list[float] = []
        self.counts: Counter = Counter()
        self.closure_grounds: Counter = Counter()

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self._depth.append(0)
            self._self.append(0.0)
            self._total.append(0.0)
        return self.names.index(name)

    def enter(self, nid: int) -> None:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1][0] if self._open else -1)
        self.span_end.append(0.0)
        self._depth[nid] += 1
        now = time.perf_counter()
        self.span_start.append(now)
        self._open.append([idx, nid, now, 0.0])

    def leave(self) -> None:
        now = time.perf_counter()
        idx, nid, start, child = self._open.pop()
        self.span_end[idx] = now
        dur = now - start
        self._self[nid] += dur - child
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self._total[nid] += dur
        if self._open:
            self._open[-1][3] += dur

    def active(self, name: str) -> bool:
        return name in self.names and self._depth[self.names.index(name)] > 0

    def snapshot(self) -> dict:
        return {"counts": dict(self.counts),
                "self_s": dict(zip(self.names, self._self)),
                "total_s": dict(zip(self.names, self._total)),
                "closure_grounds": dict(self.closure_grounds)}

    def reset_totals(self) -> None:
        self.counts.clear()
        self.closure_grounds.clear()
        self._self = [0.0] * len(self.names)
        self._total = [0.0] * len(self.names)

    def write(self, path: str) -> None:
        """All spans as one gzipped JSON document: names plus
        [name id, parent span, start s, end s] rows."""
        rows = [[n, p, round(s, 7), round(e, 7)] for n, p, s, e in
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows}, fh)

    # -- wrapping ----------------------------------------------------------

    def span(self, fn, name: str, before=None, after=None):
        """fn wrapped in a span; before(args) and after(args, result) count."""
        tracer = self
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @staticmethod
    def replace(modules, target, wrapper) -> int:
        """Rebind every module global that holds target; returns how many."""
        hits = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, attr, wrapper)
                    hits += 1
        return hits

    def install(self, mdl) -> None:
        """Wrap the public entry points of every mdl layer."""
        import mdl.catalog as catalog
        import mdl.cli as cli
        import mdl.core as core
        import mdl.covers as covers
        import mdl.gf as gf
        import mdl.harness as harness
        import mdl.reduce as reduce_
        import mdl.rep as rep
        import mdl.stacks as stacks

        modules = [cli, catalog, core, covers, gf, harness, reduce_, rep, stacks, mdl]
        counts = self.counts

        def fn(module, attr, name=None, before=None, after=None):
            target = getattr(module, attr)
            name = name or f"{module.__name__.split('.')[-1]}.{attr}"
            if not self.replace(modules, target, self.span(target, name, before, after)):
                raise RuntimeError(f"no binding of {name} to wrap")

        def calls(name):
            def before(args):
                counts[name + ".calls"] += 1
            return before

        # cli, catalog
        fn(cli, "main")
        fn(catalog, "read_matroid")
        fn(catalog, "gen")
        fn(catalog, "write_matroid")
        # gf
        fn(gf, "rank_of_vectors", before=calls("gf.rank_of_vectors"))

        # covers
        def min_cover_before(args):
            counts["covers._min_cover.calls"] += 1
            counts["covers._min_cover.candidates"] += len(args[1])

        fn(covers, "_min_cover", before=min_cover_before)
        fn(covers, "tau")
        fn(covers, "tau_weighted")
        fn(covers, "kdensity_cover")

        # rep
        def rep_before(args):
            counts["rep.is_representable.calls"] += 1
            if self.active("stacks.find_stack"):
                counts["stacks.find_stack.layer_checks"] += 1

        def rep_after(args, result):
            # is_representable computed and cached the rank on entry
            if args[0]._full_rank == 2:
                counts["rep.is_representable.rank2_calls"] += 1

        fn(rep, "is_representable", before=rep_before, after=rep_after)
        fn(rep, "_rank_functions_match", before=calls("rep._rank_functions_match"))
        fn(rep, "is_pg")

        # stacks, reduce, harness
        fn(stacks, "find_stack", before=calls("stacks.find_stack"))
        fn(stacks, "verify_stack")
        fn(reduce_, "weakly_round_restriction")
        fn(reduce_, "span_into")

        def trials_after(args, result):
            counts["harness.trials"] += len(result.trials)

        fn(harness, "run_suite", after=trials_after)

        # core: flats_of_rank
        def flats_wrap(orig):
            inner = self.span(orig, "core.flats_of_rank")

            def flats_of_rank(m, k):
                counts["core.flats_of_rank.calls"] += 1
                before = len(m._flat_levels or ())
                result = inner(m, k)
                counts["core.flats.produced"] += sum(
                    len(level) for level in (m._flat_levels or ())[before:])
                return result

            return flats_of_rank

        core.Matroid.flats_of_rank = flats_wrap(core.Matroid.__dict__["flats_of_rank"])

        # core: closure.  Only the outermost call is a span: a minor
        # view's closure runs its base's, which is the same request.
        closure_id = self.name_id("core.closure")
        depth, grounds = self._depth, self.closure_grounds

        def closure_wrap(orig, minor):
            def closure(m, x):
                if depth[closure_id]:
                    return orig(m, x)
                counts["core.closure.calls"] += 1
                if minor:
                    counts["core.minor_closure.calls"] += 1
                grounds[m.ground.bit_count()] += 1
                self.enter(closure_id)
                try:
                    return orig(m, x)
                finally:
                    self.leave()

            return closure

        for cls in vars(core).values():
            if isinstance(cls, type) and issubclass(cls, core.Matroid) and "closure" in cls.__dict__:
                cls.closure = closure_wrap(cls.__dict__["closure"], cls is core.MinorMatroid)

        # core: memoized rank lookups; a miss grows the memo by one
        rank_orig = core.Matroid.__dict__["rank"]

        def rank(m, x=None):
            if x is None:
                return rank_orig(m)
            counts["core.rank.queries"] += 1
            memo = m._rank_memo
            size = len(memo)
            r = rank_orig(m, x)
            counts["core.rank.evals"] += len(memo) - size
            return r

        core.Matroid.rank = rank


SMALL_GROUND = 15


def layer_metrics(snap: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced pass."""
    c, self_s, total_s = Counter(snap["counts"]), Counter(snap["self_s"]), Counter(snap["total_s"])
    grounds = {int(k): v for k, v in snap["closure_grounds"].items()}
    ncl = sum(grounds.values())
    queries = c["core.rank.queries"]
    count_names = [
        "core.closure.calls", "core.minor_closure.calls", "core.flats_of_rank.calls",
        "core.flats.produced", "core.rank.queries", "core.rank.evals",
        "gf.rank_of_vectors.calls", "covers._min_cover.calls", "covers._min_cover.candidates",
        "rep.is_representable.calls", "rep.is_representable.rank2_calls",
        "rep._rank_functions_match.calls", "stacks.find_stack.calls",
        "stacks.find_stack.layer_checks", "harness.trials",
    ]
    out: dict[str, tuple[float, str]] = {n: (c[n], "count") for n in count_names}
    out["core.closure.mean_ground"] = (
        sum(k * v for k, v in grounds.items()) / ncl if ncl else 0.0, "elements")
    out["core.closure.small_ground_share"] = (
        sum(v for k, v in grounds.items() if k <= SMALL_GROUND) / ncl if ncl else 0.0, "ratio")
    out["core.rank.memo_hit_ratio"] = (
        1 - c["core.rank.evals"] / queries if queries else 0.0, "ratio")
    for name in ("core.closure", "core.flats_of_rank", "gf.rank_of_vectors", "covers._min_cover",
                 "covers.tau", "covers.tau_weighted", "rep.is_representable",
                 "harness.run_suite", "cli.main"):
        out[name + ".self_s"] = (self_s[name], "s")
    for name in ("covers.kdensity_cover", "rep._rank_functions_match", "rep.is_pg",
                 "stacks.find_stack", "stacks.verify_stack", "reduce.weakly_round_restriction",
                 "reduce.span_into", "catalog.read_matroid", "catalog.gen",
                 "catalog.write_matroid"):
        out[name + ".total_s"] = (total_s[name], "s")
    return out

"""One benchmark run of one workload, in a fresh interpreter.

Reads the workload's inputs as JSON on stdin and writes one JSON object on
stdout: clock marks, CPU time, peak RSS, the exact results (which the
parent checks), the run environment and, with ``--mode trace``, the spans
and exact counts of the traced run.

    PYTHONPATH=src python3 perfbench/worker.py --mode run|trace|setup < inputs.json

``--mode setup`` stops after set-up: fan parse/build and complex
construction.  The other modes go on to the workload.  The untraced run
makes the calls a user of the public API makes.  The traced run makes the
same calls in pipeline order.  Each layer's lazy caches are warmed in their
own span first (``f_lower``, then ``face_poset``, then
``build_cochain_complex``), so every span times its own layer's work.
Exceptions from the program are recorded per unit of work. The parent then
counts that unit's checks as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path


def now():
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its spawn
    # time from the marks taken here.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory."""

    def __init__(self, run_id, enabled):
        self.run_id = run_id
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def span(self, name):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name):
        idx = len(self.spans)
        rec = {"name": name, "start": now(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = now()


def frac(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


class Run:
    def __init__(self, inputs, tracer):
        from trophodge import cohomology, cycles, fans, weightss

        self.inputs = inputs
        self.tr = tracer
        self.traced = tracer.enabled
        self.cohomology, self.cycles = cohomology, cycles
        self.fans, self.weightss = fans, weightss
        self.results = {}
        self.errors = []
        self.built = []  # (entry, fan, cx, closed, weights)
        self.used_ps = {}  # complex index -> set of p with cochains built
        self.e2_fans = []

    def unit(self, key, fn):
        """Run one unit of work; an exception fails only this unit."""
        try:
            fn()
        except Exception:
            self.errors.append({"unit": key, "error": traceback.format_exc()})

    # -- set-up --------------------------------------------------------

    def setup(self):
        for entry in self.inputs["fans"]:
            self.unit(entry["name"], lambda e=entry: self._build(e))

    def _build(self, entry):
        fans, weightss = self.fans, self.weightss
        with self.tr.span("fans.build"):
            fan = fans.from_json_dict(entry["fan"])
            fan.is_smooth()
            if not fans.is_complete(fan):
                fans.completion(fan)
            weights = [self._weights(fan, w) for w in entry.get("weights", ())]
        with self.tr.span("tropspace.complex"):
            cx = weightss.trop_complex_for(fan)
            closed = cx.is_boundary_closed() if self.traced else None
        self.built.append((entry, fan, cx, closed, weights))

    def _weights(self, fan, rec):
        rays = fan.rays
        cones = [[rays[i] for i in cone] for cone in rec["cones"]]
        scale = Fraction(rec["scale"])
        mk = self.cycles.MinkowskiWeight
        return (rec["codim"],
                mk(fan, rec["codim"], {tuple(c): 1 for c in cones}),
                mk(fan, rec["codim"], {tuple(c): scale for c in cones}))

    # -- traced warm-up -------------------------------------------------

    def warm(self, i, cx, ps, closed):
        """Fill F_p, face poset and cochain caches, each in its own span."""
        if not self.traced:
            return
        with self.tr.span("tropspace.f_p"):
            for p in ps:
                for cell in cx.cells:
                    cx.f_lower(cell, p)
        if closed:
            with self.tr.span("tropspace.face_poset"):
                cx.face_poset()
            with self.tr.span("cohomology.assembly"):
                for p in ps:
                    self.cohomology.build_cochain_complex(cx, p)
            self.used_ps.setdefault(i, set()).update(ps)

    def solve_span(self, closed):
        return "cohomology.closed_solve" if closed else "cohomology.open_solve"

    # -- workloads -----------------------------------------------------

    def compute(self):
        getattr(self, "compute_" + self.inputs["workload"])()

    def compute_zoo(self):
        for i, built in enumerate(self.built):
            self.unit(built[0]["name"], lambda i=i: self._verify(i))

    def _verify(self, i):
        """The checks of ``trophodge verify`` on one fan."""
        cohomology, cycles, weightss = self.cohomology, self.cycles, self.weightss
        entry, fan, cx, closed, _ = self.built[i]
        n = fan.ambient_rank
        out = {}
        if self.traced:
            self.warm(i, cx, range(n + 1), closed)
            with self.tr.span("weightss.e2"):
                e2 = weightss.e2_page(fan)
            with self.tr.span(self.solve_span(closed)):
                first = cohomology.betti_table(cx)
            out["compare_pass"] = all(
                e2.dim(p, q) == first[q][p]
                for p in range(n + 1) for q in range(n + 1))
            self.e2_fans.append(fan)
        else:
            out["compare_pass"] = weightss.compare_with_trop(fan)["pass"]
        with self.tr.span(self.solve_span(closed)):
            out["betti"] = cohomology.betti_table(cx)
        if entry["complete"]:
            with self.tr.span("weightss.euler"):
                out["euler_pass"] = weightss.euler_consistency(fan)["pass"]
            with self.tr.span("cycles.chow"):
                out["chow"] = [cycles.chow_dim(fan, p) for p in range(n + 1)]
            out["h_betti"] = weightss.betti_from_h_vector(fan)
            if n == 2:
                with self.tr.span("cycles.numerical_kernel"):
                    out["numerical_pass"] = cycles.numerical_kernel_check(fan)["pass"]
        self.results[entry["name"]] = out

    def compute_p4(self):
        entry, fan, cx, closed, _ = self.built[0]
        n = fan.ambient_rank
        out = self.results.setdefault(entry["name"], {})

        def table():
            self.warm(0, cx, range(n + 1), closed)
            with self.tr.span(self.solve_span(closed)):
                out["betti"] = self.cohomology.betti_table(cx)

        def e2():
            with self.tr.span("weightss.e2"):
                out["e2"] = self.weightss.e2_page(fan).table()
            self.e2_fans.append(fan)

        def chow():
            with self.tr.span("cycles.chow"):
                out["chow"] = [self.cycles.chow_dim(fan, p) for p in range(n + 1)]

        self.unit("betti", table)
        self.unit("e2", e2)
        self.unit("chow", chow)

    def compute_pairing(self):
        for i, (entry, fan, *_) in enumerate(self.built):
            for c in range(1, fan.ambient_rank):
                self.unit(f"{entry['name']}:{c}", lambda i=i, c=c: self._pair(i, c))

    def _pair(self, i, c):
        """Pair codim-c weights (and divisors, for c = 1) with H^{d,d}."""
        cohomology, cycles = self.cohomology, self.cycles
        entry, fan, cx, closed, weights = self.built[i]
        d = fan.ambient_rank - c
        self.warm(i, cx, [d], closed)
        with self.tr.span("cohomology.reps"):
            reps = cohomology.cohomology(cx, d, d).representatives

        def pairings(cyc):
            with self.tr.span("cycles.pair"):
                return [frac(cycles.pair(rep, cyc)) for rep in reps]

        res = {"dim": len(reps), "balanced": [], "unit": [], "scaled": []}
        for codim, unit, scaled in weights:
            if codim != c:
                continue
            for key, mw in (("unit", unit), ("scaled", scaled)):
                with self.tr.span("cycles.cycle_class"):
                    balanced = not cycles.balancing_check(mw)
                    cyc = cycles.cycle_class(cx, mw)
                res["balanced"].append(balanced)
                res[key].append(pairings(cyc))
        if c == 1:
            res["principal"] = []
            for m in entry["characters"]:
                with self.tr.span("cycles.cycle_class"):
                    cyc = cycles.divisor_combination(
                        cx, cycles.principal_divisor_weights(fan, m))
                res["principal"].append(pairings(cyc))
        self.results.setdefault(entry["name"], {})[str(c)] = res

    # -- exact counts (traced run, after the timed part) ---------------

    def counts(self):
        from trophodge.exactla import sparse_rank

        out = dict.fromkeys((
            "tropspace.cells", "tropspace.face_pairs", "cohomology.delta_rows",
            "cohomology.delta_cols", "cohomology.delta_nnz",
            "cohomology.delta_rank", "weightss.e1_dim"), 0)
        for i, (_, _, cx, closed, _) in enumerate(self.built):
            out["tropspace.cells"] += len(cx.cells)
            if closed:
                out["tropspace.face_pairs"] += len(cx.face_poset())
            for p in sorted(self.used_ps.get(i, ())):
                for delta in self.cohomology.build_cochain_complex(cx, p).deltas:
                    rows = [{j: v for j, v in enumerate(row) if v}
                            for row in delta.entries]
                    out["cohomology.delta_rows"] += delta.rows
                    out["cohomology.delta_cols"] += delta.cols
                    out["cohomology.delta_nnz"] += sum(len(r) for r in rows)
                    out["cohomology.delta_rank"] += sparse_rank(rows)
        for fan in self.e2_fans:
            out["weightss.e1_dim"] += sum(self.weightss.e1_page(fan).dims.values())
        return out


def record_workers(cohomology):
    """Record the ``max_workers`` the program asks its thread pool for."""
    seen = []
    pool = getattr(cohomology, "ThreadPoolExecutor", None)
    if pool is not None:
        class Recording(pool):
            def __init__(self, max_workers=None, *args, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        cohomology.ThreadPoolExecutor = Recording
    return seen


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("run", "trace", "setup"), required=True)
    ap.add_argument("--run-id", default="run")
    args = ap.parse_args()

    leaked = sorted(k for k in os.environ if k.startswith("TROPHODGE_"))
    if leaked:
        sys.exit(f"worker: TROPHODGE_* variables reached the run: {leaked}")
    inputs = json.load(sys.stdin)

    import trophodge
    from trophodge import cohomology

    src = (Path.cwd() / "src").resolve()
    if src not in Path(trophodge.__file__).resolve().parents:
        sys.exit(f"worker: trophodge imported from {trophodge.__file__}, not {src}")
    workers = record_workers(cohomology)

    tracer = Tracer(args.run_id, args.mode == "trace")
    run = Run(inputs, tracer)
    with tracer.span("run"):
        with tracer.span("setup"):
            run.setup()
        setup_end = now()
        if args.mode != "setup":
            run.unit("compute", run.compute)
        compute_end = now()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "marks": {"setup_end": setup_end, "compute_end": compute_end},
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "results": run.results,
        "errors": run.errors,
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "backend": trophodge.BACKEND,
            "workers": max(workers, default=1),
            "trophodge_env": leaked,
        },
    }
    if tracer.enabled:
        out["spans"] = tracer.spans
        out["counts"] = run.counts()
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

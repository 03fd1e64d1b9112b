"""Benchmark of trophodge on seeded workloads.

    python3 perfbench/run.py --workload zoo|p4|pairing --seed N --seconds S --trace 0|1

Run it from the root of a trophodge source checkout.  Every run of the
program starts in a fresh interpreter (``perfbench/worker.py``), because a
command-line user pays for cold caches on every invocation.  The program
runs in its default configuration: ``TROPHODGE_*`` variables are removed
from the child environment.

With ``--trace 0`` the benchmark repeats the untraced run until ``--seconds``
would be exceeded (at least once) and reports medians of the end-to-end
metrics.  With ``--trace 1`` it alternates untraced and traced runs of the
same seed and reports per-layer self times, exact counts and the tracing
overhead.  The traced spans are written to ``.bench_out/``.

Every exact result is checked (``perfbench/checks.py``).  Summary lines,
the run environment and ``failed_frac`` go to stdout first.  The last line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import run_checks
from inputs import dumps, make_inputs

WORKLOADS = ("zoo", "p4", "pairing")
# Whole run, set-up probes and the last child included, stays under this.
HARD_LIMIT_S = 170.0
SPAN_METRICS = (
    "fans.build", "tropspace.complex", "tropspace.f_p", "tropspace.face_poset",
    "cohomology.assembly", "cohomology.closed_solve", "cohomology.open_solve",
    "cohomology.reps", "weightss.e2", "weightss.euler", "cycles.chow",
    "cycles.numerical_kernel", "cycles.cycle_class", "cycles.pair",
)
COUNT_METRICS = (
    "tropspace.cells", "tropspace.face_pairs", "cohomology.delta_rows",
    "cohomology.delta_cols", "cohomology.delta_nnz", "cohomology.delta_rank",
    "weightss.e1_dim",
)


class BenchError(Exception):
    """The benchmark could not run the program; no result is printed."""


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("TROPHODGE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def run_child(mode, payload, run_id, deadline):
    """One fresh-interpreter run; returns the worker's record plus timings."""
    cmd = [sys.executable, "perfbench/worker.py", "--mode", mode, "--run-id", run_id]
    t0 = now()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=child_env())
    try:
        out, _ = proc.communicate(payload, timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run {run_id} did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} run {run_id} exited with {proc.returncode}")
    rec = json.loads(out.decode().splitlines()[-1])
    rec["setup_s"] = rec["marks"]["setup_end"] - t0
    rec["wall_s"] = rec["marks"]["compute_end"] - t0
    rec["elapsed_s"] = now() - t0
    return rec


def self_times(spans):
    """Self time per span name: duration minus the direct children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = dict.fromkeys(SPAN_METRICS, 0.0)
    for s, c in zip(spans, child):
        if s["name"] in out:
            out[s["name"]] += s["end"] - s["start"] - c
    return out


def source_digest():
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not Path(".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return res.stdout.strip() or None


class Bench:
    def __init__(self, args):
        self.args = args
        self.inputs = make_inputs(args.workload, args.seed)
        self.payload = dumps(self.inputs).encode()
        self.start = now()
        self.hard_deadline = self.start + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.env = None
        self.runs = 0

    def child(self, mode):
        self.runs += 1
        run_id = f"{self.args.workload}-s{self.args.seed}-{mode}{self.runs}"
        rec = run_child(mode, self.payload, run_id, self.hard_deadline)
        if rec["env"]["trophodge_env"]:
            raise BenchError(f"TROPHODGE_* reached the run: {rec['env']['trophodge_env']}")
        for err in rec["errors"]:
            print(f"{run_id}: {err['unit']} raised\n{err['error']}", file=sys.stderr)
        if mode != "setup":
            self.env = rec["env"]  # set-up-only runs make no thread pool
            attempted, failed = run_checks(self.inputs, rec["results"])
            self.attempted += attempted
            self.failed += len(failed)
            if failed:
                print(f"{run_id}: failed checks {sorted(set(failed))}", file=sys.stderr)
        return rec

    def more(self, samples):
        """True while another run of the median length fits in --seconds."""
        typical = statistics.median(s["elapsed_s"] for s in samples)
        return now() + typical <= self.start + self.args.seconds

    def untraced(self):
        # The first set-up-only run also compiles the package's bytecode.
        # Full runs come next, while they fit; set-up-only runs fill the
        # rest of --seconds.  setup_s is the median over all of them.
        probes = [self.child("setup")]
        samples = [self.child("run")]
        while self.more(samples):
            samples.append(self.child("run"))
        probes.append(self.child("setup"))
        while self.more(probes):
            probes.append(self.child("setup"))

        def med(key, recs=samples):
            return statistics.median(r[key] for r in recs), len(recs)

        return {
            "wall_s": (*med("wall_s"), "s"),
            "cpu_s": (*med("cpu_s"), "s"),
            "setup_s": (*med("setup_s", probes + samples), "s"),
            "peak_rss_mb": (*med("peak_rss_mb"), "MB"),
        }

    def traced(self):
        plain, traced = [], []
        while True:
            plain.append(self.child("run"))
            traced.append(self.child("trace"))
            pairs = [{"elapsed_s": a["elapsed_s"] + b["elapsed_s"]}
                     for a, b in zip(plain, traced)]
            if not self.more(pairs):
                break
        n = len(traced)
        counts = [t["counts"] for t in traced]
        if any(c != counts[0] for c in counts):
            print("exact counts differ between traced runs", file=sys.stderr)
            self.failed += 1
        self.attempted += 1
        layers = [self_times(t["spans"]) for t in traced]
        metrics = {f"{name}_s": (statistics.median(l[name] for l in layers), n, "s")
                   for name in SPAN_METRICS}
        metrics.update({name: (counts[0][name], n, "count") for name in COUNT_METRICS})
        metrics["cohomology.workers"] = (self.env["workers"], n, "count")
        overhead = (statistics.median(t["wall_s"] for t in traced)
                    / statistics.median(p["wall_s"] for p in plain) - 1.0)
        metrics["trace.overhead_frac"] = (overhead, n, "frac")
        out_dir = Path(".bench_out")
        out_dir.mkdir(exist_ok=True)
        dump = {"env": self.env_record(), "counts": counts[0],
                "spans": [s for t in traced for s in t["spans"]]}
        path = out_dir / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        path.write_text(json.dumps(dump, sort_keys=True) + "\n")
        return metrics

    def env_record(self):
        return dict(self.env, seed=self.args.seed, workload=self.args.workload,
                    git_commit=git_commit(), src_sha256=source_digest())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/trophodge/__init__.py").is_file():
        print("run.py: run from the root of a trophodge checkout "
              "(src/trophodge not found)", file=sys.stderr)
        return 2
    bench = Bench(args)
    try:
        metrics = bench.traced() if args.trace else bench.untraced()
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    failed_frac = bench.failed / bench.attempted
    print("env " + json.dumps(bench.env_record(), sort_keys=True))
    for name, (value, n, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit} (median of {n})")
    print(f"failed_frac {failed_frac:.6g} frac ({bench.failed}/{bench.attempted} checks)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, _, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded benchmark of the oldsets CLI and library.

    python3 bench/run.py --workload {gnp-enumerate,sat-decide,lattice}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One client, one process, a closed loop: each request is issued
after the previous answer has been checked (the check is not timed).

``--trace 0`` times the workload with nothing installed: passes over the
seed's rounds (see ``workloads.ROUNDS``) until the next would end after
``--seconds``, and prints the end-to-end metrics.  ``--trace 1`` runs round 0
once with span wrappers installed and once without, and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is the
JSON result; diagnostics, including the tail percentile and sample count,
go to stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

# setup_s is the median of this many fresh interpreters (after one warm-up
# that also writes the bytecode cache)
SETUP_REPEATS = 9
# req_tail_ms is the highest of these percentiles that leaves at least ten
# requests of one pass beyond it; fixed by the sequence length, so it does
# not move when a faster program fits more passes into a run
TAIL_LADDER = (99, 95, 90, 75, 50)

# counts that must repeat exactly between runs of the same code and seed
EXACT_COUNTS = ("solve.nodes", "solve.find_value.nodes", "solve.collect.nodes",
                "solve.propagate.calls", "solve.root_gap", "grids.verify_pattern.calls")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Checker:
    """Checks each answer once per distinct output and counts failures."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.cache: dict[str, tuple[object, str | None]] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def record(self, req, out, error: str | None = None) -> None:
        from workloads import CheckFailed

        self.attempted += 1
        if error is None:
            cached = self.cache.get(req.key)
            if cached is not None and cached[0] == out:
                error = cached[1]
            else:
                try:
                    summary = json.loads(json.dumps(req.check(out)))
                    if self.expected is not None:
                        want = self.expected.get(req.key, "<no recorded answer>")
                        if summary != want:
                            raise CheckFailed(f"answer {summary!r} != recorded {want!r}")
                except CheckFailed as exc:
                    error = str(exc)
                except Exception as exc:  # a malformed answer the check cannot read
                    error = f"uncheckable answer: {exc!r}"
                self.cache[req.key] = (out, error)
        if error is not None:
            self.failures.append((req.key, error))


def run_pass(requests, checker: Checker, tracer=None) -> list[float]:
    """One pass over a request sequence; returns per-request latencies."""
    latencies = []
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        error = None
        t0 = perf_counter()
        try:
            out = req.run()
        except Exception as exc:
            out = None
            error = f"raised {exc!r}"
        latencies.append(perf_counter() - t0)
        if error is not None:
            traceback.print_exc(file=sys.stderr)
        checker.record(req, out, error)
    return latencies


def measure_setup(code: str) -> list[float]:
    """Seconds from launching a fresh interpreter until it has imported the
    package and run the workload's lazy set-up.  perf_counter is the
    system-wide monotonic clock, so the child's reading compares with ours."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    script = code + "import time\nprint(time.perf_counter())\n"
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return times


def percentile(values: list[float], p: float) -> float:
    xs = sorted(values)
    pos = p / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(sequence_length: int) -> int:
    for p in TAIL_LADDER:
        if sequence_length * (100 - p) / 100 >= 10:
            return p
    return TAIL_LADDER[-1]


def end_to_end(wl, checker: Checker, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup(wl.setup_code)
    exec(compile(wl.setup_code, "<setup>", "exec"), {})
    passes: list[list[float]] = []
    start = perf_counter()
    while True:
        gc.collect()
        p0 = perf_counter()
        passes.append(run_pass(wl.rounds[len(passes) % len(wl.rounds)], checker))
        last = perf_counter() - p0
        if perf_counter() - start + last > seconds:
            break
    pooled = [x for lat in passes for x in lat]
    tail_p = tail_percentile(len(wl.rounds[0]))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(sum(lat) for lat in passes), "s"),
        "req_p50_ms": (percentile(pooled, 50) * 1e3, "ms"),
        "req_tail_ms": (percentile(pooled, tail_p) * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    info = {"passes": len(passes), "requests_per_pass": len(wl.rounds[0]), "samples": len(pooled),
            "req_tail_percentile": tail_p, "pass_wall_s": [round(sum(lat), 4) for lat in passes],
            "setup_s_runs": [round(t, 4) for t in setup]}
    return metrics, info


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "oldsets").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def per_layer(wl, checker: Checker, seed: int, out_dir: Path = OUT) -> tuple[dict, dict, bool]:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        exec(compile(wl.setup_code, "<setup>", "exec"), {})
        gc.collect()
        traced = sum(run_pass(wl.rounds[0], checker, tracer))
    finally:
        tracer.uninstall()
    gc.collect()
    untraced = sum(run_pass(wl.rounds[0], checker))

    metrics: dict[str, tuple[float, str]] = {}
    for name in tracer.names:
        calls, total, self_s = tracer.agg[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.s"] = (total, "s")
        metrics[f"{name}.self_s"] = (self_s, "s")
    c = tracer.counts
    calls = {name: tracer.agg[name][0] for name in tracer.names}

    def frac(num, den):
        return num / den if den else 0.0

    metrics.update({
        "solve.nodes": (c["solve.nodes"], "count"),
        "solve.find_value.nodes": (c["solve.find_value.nodes"], "count"),
        "solve.collect.nodes": (c["solve.collect.nodes"], "count"),
        "solve.root_gap": (c["solve.root_gap"], "count"),
        "solve.propagate.conflict_frac":
            (frac(c["solve.propagate.conflicts"], calls["solve.propagate"]), "ratio"),
        "verify.verify_set.accept_frac":
            (frac(c["verify.verify_set.accepted"], calls["verify.verify_set"]), "ratio"),
        "grids.verify_pattern.accept_frac":
            (frac(c["grids.verify_pattern.accepted"], calls["grids.verify_pattern"]), "ratio"),
        "trace.traced_wall_s": (traced, "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.overhead_frac": (traced / untraced - 1, "ratio"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.hooks_absent": (len(tracer.absent), "count"),
    })

    # exact counts: flag any that differ from an earlier run of the same
    # code on the same seed
    exact = {name: metrics[name][0] for name in EXACT_COUNTS}
    record = {"source": _source_digest(), "counts": exact}
    counts_path = out_dir / "counts" / f"{wl.name}-seed{seed}.json"
    mismatched = []
    if counts_path.is_file():
        previous = json.loads(counts_path.read_text())
        if previous.get("source") == record["source"]:
            mismatched = [k for k in EXACT_COUNTS if previous["counts"].get(k) != exact[k]]
    counts_path.parent.mkdir(parents=True, exist_ok=True)
    counts_path.write_text(json.dumps(record, indent=1) + "\n")
    metrics["trace.count_mismatches"] = (len(mismatched), "count")

    absent = tracer.absent_spans()
    unreached = [n for n in wl.must_reach if n not in absent and calls[n] == 0]
    # one file per workload, overwritten by the next traced run: a round of
    # gnp-enumerate records about 470,000 spans (12 MB)
    spans_path = out_dir / f"spans-{wl.name}.bin"
    tracer.write(spans_path)
    info = {"hooks_absent": tracer.absent, "layers_absent": sorted(absent),
            "unreached_layers": unreached, "count_mismatches": mismatched,
            "spans_file": str(spans_path.relative_to(ROOT)), "exact_counts": exact}
    return metrics, info, not unreached


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oldsets" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'oldsets'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    expected = None
    if args.seed == workloads.DEFAULT_SEED:
        recorded = json.loads(EXPECTED.read_text())
        expected = recorded["answers"][args.workload]
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        checker = Checker(expected)
        if args.trace:
            metrics, info, ok = per_layer(wl, checker, args.seed)
        else:
            metrics, info = end_to_end(wl, checker, args.seconds)
            ok = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(checker.failures)
    info["fail_frac"] = failed / checker.attempted
    info["failures"] = checker.failures[:10]
    print(json.dumps({"info": info}), file=sys.stderr)
    result = {
        "correct": ok and failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

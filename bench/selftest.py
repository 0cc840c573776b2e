"""Self-test of the benchmark harness (about 15 seconds).

    python3 bench/selftest.py

Runs a small slice of each workload untraced and traced, and checks that:

* every answer in the slice passes its check, at the default seed against
  the recorded answers too;
* corrupted answers (a wrong witness, a flipped SAT decision, a flipped
  grid verdict) are counted as failures, so the checks are not vacuous;
* the traced pass reaches every layer the slice must reach, its exact
  counts repeat between two traced passes, and the printed metric names
  match BENCHMARK.json;
* run.py exits nonzero, printing no result, where the package source is
  missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

OUT = BENCH / "out" / "selftest"

# A few cheap requests of every kind each workload issues.
SLICES = {
    "gnp-enumerate": ("r0/gnp/g11/old", "r0/gnp/g11/redold", "r0/gnp/n13/0/old", "r0/gnp/n15/1/redold"),
    "sat-decide": ("r0/sat/N3/M5/0", "r0/sat/N4/M6/0"),
    "lattice": ("r0/lattice/builtin/sq-redold/6x6", "r0/lattice/search/king-redold/6x6/1/3",
                "r0/lattice/random/0", "r0/lattice/random/8"),
}


def sliced(name: str, seed: int) -> workloads.Workload:
    wl = workloads.build(name, seed, OUT / f"{name}-{seed}")
    keep = [r for r in wl.rounds[0] if r.key in SLICES[name]]
    assert len(keep) == len(SLICES[name]), f"slice keys missing from {name}"
    return dataclasses.replace(wl, rounds=[keep])


def expected_for(name: str, seed: int):
    if seed != workloads.DEFAULT_SEED:
        return None
    return json.loads(run.EXPECTED.read_text())["answers"][name]


def check_clean_runs() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    for name in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, 7):
            wl = sliced(name, seed)
            checker = run.Checker(expected_for(name, seed))
            metrics, _ = run.end_to_end(wl, checker, seconds=0)
            assert set(metrics) == e2e_names, f"end-to-end names differ: {set(metrics) ^ e2e_names}"
            assert all(v > 0 for v, _ in metrics.values()), f"{name}: an end-to-end metric is 0"
            counts = []
            for _ in range(2):
                layer, info, ok = run.per_layer(wl, checker, seed, out_dir=OUT)
                assert set(layer) == layer_names, f"per-layer names differ: {set(layer) ^ layer_names}"
                assert ok, f"{name}: layers not reached: {info['unreached_layers']}"
                counts.append(info["exact_counts"])
            assert counts[0] == counts[1], f"{name}: exact counts differ between traced passes"
            assert layer["trace.count_mismatches"][0] == 0
            assert not checker.failures, f"{name} seed {seed}: {checker.failures}"
            print(f"ok   {name} seed {seed}: {checker.attempted} answers checked")


def corrupt_and_expect_failure() -> None:
    def failures_after(name: str, key: str, corrupt) -> list:
        wl = sliced(name, 7)
        req = next(r for r in wl.rounds[0] if r.key == key)
        code, text = req.run()
        rep = json.loads(text)
        corrupt(rep)
        checker = run.Checker(None)
        checker.record(req, (code, json.dumps(rep, sort_keys=True)))
        return checker.failures

    def wrong_witness(rep):
        # swap the witness's last member for the smallest label outside it,
        # keeping the size: a same-sized set the verifier must reject or
        # that no longer leads the optima list
        rep["witness"] = rep["witness"][:-1] + ["v4" if "v4" not in rep["witness"] else "v8"]

    def flip_decision(rep):
        rep["decide"]["sat_via_redold"] = not rep["decide"]["sat_via_redold"]

    def flip_verdict(rep):
        rep["holds"] = not rep["holds"]

    for name, key, corrupt in (
        ("gnp-enumerate", "r0/gnp/g11/old", wrong_witness),
        ("sat-decide", "r0/sat/N3/M5/0", flip_decision),
        ("lattice", "r0/lattice/builtin/sq-redold/6x6", flip_verdict),
    ):
        failures = failures_after(name, key, corrupt)
        assert failures, f"corrupted {key} was not counted as a failure"
        print(f"ok   corrupted {key} counted as a failure: {failures[0][1]}")


def check_missing_package_exit() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sat-decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and not done.stdout.strip(), "run.py succeeded without the package"
    print(f"ok   without src/oldsets run.py exits {done.returncode}: {done.stderr.strip()}")


def main() -> int:
    try:
        check_clean_runs()
        corrupt_and_expect_failure()
        check_missing_package_exit()
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

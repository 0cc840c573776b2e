"""Record the answers the benchmark expects for its default seed.

    python3 bench/record.py

Runs every request of every round of every workload once at the default
seed, checks each answer as the benchmark does, cross-checks every
gnp-enumerate answer (all graphs have n <= 20) against the package's
brute-force oracle ``min_set_bruteforce``, and writes bench/expected.json.  Rerun it only when a change is meant to
alter an answer; the diff of expected.json then shows which.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from oldsets.cli import _load_graph  # noqa: E402
from oldsets.solve import min_set_bruteforce  # noqa: E402
from oldsets.verify import Kind  # noqa: E402


def bruteforce_answer(argv: list[str]) -> list:
    """[value, optima as label lists] from the brute-force oracle."""
    g = _load_graph(argv[1])
    res = min_set_bruteforce(g, Kind(argv[3]), enumerate_all=True)
    if not res.feasible:
        return ["infeasible", []]
    optima = [[g.label(v) for v in range(g.n) if s >> v & 1] for s in res.all_minimum_sets]
    return [res.value, optima]


def main() -> int:
    seed = workloads.DEFAULT_SEED
    answers: dict[str, dict] = {}
    workdir = BENCH / "out" / "record"
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, seed, workdir / name)
            exec(compile(wl.setup_code, "<setup>", "exec"), {})
            answers[name] = {}
            for req in (r for rnd in wl.rounds for r in rnd):
                out = req.run()
                summary = json.loads(json.dumps(req.check(out)))
                if req.argv and req.argv[0] == "solve":
                    rep = json.loads(out[1])
                    got = [rep["value"], rep.get("optima", [])]
                    if got != bruteforce_answer(req.argv):
                        raise SystemExit(f"{req.key}: solver answer differs from min_set_bruteforce")
                answers[name][req.key] = summary
                print(req.key, summary, file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload = {"seed": seed, "answers": answers}
    (BENCH / "expected.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

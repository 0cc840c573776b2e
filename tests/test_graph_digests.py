"""Answer digests for the graph layer, recorded in graph_digests.json at
commit 1649e1d: ``verify_set`` reports at folds 1-3 and the LD and IC
verdicts on seeded random graphs with twins and isolated vertices,
``min_set`` answers with and without ``forced_out``, ``reduce --decide``
verdicts, and ``verify_set`` reports on ``build_torus`` tori of every
lattice with tiled and random sets.

Each case is one line of text, its input and its answers.  The file keeps
the sha256 of all lines and, to name the first case that differs, a short
tag per case (the first TAG_HEX hex digits of that line's sha256).  The
solver's node counts are kept apart, in their own digest and tags, so
that a change of search order re-records only them.  Record again only
for a change that is meant to alter an answer:
``PYTHONPATH=src python tests/test_graph_digests.py``.
"""

import collections
import functools
import hashlib
import json
import random
import sys
from pathlib import Path

from conftest import random_cnf, random_graph, random_graph_with_twins, sparse_set
from oldsets.graph import mask_of
from oldsets.grids import Lattice, build_torus
from oldsets.sat_reduction import build_reduction, decide_sat_via_redold, satisfiable_bruteforce
from oldsets.solve import min_set
from oldsets.verify import Kind, is_identifying_code, is_locating_dominating, verify_set

DIGESTS = Path(__file__).with_name("graph_digests.json")
GRAPHS = 1600
SOLVES = 400
CNFS = 40
TAG_HEX = 4


def _report(rep):
    return (rep.holds, rep.vertex, rep.pair, rep.count)


def _outcome(rep):
    return "holds" if rep.holds else "vertex" if rep.pair is None else "pair"


def _dominating(rng, adj, fold):
    """A random set grown until every vertex with ``fold`` neighbours has
    ``fold`` of them in it, so that the check goes on to the pairs."""
    s = sparse_set(rng, len(adj))
    for a in adj:
        near = [w for w in range(len(adj)) if a >> w & 1]
        if len(near) >= fold:
            while (a & s).bit_count() < fold:
                s |= 1 << rng.choice(near)
    return s


def _sets(rng, adj):
    n = len(adj)
    return [
        sparse_set(rng, n),
        _dominating(rng, adj, 1),
        _dominating(rng, adj, 2),
        _dominating(rng, adj, 3),
        (1 << n) - 1,
    ]


def _tori():
    for lattice in Lattice:
        sides = (6, 8) if lattice is Lattice.HEX else (5, 6, 7, 8)
        for w in sides:
            for h in sides:
                yield lattice, w, h


def _tiled(rng, lattice, w, h):
    """A random period dividing both sides (even on HEX) with random cells,
    tiled across the torus."""
    step = 2 if lattice is Lattice.HEX else 1
    px = rng.choice([d for d in range(step, w + 1, step) if w % d == 0])
    py = rng.choice([d for d in range(step, h + 1, step) if h % d == 0])
    cells = {(x, y) for x in range(px) for y in range(py) if rng.random() < 0.5}
    return mask_of(y * w + x for y in range(h) for x in range(w) if (x % px, y % py) in cells)


def cases(outcomes=None):
    """Yield (answer line, nodes line) per case; the nodes line is None
    where no solver runs.  Each graph's verify_set report's outcome and
    fold is counted in ``outcomes``, when given.  Every fourth graph is a
    plain dense G(n, p), where folds 2 and 3 can hold; the others have
    twins, and every other one an isolated vertex."""
    rng = random.Random(22)
    for i in range(GRAPHS):
        n = rng.randint(3, 12)
        if i % 4 == 3:
            g = random_graph(rng, n + 4, rng.choice((0.5, 0.7)))
        else:
            g = random_graph_with_twins(rng, n, rng.choice((0.2, 0.35, 0.5)), i % 2 == 0)
        for s in _sets(rng, g.adj):
            reports = [verify_set(g, s, fold) for fold in (1, 2, 3)]
            if outcomes is not None:
                outcomes.update((fold, _outcome(rep)) for fold, rep in zip((1, 2, 3), reports))
            answers = [_report(rep) for rep in reports]
            ld, ic = is_locating_dominating(g, s), is_identifying_code(g, s)
            yield f"verify {g.adj} {s:#x} -> {answers} ld={ld} ic={ic}", None
        if i < SOLVES:
            forced_out = 0 if i % 3 else sparse_set(rng, g.n) & sparse_set(rng, g.n)
            for kind in Kind:
                first = min_set(g, kind, forced_out=forced_out)
                every = min_set(g, kind, enumerate_all=True, forced_out=forced_out)
                answer = (first.value, first.witness, every.value, every.witness, every.all_minimum_sets)
                yield (f"solve {g.adj} {kind.value} out={forced_out:#x} -> {answer}",
                       f"nodes {first.nodes} {every.nodes}")
    for _ in range(CNFS):
        n = rng.randint(1, 4)
        cnf = random_cnf(rng, n, rng.randint(1, 8 * n))
        out = build_reduction(cnf)
        verdicts = (decide_sat_via_redold(out), satisfiable_bruteforce(cnf)[0])
        yield f"decide {cnf.num_vars} {cnf.clauses} -> {out.graph.n} {out.threshold} {verdicts}", None
    for lattice, w, h in _tori():
        g = build_torus(lattice, w, h)
        yield f"torus {lattice.value} {w}x{h} -> {g.adj}", None
        tiled = [_tiled(rng, lattice, w, h) for _ in range(3)]
        for s in tiled + [sparse_set(rng, g.n), _dominating(rng, g.adj, 2)]:
            answers = [_report(verify_set(g, s, fold)) for fold in (1, 2)]
            yield f"torus {lattice.value} {w}x{h} {s:#x} -> {answers}", None


def _tag(line):
    return hashlib.sha256(line.encode()).hexdigest()[:TAG_HEX]


def _digest(lines):
    tags = "".join(map(_tag, lines))
    return {
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "tags": [tags[i:i + 64] for i in range(0, len(tags), 64)],
    }


def record():
    found = list(cases())
    return {
        "answers": _digest([line for line, _ in found]),
        "nodes": _digest([line for _, line in found if line is not None]),
    }


def _check(lines, expected, what):
    tags = "".join(expected["tags"])
    assert len(tags) == TAG_HEX * len(lines), f"{what}: {len(lines)} cases, recorded {len(tags) // TAG_HEX}"
    for i, line in enumerate(lines):
        want = tags[TAG_HEX * i:TAG_HEX * (i + 1)]
        assert _tag(line) == want, f"{what}: case {i} differs from the recording: {line}"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == expected["digest"], what


@functools.lru_cache(maxsize=1)
def _found():
    """Every case, run once for both tests, and the outcome counts."""
    outcomes = collections.Counter()
    return list(cases(outcomes)), outcomes


def test_graph_answers_match_recorded_digests():
    found, outcomes = _found()
    _check([line for line, _ in found], json.loads(DIGESTS.read_text())["answers"], "answers")
    # every outcome occurs at every fold
    assert min(outcomes[fold, o] for fold in (1, 2, 3) for o in ("holds", "vertex", "pair")) > 50, (
        outcomes)


def test_solver_nodes_match_recorded_digest():
    found, _ = _found()
    lines = [line for _, line in found if line is not None]
    _check(lines, json.loads(DIGESTS.read_text())["nodes"], "nodes")


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record(), indent=1) + "\n")
    sys.stdout.write(f"recorded {DIGESTS}\n")

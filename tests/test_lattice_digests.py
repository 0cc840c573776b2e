"""Answer digests for the lattice layer: ``verify_pattern`` reports on
2,000 seeded random patterns (every lattice, periods up to 8x8, both kinds)
and ``search_patterns`` answers, recorded in lattice_digests.json at commit
08282b3, before the separation check moved onto the residue cover table.

Each case is one line of text, its input and its answers.  The file keeps
the sha256 of all lines and, to name the first case that differs, a short
tag per case (the first TAG_HEX hex digits of that line's sha256).  Record
it again only for a change that is meant to alter an answer:
``PYTHONPATH=src python tests/test_lattice_digests.py``.
"""

import collections
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from oldsets.grids import Lattice, PeriodicPattern, neighbors, search_patterns, verify_pattern
from oldsets.verify import Kind

DIGESTS = Path(__file__).with_name("lattice_digests.json")
PATTERNS = 2000
TAG_HEX = 4
DENSITIES = (0.1, 0.3, 0.5, 0.7, 0.9)

# (lattice, kind, max period, target): the benchmark's 13 searches, then
# one per lattice and kind at the densities around the builtins
SEARCHES = (
    ("sq", "old", (5, 5), "2/5"), ("sq", "redold", (4, 4), "1/2"),
    ("hex", "old", (4, 4), "1/2"), ("hex", "redold", (6, 2), "2/3"),
    ("tri", "redold", (4, 4), "3/8"), ("king", "old", (4, 4), "1/4"),
    ("king", "redold", (6, 6), "1/3"), ("sq", "old", (4, 4), "1/3"),
    ("sq", "redold", (4, 4), "2/5"), ("hex", "old", (4, 4), "2/5"),
    ("tri", "old", (4, 4), "3/10"), ("tri", "redold", (4, 5), "1/3"),
    ("king", "old", (4, 4), "1/5"),
    ("sq", "old", (3, 4), "1/2"), ("sq", "redold", (3, 4), "2/3"),
    ("hex", "old", (4, 4), "2/3"), ("hex", "redold", (4, 4), "3/4"),
    ("tri", "old", (3, 4), "1/3"), ("tri", "redold", (3, 4), "1/2"),
    ("king", "old", (3, 4), "1/3"), ("king", "redold", (3, 4), "1/2"),
)


def _report(rep):
    return (rep.holds, rep.vertex, rep.pair, rep.count)


def _outcome(rep):
    return "holds" if rep.holds else "vertex" if rep.pair is None else "pair"


def _dominate(rng, lattice, period, cells):
    """Add cells until every vertex has two neighbours in the pattern, so
    that the check goes on to the pairs at both folds."""
    px, py = period
    for x in range(px):
        for y in range(py):
            near = [(nx % px, ny % py) for nx, ny in neighbors(lattice, x, y)]
            while sum(c in cells for c in near) < 2:
                cells.add(rng.choice(near))


def cases(outcomes=None):
    """Yield one line per case: its input and its answers.  Each report's
    outcome and fold is counted in ``outcomes``, when given."""
    rng = random.Random(21)
    lattices = list(Lattice)
    patterns = []
    for i in range(PATTERNS):
        lattice = lattices[i % len(lattices)]
        sizes = range(2, 9, 2) if lattice is Lattice.HEX else range(1, 9)
        px, py = rng.choice(sizes), rng.choice(sizes)
        domain = [(x, y) for x in range(px) for y in range(py)]
        p = rng.choice(DENSITIES)
        cells = {c for c in domain if rng.random() < p}
        if i % 2:
            _dominate(rng, lattice, (px, py), cells)
        patterns.append(PeriodicPattern(lattice, (px, py), frozenset(cells)))
    # checked grouped by table, so that each is built once
    reports = [None] * PATTERNS
    for i in sorted(range(PATTERNS), key=lambda i: (patterns[i].lattice.value, patterns[i].period)):
        reports[i] = [verify_pattern(patterns[i], kind) for kind in Kind]
    for pattern, found in zip(patterns, reports):
        if outcomes is not None:
            outcomes.update((kind.fold, _outcome(rep)) for kind, rep in zip(Kind, found))
        answers = [_report(rep) for rep in found]
        (px, py), cells = pattern.period, sorted(pattern.cells)
        yield f"verify {pattern.lattice.value} {px}x{py} {cells} -> {answers}"
    for lattice, kind, max_period, target in SEARCHES:
        p = search_patterns(Lattice(lattice), Kind(kind), max_period, Fraction(target))
        found = None if p is None else (p.period, sorted(p.cells))
        yield f"search {lattice} {kind} {max_period} {target} -> {found}"


def _tag(line):
    return hashlib.sha256(line.encode()).hexdigest()[:TAG_HEX]


def record():
    lines = list(cases())
    tags = "".join(map(_tag, lines))
    return {
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "tags": [tags[i:i + 64] for i in range(0, len(tags), 64)],
    }


def test_lattice_answers_match_recorded_digests():
    expected = json.loads(DIGESTS.read_text())
    outcomes = collections.Counter()
    lines = list(cases(outcomes))
    tags = "".join(expected["tags"])
    assert len(tags) == TAG_HEX * len(lines)
    for i, line in enumerate(lines):
        want = tags[TAG_HEX * i:TAG_HEX * (i + 1)]
        assert _tag(line) == want, f"case {i} differs from the recording: {line}"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == expected["digest"]
    # every outcome occurs at both folds
    assert min(outcomes[fold, o] for fold in (1, 2) for o in ("holds", "vertex", "pair")) > 50, (
        outcomes)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record(), indent=1) + "\n")
    sys.stdout.write(f"recorded {DIGESTS}\n")

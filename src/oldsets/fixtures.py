"""Built-in example graphs addressable from the CLI as ``builtin:<name>``."""

from __future__ import annotations

from functools import lru_cache

from .errors import InputError
from .graph import Graph, build_graph, complete_graph, cycle_graph

__all__ = ["g11", "builtin_graph", "BUILTIN_GRAPH_NAMES"]

# Chain of three triangles {v1,v2,v3}, {v5,v6,v7}, {v9,v10,v11} joined by the
# bridge vertices v4 (between v3 and v7) and v8 (between v7 and v9).
_G11_EDGES_1BASED = [
    (1, 2), (1, 3), (2, 3),
    (3, 4), (4, 7),
    (5, 6), (5, 7), (6, 7),
    (7, 8), (8, 9),
    (9, 10), (9, 11), (10, 11),
]


@lru_cache(maxsize=None)
def g11() -> Graph:
    """The 11-vertex triangle-chain fixture.  Its three triangles and the
    detector codes of its known 6-vertex locating set are checked by the
    tests."""
    return build_graph(
        11,
        [(u - 1, v - 1) for u, v in _G11_EDGES_1BASED],
        labels=[f"v{i}" for i in range(1, 12)],
    )


_BUILTINS = {
    "g11": g11,
    "c4": lambda: cycle_graph(4),
    "c5": lambda: cycle_graph(5),
    "k4": lambda: complete_graph(4),
}

BUILTIN_GRAPH_NAMES = tuple(sorted(_BUILTINS))


def builtin_graph(name: str) -> Graph:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise InputError(
            f"unknown builtin graph {name!r}; choices: {', '.join(BUILTIN_GRAPH_NAMES)}"
        ) from None

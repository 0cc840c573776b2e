"""Shared exception types, and the JSON decoder for every input file."""

from __future__ import annotations

import json


class InputError(ValueError):
    """Malformed user input: bad vertex index, bad edge, unparseable file."""


class BudgetExceededError(RuntimeError):
    """The solver hit its search-node budget before finishing.

    The search never returns a possibly-wrong answer; it raises this instead.
    """

    def __init__(self, budget: int, nodes: int):
        super().__init__(f"search budget exceeded: {nodes} nodes > {budget}")
        self.budget = budget
        self.nodes = nodes


def decode_json(text: str, what: str) -> object:
    """``json.loads(text)``; malformed JSON, or JSON nested deeper than the
    decoder's recursion limit, is an :class:`InputError` about the ``what``
    input."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid {what} JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"invalid {what} JSON: nested too deeply") from None

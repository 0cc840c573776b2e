"""Shared exception types, the JSON decoder for every input file, the
reader of an integer given as text and the writer of a value in a
message."""

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
    """``json.loads(text)``; malformed JSON, an integer with more digits
    than ``int()`` converts, or JSON nested deeper than the decoder's
    recursion limit, is an :class:`InputError` about the ``what`` input."""
    try:
        return json.loads(text)
    except ValueError as exc:
        # JSONDecodeError is a ValueError, and so is the digit limit's refusal
        raise InputError(f"invalid {what} JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"invalid {what} JSON: nested too deeply") from None


def shown(value: object) -> str:
    """``repr(value)`` for a message, or a stand-in where that would write
    an int with more digits than int-to-str converts (4,300 by default):
    such an input is refused with an :class:`InputError`, not a
    ValueError from the message."""
    try:
        return repr(value)
    except ValueError:
        return "<an integer too long to print>"


def decimal_int(text: str) -> int:
    """``int(text)`` for ASCII text without "_", else ValueError: int()
    alone also takes "1_0" and non-ASCII digits such as "٢"."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return int(text)


# argparse names a ``type`` that raises ValueError by its __name__, so a bad
# --fold still reads "invalid int value", as with type=int
decimal_int.__name__ = "int"

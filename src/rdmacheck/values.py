"""Value universe shared by the meta-language and the libraries.

Values are plain Python objects with decidable equality:

* ``int`` scalars (0 is the initial memory value),
* ``bool`` for guard-returning methods,
* ``UNIT`` (the empty tuple) for methods without a result,
* non-empty ``tuple`` payloads for ring-buffer / mixed-size messages,
* ``BOT`` for failed receives / reads,
* :class:`HashVal`, an opaque injective digest of a payload tuple,
* ``str`` location names (locations are a subset of values).

Location names from user programs may not start with ``__``; every
generated namespace (per-node replicas, dummy fence cells, buffer cells,
head counters, slot cells, identifier sets, scratch cells) uses a ``__``
prefix, so the namespaces can never collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

Value = Any

UNIT: tuple = ()


class _Bot:
    """Failure result of Receive / TryRead (printed as 'bot')."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "bot"


BOT = _Bot()


@dataclass(slots=True, unsafe_hash=True)
class HashVal:
    """Injective digest of a payload tuple.

    Two digests are equal iff the payloads are equal; the all-zero payload
    is represented by the scalar 0 instead (see :func:`hash_tuple`), so a
    never-written digest cell reads back as the digest of the zero payload.
    Never assigned after construction.
    """

    payload: tuple

    def __repr__(self):
        return f"h{self.payload!r}"


def zero_tuple(size: int) -> tuple:
    return (0,) * size


def hash_tuple(payload: tuple) -> Value:
    if all(v == 0 for v in payload):
        return 0
    return HashVal(tuple(payload))


RESERVED_PREFIX = "__"


def is_reserved_loc(name: str) -> bool:
    return name.startswith(RESERVED_PREFIX)


def fmt_value(v: Value) -> str:
    """Stable textual form used by dumps, reports and the litmus printer."""
    if v is BOT:
        return "bot"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, tuple):
        if v == ():
            return "()"
        return "(" + ",".join(fmt_value(x) for x in v) + ")"
    if isinstance(v, HashVal):
        return "hash" + fmt_value(v.payload)
    return str(v)

"""Data tuples flowing through the simulated topology.

Tuples carry a tuple of field values. Payload bytes are *modeled*, not
materialized: a 20 kB padding field is represented by a
:class:`Padding` marker holding only its size, so simulating large
tuples costs no memory.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Iterable, Optional


class Padding:
    """A placeholder for an opaque payload of ``nbytes`` bytes."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"padding size must be >= 0, got {nbytes}")
        self.nbytes = nbytes

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Padding) and other.nbytes == self.nbytes

    def __hash__(self) -> int:
        return hash(("Padding", self.nbytes))

    def __repr__(self) -> str:
        return f"Padding({self.nbytes})"


def field_size(value: Any) -> int:
    """Modeled wire size in bytes of one field value."""
    if isinstance(value, Padding):
        return value.nbytes
    if isinstance(value, str):
        # an ASCII string is its own UTF-8 encoding: no bytes allocated
        return len(value) if value.isascii() else len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (int, float)):
        # a bool is the int it equals (``grouping.canonical_key``)
        return 8
    if value is None:
        return 0
    if isinstance(value, (tuple, list)):
        return sum(field_size(item) for item in value)
    # Fallback: a conservative small object.
    return 16


def payload_size(values: Iterable[Any]) -> int:
    """Modeled wire size of a tuple's field values (without header).

    The exact-type checks inline the field kinds that dominate the
    benchmark workloads (strings, padding markers, byte strings);
    everything else falls back to the general :func:`field_size`
    dispatch.
    """
    total = 0
    for value in values:
        cls = value.__class__
        if cls is Padding:
            total += value.nbytes
        elif cls is str:
            total += (
                len(value) if value.isascii() else len(value.encode("utf-8"))
            )
        elif cls is bytes:
            total += len(value)
        else:
            total += field_size(value)
    return total


_tuple_ids = count()


class Tuple:
    """One data tuple.

    Attributes
    ----------
    values:
        The field values (immutable tuple).
    size:
        Modeled wire size in bytes, header included.
    root_id:
        Id of the spout tuple this one descends from (for acking).
    """

    __slots__ = ("id", "values", "size", "root_id")

    def __init__(
        self,
        values: tuple,
        size: int,
        root_id: Optional[int] = None,
        tuple_id: Optional[int] = None,
    ) -> None:
        self.id = next(_tuple_ids) if tuple_id is None else tuple_id
        self.values = values
        self.size = size
        self.root_id = self.id if root_id is None else root_id

    def __repr__(self) -> str:
        return f"Tuple(id={self.id}, values={self.values!r}, size={self.size})"


def make_tuple(
    values: Iterable[Any],
    header_bytes: int,
    root_id: Optional[int] = None,
    payload_bytes: Optional[int] = None,
) -> Tuple:
    """Create a tuple, computing its modeled size.

    ``payload_bytes`` short-circuits the recursive :func:`payload_size`
    walk when the caller already knows it — the emission planner
    computes it once per emitted ``values`` and shares it across every
    destination copy.
    """
    values = tuple(values)
    if payload_bytes is None:
        payload_bytes = payload_size(values)
    return Tuple(values, header_bytes + payload_bytes, root_id)

"""Fundamental value types used by the simulated map-reduce engine.

The engine manipulates three kinds of records:

* input records handed to mappers (arbitrary hashable or unhashable Python
  objects supplied by the caller),
* intermediate :class:`KeyValue` pairs emitted by mappers and delivered,
  grouped by key, to reducers,
* output records emitted by reducers.

Keeping these types tiny and explicit makes the shuffle accounting in
:mod:`repro.mapreduce.metrics` unambiguous: the paper's *communication cost*
is the number of :class:`KeyValue` pairs crossing the map → reduce boundary,
and the *replication rate* is that count divided by the number of inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, List, Tuple

#: Type alias for a reduce key.  Keys must be hashable because the shuffle
#: groups intermediate pairs by key with a dictionary.
Key = Hashable

#: Type alias for an intermediate or output value.  Values are unconstrained.
Value = Any

#: A mapper is a callable from one input record to an iterable of key-value
#: pairs.  Mappers must be pure functions of their single argument: the model
#: of the paper (Section 2.3) assumes each input is mapped independently of
#: every other input.
MapFunction = Callable[[Any], Iterable[Tuple[Key, Value]]]

#: A reducer is a callable from a reduce key and the list of values grouped
#: under that key to an iterable of output records.
ReduceFunction = Callable[[Key, List[Value]], Iterable[Any]]

#: A combiner has the same signature as a reducer but runs map-side; it is
#: optional and only used by jobs that declare an associative aggregation.
CombineFunction = Callable[[Key, List[Value]], Iterable[Tuple[Key, Value]]]


@dataclass(frozen=True)
class KeyValue:
    """A single intermediate key-value pair produced by a mapper.

    Attributes
    ----------
    key:
        The reduce key.  All pairs sharing a key are delivered to the same
        reducer.
    value:
        The payload delivered alongside the key.
    """

    key: Key
    value: Value

    def as_tuple(self) -> Tuple[Key, Value]:
        """Return the pair as a plain ``(key, value)`` tuple."""
        return (self.key, self.value)


def ensure_key_value(item: Any) -> KeyValue:
    """Normalize a mapper emission into a :class:`KeyValue`.

    Mappers may emit either ``KeyValue`` instances or plain 2-tuples; this
    helper accepts both and rejects anything else with a :class:`TypeError`
    carrying a clear message.
    """
    if isinstance(item, KeyValue):
        return item
    if isinstance(item, tuple) and len(item) == 2:
        return KeyValue(item[0], item[1])
    raise TypeError(
        "mappers must emit (key, value) tuples or KeyValue instances, "
        f"got {item!r}"
    )

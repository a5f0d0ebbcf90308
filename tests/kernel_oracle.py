"""Batch-kernel helpers the reduce contract no longer needs, kept verbatim.

A batch kernel's reduce is one total call per encoded run
(``BatchKernel.reduce_groups``); the per-group decline chain and its final
fallback — the job's scalar reducer on decoded records — are gone from
``src/``.  The tests still hold the kernels to the pieces that fallback
used, so they are kept here unchanged (self-parameters renamed only where
a method became a function):

* :func:`to_tuples` — ``ColumnBatch.to_tuples``, a batch back to the
  records it encodes;
* :func:`decode_element_records` — the matrix kernels' input decoding, so
  the two-phase cube kernel's whole-run reduce can be checked against the
  scalar reducer;
* :func:`partial_sum_reduce_group` — the second phase's per-group sum,
  which the whole-run reduce is checked against.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.mapreduce.columnar import ColumnBatch

ElementRecord = Tuple[str, int, int, float]


def to_tuples(batch: ColumnBatch) -> List[Tuple[Any, ...]]:
    """Back to Python tuples (Python scalars, bit-identical records)."""
    return list(zip(*(column.tolist() for column in batch.columns.values())))


def decode_element_records(values: ColumnBatch) -> List[ElementRecord]:
    """Inverse of :func:`encode_element_records` (bit-identical records)."""
    return [
        ("R" if tag == 0 else "S", i, j, value)
        for tag, i, j, value in zip(
            values.column("m").tolist(),
            values.column("i").tolist(),
            values.column("j").tolist(),
            values.column("val").tolist(),
        )
    ]


def partial_sum_reduce_group(key: Tuple[int, int], code: int, values: ColumnBatch):
    # Never reached by ``reduce_runs`` (``reduce_groups`` always answers);
    # the per-group form the whole-run reduce is tested against.
    return [(key[0], key[1], sum(values.column("val").tolist()))]

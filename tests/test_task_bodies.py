"""The task bodies against the bodies they replaced, kept here verbatim.

``_map_task`` and ``_reduce_group`` are the only code the execution core
runs per record, pair and group, so they were rewritten to run nothing of
their own there.  The previous definitions (``_map_task``, ``_emit``,
``_guarded_iteration`` and ``_reduce_group`` as they stood, below) are the
oracle: scripted jobs must give the same interleaving of mapper
pulls and sink calls, the same ``consumed`` / outputs and, on failure, the
same exception type, message text and ``__cause__``.

The contract the scripts pin, whichever way each edge fell before:

* wrapped into ``ExecutionError`` (``__cause__`` = the original): an error
  raised by calling the mapper / combiner / reducer, or while iterating what
  it returned;
* surfacing unchanged: an input-iterator error, a malformed emission from
  the mapper or the combiner (bare ``TypeError``), a sink / closed-backend
  error, a non-iterable result (bare ``TypeError`` from ``iter``; ``None``
  is "nothing" for a mapper or reducer and a non-iterable for a combiner);
* failure text is formatted on failure only.

The same shape pins the scalar triangle job: its int-bitset reducer and
route-table mapper against the set-intersection closures they replaced
(``--full-sweep`` adds three benchmark-sized graphs), and the route table
against the batch kernel, ``reducers_for`` and ``build()``.  A frame count
under ``sys.setprofile`` keeps per-record executor frames from creeping back.
"""

from __future__ import annotations

import itertools
import sys
from typing import Any, Callable, Dict, Hashable, Iterable, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping_schema import MappingSchema
from repro.datagen.graphs import gnm_random_graph
from repro.exceptions import ExecutionError
from repro.mapreduce import ClusterConfig, MapReduceEngine, MapReduceJob
from repro.mapreduce import executor
from repro.mapreduce.columnar import ColumnBatch
from repro.mapreduce.types import KeyValue, ensure_key_value
from repro.problems import TriangleProblem
from repro.schemas.triangles import PartitionTriangleSchema, TriangleBatchKernel


# ----------------------------------------------------------------------
# The oracle: the task bodies as they were, verbatim
# ----------------------------------------------------------------------
def _guarded_iteration(iterable: Iterable[Any], described: str) -> Iterable[Any]:
    iterator = iter(iterable)
    while True:
        try:
            item = next(iterator)
        except StopIteration:
            return
        except Exception as error:
            raise ExecutionError(f"{described}: {error}") from error
        yield item


def _emit(job: MapReduceJob, record: Any) -> Iterable[Any]:
    described = f"mapper of job {job.name!r} failed on record {record!r}"
    try:
        pairs = job.mapper(record)
    except Exception as error:
        raise ExecutionError(f"{described}: {error}") from error
    if pairs is None:
        return ()
    return _guarded_iteration(pairs, described)


def _oracle_map_task(
    job: MapReduceJob,
    records: Iterable[Any],
    sink: Callable[[Hashable, Any], None],
) -> int:
    buffer: Dict[Hashable, List[Any]] = {}

    def buffered(key: Hashable, value: Any) -> None:
        buffer.setdefault(key, []).append(value)

    emit = sink if job.combiner is None else buffered
    consumed = 0
    for record in records:
        consumed += 1
        for item in _emit(job, record):
            pair = ensure_key_value(item)
            emit(pair.key, pair.value)
    for key, values in buffer.items():
        described = f"combiner of job {job.name!r} failed on key {key!r}"
        try:
            combined = job.combiner(key, values)
        except Exception as error:
            raise ExecutionError(f"{described}: {error}") from error
        for item in _guarded_iteration(combined, described):
            pair = ensure_key_value(item)
            sink(pair.key, pair.value)
    return consumed


def _oracle_reduce_group(
    job: MapReduceJob, key: Hashable, values: List[Any], outputs: List[Any]
) -> None:
    described = f"reducer of job {job.name!r} failed on key {key!r}"
    try:
        produced = job.reducer(key, values)
    except Exception as error:
        raise ExecutionError(f"{described}: {error}") from error
    if produced is not None:
        outputs.extend(_guarded_iteration(produced, described))


# ----------------------------------------------------------------------
# Scripted jobs
# ----------------------------------------------------------------------
class Boom(ValueError):
    """What scripted user code raises."""


class SinkClosed(RuntimeError):
    """What the scripted sink raises, standing in for a closed backend."""


_SHAPES = ("generator", "list", "tuple")


def _shaped(shape: str, items: List[Any], events: List[Any], label: Any, fail_at: Any):
    """``items`` as a generator / list / tuple; a generator logs each pull
    and raises ``Boom`` in place of item ``fail_at``."""
    if shape == "generator":

        def produce():
            for position, item in enumerate(items):
                if position == fail_at:
                    raise Boom(f"iteration {label!r}@{position}")
                events.append(("pull", label, position))
                yield item
            if fail_at == len(items):
                raise Boom(f"iteration {label!r}@{fail_at}")

        return produce()
    return list(items) if shape == "list" else tuple(items)


@st.composite
def emissions(draw, fault: str = "nowhere"):
    """One user callable's scripted result, with at most one fault in it:
    the call ``raises``, returns ``none`` or a ``non-iterable``, fails
    during ``iteration``, or emits one ``malformed`` item."""
    items: List[Any] = [
        (key, value) if as_tuple else KeyValue(key, value)
        for key, value, as_tuple in draw(
            st.lists(st.tuples(st.integers(0, 3), st.integers(-5, 5), st.booleans()), max_size=4)
        )
    ]
    script = {"result": draw(st.sampled_from(_SHAPES)), "items": items, "fail_at": None}
    if fault in ("raises", "none", "non-iterable"):
        script["result"] = fault
    elif fault == "iteration":
        script.update(result="generator", fail_at=draw(st.integers(0, len(items))))
    elif fault == "malformed":
        items.insert(
            draw(st.integers(0, len(items))),
            draw(st.sampled_from(((1,), (1, 2, 3), [1, 2], 1, "ab", None))),
        )
    return script


def _user_callable(script_of: Callable[..., Dict[str, Any]], events: List[Any]):
    def call(*args):
        label = args[0]
        script = script_of(*args)
        if script["result"] == "raises":
            raise Boom(f"call {label!r}")
        if script["result"] == "none":
            return None
        if script["result"] == "non-iterable":
            return 7
        return _shaped(script["result"], script["items"], events, label, script["fail_at"])

    return call


_CALL_FAULTS = ("raises", "none", "non-iterable", "iteration", "malformed")


@st.composite
def map_scripts(draw):
    """A clean scripted map task with at most one fault, at a random record
    (mapper), key (combiner), input position or sink call."""
    records = draw(st.lists(st.integers(0, 5), max_size=6))
    site = draw(st.sampled_from(("nowhere", "mapper", "combiner", "input", "sink")))
    fault = draw(st.sampled_from(_CALL_FAULTS))
    faulty_record = draw(st.sampled_from(records)) if records and site == "mapper" else None
    faulty_key = draw(st.integers(0, 3)) if site == "combiner" else None
    return {
        "records": records,
        "mapper": {
            record: draw(emissions(fault if record == faulty_record else "nowhere"))
            for record in sorted(set(records))
        },
        "combiner": draw(st.sampled_from((None, "scripted") if site != "combiner" else ("scripted",))),
        "combiner_scripts": {
            key: draw(emissions(fault if key == faulty_key else "nowhere")) for key in range(4)
        },
        "input_fails_after": draw(st.integers(0, len(records))) if site == "input" else None,
        "sink_fails_at": draw(st.integers(0, 8)) if site == "sink" else None,
    }


def _run_map(body, script):
    """One map task under ``body``; everything observable about it."""
    events: List[Any] = []
    combiner = None
    if script["combiner"] == "scripted":
        combiner = _user_callable(lambda key, values: script["combiner_scripts"][key], events)
    job = MapReduceJob(
        mapper=_user_callable(lambda record: script["mapper"][record], events),
        reducer=lambda key, values: values,
        combiner=combiner,
        name="scripted",
    )

    def inputs():
        for index, record in enumerate(script["records"]):
            if index == script["input_fails_after"]:
                raise Boom("input iterator")
            yield record
        if script["input_fails_after"] == len(script["records"]):
            raise Boom("input iterator")

    calls = itertools.count()

    def sink(key, value):
        if next(calls) == script["sink_fails_at"]:
            raise SinkClosed("sink closed")
        events.append(("sink", key, value))

    try:
        consumed = body(job, inputs(), sink)
    except Exception as error:  # the comparison below is the assertion
        return events, ("raised", type(error), str(error), _described(error.__cause__))
    return events, ("consumed", consumed)


def _described(error):
    return None if error is None else (type(error), str(error))


class TestMapTaskAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(map_scripts())
    def test_same_events_and_outcome(self, script):
        assert _run_map(executor._map_task, script) == _run_map(_oracle_map_task, script)

    def test_pairs_stream_to_the_sink_one_at_a_time(self):
        script = {
            "records": [1],
            "mapper": {1: {"result": "generator", "items": [(0, 1), KeyValue(0, 2)], "fail_at": None}},
            "combiner": None, "combiner_scripts": {}, "input_fails_after": None, "sink_fails_at": None,
        }
        events, outcome = _run_map(executor._map_task, script)
        assert outcome == ("consumed", 1)
        assert events == [("pull", 1, 0), ("sink", 0, 1), ("pull", 1, 1), ("sink", 0, 2)]

    # -- the edges, each pinned the way it fell before the rewrite -------
    @pytest.mark.parametrize("body", [executor._map_task, _oracle_map_task])
    @pytest.mark.parametrize(
        "edits, expected, cause",
        [
            # wrapped, with the original as __cause__
            ({"mapper": "raises"}, (ExecutionError, "mapper of job 'scripted' failed on record 1: call 1"), Boom),
            ({"mapper": ("generator", [(0, 1)], 1)},
             (ExecutionError, "mapper of job 'scripted' failed on record 1: iteration 1@1"), Boom),
            ({"combiner": "raises"}, (ExecutionError, "combiner of job 'scripted' failed on key 0: call 0"), Boom),
            ({"combiner": ("generator", [(0, 1)], 0)},
             (ExecutionError, "combiner of job 'scripted' failed on key 0: iteration 0@0"), Boom),
            # unchanged
            ({"mapper": ("list", [(0, 1, 2)], None)},
             (TypeError, "mappers must emit (key, value) tuples or KeyValue instances, got (0, 1, 2)"), None),
            ({"combiner": ("list", [[0, 1]], None)},
             (TypeError, "mappers must emit (key, value) tuples or KeyValue instances, got [0, 1]"), None),
            ({"mapper": "non-iterable"}, (TypeError, "'int' object is not iterable"), None),
            ({"combiner": "non-iterable"}, (TypeError, "'int' object is not iterable"), None),
            ({"combiner": "none"}, (TypeError, "'NoneType' object is not iterable"), None),
            ({"sink_fails_at": 0}, (SinkClosed, "sink closed"), None),
            ({"input_fails_after": 1}, (Boom, "input iterator"), None),
        ],
    )
    def test_edges(self, body, edits, expected, cause):
        def scripted(spec, default_items):
            if spec is None:
                return {"result": "list", "items": default_items, "fail_at": None}
            if isinstance(spec, str):
                return {"result": spec, "items": [], "fail_at": None}
            return dict(zip(("result", "items", "fail_at"), spec))

        script = {
            "records": [1],
            "mapper": {1: scripted(edits.get("mapper"), [(0, 5)])},
            "combiner": "scripted" if "combiner" in edits else None,
            "combiner_scripts": {0: scripted(edits.get("combiner"), [(0, 5)])},
            "input_fails_after": edits.get("input_fails_after"),
            "sink_fails_at": edits.get("sink_fails_at"),
        }
        _, outcome = _run_map(body, script)
        assert outcome[:3] == ("raised",) + expected
        assert (outcome[3] and outcome[3][0]) is cause

    def test_failure_text_is_formatted_on_failure_only(self):
        class Unprintable:
            def __repr__(self):
                raise AssertionError("repr() of a record that did not fail")

        job = MapReduceJob(mapper=lambda record: [(0, 1)], reducer=lambda key, values: values)
        pairs: List[Any] = []
        assert executor._map_task(job, [Unprintable()], lambda key, value: pairs.append((key, value))) == 1
        assert pairs == [(0, 1)]


@st.composite
def reduce_scripts(draw):
    result = draw(st.sampled_from(_SHAPES + ("none", "non-iterable", "raises")))
    items = draw(st.lists(st.integers(-9, 9), max_size=5))
    return {
        "result": result,
        "items": items,
        "fail_at": draw(st.one_of(st.none(), st.integers(0, len(items)))),
    }


def _run_reduce(body, script):
    events: List[Any] = []
    job = MapReduceJob(
        mapper=lambda record: (),
        reducer=_user_callable(lambda key, values: script, events),
        name="scripted",
    )
    outputs: List[Any] = ["earlier group"]
    try:
        body(job, ("k", 1), [1, 2], outputs)
    except Exception as error:
        return outputs, events, (type(error), str(error), _described(error.__cause__))
    return outputs, events, None


class TestReduceGroupAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(reduce_scripts())
    def test_same_outputs_and_outcome(self, script):
        assert _run_reduce(executor._reduce_group, script) == _run_reduce(_oracle_reduce_group, script)

    @pytest.mark.parametrize("body", [executor._reduce_group, _oracle_reduce_group])
    def test_edges(self, body):
        raised = {"result": "raises", "items": [], "fail_at": None}
        assert _run_reduce(body, raised) == (
            ["earlier group"], [],
            (ExecutionError, "reducer of job 'scripted' failed on key ('k', 1): call ('k', 1)",
             (Boom, "call ('k', 1)")),
        )
        tail = {"result": "generator", "items": [4, 5], "fail_at": 2}
        outputs, _, outcome = _run_reduce(body, tail)
        assert outputs == ["earlier group", 4, 5]  # partial outputs stay, as when streaming
        assert outcome[0] is ExecutionError and outcome[2][0] is Boom
        non_iterable = {"result": "non-iterable", "items": [], "fail_at": None}
        assert _run_reduce(body, non_iterable)[2] == (TypeError, "'int' object is not iterable", None)
        assert _run_reduce(body, {"result": "none", "items": [], "fail_at": None}) == (["earlier group"], [], None)


# ----------------------------------------------------------------------
# Executor overhead: a count, not a wall-clock threshold
# ----------------------------------------------------------------------
def test_executor_frames_scale_with_tasks_and_groups_not_records():
    """Python frames entered in executor.py are O(map tasks + groups).

    A per-record helper or a generator wrapped around a mapper's result
    enters a frame per record or per pair — thousands here — so it cannot
    come back unnoticed.
    """
    num_records, groups = 1000, 15
    job = MapReduceJob(
        mapper=lambda record: [(record % 5, record), (5 + record % 5, record), (10 + record % 5, record)],
        reducer=lambda key, values: [(key, len(values))],
        name="overhead-guard",
    )
    frames = 0

    def profiler(frame, event, _arg):
        nonlocal frames
        if event == "call" and frame.f_code.co_filename == executor.__file__:
            frames += 1

    engine = MapReduceEngine(ClusterConfig())
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = engine.run(job, range(num_records))
    finally:
        sys.setprofile(previous)
    assert result.metrics.shuffle.num_inputs == num_records
    assert result.metrics.communication_cost == 3 * num_records
    assert len(result.outputs) == groups
    map_tasks = 1  # combiner-less: one task takes the whole stream
    assert 0 < frames <= 20 + 6 * (map_tasks + groups), frames


# ----------------------------------------------------------------------
# The scalar triangle job against the closures it replaced
# ----------------------------------------------------------------------
def _oracle_triangle_reducer(schema: PartitionTriangleSchema):
    def reducer(reducer_id, edges):
        adjacency: dict[int, set[int]] = {}
        edge_set = set(edges)
        for u, v in edge_set:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        for u, v in sorted(edge_set):
            common = adjacency[u] & adjacency[v]
            for w in sorted(common):
                if w <= v:
                    continue
                if schema.triangle_reducer(u, v, w) == reducer_id:
                    yield (u, v, w)

    return reducer


def _oracle_reducers_for(schema: PartitionTriangleSchema, edge):
    """``reducers_for`` before the memoized route table."""
    u, v = edge
    bucket_u, bucket_v = schema.bucket_of(u), schema.bucket_of(v)
    for third in range(schema.num_buckets):
        yield tuple(sorted((bucket_u, bucket_v, third)))


def _oracle_set_job(schema: PartitionTriangleSchema):
    """The mapper and the set-intersection reducer before the int bitsets."""

    def mapper(edge):
        for reducer_id in _oracle_reducers_for(schema, edge):
            yield (reducer_id, edge)

    def reducer(reducer_id, edges):
        adjacency: dict[int, set[int]] = {}
        edge_set = set(edges)
        for u, v in edge_set:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        bucket = {node: schema.bucket_of(node) for node in adjacency}
        # The bucket a third node must have for the bucket multiset to
        # equal reducer_id, per pair of endpoint buckets; a pair that is
        # not a sub-multiset of the id has none.
        a, b, c = reducer_id
        third_bucket = {(a, b): c, (b, a): c, (a, c): b, (c, a): b, (b, c): a, (c, b): a}
        for u, v in sorted(edge_set):
            third = third_bucket.get((bucket[u], bucket[v]))
            if third is None:
                continue
            for w in sorted(adjacency[u] & adjacency[v]):
                if w > v and bucket[w] == third:
                    yield (u, v, w)

    return mapper, reducer


def assert_same_as_oracles(schema: PartitionTriangleSchema, edges) -> int:
    """Every edge's emissions and every reducer id's output list equal both
    oracles'; returns the number of triangles emitted."""
    job = schema.job()
    oracle_mapper, oracle_reducer = _oracle_set_job(schema)
    oldest = _oracle_triangle_reducer(schema)
    for edge in edges:
        assert list(job.mapper(edge)) == list(oracle_mapper(edge))
    # Every id of the key space sees every edge, so most edges' buckets
    # do not fit the id they are offered to.
    emitted = 0
    for reducer_id in itertools.combinations_with_replacement(range(schema.num_buckets), 3):
        got = list(job.reducer(reducer_id, edges))
        assert got == list(oracle_reducer(reducer_id, edges))
        assert got == list(oldest(reducer_id, edges))
        emitted += len(got)
    return emitted


@st.composite
def triangle_cases(draw):
    n = draw(st.integers(3, 14))
    k = draw(st.integers(1, min(n, 4)))
    node = st.integers(0, n - 1)
    # Any orientation, duplicates and self-loops: whatever reaches a reducer;
    # sparse ids far above n pin the local indexing.
    offset = draw(st.sampled_from([0, 10**12]))
    edges = [(offset + u, offset + v) for u, v in draw(st.lists(st.tuples(node, node), max_size=40))]
    return n, k, draw(st.booleans()), edges


class TestTriangleReducerAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(triangle_cases())
    def test_every_reducer_id_on_every_edge_list(self, case):
        n, k, hash_nodes, edges = case
        assert_same_as_oracles(PartitionTriangleSchema(n, k, hash_nodes=hash_nodes), edges)

    # Local node counts on both sides of a 64-bit word of the int bitsets.
    @pytest.mark.parametrize("nodes", [63, 64, 65, 129])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("hash_nodes", [False, True])
    def test_row_widths_across_word_boundaries(self, nodes, k, hash_nodes):
        # Random chords plus a reversed Hamiltonian path: every node is touched
        # and edges come in both orientations.
        edges = gnm_random_graph(nodes, 3 * nodes, nodes * 10 + k)
        edges += [(i + 1, i) for i in range(nodes - 1)]
        schema = PartitionTriangleSchema(nodes, k, hash_nodes=hash_nodes)
        assert assert_same_as_oracles(schema, edges) > 0

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_benchmark_sized_graph(self, request, seed):
        if not request.config.getoption("--full-sweep"):
            pytest.skip("benchmark-sized graphs run under --full-sweep")
        schema = PartitionTriangleSchema(400, 6)
        job = schema.job()
        oracle_mapper, oracle_reducer = _oracle_set_job(schema)
        groups: Dict[Any, List[Any]] = {}
        for edge in gnm_random_graph(400, 30000, seed):
            emitted = job.mapper(edge)
            assert emitted == list(oracle_mapper(edge))
            for reducer_id, value in emitted:
                groups.setdefault(reducer_id, []).append(value)
        assert len(groups) == 56
        for reducer_id, edges in groups.items():
            assert list(job.reducer(reducer_id, edges)) == list(oracle_reducer(reducer_id, edges))

    def test_group_size_is_fixed_at_construction(self):
        schema = PartitionTriangleSchema(10, 3)
        assert schema.group_size == 4
        assert [schema.bucket_of(node) for node in range(10)] == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]


class TestOneRoutingRule:
    """The memoized route table is the batch kernel's, ``reducers_for``'s
    and ``build()``'s routing, and the routing it replaced."""

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    @pytest.mark.parametrize("hash_nodes", [False, True])
    def test_route_table_on_every_bucket_pair(self, k, hash_nodes):
        pytest.importorskip("numpy")
        schema = PartitionTriangleSchema(12, k, hash_nodes=hash_nodes)
        kernel = TriangleBatchKernel(schema)
        # One node per bucket; hashed buckets may need ids beyond n.
        node_of: Dict[int, int] = {}
        for node in range(10_000):
            node_of.setdefault(schema.bucket_of(node), node)
        assert sorted(node_of) == list(range(k))
        # Every ordered pair, so both orders of each pair and both
        # orientations of each edge.
        pairs = list(itertools.product(range(k), repeat=2))
        edges = [(node_of[a], node_of[b]) for a, b in pairs]
        codes, row_indices, _ = kernel.map_batch(ColumnBatch.from_int_tuples(edges, ("u", "v")))
        assert row_indices.tolist() == [row for row in range(len(edges)) for _ in range(k)]
        kernel_routes = [kernel.key_of_code(code) for code in codes.tolist()]
        for row, (pair, edge) in enumerate(zip(pairs, edges)):
            routes = list(schema.routes[pair])
            assert routes == kernel_routes[row * k : (row + 1) * k]
            assert routes == list(schema.reducers_for(edge))
            assert routes == list(_oracle_reducers_for(schema, edge))

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    @pytest.mark.parametrize("hash_nodes", [False, True])
    def test_build_assignments_are_unchanged(self, k, hash_nodes):
        problem = TriangleProblem(12)
        schema = PartitionTriangleSchema(12, k, hash_nodes=hash_nodes)
        oracle = MappingSchema(problem, q=None, name=schema.name)
        for edge in problem.inputs():
            for reducer_id in _oracle_reducers_for(schema, edge):
                oracle.assign_one(reducer_id, edge)
        assert schema.build(problem).reducers == oracle.reducers

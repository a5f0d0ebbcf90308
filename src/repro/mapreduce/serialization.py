"""Closure-aware job serialization for persistent worker pools.

Every schema family builds its :class:`~repro.mapreduce.job.MapReduceJob`
from closures (the mapper captures the schema object), which stock
``pickle`` refuses to serialize — and a long-lived worker can only be
handed a job by value: one it inherited at fork time would keep serving the
*old* job.

This module ships jobs with a small, self-contained function
serializer: plain functions (including nested closures and lambdas) are
packed as ``(marshal'd code object, module name, defaults, packed closure
cells)`` and rebuilt in the worker with :class:`types.FunctionType`; cell
contents and everything else go through ordinary :mod:`pickle`, recursing
back into the function path when a cell holds another function.  Globals
are re-bound to the function's origin module, which fork-started workers
share with the parent by construction (they inherit ``sys.modules`` at
fork time).

Anything outside that envelope — builtin-method callables, closures over
unpicklable non-function objects — raises :class:`JobSerializationError`,
and the pool executor runs that job inline in the calling process instead.
No third-party serializer (cloudpickle & co.) is required.
"""

from __future__ import annotations

import importlib
import marshal
import pickle
import sys
import types
from typing import Any, Dict, Optional, Tuple

from repro.mapreduce.job import MapReduceJob


class JobSerializationError(Exception):
    """The job cannot be shipped to an already-running worker."""


#: Guard against pathological closure chains.
_MAX_DEPTH = 16


def _pack_value(value: Any, depth: int) -> Tuple[str, Any]:
    if depth > _MAX_DEPTH:
        raise JobSerializationError("closure nesting too deep to serialize")
    if isinstance(value, types.FunctionType):
        # Module-level functions pickle by reference (cheap, and robust to
        # decorators); only genuinely nested functions need the code path.
        try:
            return ("pickle", pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            return ("function", _pack_function(value, depth))
    try:
        return ("pickle", pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as error:
        if isinstance(value, tuple):
            return ("tuple", tuple(_pack_value(item, depth + 1) for item in value))
        raise JobSerializationError(
            f"cannot serialize closure value {value!r}: {error}"
        ) from error


def _unpack_value(packed: Tuple[str, Any]) -> Any:
    tag, payload = packed
    if tag == "pickle":
        return pickle.loads(payload)
    if tag == "function":
        return _unpack_function(payload)
    if tag == "tuple":
        return tuple(_unpack_value(item) for item in payload)
    raise JobSerializationError(f"unknown serialization tag {tag!r}")


def _pack_function(fn: types.FunctionType, depth: int) -> Dict[str, Any]:
    module = getattr(fn, "__module__", None)
    if not module:
        raise JobSerializationError(
            f"function {fn!r} has no origin module; cannot rebind its globals"
        )
    try:
        code = marshal.dumps(fn.__code__)
    except ValueError as error:
        raise JobSerializationError(
            f"cannot marshal code of {fn!r}: {error}"
        ) from error
    return {
        "module": module,
        "name": fn.__name__,
        "qualname": fn.__qualname__,
        "code": code,
        "defaults": (
            None
            if fn.__defaults__ is None
            else tuple(_pack_value(item, depth + 1) for item in fn.__defaults__)
        ),
        "kwdefaults": (
            None
            if fn.__kwdefaults__ is None
            else {
                key: _pack_value(item, depth + 1)
                for key, item in fn.__kwdefaults__.items()
            }
        ),
        "closure": (
            None
            if fn.__closure__ is None
            else tuple(
                _pack_value(cell.cell_contents, depth + 1)
                for cell in fn.__closure__
            )
        ),
    }


def _unpack_function(data: Dict[str, Any]) -> types.FunctionType:
    module_name = data["module"]
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = importlib.import_module(module_name)
        except ImportError as error:
            raise JobSerializationError(
                f"cannot import module {module_name!r} to rebind function "
                f"{data['name']!r}: {error}"
            ) from error
    code = marshal.loads(data["code"])
    closure = data["closure"]
    cells = (
        None
        if closure is None
        else tuple(types.CellType(_unpack_value(item)) for item in closure)
    )
    defaults = data["defaults"]
    fn = types.FunctionType(
        code,
        module.__dict__,
        data["name"],
        None if defaults is None else tuple(_unpack_value(item) for item in defaults),
        cells,
    )
    if data["kwdefaults"] is not None:
        fn.__kwdefaults__ = {
            key: _unpack_value(item) for key, item in data["kwdefaults"].items()
        }
    fn.__qualname__ = data["qualname"]
    fn.__module__ = module_name
    return fn


def _pack_callable(fn: Optional[Any]) -> Optional[Tuple[str, Any]]:
    if fn is None:
        return None
    return _pack_value(fn, 0)


def pack_job(job: MapReduceJob) -> bytes:
    """Serialize a job (closures included) for shipment to a live worker.

    Raises :class:`JobSerializationError` when some callable or captured
    value falls outside the supported envelope; callers treat that as "run
    this job inline instead".
    """
    payload = {
        "mapper": _pack_callable(job.mapper),
        "reducer": _pack_callable(job.reducer),
        "combiner": _pack_callable(job.combiner),
        "name": job.name,
        "reducer_capacity": job.reducer_capacity,
    }
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as error:  # packed payloads are picklable by design
        raise JobSerializationError(f"cannot pickle packed job: {error}") from error


def unpack_job(data: bytes) -> MapReduceJob:
    """Rebuild a job previously serialized with :func:`pack_job`."""
    payload = pickle.loads(data)
    combiner = payload["combiner"]
    return MapReduceJob(
        mapper=_unpack_value(payload["mapper"]),
        reducer=_unpack_value(payload["reducer"]),
        combiner=None if combiner is None else _unpack_value(combiner),
        name=payload["name"],
        reducer_capacity=payload["reducer_capacity"],
    )

"""Wire protocol of the query server: newline-delimited JSON frames
with versioned request/response schemas (DESIGN.md §10).

One frame per line, UTF-8 JSON, terminated by ``\\n``.  Every request
carries the protocol version and a caller-chosen correlation id; every
response echoes both plus ``ok``:

    {"v": 1, "id": 7, "verb": "query", "query": {"kind": "flow", ...}}
    {"v": 1, "id": 7, "ok": true, "backend": "engine", "warm": false,
     "seconds": 0.004, "result": {"kind": "max-flow", ...}}
    {"v": 1, "id": 8, "ok": false,
     "error": {"type": "ServiceError", "message": "unknown graph 'x'"}}

The verbs are the keys of :data:`VERBS`.  Responses to failures are
*typed error frames*: the server ships the exception class name (plus
the ``where`` payload of a
:class:`~repro.errors.NegativeCycleError` — tuples travel as JSON
lists and come back as tuples), and
:func:`exception_from_wire` re-raises the same class on the client when
it is one of the library's error types or a common builtin — anything
else surfaces as :class:`~repro.errors.RemoteError`.

Encoding notes (both ends are this module, so the choices are part of
the protocol):

* numbers keep their Python type — JSON integers decode as ``int``,
  which is what makes served values bit-identical to in-process
  :func:`~repro.service.queries.execute_query` results;
* ``Infinity`` is legal (Python's ``json`` default) — an unreachable
  dual distance really is ``math.inf``;
* a flow assignment keyed exactly ``0..m-1`` in order — every flow
  the solvers return (one value per edge) — travels as the bare value
  list; any other int-keyed dict travels as ``[key, value]`` pairs,
  since JSON objects would stringify the keys.  The decoder accepts
  both, so a pair-form frame from an older peer still decodes;
* a served flow, cut or girth result is encoded once: a worker ships
  the JSON text of its :func:`result_to_wire` payload
  (:class:`BodyMemo`, memoized per result object) and
  :func:`encode_frame` splices that :class:`Body` into the response
  verbatim.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import asdict, fields

import repro.errors as _errors
from repro import obs
from repro.core.girth import GirthResult
from repro.core.maxflow import MaxFlowResult
from repro.core.mincut import MinCutResult
from repro.errors import (
    NegativeCycleError,
    ProtocolError,
    RemoteError,
    ReproError,
)
from repro.service.queries import (
    CutQuery,
    DistanceQuery,
    FlowQuery,
    GirthQuery,
    QueryResult,
)

PROTOCOL_VERSION = 1

#: wire kind <-> query dataclass
QUERY_KINDS = {
    "flow": FlowQuery,
    "cut": CutQuery,
    "girth": GirthQuery,
    "distance": DistanceQuery,
}
_KIND_OF_QUERY = {cls: kind for kind, cls in QUERY_KINDS.items()}

#: every verb the server answers -> whether a client may re-send it
#: after a dropped connection (a repeat serves the same answer).
#: ``register`` may not: a reset can arrive *after* the server executed
#: the frame, and a resent register would fail as "already registered"
#: (or, with overwrite=True, silently run twice).  ``mutate_weights``
#: is absolute (edge id -> new weight, not a delta), so a resend after
#: a reset is a value-identical no-op.
VERBS = {
    "query": True,
    "batch": True,
    "register": False,
    "set_weights": True,
    "mutate_weights": True,
    "audit": True,
    "stats": True,
    "metrics": True,
    "health": True,
    "exemplars": True,
    "graphs": True,
    "ping": True,
}


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class Body:
    """JSON text that is already encoded — a served result's body, as
    :class:`BodyMemo` builds it.  :func:`encode_frame` splices it into
    a frame verbatim; plain :func:`json.dumps` refuses it."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def __reduce__(self):
        return (Body, (self.text,))


class _HoldsBody(Exception):
    pass


def _no_body(obj):
    if type(obj) is Body:
        raise _HoldsBody
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    f"serializable")


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_no_body)
_CONTAINERS = (Body, dict, list, tuple)


def _json(value):
    """Compact JSON text of ``value``, each :class:`Body` in it spliced
    in verbatim.  The C encoder does all the work until it meets a
    Body; only the dicts and lists on the way to one are walked here,
    and a walked dict's scalar fields still take one encoder call."""
    if type(value) is Body:
        return value.text
    try:
        return _ENCODER.encode(value)
    except _HoldsBody:
        pass
    if not isinstance(value, dict):
        return "[" + ",".join(map(_json, value)) + "]"
    plain, parts = {}, []
    for k, v in value.items():
        if isinstance(v, _CONTAINERS):
            parts.append(f"{_ENCODER.encode(str(k))}:{_json(v)}")
        else:
            plain[k] = v
    if plain:
        parts.insert(0, _ENCODER.encode(plain)[1:-1])
    return "{" + ",".join(parts) + "}"


def encode_frame(payload):
    """One frame: compact JSON + newline, as bytes (a :class:`Body`
    in ``payload`` is spliced in as the text it holds)."""
    t0 = time.perf_counter()
    data = (_json(payload) + "\n").encode("utf-8")
    obs.inc("wire.frames_encoded")
    obs.observe("wire.encode_seconds", time.perf_counter() - t0)
    return data


def decode_frame(line):
    """Parse one frame (bytes or str); :class:`ProtocolError` on bad
    JSON or a non-object payload."""
    t0 = time.perf_counter()
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"bad JSON frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame must be a JSON object, got "
                            f"{type(payload).__name__}")
    obs.inc("wire.frames_decoded")
    obs.observe("wire.decode_seconds", time.perf_counter() - t0)
    return payload


def check_version(frame):
    """Raise :class:`ProtocolError` unless the frame speaks this
    protocol version."""
    v = frame.get("v")
    if v != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version mismatch: frame says "
                            f"{v!r}, server speaks {PROTOCOL_VERSION}")


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------
def query_to_wire(query):
    """``{"kind": ..., **fields}`` for any of the four typed queries."""
    kind = _KIND_OF_QUERY.get(type(query))
    if kind is None:
        raise ProtocolError(f"cannot send query type "
                            f"{type(query).__name__} over the wire")
    payload = asdict(query)
    payload["kind"] = kind
    return payload


def query_from_wire(payload):
    """Rebuild the typed query; :class:`ProtocolError` on an unknown
    kind or unexpected fields."""
    if not isinstance(payload, dict):
        raise ProtocolError("query payload must be a JSON object")
    payload = dict(payload)
    kind = payload.pop("kind", None)
    cls = QUERY_KINDS.get(kind)
    if cls is None:
        raise ProtocolError(f"unknown query kind {kind!r}; expected one "
                            f"of {sorted(QUERY_KINDS)}")
    allowed = {f.name for f in fields(cls)}
    unexpected = sorted(set(payload) - allowed)
    if unexpected:
        raise ProtocolError(f"unexpected {kind} query field(s): "
                            f"{unexpected}")
    return cls(**payload)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def _flow_to_wire(flow):
    """The bare value list when the keys are exactly ``0..len-1`` in
    order (every solver's flow), else ``[key, value]`` pairs."""
    if list(flow) == list(range(len(flow))):
        return list(flow.values())
    return [[k, v] for k, v in sorted(flow.items())]


def _flow_from_wire(items):
    if items and isinstance(items[0], list):
        return dict(map(tuple, items))
    return dict(enumerate(items))


def result_to_wire(result):
    """Tagged payload for a served result object (the ``result`` field
    of a :class:`~repro.service.queries.QueryResult`)."""
    if result is None:
        return {"kind": "none"}
    if isinstance(result, bool):
        raise ProtocolError("no served query returns a bare bool")
    if isinstance(result, (int, float)):
        return {"kind": "number", "value": result}
    if isinstance(result, MaxFlowResult):
        return {"kind": "max-flow", "value": result.value,
                "flow": _flow_to_wire(result.flow), "probes": result.probes,
                "path_darts": list(result.path_darts)}
    if isinstance(result, MinCutResult):
        return {"kind": "min-cut", "value": result.value,
                "source_side": list(result.source_side),
                "cut_edge_ids": list(result.cut_edge_ids),
                "flow": _flow_to_wire(result.flow)}
    if isinstance(result, GirthResult):
        return {"kind": "girth", "value": result.value,
                "cycle_edge_ids": list(result.cycle_edge_ids),
                "cut_side_faces": list(result.cut_side_faces),
                "ma_rounds": result.ma_rounds,
                "congest_rounds": result.congest_rounds}
    raise ProtocolError(f"cannot send result type "
                        f"{type(result).__name__} over the wire")


def result_from_wire(payload):
    """Inverse of :func:`result_to_wire` — rebuilds the exact result
    object (int-keyed flow dicts and all)."""
    if not isinstance(payload, dict):
        raise ProtocolError("result payload must be a JSON object")
    kind = payload.get("kind")
    if kind == "none":
        return None
    if kind == "number":
        return payload["value"]
    if kind == "max-flow":
        return MaxFlowResult(value=payload["value"],
                             flow=_flow_from_wire(payload["flow"]),
                             probes=payload["probes"],
                             path_darts=list(payload["path_darts"]))
    if kind == "min-cut":
        return MinCutResult(value=payload["value"],
                            source_side=list(payload["source_side"]),
                            cut_edge_ids=list(payload["cut_edge_ids"]),
                            flow=_flow_from_wire(payload["flow"]))
    if kind == "girth":
        return GirthResult(value=payload["value"],
                           cycle_edge_ids=list(payload["cycle_edge_ids"]),
                           cut_side_faces=list(payload["cut_side_faces"]),
                           ma_rounds=payload["ma_rounds"],
                           congest_rounds=payload["congest_rounds"])
    raise ProtocolError(f"unknown result kind {kind!r}")


class BodyMemo:
    """What a pool worker ships for a :class:`~repro.server.app.
    QueryServer` job: the :class:`Body` of a flow, cut or girth result,
    so the server splices text instead of re-encoding an unpickled
    object.

    Bodies are memoized by result identity, the ``maxsize`` most recent
    kept (the catalog's ``results.maxsize``): a warm hit serves the
    very object held in the catalog's result cache, so a repeat ships
    text built once.  Each entry holds its result, so the id cannot be
    reused while the entry lives.  A distance or ``None`` ships as
    itself — it pickles smaller than its text, and the frame encoder
    writes it directly.  Not thread-safe: each worker owns one, and the
    in-process pool calls it under its lock.
    """

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self._bodies = OrderedDict()    # id(result) -> (result, Body)

    def ship(self, result):
        if result is None or isinstance(result, (int, float)):
            return result
        key = id(result)
        hit = self._bodies.get(key)
        if hit is not None:
            self._bodies.move_to_end(key)
            return hit[1]
        body = Body(_ENCODER.encode(result_to_wire(result)))
        self._bodies[key] = (result, body)
        if len(self._bodies) > self.maxsize:
            self._bodies.popitem(last=False)
        return body


def query_result_to_wire(r):
    """The response-envelope fields of one served query (its result
    object, or the :class:`Body` a worker already encoded)."""
    result = r.result if type(r.result) is Body \
        else result_to_wire(r.result)
    return {"backend": r.backend, "warm": bool(r.warm),
            "seconds": r.seconds, "result": result}


def query_result_from_wire(query, payload):
    """Rebuild a :class:`~repro.service.queries.QueryResult` envelope
    on the client (``query`` is the local query object it answers)."""
    return QueryResult(query=query, backend=payload["backend"],
                       result=result_from_wire(payload["result"]),
                       warm=payload["warm"],
                       seconds=payload.get("seconds", 0.0))


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
def graph_to_wire(graph):
    """Plain-data payload for a ``register`` verb."""
    return {"n": graph.n, "edges": [list(e) for e in graph.edges],
            "rotations": [list(r) for r in graph.rotations],
            "weights": list(graph.weights),
            "capacities": list(graph.capacities)}


def graph_from_wire(payload):
    """Rebuild (and validate) the :class:`~repro.planar.graph.
    PlanarGraph`; embedding problems surface as the usual
    :class:`~repro.errors.EmbeddingError`."""
    from repro.planar.graph import PlanarGraph

    if not isinstance(payload, dict):
        raise ProtocolError("graph payload must be a JSON object")
    try:
        return PlanarGraph(payload["n"],
                           [tuple(e) for e in payload["edges"]],
                           payload["rotations"],
                           weights=payload.get("weights"),
                           capacities=payload.get("capacities"))
    except KeyError as exc:
        raise ProtocolError(f"graph payload missing field {exc}") \
            from None


# ----------------------------------------------------------------------
# typed error frames
# ----------------------------------------------------------------------
def exception_to_wire(exc):
    """The ``error`` field of a failure response."""
    payload = {"type": type(exc).__name__, "message": str(exc)}
    where = getattr(exc, "where", None)
    if where is not None:
        if isinstance(where, (str, int, float)):
            payload["where"] = where
        elif isinstance(where, (list, tuple)) and all(
                isinstance(x, (str, int, float)) for x in where):
            # the labeling raise sites are ("leaf"/"ddg"/"node", bag_id)
            payload["where"] = list(where)
    return payload


def _local_error_types():
    types = {cls.__name__: cls
             for cls in vars(_errors).values()
             if isinstance(cls, type) and issubclass(cls, ReproError)}
    for cls in (ValueError, KeyError, TypeError, RuntimeError):
        types[cls.__name__] = cls
    return types


_ERROR_TYPES = _local_error_types()


def exception_from_wire(payload):
    """The exception a failure frame describes, ready to raise.

    Library error types and common builtins are reconstructed as
    themselves (so e.g. an unknown graph raises
    :class:`~repro.errors.ServiceError` on the client exactly like the
    in-process call); anything else becomes :class:`RemoteError`.
    """
    name = payload.get("type", "RemoteError")
    message = payload.get("message", "remote failure")
    cls = _ERROR_TYPES.get(name)
    if cls is NegativeCycleError:
        where = payload.get("where")
        if isinstance(where, list):
            where = tuple(where)
        return cls(message, where=where)
    if cls is not None:
        return cls(message)
    return RemoteError(message, remote_type=name)


__all__ = [
    "PROTOCOL_VERSION",
    "QUERY_KINDS",
    "VERBS",
    "Body",
    "encode_frame",
    "decode_frame",
    "check_version",
    "query_to_wire",
    "query_from_wire",
    "result_to_wire",
    "result_from_wire",
    "BodyMemo",
    "query_result_to_wire",
    "query_result_from_wire",
    "graph_to_wire",
    "graph_from_wire",
    "exception_to_wire",
    "exception_from_wire",
]

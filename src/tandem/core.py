"""Shared data model: values, names, action records, quads, and the log line format.

Every action occurrence in the system is an ActionRecord. A record without an
output is an invocation (work someone asked for); the same record with an
output filled in is a completion. Records are encoded as quads in a named
graph so rules can query history, and as JSON lines so the log can be
replayed after a crash.
"""
from __future__ import annotations

import json
import re
import uuid
from dataclasses import dataclass
from enum import Enum


class NamingError(ValueError):
    """A name or IRI violates the naming rules."""


# Identifier segments must stay slash-free so qualified IRIs stay injective.
_SEGMENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")

UUID_RE = re.compile(r"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}")

_MAX_INT = 2**63 - 1
_MIN_INT = -(2**63)


def is_iri(text: object) -> bool:
    return isinstance(text, str) and len(text) > 0 and "://" in text


def require_iri(text: str, what: str = "iri") -> str:
    if not is_iri(text):
        raise NamingError(f"{what} must be a non-empty IRI with a scheme: {text!r}")
    return text


class Nil(Enum):
    """List-empty sentinel. Serializes to [] and sorts before everything."""

    NIL = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NIL"


NIL = Nil.NIL


@dataclass(frozen=True, order=True)
class Ref:
    """A reference value: points at an entity or another record by IRI."""

    iri: str

    def __post_init__(self) -> None:
        require_iri(self.iri, "ref")


# A Value is one of: str, int (64-bit), bool, Ref, NIL, list of Values,
# or a record (dict mapping field names to Values). This alias is for
# documentation; Python enforces it via canonical_value at the edges.
Value = object


def canonical_value(value):
    """Normalize an incoming value into the closed Value sum.

    Empty lists become NIL, tuples become lists, integral floats are
    rejected along with every other float (the model has no floats).
    """
    if value is NIL or isinstance(value, (Ref, bool)):
        return value
    if isinstance(value, int):
        if not (_MIN_INT <= value <= _MAX_INT):
            raise ValueError(f"integer out of 64-bit range: {value}")
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        raise ValueError(f"floats are not valid values: {value!r}")
    if isinstance(value, (list, tuple)):
        items = [canonical_value(v) for v in value]
        return items if items else NIL
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str) or not k:
                raise ValueError(f"record field names must be non-empty strings: {k!r}")
            out[k] = canonical_value(v)
        return out
    if value is None:
        raise ValueError("None is not a value; use NIL for an empty list")
    raise ValueError(f"unsupported value type: {type(value).__name__}")


def canonical_record(record: dict) -> dict:
    rec = canonical_value(record)
    if not isinstance(rec, dict):
        raise ValueError("expected a record")
    return rec


_TAG_NIL, _TAG_BOOL, _TAG_INT, _TAG_STR, _TAG_REF, _TAG_LIST, _TAG_RECORD = range(7)


def value_key(value):
    """Total order over values: type tag first, then natural order."""
    if value is NIL:
        return (_TAG_NIL, 0)
    if isinstance(value, bool):
        return (_TAG_BOOL, value)
    if isinstance(value, int):
        return (_TAG_INT, value)
    if isinstance(value, str):
        return (_TAG_STR, value)
    if isinstance(value, Ref):
        return (_TAG_REF, value.iri)
    if isinstance(value, list):
        return (_TAG_LIST, tuple(value_key(v) for v in value))
    if isinstance(value, dict):
        return (_TAG_RECORD, tuple((k, value_key(v)) for k, v in sorted(value.items())))
    raise ValueError(f"not a value: {value!r}")


def values_equal(a, b) -> bool:
    """Strict equality: same type tag, same value (True does not equal 1)."""
    return value_key(a) == value_key(b)


def qualify(prefix: str, concept: str, action: str | None = None, arg: str | None = None) -> str:
    """Build the fully qualified IRI for a concept, action, or argument.

    The three optional levels mirror the naming levels of a concept
    spec. Segments are joined with single slashes.
    """
    require_iri(prefix, "prefix")
    if arg is not None and action is None:
        raise NamingError("argument name given without an action name")
    parts = []
    for what, seg in (("concept", concept), ("action", action), ("argument", arg)):
        if seg is None:
            continue
        if not seg or not _SEGMENT_RE.match(seg):
            raise NamingError(f"{what} name must be a plain identifier: {seg!r}")
        parts.append(seg)
    if not parts:
        raise NamingError("empty concept name")
    return prefix.rstrip("/") + "/" + "/".join(parts)


@dataclass(frozen=True)
class Schema:
    """Predicates of the action graph, all under one base IRI."""

    base: str = "app://schema/"

    def __post_init__(self) -> None:
        require_iri(self.base, "schema base")
        if not self.base.endswith("/"):
            object.__setattr__(self, "base", self.base + "/")

    @property
    def actions(self) -> str:
        return self.base + "actions"

    @property
    def concept(self) -> str:
        return self.base + "concept"

    @property
    def name(self) -> str:
        return self.base + "name"

    @property
    def flow(self) -> str:
        return self.base + "flow"

    @property
    def input(self) -> str:
        return self.base + "input"

    @property
    def output(self) -> str:
        return self.base + "output"

    @property
    def first(self) -> str:
        return self.base + "first"

    @property
    def rest(self) -> str:
        return self.base + "rest"

    def sync(self, sync_name: str) -> str:
        return self.base + "sync/" + sync_name

    def noop(self, suffix: str) -> str:
        return self.base + "noop/" + suffix

    def is_noop(self, iri: str) -> bool:
        return iri.startswith(self.base + "noop/")


DEFAULT_SCHEMA = Schema()


@dataclass(frozen=True)
class Quad:
    subject: str
    predicate: str
    object: Value
    graph: str


@dataclass(frozen=True)
class ActionRecord:
    """One action occurrence. Immutable; completion is a copy with output set."""

    id: str
    concept: str
    name: str
    flow: str
    input: dict
    output: dict | None = None

    def __post_init__(self) -> None:
        require_iri(self.id, "record id")
        require_iri(self.concept, "concept iri")
        if not self.name:
            raise NamingError("action name must be non-empty")
        if not self.flow:
            raise NamingError("flow token must be non-empty")

    @property
    def is_completion(self) -> bool:
        return self.output is not None


# Marker for firings whose where clause produced zero frames. The edge
# target gets a fresh suffix per firing so edge triples stay unique.
@dataclass(frozen=True)
class SyncEdge:
    """Provenance edge: completion -> (sync rule) -> invocation or no-op."""

    from_id: str
    sync: str
    to_id: str


def new_id() -> str:
    return "uuid://" + str(uuid.uuid4())

def new_flow() -> str:
    return str(uuid.uuid4())


def derive_id(base: str, salt: str) -> str:
    """Deterministic id derived from an existing id, for replay-stable minting."""
    return "uuid://" + str(uuid.uuid5(uuid.NAMESPACE_URL, base + "#" + salt))


def derive_token(base: str, salt: str) -> str:
    return str(uuid.uuid5(uuid.NAMESPACE_URL, base + "#" + salt))


def _encode_value(quads: list, graph: str, schema: Schema, subj: str, pred: str, node: str, value) -> None:
    if isinstance(value, dict):
        quads.append(Quad(subj, pred, Ref(node), graph))
        for fname in value:
            _encode_value(quads, graph, schema, node, pred + "/" + fname, node + "/" + fname, value[fname])
        return
    if isinstance(value, list):
        # first/rest chain with deterministic cell ids
        prev_subj, prev_pred = subj, pred
        for i, elem in enumerate(value):
            cell = node + "/" + str(i)
            quads.append(Quad(prev_subj, prev_pred, Ref(cell), graph))
            _encode_value(quads, graph, schema, cell, schema.first, cell + "/v", elem)
            prev_subj, prev_pred = cell, schema.rest
        quads.append(Quad(prev_subj, prev_pred, NIL, graph))
        return
    quads.append(Quad(subj, pred, value, graph))


def record_to_quads(rec: ActionRecord, graph: str, schema: Schema = DEFAULT_SCHEMA) -> list:
    """Encode a record as quads in the given action graph.

    The record id carries a self-loop on the actions predicate; it marks the
    root so a record can be rebuilt from its quad set alone. Input and output
    hang off blank-style nodes whose ids derive from the record id, and field
    predicates are qualified under the concept and action.
    """
    require_iri(graph, "graph")
    quads = [
        Quad(rec.id, schema.actions, Ref(rec.id), graph),
        Quad(rec.id, schema.concept, Ref(rec.concept), graph),
        Quad(rec.id, schema.name, rec.name, graph),
        Quad(rec.id, schema.flow, rec.flow, graph),
    ]
    action_base = rec.concept + "/" + rec.name
    for role, pred, payload in (("input", schema.input, rec.input), ("output", schema.output, rec.output)):
        if payload is None:
            continue
        node = rec.id + "/" + role
        quads.append(Quad(rec.id, pred, Ref(node), graph))
        for fname in payload:
            _encode_value(quads, graph, schema, node, action_base + "/" + fname, node + "/" + fname, payload[fname])
    return quads


def _decode_value(by_subject: dict, root_id: str, schema: Schema, value):
    if not isinstance(value, Ref) or not value.iri.startswith(root_id + "/"):
        return value
    node = value.iri
    props = by_subject.get(node, [])
    preds = {p for p, _ in props}
    if schema.first in preds or schema.rest in preds:
        items = []
        while True:
            cell = {p: o for p, o in by_subject.get(node, [])}
            items.append(_decode_value(by_subject, root_id, schema, cell[schema.first]))
            nxt = cell[schema.rest]
            if nxt is NIL:
                return items
            node = nxt.iri
    record = {}
    for pred, obj in props:
        fname = pred.rsplit("/", 1)[-1]
        record[fname] = _decode_value(by_subject, root_id, schema, obj)
    return record


def quads_to_record(quads, schema: Schema = DEFAULT_SCHEMA) -> ActionRecord:
    """Rebuild the single ActionRecord whose quads were passed in."""
    by_subject: dict[str, list] = {}
    roots = []
    for q in quads:
        by_subject.setdefault(q.subject, []).append((q.predicate, q.object))
        if q.predicate == schema.actions and isinstance(q.object, Ref) and q.object.iri == q.subject:
            roots.append(q.subject)
    if len(roots) != 1:
        raise ValueError(f"expected exactly one record root, found {len(roots)}")
    root = roots[0]
    props = dict(by_subject[root])
    input_rec = _decode_value(by_subject, root, schema, props[schema.input])
    output_rec = None
    if schema.output in props:
        output_rec = _decode_value(by_subject, root, schema, props[schema.output])
        if not isinstance(output_rec, dict):
            raise ValueError("output node did not decode to a record")
    if not isinstance(input_rec, dict):
        raise ValueError("input node did not decode to a record")
    return ActionRecord(
        id=root,
        concept=props[schema.concept].iri,
        name=props[schema.name],
        flow=props[schema.flow],
        input=input_rec,
        output=output_rec,
    )


def to_jsonable(value):
    """Lossless JSON image of a value. Refs become {"$ref": iri}, NIL becomes []."""
    if value is NIL:
        return []
    if isinstance(value, Ref):
        return {"$ref": value.iri}
    if isinstance(value, list):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    return value


def from_jsonable(value):
    if isinstance(value, dict):
        if set(value.keys()) == {"$ref"}:
            return Ref(value["$ref"])
        return {k: from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [from_jsonable(v) for v in value] if value else NIL
    return canonical_value(value)


def record_to_json(rec: ActionRecord) -> str:
    doc = {
        "id": rec.id,
        "concept": rec.concept,
        "name": rec.name,
        "flow": rec.flow,
        "input": to_jsonable(rec.input),
    }
    if rec.output is not None:
        doc["output"] = to_jsonable(rec.output)
    return json.dumps(doc, separators=(",", ":"))


def record_from_json(line: str) -> ActionRecord:
    return record_from_doc(json.loads(line))


def record_from_doc(doc: dict) -> ActionRecord:
    """Build a record from an already parsed log line."""
    return ActionRecord(
        id=doc["id"],
        concept=doc["concept"],
        name=doc["name"],
        flow=doc["flow"],
        input=from_jsonable(doc["input"]),
        output=from_jsonable(doc["output"]) if "output" in doc else None,
    )


def edge_to_json(edge: SyncEdge) -> str:
    return json.dumps({"from": edge.from_id, "sync": edge.sync, "to": edge.to_id}, separators=(",", ":"))


def edge_from_json(line: str) -> SyncEdge:
    return edge_from_doc(json.loads(line))


def edge_from_doc(doc: dict) -> SyncEdge:
    """Build an edge from an already parsed log line."""
    return SyncEdge(from_id=doc["from"], sync=doc["sync"], to_id=doc["to"])

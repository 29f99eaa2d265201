"""Shared data model: values, names, action records, quads, and the log line format.

Every action occurrence in the system is an ActionRecord. A record without an
output is an invocation (work someone asked for); the same record with an
output filled in is a completion. A Firing is one rule firing: the completions
it joined and the invocations it made, none for a no-op. Both are written as
JSON lines to an append-only log, the one record of history, so a run and its
provenance can be replayed after a crash.

The log holds each input once. An invocation is written with its input in
the then of the firing that made it, and its completion without it; only a
flow's first completion, which no firing made, carries its input on its own
line. A record read back is checked once: by record_from_doc if its line
holds its input, else by completion_from_doc against the invocation it
completes.

Values have one codec each way. canonical_value admits every value, from a
program, a request body or a log line, so the engine holds only what its log
reads back as the same value; to_jsonable is the JSON image the log writes.
"""
from __future__ import annotations

import hashlib
import json
import re
import uuid
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


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

    Every value enters through here: a program's, a request body's and a
    log line's alike. Empty lists become NIL, tuples become lists, a
    one-field record {"$ref": iri} becomes the Ref it encodes (to_jsonable
    writes a Ref so), and every float is rejected, integral or not (the
    model has no floats).
    """
    # the commonest kinds first: strings, most leaves, then records
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        if "$ref" in value and len(value) == 1:
            return Ref(value["$ref"])
        # a loop, not a comprehension, which builds a function per call
        out = {}
        for k, v in value.items():
            if not isinstance(k, str) or not k:
                raise ValueError(f"record field names must be non-empty strings: {k!r}")
            out[k] = v if type(v) is str else canonical_value(v)
        return out
    if value is NIL or isinstance(value, (Ref, bool)):
        return value
    if isinstance(value, int):
        if not (_MIN_INT <= value <= _MAX_INT):
            raise ValueError(f"integer out of 64-bit range: {value}")
        return value
    if isinstance(value, (list, tuple)):
        items = [canonical_value(v) for v in value]
        return items if items else NIL
    if isinstance(value, float):
        raise ValueError(f"floats are not valid values: {value!r}")
    if value is None:
        raise ValueError("None is not a value; use NIL for an empty list")
    raise ValueError(f"unsupported value type: {type(value).__name__}")


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
    """Strict equality, as value_key sees it: same type, then the same value
    (True does not equal 1, nor a Ref its IRI string), item by item for
    lists and records."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(values_equal, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(values_equal(v, b[k]) for k, v in a.items())
    return a == b


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
class Quad:
    subject: str
    predicate: str
    object: Value
    graph: str


class ActionRecord(NamedTuple):
    """One action occurrence. Immutable; its completion is the same record
    with its output, as recovery rebuilds it from its input-free line.
    Nothing is checked here: the engine mints its own records, and
    record_from_doc and completion_from_doc check the rest."""

    id: str
    concept: str
    name: str
    flow: str
    input: dict
    output: dict | None = None

    @property
    def is_completion(self) -> bool:
        return self.output is not None


class Firing(NamedTuple):
    """One rule firing, as its log line holds it: the rule, the sorted ids of
    the completions it joined and the ids of its invocations (() for a no-op)."""

    sync: str
    sources: tuple
    targets: tuple


@dataclass(frozen=True)
class FlowTrace:
    """Everything one flow did: its records, in log order, and the firings
    among them. A firing's targets are the records it caused."""

    flow: str
    records: tuple
    firings: tuple

    @property
    def root(self) -> ActionRecord | None:
        return self.records[0] if self.records else None

    def sync_labels(self) -> set:
        return {f.sync for f in self.firings}


def new_id() -> str:
    return "uuid://" + str(uuid.uuid4())

def new_flow() -> str:
    return str(uuid.uuid4())


def derive_id(base: str, salt: str) -> str:
    """Deterministic id derived from an existing id, for replay-stable minting."""
    return "uuid://" + derive_token(base, salt)


_URL_NAMESPACE = uuid.NAMESPACE_URL.bytes
_VARIANT = dict(zip("0123456789abcdef", "89ab" * 4))


def derive_token(base: str, salt: str) -> str:
    """str(uuid.uuid5(NAMESPACE_URL, base + "#" + salt)) without the UUID object:
    SHA-1 of namespace and name, version nibble 5, variant bits 10 (_VARIANT)."""
    x = hashlib.sha1(_URL_NAMESPACE + (base + "#" + salt).encode()).hexdigest()
    return f"{x[:8]}-{x[8:12]}-5{x[13:16]}-{_VARIANT[x[16]]}{x[17:20]}-{x[20:32]}"


def to_jsonable(value):
    """Lossless JSON image of a value. Refs become {"$ref": iri}, NIL becomes [].
    canonical_value reads it back."""
    if value is NIL:
        return []
    if isinstance(value, Ref):
        return {"$ref": value.iri}
    if isinstance(value, list):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    return value


# one encoder for every log line, and json.dumps with these separators would
# build one per call; json calls to_jsonable only for what it cannot encode
# itself, a Ref or NIL wherever it is nested, so the values are not copied
_LOG_ENCODER = json.JSONEncoder(separators=(",", ":"), default=to_jsonable)


def _record_doc(rec: ActionRecord, with_input: bool = True) -> dict:
    doc = {"id": rec.id, "concept": rec.concept, "name": rec.name, "flow": rec.flow}
    if with_input:
        doc["input"] = rec.input
    if rec.output is not None:
        doc["output"] = rec.output
    return doc


def record_to_json(rec: ActionRecord, with_input: bool = True) -> str:
    """A record's line. The completion of a logged invocation goes without
    its input (with_input=False): the firing line that made it holds it."""
    return _LOG_ENCODER.encode(_record_doc(rec, with_input))


_INVOCATION_KEYS = {"id", "concept", "name", "flow", "input"}
_ROOT_KEYS = _INVOCATION_KEYS | {"output"}
_COMPLETION_KEYS = _ROOT_KEYS - {"input"}


def record_from_doc(doc: dict, completed: bool) -> ActionRecord:
    """The record of an already parsed line that holds its input, a flow's
    first completion (completed) or an invocation in a firing's then:
    refused unless its keys and field types are those it is minted with."""
    if doc.keys() != (_ROOT_KEYS if completed else _INVOCATION_KEYS):
        raise ValueError("a record line holds exactly the keys of its kind")
    rec = ActionRecord(  # id, concept, name, flow, input, output
        require_iri(doc["id"], "record id"),
        require_iri(doc["concept"], "concept iri"),
        doc["name"],
        doc["flow"],
        canonical_value(doc["input"]),
        canonical_value(doc["output"]) if completed else None,
    )
    if not (isinstance(rec.name, str) and rec.name and isinstance(rec.flow, str) and rec.flow):
        raise NamingError("action name and flow token must be non-empty strings")
    if not (isinstance(rec.input, dict) and (rec.output is None or isinstance(rec.output, dict))):
        raise ValueError("a record's input and output are records")
    return rec


def completion_from_doc(doc: dict, records: dict) -> ActionRecord:
    """The completion an already parsed input-free line makes of the logged
    invocation it names (records maps ids to records): refused unless that
    invocation has no output yet, the line repeats its concept, action and
    flow, and its output is a record. The input is the invocation's own."""
    if doc.keys() != _COMPLETION_KEYS:
        raise ValueError("a completion line holds id, concept, name, flow and output")
    inv = records.get(doc["id"])
    if inv is None or inv.output is not None:
        raise ValueError("a completion line completes a logged invocation that has no output yet")
    if (inv.concept, inv.name, inv.flow) != (doc["concept"], doc["name"], doc["flow"]):
        raise ValueError("a completion line repeats its invocation's concept, action and flow")
    output = canonical_value(doc["output"])
    if not isinstance(output, dict):
        raise ValueError("a record's output is a record")
    return ActionRecord(inv.id, inv.concept, inv.name, inv.flow, inv.input, output)


def firing_to_json(sync: str, sources: tuple, invocations: list) -> str:
    """A firing's line: rule, sorted matched ids, invocations (none for a no-op)."""
    return _LOG_ENCODER.encode(
        {"sync": sync, "from": sources, "then": [_record_doc(r) for r in invocations]}
    )


def firing_from_doc(doc: dict) -> tuple:
    """(rule name, source ids, invocations) of an already parsed firing line."""
    sync, sources, then = doc["sync"], doc["from"], doc["then"]
    if not (isinstance(sync, str) and isinstance(sources, list) and all(isinstance(s, str) for s in sources)):
        raise ValueError("a firing line names a rule and a list of completion ids")
    if not sources or sources != sorted(set(sources)):
        raise ValueError("a firing line's completion ids are sorted, distinct and at least one")
    return sync, tuple(sources), [record_from_doc(d, completed=False) for d in then]

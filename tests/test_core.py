"""Value model, naming, derived ids, and log line format."""
import json
import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandem.core import (
    NIL,
    ActionRecord,
    NamingError,
    Ref,
    canonical_value,
    completion_from_doc,
    derive_id,
    derive_token,
    firing_from_doc,
    firing_to_json,
    new_flow,
    new_id,
    qualify,
    record_from_doc,
    record_to_json,
    value_key,
    values_equal,
)

PREFIX = "https://concepts.example/v0/"


# ---------------------------------------------------------------- qualify

def test_qualify_three_levels():
    assert qualify(PREFIX, "Password") == "https://concepts.example/v0/Password"
    assert qualify(PREFIX, "Password", "set") == "https://concepts.example/v0/Password/set"
    assert (
        qualify(PREFIX, "Password", "set", "password")
        == "https://concepts.example/v0/Password/set/password"
    )


def test_qualify_no_duplicate_slashes():
    assert qualify("app://x", "C", "a") == "app://x/C/a"
    assert qualify("app://x/", "C", "a") == "app://x/C/a"


def test_qualify_errors():
    with pytest.raises(NamingError):
        qualify(PREFIX, "")
    with pytest.raises(NamingError):
        qualify(PREFIX, "User", None, "name")
    with pytest.raises(NamingError):
        qualify("not-an-iri", "User")
    with pytest.raises(NamingError):
        qualify(PREFIX, "User/evil")


name_st = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)


@given(a=st.tuples(name_st, name_st, name_st), b=st.tuples(name_st, name_st, name_st))
def test_qualify_injective(a, b):
    if a != b:
        assert qualify(PREFIX, *a) != qualify(PREFIX, *b)


# ---------------------------------------------------------------- values

def test_canonical_value_normalizes_empty_list():
    assert canonical_value([]) is NIL
    assert canonical_value({"tags": []}) == {"tags": NIL}
    assert canonical_value((1, 2)) == [1, 2]


def test_canonical_value_rejects_floats_and_overflow():
    with pytest.raises(ValueError):
        canonical_value(1.5)
    with pytest.raises(ValueError):
        canonical_value(2**63)
    with pytest.raises(ValueError):
        canonical_value(None)


def test_value_key_orders_across_types():
    vals = [NIL, False, True, -1, 5, "a", Ref("uuid://x"), [1], {"a": 1}]
    assert sorted(vals, key=value_key) == vals


# a small alphabet, so that equal and look-alike values come up often
_alike_st = st.recursive(
    st.sampled_from([True, False, 0, 1, "a", "uuid://a", Ref("uuid://a"), NIL]),
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=2),
        st.dictionaries(st.sampled_from(["a", "b"]), kids, min_size=1, max_size=2),
    ),
    max_leaves=6,
)


def _lookalike(value, flip):
    """value with each scalar flip() picks swapped for one of another type
    that == alone would take for it, or that prints like it."""
    if isinstance(value, list):
        return [_lookalike(v, flip) for v in value]
    if isinstance(value, dict):
        return {k: _lookalike(v, flip) for k, v in value.items()}
    if not flip():
        return value
    if value is NIL:
        return []
    if isinstance(value, Ref):
        return value.iri
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return bool(value)
    return Ref(value) if "://" in value else [value]


@settings(max_examples=300, deadline=None)
@given(a=_alike_st, data=st.data())
def test_values_equal_agrees_with_value_key(a, data):
    flip = lambda: data.draw(st.booleans())  # noqa: E731
    b = data.draw(st.one_of(st.just(a), _alike_st, st.just(a).map(lambda v: _lookalike(v, flip))))
    assert values_equal(a, b) == (value_key(a) == value_key(b))
    assert values_equal(b, a) == values_equal(a, b)


# ---------------------------------------------------------------- derived ids

@settings(max_examples=50, deadline=None)
@given(base=st.text(max_size=40), salt=st.text(max_size=12))
def test_derived_ids_are_uuid5_text(base, salt):
    token = str(uuid.uuid5(uuid.NAMESPACE_URL, base + "#" + salt))
    assert derive_token(base, salt) == token
    assert derive_id(base, salt) == "uuid://" + token


# ---------------------------------------------------------------- records

def make_record(input_rec, output_rec=None):
    return ActionRecord(
        id=new_id(),
        concept=qualify(PREFIX, "Password"),
        name="set",
        flow=new_flow(),
        input=input_rec,
        output=output_rec,
    )


field_st = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
ref_st = st.uuids(version=4).map(lambda u: Ref("uuid://" + str(u)))
scalar_st = st.one_of(
    st.text(max_size=6),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.booleans(),
    st.just(NIL),
    ref_st,
)
value_st = st.recursive(
    scalar_st,
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3),
        st.dictionaries(field_st, kids, min_size=1, max_size=3),
    ),
    max_leaves=8,
)
record_st = st.dictionaries(field_st, value_st, max_size=3)


# ---------------------------------------------------------------- log lines

def test_json_line_field_order():
    rec = make_record({"user": Ref("uuid://u1")}, {"user": Ref("uuid://u1")})
    doc = json.loads(record_to_json(rec))
    assert list(doc.keys()) == ["id", "concept", "name", "flow", "input", "output"]


def test_json_line_omits_output_for_invocations():
    rec = make_record({"a": 1})
    assert "output" not in json.loads(record_to_json(rec))


def test_json_round_trip_preserves_flow_exactly():
    rec = make_record({"tags": ["x"], "empty": NIL, "who": Ref("uuid://u9")})
    back = record_from_doc(json.loads(record_to_json(rec)), completed=False)
    assert back == rec
    assert back.flow == rec.flow


@settings(max_examples=120, deadline=None)
@given(input_rec=record_st, output_rec=st.one_of(st.none(), record_st))
def test_json_round_trip_property(input_rec, output_rec):
    rec = make_record(input_rec, output_rec)
    assert record_from_doc(json.loads(record_to_json(rec)), completed=rec.is_completion) == rec


def test_firing_line_round_trip():
    # a no-op firing, then one with two invocations
    for then in ([], [{"who": Ref("uuid://u1")}, {"tags": NIL}]):
        invocations = [make_record(fields) for fields in then]
        doc = json.loads(firing_to_json("Registration", ("uuid://a", "uuid://b"), invocations))
        assert list(doc) == ["sync", "from", "then"]
        assert doc["from"] == ["uuid://a", "uuid://b"]
        assert doc["then"] == [json.loads(record_to_json(r)) for r in invocations]
        assert firing_from_doc(doc) == ("Registration", ("uuid://a", "uuid://b"), invocations)


def test_completion_line_leaves_out_its_input():
    inv = make_record({"user": Ref("uuid://u1"), "flag": True})
    done = inv._replace(output={"user": Ref("uuid://u1")})
    doc = json.loads(record_to_json(done, with_input=False))
    assert list(doc) == ["id", "concept", "name", "flow", "output"]
    assert completion_from_doc(doc, {inv.id: inv}) == done
    with pytest.raises(ValueError):  # nothing completes twice
        completion_from_doc(doc, {inv.id: done})


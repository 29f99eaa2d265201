"""Quad store indexing, query evaluation, and eachthen grouping.

The store evaluates where clauses as the engine compiles them: each concept
pattern on its graph IRI and predicate IRIs. `pattern` builds one here.
"""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandem.core import NIL, Quad, Ref, qualify, value_key
from tandem.store import (
    Bind,
    Compare,
    ConceptPattern,
    FuncCall,
    GraphView,
    GroupingError,
    Namespace,
    NotExists,
    OptionalBlock,
    Query,
    QuadStore,
    QueryError,
    Var,
    frame_key,
    group_by_eachthen,
    has_eachthen,
)

PREFIX = "https://concepts.example/v0/"
USER_G = "app://graphs/dev/User"
COMMENT_G = "app://graphs/dev/Comment"
REQUEST_G = "app://graphs/dev/Request"

NS = {
    "User": Namespace(USER_G, qualify(PREFIX, "User")),
    "Comment": Namespace(COMMENT_G, qualify(PREFIX, "Comment")),
    "Request": Namespace(REQUEST_G, qualify(PREFIX, "Request")),
}


def compiled(ns, triples) -> ConceptPattern:
    return ConceptPattern(ns.graph, tuple((s, ns.predicate(p), o) for s, p, o in triples))


def pattern(concept, *triples) -> ConceptPattern:
    return compiled(NS[concept], triples)


def user_quad(subject, prop, value):
    return Quad(subject, qualify(PREFIX, "User", prop), value, USER_G)


def insert_all(store, quads) -> int:
    """Insert each quad; how many were new."""
    return sum(store.insert(q.graph, q.subject, q.predicate, q.object) for q in quads)


def matching(store, graph, subject, predicate, obj) -> list:
    return [q for q in store.quads(graph)
            if (q.subject, q.predicate, value_key(q.object)) == (subject, predicate, value_key(obj))]


# ---------------------------------------------------------------- store basics

def test_insert_is_idempotent():
    s = QuadStore()
    q = user_quad("uuid://u1", "name", "alice")
    assert s.insert(q.graph, q.subject, q.predicate, q.object) == 1
    assert s.insert(q.graph, q.subject, q.predicate, q.object) == 0
    assert len(s) == 1


def test_graph_scoping():
    s = QuadStore()
    insert_all(s, [Quad("uuid://u1", "app://p", 1, "app://g1"), Quad("uuid://u1", "app://p", 1, "app://g2")])
    assert len(s.quads("app://g1")) == 1
    assert len(matching(s, "app://g2", "uuid://u1", "app://p", 1)) == 1
    assert s.quads("app://g3") == []


def test_remove():
    s = QuadStore()
    q = user_quad("uuid://u1", "name", "alice")
    insert_all(s, [q])
    assert s.remove(q.graph, q.subject, q.predicate, q.object) == 1
    assert s.remove(q.graph, q.subject, q.predicate, q.object) == 0
    assert len(s) == 0


def test_bool_and_int_objects_stay_distinct():
    s = QuadStore()
    insert_all(s, [Quad("uuid://x", "app://p", True, "app://g"), Quad("uuid://x", "app://p", 1, "app://g")])
    assert len(s) == 2
    assert len(matching(s, "app://g", "uuid://x", "app://p", True)) == 1


def test_quad_objects_must_be_atoms():
    s = QuadStore()
    with pytest.raises(ValueError):
        s.insert("app://g", "uuid://x", "app://p", [1, 2])


# ---------------------------------------------------------------- evaluation

def test_single_frame_for_unique_name():
    s = QuadStore()
    insert_all(s, [user_quad("uuid://u1", "name", "xavier"), user_quad("uuid://u2", "name", "yolanda")])
    q = Query((pattern("User", (Var("?u"), "name", "xavier")),))
    frames = s.evaluate(q)
    assert frames == [{"?u": Ref("uuid://u1")}]


def test_three_comments_oracle():
    s = QuadStore()
    post = Ref("uuid://post1")
    expected = set()
    for i in range(3):
        cid = f"uuid://c{i}"
        insert_all(s, [Quad(cid, qualify(PREFIX, "Comment", "target"), post, COMMENT_G)])
        expected.add(cid)
    # independent oracle: enumerate raw quads and filter by hand
    oracle = {q.subject for q in s.quads(COMMENT_G) if q.object == post}
    assert oracle == expected
    q = Query((pattern("Comment", (Var("?c"), "target", Var("?post"))),))
    frames = s.evaluate(q, {"?post": post})
    assert {f["?c"].iri for f in frames} == expected
    assert len(frames) == 3


def test_join_across_patterns():
    s = QuadStore()
    insert_all(
        s,
        [
            user_quad("uuid://u1", "name", "alice"),
            user_quad("uuid://u1", "email", "a@x.io"),
            user_quad("uuid://u2", "name", "bob"),
        ]
    )
    q = Query((pattern("User", (Var("?u"), "name", Var("?n")), (Var("?u"), "email", Var("?e"))),))
    frames = s.evaluate(q)
    assert frames == [{"?u": Ref("uuid://u1"), "?n": "alice", "?e": "a@x.io"}]


def request_quad(subject, prop, value):
    return Quad(subject, qualify(PREFIX, "Request", prop), value, REQUEST_G)


def test_completion_guard_pattern():
    # a request with an output must not look pending
    s = QuadStore()
    insert_all(s, [
        request_quad("uuid://r1", "input", Ref("uuid://u1")),
        request_quad("uuid://r1", "output", Ref("uuid://u1")),
    ])
    pending = Query(
        (
            pattern("Request", (Var("?a"), "input", Var("?in"))),
            NotExists((pattern("Request", (Var("?a"), "output", Var("?out"))),)),
        )
    )
    assert s.evaluate(pending) == []
    # without the output quad the same query finds it
    s2 = QuadStore()
    insert_all(s2, [request_quad("uuid://r1", "input", Ref("uuid://u1"))])
    assert s2.evaluate(pending) == [{"?a": Ref("uuid://r1"), "?in": Ref("uuid://u1")}]


def test_optional_leaves_frame_when_unmatched():
    s = QuadStore()
    insert_all(s, [user_quad("uuid://u1", "name", "alice")])
    q = Query(
        (
            pattern("User", (Var("?u"), "name", Var("?n"))),
            OptionalBlock((pattern("User", (Var("?u"), "email", Var("?e"))),)),
        )
    )
    frames = s.evaluate(q)
    assert frames == [{"?u": Ref("uuid://u1"), "?n": "alice"}]
    insert_all(s, [user_quad("uuid://u1", "email", "a@x.io")])
    frames = s.evaluate(q)
    assert frames == [{"?u": Ref("uuid://u1"), "?n": "alice", "?e": "a@x.io"}]


def test_coalesce_defaults_unbound_to_nil():
    s = QuadStore()
    insert_all(s, [user_quad("uuid://u1", "name", "alice")])
    q = Query(
        (
            pattern("User", (Var("?u"), "name", Var("?n"))),
            OptionalBlock((pattern("User", (Var("?u"), "email", Var("?e"))),)),
            Bind(FuncCall("coalesce", (Var("?e"), NIL)), "?mail"),
        )
    )
    frames = s.evaluate(q)
    assert frames == [{"?u": Ref("uuid://u1"), "?n": "alice", "?mail": NIL}]


def test_bind_uuid_mints_one_ref_per_frame():
    s = QuadStore()
    insert_all(s, [user_quad("uuid://u1", "name", "a"), user_quad("uuid://u2", "name", "b")])
    q = Query((pattern("User", (Var("?u"), "name", Var("?n"))), Bind(FuncCall("uuid"), "?fresh")))
    frames = s.evaluate(q)
    assert len(frames) == 2
    minted = {f["?fresh"].iri for f in frames}
    assert len(minted) == 2
    assert all(m.startswith("uuid://") for m in minted)


def test_bind_conflicting_rebind_kills_frame():
    s = QuadStore()
    insert_all(s, [user_quad("uuid://u1", "name", "alice")])
    q = Query((pattern("User", (Var("?u"), "name", Var("?n"))), Bind("bob", "?n")))
    assert s.evaluate(q) == []
    q2 = Query((pattern("User", (Var("?u"), "name", Var("?n"))), Bind("alice", "?n")))
    assert len(s.evaluate(q2)) == 1


def test_filter_comparisons():
    s = QuadStore()
    insert_all(s, [user_quad("uuid://u1", "karma", 5), user_quad("uuid://u2", "karma", 50)])
    q = Query((pattern("User", (Var("?u"), "karma", Var("?k"))), Compare(Var("?k"), ">=", 10)))
    frames = s.evaluate(q)
    assert [f["?u"] for f in frames] == [Ref("uuid://u2")]


def test_filter_unbound_variable_is_an_error():
    s = QuadStore()
    insert_all(s, [user_quad("uuid://u1", "karma", 5)])
    q = Query((pattern("User", (Var("?u"), "karma", Var("?k"))), Compare(Var("?zzz"), ">", 1)))
    with pytest.raises(QueryError):
        s.evaluate(q)


def test_results_are_sorted_and_deduplicated():
    s = QuadStore()
    for i in (3, 1, 2):
        insert_all(s, [user_quad(f"uuid://u{i}", "name", f"n{i}")])
    q = Query((pattern("User", (Var("?u"), "name", Var("?n"))),))
    frames = s.evaluate(q)
    assert frames == sorted(frames, key=frame_key)
    assert [f["?n"] for f in frames] == ["n1", "n2", "n3"]


# ---------------------------------------------------------------- grouping

def test_group_two_articles_two_tags_each():
    frames = []
    expected = {}
    for a in ("uuid://a1", "uuid://a2"):
        for t in ("t1", "t2"):
            frames.append({"?_eachthen": Ref(a), "?article": Ref(a), "?tag": t})
            expected.setdefault(a, set()).add(t)
    # independent oracle: group by hand
    assert len(expected) == 2 and all(len(v) == 2 for v in expected.values())
    grouped = group_by_eachthen(frames)
    assert len(grouped) == 2
    for g in grouped:
        assert g["?tag"] == sorted(expected[g["?article"].iri])


def test_group_scalar_stays_scalar():
    frames = [{"?_eachthen": 1, "?x": "same"}, {"?_eachthen": 1, "?x": "same"}]
    assert group_by_eachthen(frames) == [{"?_eachthen": 1, "?x": "same"}]


def test_group_partially_bound_variable():
    frames = [{"?_eachthen": 1, "?x": "a"}, {"?_eachthen": 1}]
    assert group_by_eachthen(frames) == [{"?_eachthen": 1, "?x": "a"}]


def test_group_unbound_grouping_var_is_an_error():
    with pytest.raises(GroupingError):
        group_by_eachthen([{"?x": 1}])


def test_group_empty_is_empty():
    assert group_by_eachthen([]) == []


def test_has_eachthen():
    assert not has_eachthen(None)
    assert not has_eachthen(Query((Bind(FuncCall("uuid"), "?x"),)))
    assert has_eachthen(Query((Bind(Var("?a"), "?_eachthen"),)))


@given(
    frames=st.lists(
        st.fixed_dictionaries(
            {"?_eachthen": st.integers(0, 3)},
            optional={"?x": st.integers(0, 5), "?y": st.text("ab", max_size=2)},
        ),
        max_size=12,
    )
)
def test_group_preserves_partition(frames):
    grouped = group_by_eachthen(frames)
    assert {f["?_eachthen"] for f in frames} == {g["?_eachthen"] for g in grouped}
    for g in grouped:
        members = [f for f in frames if f["?_eachthen"] == g["?_eachthen"]]
        for var, val in g.items():
            vals = {repr(f[var]) for f in members if var in f}
            if isinstance(val, list):
                assert {repr(v) for v in val} == vals
            else:
                assert vals == {repr(val)}


# ---------------------------------------------------------------- properties

SUBJECTS = [f"uuid://s{i}" for i in range(4)]
G = "app://g"
PROPS = ["p0", "p1", "p2"]
PROP_NS = Namespace(G, G)
PREDS = [PROP_NS.predicate(p) for p in PROPS]

quad_st = st.builds(
    Quad,
    subject=st.sampled_from(SUBJECTS),
    predicate=st.sampled_from(PREDS),
    object=st.integers(0, 3),
    graph=st.just(G),
)
var_pool = ["?a", "?b", "?c", "?d"]
term_st = st.one_of(st.sampled_from(var_pool).map(Var), st.integers(0, 3))
subj_term_st = st.one_of(st.sampled_from(var_pool).map(Var), st.sampled_from(SUBJECTS).map(Ref))
triple_st = st.tuples(subj_term_st, st.sampled_from(PROPS), term_st)
# mandatory patterns only: OPTIONAL and NOT-EXISTS are deliberately non-monotone
pattern_query_st = st.lists(triple_st, min_size=1, max_size=3).map(
    lambda ts: Query((compiled(PROP_NS, ts),))
)


@settings(max_examples=80, deadline=None)
@given(quads=st.lists(quad_st, max_size=10), extra=st.lists(quad_st, max_size=4), query=pattern_query_st)
def test_monotonicity_without_negation(quads, extra, query):
    s = QuadStore()
    insert_all(s, quads)
    before = {frame_key(f) for f in s.evaluate(query)}
    insert_all(s, extra)
    after = {frame_key(f) for f in s.evaluate(query)}
    assert before <= after


@settings(max_examples=80, deadline=None)
@given(quads=st.lists(quad_st, max_size=10), query=pattern_query_st, data=st.data())
def test_seed_consistency(quads, query, data):
    s = QuadStore()
    insert_all(s, quads)
    unseeded = s.evaluate(query)
    if not unseeded:
        return
    pick = data.draw(st.sampled_from(unseeded))
    if not pick:
        return
    var = data.draw(st.sampled_from(sorted(pick)))
    seed = {var: pick[var]}
    seeded = s.evaluate(query, seed)
    filtered = [f for f in unseeded if frame_key({**f, **seed}) == frame_key(f)]
    assert [frame_key(f) for f in seeded] == [frame_key(f) for f in filtered]


@settings(max_examples=60, deadline=None)
@given(quads=st.lists(quad_st, max_size=12), query=pattern_query_st, seed_int=st.integers(0, 2**16))
def test_insert_order_does_not_matter(quads, query, seed_int):
    s1 = QuadStore()
    insert_all(s1, quads)
    shuffled = list(quads)
    random.Random(seed_int).shuffle(shuffled)
    s2 = QuadStore()
    insert_all(s2, shuffled)
    assert s1.evaluate(query) == s2.evaluate(query)


# ---------------------------------------------------------------- graph view

def test_graph_view_set_replaces():
    s = QuadStore()
    v = GraphView(s, USER_G)
    v.add("uuid://u1", "app://name", "alice")
    v.set("uuid://u1", "app://name", "alicia")
    assert v.objects("uuid://u1", "app://name") == ["alicia"]
    assert v.value("uuid://u1", "app://name") == "alicia"
    assert v.value("uuid://u1", "app://missing", "dflt") == "dflt"


def test_graph_view_touches_only_its_graph():
    s = QuadStore()
    v = GraphView(s, USER_G)
    v.add("uuid://u1", "app://name", "alice")
    assert s.quads(COMMENT_G) == []
    assert {q.graph for q in s.quads()} == {USER_G}


def test_graph_view_subjects_sorted():
    s = QuadStore()
    v = GraphView(s, USER_G)
    for i in (2, 0, 1):
        v.add(f"uuid://u{i}", "app://member", True)
    assert v.subjects("app://member", True) == ["uuid://u0", "uuid://u1", "uuid://u2"]
    assert v.has("uuid://u0", "app://member")
    v.remove("uuid://u0")
    assert not v.has("uuid://u0", "app://member")



VIEW_SUBJECTS = ["uuid://s0", "uuid://s1", "uuid://s2"]
VIEW_PREDS = ["app://p0", "app://p1"]
# 1 and True, "uuid://s0" and its Ref: equal to Python, distinct values here
VIEW_OBJECTS = [0, 1, True, False, "a", "uuid://s0", Ref("uuid://s0"), NIL]
view_op_st = st.tuples(
    st.sampled_from(["add", "set", "remove"]),
    st.sampled_from([USER_G, COMMENT_G]),
    st.sampled_from(VIEW_SUBJECTS),
    st.sampled_from(VIEW_PREDS),
    st.sampled_from(VIEW_OBJECTS),
    st.sampled_from(["subject", "predicate", "object"]),  # what a remove leaves open
)


def _keys(values) -> list:
    return [value_key(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(view_op_st, max_size=25))
def test_graph_view_reads_answer_as_the_quads_do(ops):
    s = QuadStore()
    views = {g: GraphView(s, g) for g in (USER_G, COMMENT_G)}
    for op, g, subj, pred, obj, wild in ops:
        if op == "remove":
            views[g].remove(None if wild == "subject" else subj, None if wild == "predicate" else pred,
                            None if wild == "object" else obj)
        else:
            getattr(views[g], op)(subj, pred, obj)
    # the indexes hold exactly what the quads rebuild: a removal leaves no emptied entry
    rebuilt = QuadStore()
    insert_all(rebuilt, s.quads())
    assert (s._spo, s._pos) == (rebuilt._spo, rebuilt._pos)
    assert len(s) == len(s.quads())
    missing = object()
    for g, v in views.items():
        quads = s.quads(g)  # sorted by subject, predicate, then value_key of the object
        for pred in VIEW_PREDS:
            for subj in VIEW_SUBJECTS:
                objs = [q.object for q in quads if q.subject == subj and q.predicate == pred]
                assert _keys(v.objects(subj, pred)) == _keys(objs)
                first = v.value(subj, pred, missing)
                assert value_key(first) == value_key(objs[0]) if objs else first is missing
            for obj in [None] + VIEW_OBJECTS:
                hits = [q for q in quads if q.predicate == pred
                        and (obj is None or value_key(q.object) == value_key(obj))]
                assert v.subjects(pred, obj) == sorted({q.subject for q in hits})
        for subj, pred, obj in itertools.product([None] + VIEW_SUBJECTS, [None] + VIEW_PREDS,
                                                 [None] + VIEW_OBJECTS):
            expected = any((subj is None or q.subject == subj) and (pred is None or q.predicate == pred)
                           and (obj is None or value_key(q.object) == value_key(obj)) for q in quads)
            assert v.has(subj, pred, obj) == expected, (subj, pred, obj)

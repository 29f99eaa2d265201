"""Engine behavior: matching, firing, provenance, recovery, tracing."""
import gc
import hashlib
import json
import os
import random
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from support import (
    ARTICLE_RULES,
    BOOM_WHERE,
    EXTRA_RULES,
    FIXED_RULES,
    GOLDEN_RULES,
    LOOP_SYNCS,
    ORIGINAL_RULES,
    all_firings,
    boom_sync,
    build_engine,
    register_payload,
    respond_body,
    responds,
    registered_token,
    run_flow,
    run_golden,
    seed_article,
    seeded_uuid4,
    submit_request,
)
from tandem.cli import AppConfig, _open_log, render_trace
from tandem.concepts import BUILTINS, load_builtin_spec, make_builtin_handle
from tandem.core import NIL, Firing, Ref, qualify, to_jsonable
from tandem.engine import (
    LOG_FORMAT,
    QUIET_LINE,
    Engine,
    EngineError,
    RecoveryError,
    _match_fields,
    normalize_actions,
    normalize_flows,
)
from tandem.store import frame_key
from tandem.speclang import parse_concept
from tandem.synclang import parse_syncs


def short(record) -> str:
    return record.concept.rsplit("/", 1)[1] + "/" + record.name


# ------------------------------------------------------------ registration

def test_registration_reaches_exactly_one_respond():
    eng = build_engine()
    flow = run_flow(eng, register_payload())
    (resp,) = responds(eng, flow)
    user = respond_body(resp)["user"]
    assert user["username"] == "alice"
    assert user["email"] == "alice@example.org"
    assert user["bio"] == ""
    assert user["image"] == ""
    assert user["token"]


def test_registration_trace_labels_and_root():
    eng = build_engine()
    flow = run_flow(eng, register_payload())
    trace = eng.trace_flow(flow)
    assert trace.root is not None and short(trace.root) == "Web/request"
    assert trace.sync_labels() == {
        "Registration",
        "NewPassword",
        "DefaultProfile",
        "NewUserToken",
        "RegistrationResponse",
    }
    caused = {rid for f in trace.firings for rid in f.targets}
    for rec in trace.records:
        if rec.id != trace.root.id:
            assert rec.id in caused, f"{short(rec)} has no responsible rule"


def test_default_profile_caused_by_register_completion_only():
    eng = build_engine()
    flow = run_flow(eng, register_payload())
    register = [r for r in eng.flow_records(flow) if short(r) == "User/register"]
    sources = {cid for f in all_firings(eng) if f.sync == "DefaultProfile" for cid in f.sources}
    assert sources == {register[0].id}


def test_flow_actions_form_the_expected_multiset():
    eng = build_engine()
    flow = run_flow(eng, register_payload())
    names = sorted(short(r) for r in eng.flow_records(flow))
    assert names == [
        "JWT/generate",
        "Password/set",
        "Profile/register",
        "User/register",
        "Web/request",
        "Web/respond",
    ]
    assert all(r.is_completion for r in eng.flow_records(flow))


def test_duplicate_email_flow_gets_422_and_no_onboarding():
    eng = build_engine()
    run_flow(eng, register_payload())
    flow2 = run_flow(eng, register_payload(name="alice2"))
    (resp,) = responds(eng, flow2)
    assert resp.input["code"] == 422
    assert "email already taken" in resp.input["error"]
    names = {short(r) for r in eng.flow_records(flow2)}
    assert not names & {"Profile/register", "JWT/generate", "Password/set"}


# ------------------------------------------------------------- bookkeeping

def test_submit_external_rejects_non_bootstrap():
    eng = build_engine()
    with pytest.raises(EngineError, match="bootstrap"):
        eng.submit_external("User", "register", {"user": Ref("uuid://u"), "name": "x", "email": "y"})


@pytest.mark.parametrize("value", [1.5, None], ids=["float", "none"])
def test_submission_of_no_value_is_refused_before_it_is_logged(tmp_path, value):
    path = tmp_path / "run.log"
    eng = build_engine()
    eng.attach_log(path)
    run_flow(eng, register_payload())
    size = path.stat().st_size
    with pytest.raises(ValueError):
        eng.submit_external("Web", "request", {"method": "ping", "x": value})
    eng.close()
    assert path.stat().st_size == size
    eng2 = build_engine()
    eng2.recover_from(path, resume=False)
    assert normalize_actions(eng2.actions()) == normalize_actions(eng.actions())


def test_submitted_values_read_the_same_live_and_recovered(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine()
    eng.attach_log(path)
    flow = run_flow(eng, {"method": "ping", "tags": [], "pair": (1, 2)})
    eng.close()
    assert eng.flow_records(flow)[0].input == {"method": "ping", "tags": NIL, "pair": [1, 2]}
    eng2 = build_engine()
    eng2.recover_from(path, resume=False)
    assert eng2.flow_records(flow) == eng.flow_records(flow)


def test_two_submissions_two_flows():
    eng = build_engine()
    f1 = eng.submit_external("Web", "request", {"method": "ping"})
    f2 = eng.submit_external("Web", "request", {"method": "ping"})
    assert f1 != f2


def test_duplicate_registrations_rejected():
    eng = build_engine()
    with pytest.raises(EngineError, match="already registered"):
        eng.register_concept(load_builtin_spec("User"), make_builtin_handle("User"))
    with pytest.raises(EngineError, match="already registered"):
        eng.register_syncs(parse_syncs("sync Registration when { Web/request: [] => [] } then { Web/format: [] }"))


def test_unmatched_method_leaves_root_only():
    eng = build_engine()
    flow = run_flow(eng, {"method": "ping"})
    trace = eng.trace_flow(flow)
    assert len(trace.records) == 1
    assert trace.firings == ()
    assert trace.root.id == trace.records[0].id


def test_trace_of_unknown_flow_is_empty():
    eng = build_engine()
    trace = eng.trace_flow("no-such-flow")
    assert trace.root is None and trace.records == () and trace.firings == ()


# ------------------------------------------------------- degraded dispatch

GHOST_RULE = """\
sync SummonGhost
when { Web/request: [ method: "ghost" ] => [] }
then { Ghost/appear: [] }
"""

BAD_CALL_RULE = """\
sync BadCall
when { Web/request: [ method: "badcall" ] => [] }
then { User/register: [ name: "x" ] }
"""


def test_unknown_concept_becomes_error_completion():
    eng = build_engine(rules=())
    eng.register_syncs(parse_syncs(GHOST_RULE))
    flow = run_flow(eng, {"method": "ghost"})
    ghost = [r for r in eng.flow_records(flow) if r.name == "appear"]
    assert len(ghost) == 1
    assert "unknown concept" in ghost[0].output["error"]


def test_unmatched_overload_becomes_error_completion():
    eng = build_engine(rules=())
    eng.register_syncs(parse_syncs(BAD_CALL_RULE))
    flow = run_flow(eng, {"method": "badcall"})
    call = [r for r in eng.flow_records(flow) if r.name == "register"]
    assert len(call) == 1
    assert "no matching overload" in call[0].output["error"]


def test_raising_handle_becomes_error_completion():
    class Boomer:
        def attach(self, view, ns):
            pass

        def invoke(self, action, inputs, record_id):
            raise RuntimeError("kaput")

    eng = Engine()
    eng.register_concept(load_builtin_spec("Web"), make_builtin_handle("Web"), bootstrap=True)
    boom_spec = parse_concept(
        "concept Boom\npurpose\n    to explode\nstate\n    fuses: set ref\nactions\n"
        "    go [ ... ] => [ ... ]\n        always raises\n"
    )
    eng.register_concept(boom_spec, Boomer())
    eng.register_syncs(parse_syncs(
        'sync Fuse when { Web/request: [ method: "boom" ] => [] } then { Boom/go: [] }'
    ))
    flow = run_flow(eng, {"method": "boom"})
    go = [r for r in eng.flow_records(flow) if r.name == "go"]
    assert "kaput" in go[0].output["error"]


def test_handle_output_of_no_value_becomes_error_completion(tmp_path):
    class Floater:
        def attach(self, view, ns):
            pass

        def invoke(self, action, inputs, record_id):
            return {"x": 1.5}

    def engine():
        eng = Engine()
        eng.register_concept(load_builtin_spec("Web"), make_builtin_handle("Web"), bootstrap=True)
        eng.register_concept(parse_concept(
            "concept Float\npurpose\n    to float\nstate\n    xs: set ref\nactions\n"
            "    go [ ... ] => [ ... ]\n        always floats\n"
        ), Floater())
        eng.register_syncs(parse_syncs(
            'sync Drift when { Web/request: [ method: "float" ] => [] } then { Float/go: [] }'
        ))
        return eng

    path = tmp_path / "run.log"
    eng = engine()
    eng.attach_log(path)
    flow = run_flow(eng, {"method": "float"})
    eng.close()
    go = [r for r in eng.flow_records(flow) if r.name == "go"]
    assert go[0].output == {"error": "Float/go returned floats are not valid values: 1.5"}
    eng2 = engine()
    eng2.recover_from(path, resume=False)
    assert eng2.flow_records(flow) == eng.flow_records(flow)


def test_rule_loop_hits_step_limit():
    eng = build_engine(rules=(), step_limit=25)
    eng.register_syncs(parse_syncs(LOOP_SYNCS))
    eng.submit_external("Web", "request", {"method": "loop"})
    with pytest.raises(EngineError, match="quiescence"):
        eng.run_to_quiescence()
    assert eng.pending_matches() == []


def _halted_loop(path):
    """A logged engine with one registration whose "loop" flow has just
    halted; returns it and the looping flow."""
    eng = build_engine(step_limit=25)
    eng.register_syncs(parse_syncs(LOOP_SYNCS))
    eng.attach_log(path)
    run_flow(eng, register_payload())
    flow = eng.submit_external("Web", "request", {"method": "loop"})
    with pytest.raises(EngineError, match="quiescence"):
        eng.run_to_quiescence()
    return eng, flow


def test_halted_flow_leaves_the_queue_and_is_logged(tmp_path):
    eng, flow = _halted_loop(tmp_path / "run.log")
    assert not eng.queue
    halt = json.dumps({"halt": flow}, separators=(",", ":"))
    assert (tmp_path / "run.log").read_text().splitlines()[-1] == halt
    later = run_flow(eng, register_payload(name="bob", email="bob@example.org"))
    eng.close()
    assert len(responds(eng, later)) == 1


@pytest.mark.parametrize("pending", [False, True])
def test_halted_flow_is_not_resumed(tmp_path, pending):
    path = tmp_path / "run.log"
    eng, flow = _halted_loop(path)
    eng.close()
    if pending:
        # as if the looping flow's last invocation had never completed
        lines = path.read_text().splitlines()
        del lines[max(i for i, line in enumerate(lines) if '"output"' in line)]
        path.write_text("".join(line + "\n" for line in lines))
    size = path.stat().st_size
    loaded = build_engine()
    loaded.recover_from(path, resume=False)

    eng2 = build_engine(step_limit=25)
    eng2.register_syncs(parse_syncs(LOOP_SYNCS))
    eng2.recover_from(path)
    assert not eng2.queue
    eng2.attach_log(path)
    eng2.run_to_quiescence()
    eng2.close()
    assert path.stat().st_size == size  # the halted flow was neither matched nor dispatched
    assert normalize_actions(eng2.actions()) == normalize_actions(loaded.actions())
    assert eng2.pending_matches() == []


def _boom_engine(where: str) -> Engine:
    eng = build_engine()
    eng.register_syncs(parse_syncs(boom_sync(where)))
    assert eng.lint() == []
    return eng


@pytest.mark.parametrize("error", sorted(BOOM_WHERE))
def test_where_clause_that_raises_halts_its_flow(tmp_path, error):
    where, reason = BOOM_WHERE[error]
    path = tmp_path / "run.log"
    eng = _boom_engine(where)
    eng.attach_log(path)
    flow = eng.submit_external("Web", "request", {"method": "boom"})
    with pytest.raises(EngineError) as exc:
        eng.run_to_quiescence()
    assert str(exc.value) == f"rule Boom: {reason}"
    assert not eng.queue
    halts = [line for line in path.read_text().splitlines() if '"halt"' in line]
    assert halts == [json.dumps({"halt": flow}, separators=(",", ":"))]
    later = run_flow(eng, register_payload())
    assert len(responds(eng, later)) == 1
    assert eng.pending_matches() == []
    eng.close()
    # the log is not poisoned: a restart resumes it and runs clean
    eng2 = _boom_engine(where)
    eng2.recover_from(path)
    eng2.attach_log(path)
    eng2.run_to_quiescence()
    eng2.close()
    assert normalize_flows(eng2.actions()) == normalize_flows(eng.actions())
    assert eng2.pending_matches() == []


def test_log_left_without_a_halt_mark_halts_the_flow_once(tmp_path):
    # a build that let the where clause's error escape logged the request
    # and no mark: the first resume halts the flow, and the next runs clean
    path = tmp_path / "run.log"
    where, _ = BOOM_WHERE["QueryError"]
    eng = _boom_engine(where)
    eng.attach_log(path)
    run_flow(eng, register_payload())
    eng.submit_external("Web", "request", {"method": "boom"})
    with pytest.raises(EngineError):
        eng.run_to_quiescence()
    eng.close()
    lines = path.read_text().splitlines()
    assert lines[-1].startswith('{"halt"')
    path.write_text("".join(line + "\n" for line in lines[:-1]))
    for raises in (True, False):
        eng2 = _boom_engine(where)
        eng2.recover_from(path)
        eng2.attach_log(path)
        try:
            if raises:
                with pytest.raises(EngineError, match="^rule Boom: "):
                    eng2.run_to_quiescence()
            else:
                assert eng2.run_to_quiescence() == 0
        finally:
            eng2.close()


def test_pattern_on_an_unregistered_concept_finds_no_state():
    # the rule compiles and fires as a no-op; lint is what refuses it
    eng = build_engine(rules=())
    eng.register_syncs(parse_syncs(
        'sync Ghost when { Web/request: [ method: "ghost" ] => [ request: ?r ] } '
        "where { Nope: { ?x name: ?y } } then { Web/respond: [ request: ?r ] }"
    ))
    assert eng.lint() == ["Ghost: unknown concept 'Nope' in where"]
    flow = run_flow(eng, {"method": "ghost"})
    assert eng.trace_flow(flow).firings == (Firing("Ghost", (eng.flow_records(flow)[0].id,), ()),)
    assert responds(eng, flow) == []


# ----------------------------------------------------------------- cascade

def test_cascade_delete_takes_all_comments():
    eng = build_engine(rules=ARTICLE_RULES)
    seed_article(eng)
    for i in range(3):
        flow = run_flow(eng, {
            "method": "add_comment",
            "slug": "intro-to-sync",
            "author": "alice",
            "body": f"comment {i}",
        })
        assert len(responds(eng, flow)) == 1
    f_del = run_flow(eng, {"method": "delete_article", "slug": "intro-to-sync"})
    deletes = [r for r in eng.flow_records(f_del) if short(r) == "Comment/delete"]
    assert len(deletes) == 3
    assert all(r.is_completion and "error" not in r.output for r in deletes)
    assert len(responds(eng, f_del)) == 1


def test_cascade_on_commentless_article_records_noop():
    eng = build_engine(rules=ARTICLE_RULES)
    seed_article(eng)
    f_del = run_flow(eng, {"method": "delete_article", "slug": "intro-to-sync"})
    deletes = [r for r in eng.flow_records(f_del) if short(r) == "Comment/delete"]
    assert deletes == []
    noops = [f for f in all_firings(eng) if f.sync == "CascadeDeleteComments" and not f.targets]
    assert len(noops) == 1
    assert eng.pending_matches() == []


def test_formatting_collects_tags_into_list():
    eng = build_engine(rules=ARTICLE_RULES)
    _, f_article = seed_article(eng, tags=["beta", "alpha"])
    (resp,) = responds(eng, f_article)
    article = respond_body(resp)["article"]
    assert article["tagList"] == ["alpha", "beta"]
    assert article["slug"] == "intro-to-sync"
    assert article["author"]["username"] == "alice"
    assert article["favorited"] is False
    assert "favoritesCount" not in article


def test_formatting_defaults_missing_tags_to_empty_list():
    eng = build_engine(rules=ARTICLE_RULES)
    _, f_article = seed_article(eng)
    (resp,) = responds(eng, f_article)
    article = to_jsonable(respond_body(resp))["article"]
    assert article["tagList"] == []


# ------------------------------------------------------------- saturation

def test_quiescent_engine_has_no_pending_matches():
    eng = build_engine(rules=ARTICLE_RULES)
    seed_article(eng)
    run_flow(eng, register_payload(name="bob", email="bob@example.org"))
    assert eng.pending_matches() == []
    before = len(eng.actions())
    assert eng.step() is False
    assert len(eng.actions()) == before


def test_every_invocation_has_provenance():
    eng = build_engine()
    flow = run_flow(eng, register_payload())
    targets = {rid for f in all_firings(eng) for rid in f.targets}
    for rec in eng.flow_records(flow):
        if short(rec) == "Web/request":
            assert rec.id not in targets
        else:
            assert rec.id in targets


def test_edges_never_cross_flows():
    eng = build_engine()
    run_flow(eng, register_payload())
    run_flow(eng, register_payload(name="bob", email="bob@example.org"))
    by_id = {r.id: r for r in eng.actions()}
    for f in all_firings(eng):
        for to_id in f.targets:
            for from_id in f.sources:
                assert by_id[from_id].flow == by_id[to_id].flow


def test_interleaved_flows_stay_isolated():
    for seed in range(5):
        rng = random.Random(seed)
        eng = build_engine()
        fa = eng.submit_external("Web", "request", register_payload())
        for _ in range(rng.randrange(0, 6)):
            eng.step()
        fb = eng.submit_external(
            "Web", "request", register_payload(name="bob", email="bob@example.org")
        )
        eng.run_to_quiescence()
        body_a = respond_body(responds(eng, fa)[0])["user"]
        body_b = respond_body(responds(eng, fb)[0])["user"]
        assert body_a["username"] == "alice" and body_b["username"] == "bob"
        assert body_a["token"] != body_b["token"]


# ---------------------------------------------------------- determinism

def test_identical_submissions_produce_identical_normal_forms():
    runs = []
    for _ in range(2):
        eng = build_engine()
        run_flow(eng, register_payload())
        run_flow(eng, register_payload(name="bob", email="bob@example.org"))
        runs.append(normalize_actions(eng.actions()))
    assert runs[0] == runs[1]


# -------------------------------------------------------------- the log

def test_log_starts_with_version_header(tmp_path):
    eng = build_engine(version="v7")
    eng.attach_log(tmp_path / "run.log")
    run_flow(eng, register_payload())
    eng.close()
    lines = (tmp_path / "run.log").read_text().splitlines()
    assert json.loads(lines[0]) == {"version": "v7", "format": LOG_FORMAT}
    assert len(lines) > 1


def test_recover_empty_log_yields_empty_engine(tmp_path):
    path = tmp_path / "empty.log"
    path.write_text("")
    eng = build_engine()
    assert eng.recover_from(path) is None
    assert eng.actions() == []
    assert eng.run_to_quiescence() == 0
    eng.close()


def test_recover_finished_run_adds_nothing(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine()
    eng.attach_log(path)
    run_flow(eng, register_payload())
    eng.close()
    oracle = normalize_actions(eng.actions())
    size = path.stat().st_size

    eng2 = build_engine()
    assert eng2.recover_from(path) == "dev"
    eng2.attach_log(path)
    eng2.run_to_quiescence()
    eng2.close()
    assert normalize_actions(eng2.actions()) == oracle
    assert path.stat().st_size == size  # nothing new was appended
    assert eng2.pending_matches() == []
    # firings and guards come back from the firing lines as the writer held them
    assert all_firings(eng2) == all_firings(eng)
    assert _flow_table(eng2) == _flow_table(eng)


def test_recover_mid_flow_prefix_completes_the_flow(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine()
    eng.attach_log(path)
    run_flow(eng, register_payload())
    eng.close()
    oracle = sorted(normalize_actions(eng.actions()))
    all_lines = path.read_text().splitlines()

    cut = len(all_lines) // 2  # every line ends one append
    trunc = tmp_path / "trunc.log"
    trunc.write_text("".join(line + "\n" for line in all_lines[:cut]))
    eng2 = build_engine()
    eng2.recover_from(trunc)
    eng2.run_to_quiescence()
    eng2.close()
    assert sorted(normalize_actions(eng2.actions())) == oracle


def test_recovery_rebuilds_concept_state(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine()
    eng.attach_log(path)
    run_flow(eng, register_payload())
    eng.close()

    eng2 = build_engine()
    eng2.recover_from(path)
    eng2.run_to_quiescence()
    # duplicate email is only detectable if User state survived the reboot
    flow = run_flow(eng2, register_payload(name="alice2"))
    eng2.close()
    (resp,) = responds(eng2, flow)
    assert resp.input["code"] == 422


def test_corrupt_line_halts_with_position(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine()
    eng.attach_log(path)
    run_flow(eng, register_payload())
    eng.close()
    lines = path.read_text().splitlines()
    lines[3] = lines[3][: len(lines[3]) // 2]  # torn mid-write
    path.write_text("".join(line + "\n" for line in lines))
    eng2 = build_engine()
    with pytest.raises(RecoveryError) as err:
        eng2.recover_from(path)
    assert err.value.position == 4


def _registration_log(path):
    eng = build_engine()
    eng.attach_log(path)
    run_flow(eng, register_payload())
    eng.close()
    return path.read_text().splitlines()


def test_pre_change_edge_line_halts_at_that_line(tmp_path):
    # logs once held one {"from","sync","to"} line per provenance edge
    lines = _registration_log(tmp_path / "run.log")
    firing = json.loads(lines[2])
    edge = {"from": firing["from"][0], "sync": firing["sync"], "to": firing["then"][0]["id"]}
    lines.insert(3, json.dumps(edge, separators=(",", ":")))
    path = tmp_path / "old.log"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(RecoveryError, match="bad action record") as err:
        build_engine().recover_from(path)
    assert err.value.position == 4


# values and field names the model does not have, as fields to add to a
# record; a line that holds one anywhere is refused
_FOREIGN = (("float", {"x": 1.5}), ("null", {"x": None}), ("int-past-64-bits", {"x": 2**64}),
            ("ref-no-scheme", {"x": {"$ref": "no-scheme"}}), ("empty-name", {"": 1}),
            ("empty-name-nested", {"x": {"": 1}}))
_COMPLETION = {"id": "uuid://x", "concept": "c://X", "name": "a", "flow": "f", "input": {}, "output": {}}
_UNLOGGED = "uuid://ffffffff-ffff-4fff-bfff-ffffffffffff"  # sorts after every other id


def _first_join(lines):
    """Index of the first firing line that joins two completions."""
    return next(i for i, line in enumerate(lines) if len(json.loads(line).get("from", ())) > 1)


@pytest.mark.parametrize("field, value", [
    ("sync", 7), ("from", "uuid://a"), ("from", [1]), ("then", 3), ("then", [{"id": "uuid://x"}]),
    ("then", [_COMPLETION]),
    pytest.param("from", [], id="from-empty"),
    pytest.param("from", lambda f: f["from"][::-1], id="from-unsorted"),
    pytest.param("from", lambda f: f["from"][:1] * 2, id="from-repeated"),
    pytest.param("from", lambda f: f["from"][:1] + [_UNLOGGED], id="from-unlogged"),
    pytest.param("then", lambda f: [dict(f["then"][0], flow="another-flow")], id="then-other-flow"),
    pytest.param("then", lambda f: [dict(f["then"][0], id=f["from"][0])], id="then-logged-id"),
    pytest.param("then", lambda f: [dict(f["then"][0], input=["a"])], id="then-input-list"),
    pytest.param("then", lambda f: [dict(f["then"][0], extra=1)], id="then-extra-key"),
    *(pytest.param("then", lambda f, v=v: [dict(f["then"][0], input={**f["then"][0]["input"], **v})],
                   id=f"then-input-{name}") for name, v in _FOREIGN),
])
def test_malformed_firing_line_halts_with_position(tmp_path, field, value):
    lines = _registration_log(tmp_path / "run.log")
    i = _first_join(lines)
    firing = json.loads(lines[i])
    firing[field] = value(firing) if callable(value) else value
    lines[i] = json.dumps(firing)
    path = tmp_path / "bad.log"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(RecoveryError) as err:
        build_engine().recover_from(path)
    assert err.value.position == i + 1


def _root_line(lines):
    return 1  # the line after the header


def _set_line(lines):
    return next(i for i, line in enumerate(lines) if json.loads(line).get("name") == "set")


def _last_completion(lines):
    return max(i for i, line in enumerate(lines) if "output" in json.loads(line))


@pytest.mark.parametrize("line, edit", [
    pytest.param(_set_line, lambda d: [dict(d, flow="another-flow")], id="other-flow"),
    pytest.param(_set_line, lambda d: [d, d], id="repeated"),
    pytest.param(_set_line, lambda d: [dict(d, id=_UNLOGGED)], id="no-invocation"),
    pytest.param(_set_line, lambda d: [{k: v for k, v in d.items() if k != "output"}], id="no-output"),
    pytest.param(_set_line, lambda d: [{k: v for k, v in d.items() if k != "flow"}], id="no-flow"),
    pytest.param(_set_line, lambda d: [dict(d, note="x")], id="extra-key"),
    # the root line again, without its input: its id is completed already
    pytest.param(_root_line, lambda d: [d, {k: v for k, v in d.items() if k != "input"}], id="completed-id"),
    pytest.param(_root_line, lambda d: [d, dict(d, id=_UNLOGGED)], id="root-flow-in-use"),
    pytest.param(_root_line, lambda d: [dict(d, note="x")], id="root-extra-key"),
    # fields of a type the engine never writes
    pytest.param(_root_line, lambda d: [dict(d, output=5)], id="output-int"),
    pytest.param(_root_line, lambda d: [dict(d, input=["a"])], id="input-list"),
    pytest.param(_root_line, lambda d: [dict(d, name=7)], id="name-int"),
    pytest.param(_last_completion, lambda d: [dict(d, output="x")], id="last-output-str"),
    # only a flow's first completion holds its input; the rest repeat their invocation
    pytest.param(_set_line, lambda d: [dict(d, input={"password": "opensesame1"})],
                 id="completion-with-input"),
    pytest.param(_set_line, lambda d: [dict(d, name="validate")], id="other-name"),
    pytest.param(_set_line, lambda d: [dict(d, concept=d["concept"].rsplit("/", 1)[0] + "/User")],
                 id="other-concept"),
    *(pytest.param(_root_line, lambda d, v=v: [dict(d, input={**d["input"], **v})], id=f"root-input-{name}")
      for name, v in _FOREIGN),
    *(pytest.param(_set_line, lambda d, v=v: [dict(d, output={**d["output"], **v})], id=f"output-{name}")
      for name, v in _FOREIGN),
])
def test_malformed_record_line_halts_at_it(tmp_path, line, edit):
    # a record line starts a flow under a new id and flow, or completes one
    # logged invocation of its flow, as it was made, and every field has the
    # type the engine writes
    lines = _registration_log(tmp_path / "run.log")
    i = line(lines)
    new = [json.dumps(d) for d in edit(json.loads(lines[i]))]
    lines[i:i + 1] = new
    path = tmp_path / "bad.log"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(RecoveryError) as err:
        build_engine().recover_from(path)
    assert err.value.position == i + len(new)


@pytest.mark.parametrize("depth", [2_000, 100_000])
def test_deeply_nested_line_halts_at_it(tmp_path, depth):
    # json, or on an interpreter with a deeper C stack limit from_jsonable,
    # gives up on it with RecursionError, which is no ValueError
    lines = _registration_log(tmp_path / "run.log")
    root = dict(json.loads(lines[1]), id=_UNLOGGED, flow="another-flow", input={"x": "@"})
    lines.append(json.dumps(root).replace('"@"', "[" * depth + "]" * depth))
    path = tmp_path / "deep.log"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(RecoveryError) as err:
        build_engine().recover_from(path)
    assert err.value.position == len(lines)


def test_repeated_firing_line_halts_at_the_repeat(tmp_path):
    # a second line with a logged guard would turn its completions back into invocations
    lines = _registration_log(tmp_path / "run.log")
    i = _first_join(lines)
    lines.insert(i + 2, lines[i])
    path = tmp_path / "bad.log"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(RecoveryError) as err:
        build_engine().recover_from(path)
    assert err.value.position == i + 3


def test_untagged_header_halts_at_line_one(tmp_path):
    lines = _registration_log(tmp_path / "run.log")
    lines[0] = json.dumps({"version": "dev"})
    path = tmp_path / "old.log"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(RecoveryError, match="log format 1, this build reads format 2") as err:
        build_engine().recover_from(path)
    assert err.value.position == 1


def test_pre_format_tag_log_halts_at_line_one(tmp_path):
    # before the tag, every completion line also held its invocation's input
    lines = _registration_log(tmp_path / "run.log")
    inputs = {}
    for i, line in enumerate(lines[1:], start=1):
        doc = json.loads(line)
        inputs.update((inv["id"], inv["input"]) for inv in doc.get("then", ()))
        if doc.get("id") in inputs:
            doc = {k: doc[k] for k in ("id", "concept", "name", "flow")} | {
                "input": inputs[doc["id"]], "output": doc["output"]}
            lines[i] = json.dumps(doc, separators=(",", ":"))
    first_full = 3  # the User/register completion, after the first firing
    assert '"input"' in lines[first_full] and '"sync"' in lines[first_full - 1]
    path = tmp_path / "old.log"
    for head, position in (({"version": "dev"}, 1), ({"version": "dev", "format": 2}, first_full + 1)):
        lines[0] = json.dumps(head)
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(RecoveryError) as err:
            build_engine().recover_from(path)
        assert err.value.position == position


def test_missing_header_halts_at_line_one(tmp_path):
    path = tmp_path / "run.log"
    path.write_text('{"id":"uuid://x","concept":"c://X","name":"a","flow":"f","input":{}}\n')
    eng = build_engine()
    with pytest.raises(RecoveryError) as err:
        eng.recover_from(path)
    assert err.value.position == 1


def test_recover_reports_foreign_version(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine(version="v1")
    eng.attach_log(path)
    run_flow(eng, register_payload())
    eng.close()
    eng2 = build_engine(version="v2")
    assert eng2.recover_from(path) == "v1"
    eng2.close()


def test_step_limit_bounds_each_flow_not_the_backlog(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine()
    eng.attach_log(path)
    for i in range(20):
        run_flow(eng, register_payload(name=f"user{i}", email=f"user{i}@example.org"))
    eng.close()
    unmarked = _strip_marks(path, tmp_path / "unmarked.log")

    # recovery re-queues all 120 completions; no single flow takes 100 steps
    eng2 = build_engine(step_limit=100)
    eng2.recover_from(unmarked)
    assert len(eng2.queue) == 120
    eng2.run_to_quiescence()
    flow = run_flow(eng2, register_payload(name="late", email="late@example.org"))
    assert len(responds(eng2, flow)) == 1

    backlog = [
        eng2.submit_external("Web", "request", register_payload(name=f"b{i}", email=f"b{i}@example.org"))
        for i in range(20)
    ]
    eng2.run_to_quiescence()
    assert all(len(responds(eng2, f)) == 1 for f in backlog)
    eng2.close()


def _strip_marks(path, dest):
    """A copy of a log without its quiet marks, as written before there were any."""
    lines = [line for line in path.read_text().splitlines() if line != QUIET_LINE]
    dest.write_text("".join(line + "\n" for line in lines))
    return dest


def test_each_append_is_one_line(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine(rules=ARTICLE_RULES)
    appends = []
    append = eng._append

    def spy(line):
        appends.append(line)
        append(line)

    eng._append = spy
    eng.attach_log(path)
    _mixed_history(eng)
    eng.close()
    lines = path.read_text().splitlines()
    assert lines[1:] == appends
    kinds, flows = [], set()
    for line in appends:
        doc = json.loads(line)
        if doc.keys() == {"sync", "from", "then"}:
            assert doc["from"] == sorted(doc["from"])
            assert all("output" not in inv for inv in doc["then"])
            kinds.append("noop" if doc["then"] == [] else "firing")
        elif line == QUIET_LINE:
            kinds.append("quiet")
        else:
            assert "output" in doc
            # only a flow's first completion holds its input
            assert ("input" in doc) == (doc["flow"] not in flows)
            flows.add(doc["flow"])
            kinds.append("completion")
    assert set(kinds) == {"completion", "firing", "noop", "quiet"}
    # one firing line per guard, so the line count follows the firings
    assert kinds.count("firing") + kinds.count("noop") == len(all_firings(eng))


def test_recovery_leaves_a_torn_log_as_it_found_it(tmp_path):
    lines = _registration_log(tmp_path / "run.log")
    # the header, the root completion and the first firing, whose invocation
    # is pending, then 7 bytes of the next line
    path = tmp_path / "torn.log"
    path.write_text("".join(line + "\n" for line in lines[:3]) + lines[3][:7])
    before = path.read_bytes()
    eng = build_engine()
    with pytest.warns(RuntimeWarning, match="line 4: skipped 7 bytes"):
        eng.recover_from(path)
    assert path.read_bytes() == before
    # the pending invocation is queued, for step to dispatch before any match
    (pending,) = json.loads(lines[2])["then"]
    assert [rec.id for rec in eng.queue] == [pending["id"], json.loads(lines[1])["id"]]
    eng.run_to_quiescence()
    assert path.read_bytes() == before  # no log attached, nothing appended
    assert eng.pending_matches() == []


def test_attach_log_cuts_a_torn_line_it_was_not_recovered_from(tmp_path, monkeypatch):
    path = tmp_path / "run.log"
    eng = build_engine()
    eng.attach_log(path)
    run_flow(eng, register_payload())
    eng.close()
    data = path.read_bytes()
    assert data.endswith((QUIET_LINE + "\n").encode())
    path.write_bytes(data[:-7])  # inside the quiet mark
    # a read may return fewer bytes than asked (a single pread stops near 2 GiB)
    real_pread = os.pread
    monkeypatch.setattr(os, "pread", lambda fd, n, offset: real_pread(fd, min(n, 64), offset))
    eng2 = build_engine()
    eng2.attach_log(path)
    assert path.read_bytes() == data[: -len(QUIET_LINE) - 1]
    run_flow(eng2, register_payload(name="bob", email="bob@example.org"))
    eng2.close()
    assert path.read_bytes().startswith(data[: -len(QUIET_LINE) - 1])
    eng3 = build_engine()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eng3.recover_from(path, resume=False)
    assert normalize_flows(eng3.actions()) == normalize_flows(eng.actions() + eng2.actions())


def test_a_second_attach_closes_the_log_held_before(tmp_path):
    eng = build_engine()
    eng.attach_log(tmp_path / "a.log")
    eng.attach_log(tmp_path / "b.log")
    # an a.log handle left open would warn here, and the warning filter fails the test
    gc.collect()
    header = (tmp_path / "a.log").read_bytes()
    run_flow(eng, register_payload())
    eng.close()
    assert (tmp_path / "a.log").read_bytes() == header
    assert header.count(b"\n") == 1
    b_lines = (tmp_path / "b.log").read_text().splitlines()
    assert b_lines[0] == header.decode().rstrip("\n") and b_lines[-1] == QUIET_LINE
    assert len(b_lines) > 2


def test_recover_finished_log_queues_nothing(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine(rules=ARTICLE_RULES)
    eng.attach_log(path)
    _mixed_history(eng)
    eng.close()
    eng2 = build_engine(rules=ARTICLE_RULES)
    eng2.recover_from(path)
    assert not eng2.queue
    assert eng2.run_to_quiescence() == 0
    eng2.close()


def test_log_cut_inside_last_flow_queues_only_that_flow(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine(rules=ARTICLE_RULES)
    eng.attach_log(path)
    _mixed_history(eng)
    start = len(path.read_text().splitlines())
    last = run_flow(eng, register_payload(name="zed", email="zed@example.org"))
    eng.close()
    lines = path.read_text().splitlines()
    # up to the last flow's third completion, well before its quiet mark
    completed = [i for i in range(start, len(lines)) if '"output"' in lines[i]]
    cut = completed[2] + 1
    assert lines[cut] != QUIET_LINE
    trunc = tmp_path / "trunc.log"
    trunc.write_text("".join(line + "\n" for line in lines[:cut]))

    eng2 = build_engine(rules=ARTICLE_RULES)
    eng2.recover_from(trunc)
    assert [rec.id for rec in eng2.queue] == [r.id for r in eng2.flow_records(last) if r.is_completion]
    assert len(eng2.queue) == 3
    eng2.run_to_quiescence()
    eng2.close()
    assert normalize_flows(eng2.actions()) == normalize_flows(eng.actions())


def test_log_without_marks_recovers_the_same(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine(rules=ARTICLE_RULES)
    eng.attach_log(path)
    _mixed_history(eng)
    eng.close()
    unmarked = _strip_marks(path, tmp_path / "unmarked.log")
    assert unmarked.stat().st_size < path.stat().st_size
    recovered = []
    for log, grows in ((path, 0), (unmarked, len(QUIET_LINE) + 1)):
        size = log.stat().st_size
        eng2 = build_engine(rules=ARTICLE_RULES)
        eng2.recover_from(log)
        eng2.attach_log(log)
        eng2.run_to_quiescence()
        eng2.close()
        # re-matching the unmarked log fires nothing: it appends one mark only
        assert log.stat().st_size == size + grows
        assert eng2.pending_matches() == []
        recovered.append(normalize_flows(eng2.actions()))
    assert recovered[0] == recovered[1] == normalize_flows(eng.actions())


# ------------------------------------------------------------ the indexes

def _mixed_history(eng):
    """Registrations, an article with comments, a cascade delete, a no-op."""
    run_flow(eng, register_payload(name="bob", email="bob@example.org", password="short"))
    f_user, _ = seed_article(eng, tags=["t"])
    for i in range(2):
        run_flow(eng, {"method": "add_comment", "slug": "intro-to-sync", "author": "alice", "body": str(i)})
    run_flow(eng, {"method": "delete_article", "slug": "intro-to-sync"})
    run_flow(eng, {"method": "delete_article", "slug": "intro-to-sync"})
    run_flow(eng, {
        "method": "create_article", "title": "Quiet", "description": "d", "body": "b",
        "token": registered_token(eng, f_user),
    })
    run_flow(eng, {"method": "delete_article", "slug": "quiet"})


def _flow_table(eng):
    """Engine.flows with every mapping spelled out in order, firings included."""
    return [(flow, list(held.records.items()), list(held.firings.items()))
            for flow, held in eng.flows.items()]


def _assert_index_matches_scan(eng):
    flows = dict.fromkeys(r.flow for r in eng.actions())
    for flow in flows:
        scanned = [r for r in eng.actions() if r.flow == flow]
        assert eng.flow_records(flow) == scanned
        ids = {r.id for r in scanned}
        scanned_firings = tuple(f for f in all_firings(eng) if ids.issuperset(f.sources))
        assert eng.trace_flow(flow).firings == scanned_firings
    return flows


@pytest.mark.parametrize("resume", [True, False])
def test_recovered_index_equals_the_writers(tmp_path, resume):
    path = tmp_path / "run.log"
    eng = build_engine(rules=ARTICLE_RULES)
    eng.attach_log(path)
    _mixed_history(eng)
    eng.close()

    eng2 = build_engine(rules=ARTICLE_RULES)
    eng2.recover_from(path, resume=resume)
    eng2.run_to_quiescence()
    eng2.close()
    flows = _assert_index_matches_scan(eng)
    assert list(flows) == list(_assert_index_matches_scan(eng2))
    for flow in flows:
        assert eng2.flow_records(flow) == eng.flow_records(flow)
        assert eng2.trace_flow(flow) == eng.trace_flow(flow)
    assert _flow_table(eng2) == _flow_table(eng)


def test_store_holds_concept_state_only(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine(rules=ARTICLE_RULES)
    eng.attach_log(path)
    _mixed_history(eng)
    eng.close()
    assert len(eng.store) > 0
    graphs = {handle.ns.graph for _, handle, _ in eng.concepts.values()}
    assert {q.graph for q in eng.store.quads()} <= graphs
    # history lives in the log alone: replaying it rebuilds the same state
    eng2 = build_engine(rules=ARTICLE_RULES)
    eng2.recover_from(path, resume=False)
    assert eng2.store.quads() == eng.store.quads()


# ------------------------------------------------------------ the replay gate

def _mixed_log(path) -> Engine:
    """The writer of the mixed history's log at path, closed."""
    eng = build_engine(rules=ARTICLE_RULES)
    eng.attach_log(path)
    _mixed_history(eng)
    eng.close()
    return eng


@pytest.mark.parametrize("resume", [True, False])
def test_recovery_runs_no_handle_until_state_is_read(tmp_path, resume):
    path = tmp_path / "run.log"
    _mixed_log(path)
    eng = build_engine(rules=ARTICLE_RULES)
    with mock.patch.object(Engine, "_run_handle", autospec=True, side_effect=Engine._run_handle) as spy:
        eng.recover_from(path, resume=resume)
        assert spy.call_count == 0
        eng.store
        eng.store
        replayed = [call.args[1] for call in spy.call_args_list]
    # each once, in log order: the history's flows ran one after another
    assert replayed == [rec for rec in eng.actions() if rec.is_completion]


def _register_favorite(eng):
    eng.register_concept(load_builtin_spec("Favorite"), make_builtin_handle("Favorite"))


_GATES = {
    "store": lambda eng: eng.store,
    "run_to_quiescence": lambda eng: eng.run_to_quiescence(),
    "submit_external": lambda eng: eng.submit_external("Web", "request", {"method": "nothing"}),
    "register_concept": _register_favorite,
}


@pytest.mark.parametrize("gate", sorted(_GATES))
def test_each_gate_finds_the_writers_state(tmp_path, gate):
    path = tmp_path / "run.log"
    writer = _mixed_log(path)
    # recovery needs no rule, and the article rules read Favorite state
    eng = build_engine(rules=(), concepts=[c for c in BUILTINS if c != "Favorite"])
    eng.recover_from(path, resume=False)
    assert eng._store.quads() == []
    _GATES[gate](eng)
    # a submission's own request is the one thing that is not the writer's
    fresh = {rec.output["request"].iri for rec in eng.root_records() if rec.flow not in writer.flows}
    assert [q for q in eng._store.quads() if q.subject not in fresh] == writer.store.quads()
    assert len(fresh) == (gate == "submit_external")


def test_recovered_article_clock_runs_on(tmp_path):
    # the clock lives in the Article handle, not in the store
    def create(eng, title):
        flow = run_flow(eng, {"method": "create_article", "title": title, "description": "d",
                              "body": "b", "token": registered_token(eng, f_user)})
        (resp,) = responds(eng, flow)
        return respond_body(resp)["article"]["createdAt"]

    path = tmp_path / "run.log"
    writer = build_engine(rules=ARTICLE_RULES)
    writer.attach_log(path)
    f_user, _ = seed_article(writer)
    create(writer, "Second")
    writer.close()
    eng = build_engine(rules=ARTICLE_RULES)
    eng.recover_from(path)
    assert create(eng, "Third") == create(writer, "Third") == 3


def test_open_log_leaves_nothing_to_replay(tmp_path):
    path = tmp_path / "run.log"
    writer = _mixed_log(path)
    eng = build_engine(rules=ARTICLE_RULES)
    _open_log(eng, AppConfig(log=path))
    eng.close()
    assert eng._unreplayed == []
    assert eng._store.quads() == writer.store.quads()


def test_failed_load_holds_the_state_of_the_lines_before_the_bad_one(tmp_path):
    path = tmp_path / "run.log"
    writer = build_engine(rules=ARTICLE_RULES)
    writer.attach_log(path)
    seed_article(writer, tags=["t"])
    before = writer.store.quads()
    lines = path.read_text().splitlines()
    run_flow(writer, {"method": "add_comment", "slug": "intro-to-sync", "author": "alice", "body": "0"})
    run_flow(writer, {"method": "delete_article", "slug": "intro-to-sync"})
    writer.close()
    rest = path.read_text().splitlines()[len(lines):]
    bad = tmp_path / "bad.log"
    bad.write_text("".join(line + "\n" for line in lines + ["{oops"] + rest))
    eng = build_engine(rules=ARTICLE_RULES)
    with pytest.raises(RecoveryError) as err:
        eng.recover_from(bad)
    assert err.value.position == len(lines) + 1
    assert eng.store.quads() == before != writer.store.quads()


def test_resume_completes_pending_invocations_in_place(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine()
    eng.attach_log(path)
    flow = run_flow(eng, register_payload())
    eng.close()
    # keep the header, the root completion and the first firing, whose
    # invocation is pending
    lines = path.read_text().splitlines()[:3]
    trunc = tmp_path / "trunc.log"
    trunc.write_text("".join(line + "\n" for line in lines))

    cut = build_engine()
    cut.recover_from(trunc, resume=False)
    before = [r.id for r in cut.flow_records(flow)]
    assert not all(r.is_completion for r in cut.flow_records(flow))
    eng2 = build_engine()
    eng2.recover_from(trunc)
    eng2.run_to_quiescence()
    eng2.close()
    assert [r.id for r in eng2.flow_records(flow)][: len(before)] == before
    assert all(r.is_completion for r in eng2.flow_records(flow))
    _assert_index_matches_scan(eng2)
    assert normalize_actions(eng2.actions()) == normalize_actions(eng.actions())


def test_rule_registered_late_fires_on_new_completions():
    eng = build_engine()
    before = run_flow(eng, {"method": "ping"})
    run_flow(eng, register_payload())
    eng.register_syncs(parse_syncs(
        'sync Pong when { Web/request: [ method: "ping" ] => [ request: ?r ] } '
        'then { Web/respond: [ request: ?r ; code: 204 ] }\n'
        'sync Audit when { Web/respond: [ code: 204 ] => [] } then { Web/format: [ type: "audit" ] }'
    ))
    after = run_flow(eng, {"method": "ping"})
    assert [short(r) for r in eng.flow_records(before)] == ["Web/request"]
    assert [short(r) for r in eng.flow_records(after)] == ["Web/request", "Web/respond", "Web/format"]
    assert eng.trace_flow(after).sync_labels() == {"Pong", "Audit"}


def test_rule_added_between_runs_fires_only_on_new_flows(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine()
    eng.attach_log(path)
    before = run_flow(eng, {"method": "ping"})
    run_flow(eng, register_payload())
    eng.close()

    eng2 = build_engine()
    eng2.register_syncs(parse_syncs(
        'sync Pong when { Web/request: [ method: "ping" ] => [ request: ?r ] } '
        'then { Web/respond: [ request: ?r ; code: 204 ] }'
    ))
    eng2.recover_from(path)
    eng2.run_to_quiescence()
    after = run_flow(eng2, {"method": "ping"})
    eng2.close()
    # as in a live engine, the restarted one answers only new pings
    assert [short(r) for r in eng2.flow_records(before)] == ["Web/request"]
    assert [short(r) for r in eng2.flow_records(after)] == ["Web/request", "Web/respond"]


# ------------------------------------------- matching: alpha test, garbage

def _rule_visits(eng, payload):
    """Run one flow; (trigger, rule) for every rule its steps joined, in order."""
    visits = []
    match = eng._match_when

    def spy(rule, trigger):
        visits.append((short(trigger), rule.sync.name))
        return match(rule, trigger)

    eng._match_when = spy
    try:
        run_flow(eng, payload)
    finally:
        del eng._match_when
    return visits


def _visited_by(visits, trigger):
    return [rule for on, rule in visits if on == trigger]


def test_registration_request_visits_only_rules_it_can_fire():
    # of the 15 demo rules on Web/request, only those with method "register"
    # or with no literal at all can count a registration as their trigger
    eng = build_engine(rules=ARTICLE_RULES)
    visits = _rule_visits(eng, register_payload())
    assert _visited_by(visits, "Web/request") == [
        "Registration", "NewPassword", "RegistrationResponse", "RegistrationError", "PasswordSetError",
    ]


def test_successful_register_does_not_visit_its_error_rule():
    eng = build_engine()
    ok = _visited_by(_rule_visits(eng, register_payload()), "User/register")
    assert "RegistrationError" not in ok
    assert ok == ["NewPassword", "DefaultProfile", "NewUserToken", "RegistrationResponse"]
    # the same email again fails, and only the error rule can use that
    refused = _visited_by(_rule_visits(eng, register_payload(name="alice2")), "User/register")
    assert refused == ["RegistrationError"]


def test_validation_verdict_visits_only_its_own_branch():
    eng = build_engine(rules=FIXED_RULES)
    valid = _visited_by(_rule_visits(eng, register_payload()), "Password/validate")
    assert valid == ["Registration"]
    invalid = _visited_by(
        _rule_visits(eng, register_payload(name="bob", email="bob@example.org", password="short")),
        "Password/validate",
    )
    assert invalid == ["ValidationFailedResponse"]


def test_flows_leave_no_cyclic_garbage():
    eng = build_engine(rules=ARTICLE_RULES)
    f_user, _ = seed_article(eng)  # every code path below runs once before counting
    token = registered_token(eng, f_user)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i in range(3):
            run_flow(eng, register_payload(name=f"u{i}", email=f"u{i}@example.org"))
            run_flow(eng, register_payload(name=f"s{i}", email=f"s{i}@example.org", password="short"))
            run_flow(eng, {"method": "create_article", "title": f"Post {i}", "description": "d",
                           "body": "b", "tagList": ["x", "y"], "token": token})
            run_flow(eng, {"method": "add_comment", "slug": f"post-{i}", "author": "alice", "body": "hm"})
            run_flow(eng, {"method": "delete_article", "slug": f"post-{i}"})
            run_flow(eng, {"method": "create_article", "title": "Forged", "description": "d",
                           "body": "b", "token": "forged"})
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------- differential: firing order

def _reference_when(eng, sync, trigger):
    """The matcher before indexing: scans every record, qualifies per visit."""
    flow_recs = [r for r in eng.actions() if r.flow == trigger.flow and r.is_completion]
    pats = sync.when
    results = []
    seen = set()

    def extend(i, frame, used, hit):
        if i == len(pats):
            if not hit:
                return
            key = (sync.name, tuple(sorted(used)))
            if key in eng.flows[trigger.flow].firings:
                return
            mark = (key, frame_key(frame))
            if mark in seen:
                return
            seen.add(mark)
            results.append((frame, key))
            return
        pat = pats[i]
        iri = qualify(eng.prefix, pat.concept)
        for rec in flow_recs:
            if rec.id in used:
                continue
            if rec.concept != iri or rec.name != pat.action:
                continue
            nxt = _match_fields(pat.inputs, rec.input, frame)
            if nxt is None:
                continue
            nxt = _match_fields(pat.outputs, rec.output, nxt)
            if nxt is None:
                continue
            extend(i + 1, nxt, used + (rec.id,), hit or rec.id == trigger.id)

    extend(0, {}, (), False)
    return results


def _reference_pending(eng):
    return [
        (sync.name, key)
        for rec in eng.actions() if rec.is_completion
        for sync in eng.syncs
        for _frame, key in _reference_when(eng, sync, rec)
    ]


class ReferenceEngine(Engine):
    """Tries every rule on every completion, in registration order."""

    def step(self):
        if not self.queue:
            return False
        trigger = self.queue.popleft()
        for sync in self.syncs:
            for frame, key in _reference_when(self, sync, trigger):
                for inv in self._fire(self._compile(sync), frame, key, trigger.flow):
                    self._dispatch(inv)
        return True


def _drive(eng, ops):
    users = {}
    for kind, n, steps in ops:
        submit_request(eng, users, kind, n)
        for _ in range(steps):
            eng.step()
    eng.run_to_quiescence()


_ops = st.lists(
    st.tuples(
        st.sampled_from(["register", "short", "article", "comment", "delete"]),
        st.integers(0, 2),
        st.integers(0, 6),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=40, deadline=None)
@given(ops=_ops, fixed=st.booleans())
def test_indexed_matching_fires_like_the_reference(ops, fixed):
    rules = (FIXED_RULES if fixed else ORIGINAL_RULES) + EXTRA_RULES
    with tempfile.TemporaryDirectory() as tmp:
        logs = []
        for cls in (Engine, ReferenceEngine):
            # both engines mint the same ids, so equal firing order means equal logs
            path = Path(tmp) / f"{cls.__name__}.log"
            with mock.patch("uuid.uuid4", seeded_uuid4(0)):
                eng = build_engine(rules=rules, engine_cls=cls)
                eng.attach_log(path)
                _drive(eng, ops)
            eng.close()
            logs.append((eng, path.read_text().splitlines()))
        (indexed, indexed_log), (reference, reference_log) = logs
        assert indexed_log == reference_log
        assert normalize_actions(indexed.actions()) == normalize_actions(reference.actions())
        assert indexed.pending_matches() == []
        assert _reference_pending(indexed) == []


# ------------------------------------------------------------- golden run

_GOLDEN = Path(__file__).with_name("golden.json")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _state_digests(eng) -> dict:
    traces = "".join(render_trace(eng.trace_flow(flow)) for flow in eng.flows)
    return {"trace": _digest(traces.encode()), "quads": _digest(repr(eng.store.quads()).encode())}


def test_golden_run_keeps_its_bytes(tmp_path):
    # the digests of a fixed run: the log, then every flow's trace and the
    # store, live and recovered both ways; any change to the bytes shows here
    path = tmp_path / "run.log"
    with mock.patch("uuid.uuid4", seeded_uuid4(0)):
        eng = build_engine(rules=GOLDEN_RULES)
        eng.attach_log(path)
        run_golden(eng)
    eng.close()
    digests = {"log": _digest(path.read_bytes()), "live": _state_digests(eng)}
    for resume, name in ((True, "resume"), (False, "load")):
        eng2 = build_engine(rules=GOLDEN_RULES)
        eng2.recover_from(path, resume=resume)
        assert eng2.run_to_quiescence() == 0
        digests[name] = _state_digests(eng2)
    new = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    assert digests == json.loads(_GOLDEN.read_text()), (
        f"the golden run's bytes changed; if that is meant, {_GOLDEN.name} becomes:\n{new}"
    )


# ------------------------------------------------- crash points across flows

_KINDS = st.sampled_from(["register", "short", "article", "comment", "delete"])


@settings(max_examples=10, deadline=None)
@given(flows=st.lists(st.tuples(_KINDS, st.integers(0, 1)), min_size=1, max_size=5))
def test_every_batch_boundary_recovers_the_flows_begun(flows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.log"
        eng = build_engine(rules=ARTICLE_RULES)
        eng.attach_log(path)
        users = {}
        for kind, n in flows:
            submit_request(eng, users, kind, n)
            eng.run_to_quiescence()
        eng.close()
        lines = path.read_text().splitlines()
        root_line = {}  # flow -> line number of its root, the flow's first line
        for pos, rec in enumerate(lines, start=1):
            flow = json.loads(rec).get("flow")
            if flow is not None:
                root_line.setdefault(flow, pos)

        for cut in range(1, len(lines) + 1):  # every line ends one append
            begun = {flow for flow, pos in root_line.items() if pos <= cut}
            oracle = normalize_flows(r for r in eng.actions() if r.flow in begun)
            trunc = Path(tmp) / "trunc.log"
            trunc.write_text("".join(line + "\n" for line in lines[:cut]))
            for log in (trunc, _strip_marks(trunc, Path(tmp) / "unmarked.log")):
                eng2 = build_engine(rules=ARTICLE_RULES)
                eng2.recover_from(log)
                eng2.run_to_quiescence()
                eng2.close()
                assert normalize_flows(eng2.actions()) == oracle, (cut, log.name)

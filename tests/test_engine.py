"""Engine behavior: matching, firing, provenance, recovery, tracing."""
import gc
import json
import random
import tempfile
import uuid
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from support import (
    ARTICLE_RULES,
    FIXED_RULES,
    LOOP_SYNCS,
    ORIGINAL_RULES,
    build_engine,
    register_payload,
    respond_body,
    responds,
    registered_token,
    run_flow,
    seed_article,
)
from tandem.concepts import load_builtin_spec, make_builtin_handle, slugify
from tandem.core import Ref, qualify, to_jsonable
from tandem.engine import (
    QUIET_LINE,
    Engine,
    EngineError,
    RecoveryError,
    _match_fields,
    normalize_actions,
    normalize_flows,
)
from tandem.store import dump, frame_key
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
    for node in trace.nodes:
        if node.record.id != trace.root.id:
            assert node.syncs, f"{short(node.record)} has no responsible rule"


def test_default_profile_caused_by_register_completion_only():
    eng = build_engine()
    flow = run_flow(eng, register_payload())
    register = [r for r in eng.flow_records(flow) if short(r) == "User/register"]
    sources = {cid for f in eng.fired.values() if f.sync == "DefaultProfile" for cid in f.sources}
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
    assert len(trace.nodes) == 1
    assert trace.firings == ()
    assert trace.root.id == trace.nodes[0].record.id


def test_trace_of_unknown_flow_is_empty():
    eng = build_engine()
    trace = eng.trace_flow("no-such-flow")
    assert trace.root is None and trace.nodes == () and trace.firings == ()


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


def test_rule_loop_hits_step_limit():
    eng = build_engine(rules=(), step_limit=25)
    eng.register_syncs(parse_syncs(LOOP_SYNCS))
    eng.submit_external("Web", "request", {"method": "loop"})
    with pytest.raises(EngineError, match="quiescence"):
        eng.run_to_quiescence()


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
    eng2.run_to_quiescence()
    eng2.close()
    assert path.stat().st_size == size  # the halted flow was neither matched nor dispatched
    assert normalize_actions(eng2.actions()) == normalize_actions(loaded.actions())


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
    noops = [f for f in eng.fired.values() if f.sync == "CascadeDeleteComments" and not f.targets]
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
    targets = {rid for f in eng.fired.values() for rid in f.targets}
    for rec in eng.flow_records(flow):
        if short(rec) == "Web/request":
            assert rec.id not in targets
        else:
            assert rec.id in targets


def test_edges_never_cross_flows():
    eng = build_engine()
    run_flow(eng, register_payload())
    run_flow(eng, register_payload(name="bob", email="bob@example.org"))
    for f in eng.fired.values():
        for to_id in f.targets:
            for from_id in f.sources:
                assert eng.records[from_id].flow == eng.records[to_id].flow


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
    assert json.loads(lines[0]) == {"version": "v7"}
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
    eng2.run_to_quiescence()
    eng2.close()
    assert normalize_actions(eng2.actions()) == oracle
    assert path.stat().st_size == size  # nothing new was appended
    assert eng2.pending_matches() == []
    # firings and guards come back from the firing lines as the writer held them
    assert list(eng2.fired.values()) == list(eng.fired.values())
    assert eng2.fired == eng.fired


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


@pytest.mark.parametrize("edit", [
    lambda d: [dict(d, flow="another-flow")],
    lambda d: [d, d],
    lambda d: [dict(d, id=_UNLOGGED)],
    lambda d: [{k: v for k, v in d.items() if k != "output"}],
], ids=["other-flow", "repeated", "no-invocation", "no-output"])
def test_malformed_record_line_halts_at_it(tmp_path, edit):
    # a record line starts a flow or completes one logged invocation of its flow
    lines = _registration_log(tmp_path / "run.log")
    i = next(i for i, line in enumerate(lines) if json.loads(line).get("name") == "set")
    new = [json.dumps(d) for d in edit(json.loads(lines[i]))]
    lines[i:i + 1] = new
    path = tmp_path / "bad.log"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(RecoveryError) as err:
        build_engine().recover_from(path)
    assert err.value.position == i + len(new)


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
    kinds = []
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
            kinds.append("completion")
    assert set(kinds) == {"completion", "firing", "noop", "quiet"}
    # one firing line per guard, so the line count follows the firings
    assert kinds.count("firing") + kinds.count("noop") == len(eng.fired)


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
    assert list(eng2.queue) == [r.id for r in eng2.flow_records(last) if r.is_completion]
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


def _assert_index_matches_scan(eng):
    flows = dict.fromkeys(r.flow for r in eng.actions())
    for flow in flows:
        scanned = [r for r in eng.actions() if r.flow == flow]
        assert eng.flow_records(flow) == scanned
        ids = {r.id for r in scanned}
        scanned_firings = tuple(f for f in eng.fired.values() if ids.issuperset(f.sources))
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


def test_store_holds_concept_state_only(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine(rules=ARTICLE_RULES)
    eng.attach_log(path)
    _mixed_history(eng)
    eng.close()
    assert len(eng.store) > 0
    assert set(eng.store.graphs()) <= {ns.graph for ns in eng.namespaces.values()}
    # history lives in the log alone: replaying it rebuilds the same state
    eng2 = build_engine(rules=ARTICLE_RULES)
    eng2.recover_from(path, resume=False)
    assert dump(eng2.store) == dump(eng.store)


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
    flow_recs = [r for r in eng.records.values() if r.flow == trigger.flow and r.is_completion]
    pats = sync.when
    results = []
    seen = set()

    def extend(i, frame, used, hit):
        if i == len(pats):
            if not hit:
                return
            key = (sync.name, tuple(sorted(used)))
            if key in eng.fired:
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
        for rec in eng.records.values() if rec.is_completion
        for sync in eng.syncs
        for _frame, key in _reference_when(eng, sync, rec)
    ]


class ReferenceEngine(Engine):
    """Tries every rule on every completion, in registration order."""

    def step(self):
        with self._lock:
            if not self.queue:
                return False
            trigger = self.records[self.queue.popleft()]
            for sync in self.syncs:
                for frame, key in _reference_when(self, sync, trigger):
                    for inv in self._fire(self._compile(sync), frame, key, trigger.flow):
                        self._dispatch(inv)
            return True


def _seeded_uuid4(seed):
    """A uuid4 stand-in that mints the same ids, in the same order, per seed."""
    rng = random.Random(seed)
    return lambda: uuid.UUID(int=rng.getrandbits(128), version=4)


def _submit(eng, users, kind, n):
    """Submit one request of a kind; users maps user number -> registration flow."""
    if kind in ("register", "short"):
        flow = eng.submit_external("Web", "request", register_payload(
            name=f"user{n}", email=f"user{n}@example.org",
            password="short" if kind == "short" else "longenough1",
        ))
        users.setdefault(n, flow)  # a repeated registration is refused
    elif kind == "article":
        answered = responds(eng, users[n]) if n in users else []
        user = respond_body(answered[0]).get("user", {}) if answered else {}
        eng.submit_external("Web", "request", {
            "method": "create_article", "title": f"Post {n}", "description": "d",
            "body": "b", "token": user.get("token", "garbage"),
        })
    elif kind == "comment":
        eng.submit_external("Web", "request", {
            "method": "add_comment", "slug": slugify(f"Post {n}"), "author": f"user{n}", "body": "hm",
        })
    else:
        eng.submit_external("Web", "request", {"method": "delete_article", "slug": slugify(f"Post {n}")})


def _drive(eng, ops):
    users = {}
    for kind, n, steps in ops:
        _submit(eng, users, kind, n)
        for _ in range(steps):
            eng.step()
    eng.run_to_quiescence()


_EXTRA_RULES = ("articles", "formatting", "moderation")

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
    rules = (FIXED_RULES if fixed else ORIGINAL_RULES) + _EXTRA_RULES
    with tempfile.TemporaryDirectory() as tmp:
        logs = []
        for cls in (Engine, ReferenceEngine):
            # both engines mint the same ids, so equal firing order means equal logs
            path = Path(tmp) / f"{cls.__name__}.log"
            with mock.patch("uuid.uuid4", _seeded_uuid4(0)):
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
            _submit(eng, users, kind, n)
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

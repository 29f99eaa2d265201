"""End-to-end gates for the runtime, one numbered test family per criterion.

Each family exercises a shipped behavior through the public surface:
external submissions, the action log, recovery, and the rule language.
The conftest hook prints a per-criterion verdict table after the run.
"""
import random
import time
import warnings

import pytest

from support import (
    ARTICLE_RULES,
    FIXED_RULES,
    ORIGINAL_RULES,
    build_engine,
    register_payload,
    respond_body,
    responds,
    run_flow,
    seed_article,
)
from test_concepts import attach
from test_speclang import PROFILE_SRC, USER_SRC
from test_synclang import ALL_SOURCES

from tandem.concepts import BROKEN_VARIANTS, BUILTINS, slugify
from tandem.core import to_jsonable
from tandem.engine import normalize_actions
from tandem.gateway import reply_parts
from tandem.speclang import check_principle, parse_concept, principle_passes, print_concept
from tandem.synclang import parse_syncs, print_syncs

USER_FIELDS = {"username", "email", "bio", "image", "token"}
ONBOARDING_LABELS = {
    "Registration",
    "NewPassword",
    "DefaultProfile",
    "NewUserToken",
    "RegistrationResponse",
}


def short(record) -> str:
    return record.concept.rsplit("/", 1)[1] + "/" + record.name


# ------------------------------------------- 1. registration happy path

def test_c01_registration_happy_path():
    eng = build_engine()
    started = time.perf_counter()
    flow = run_flow(eng, register_payload())
    elapsed = time.perf_counter() - started

    (resp,) = responds(eng, flow)
    code, doc = reply_parts(resp)
    assert code == 200
    user = doc["user"]
    assert set(user) == USER_FIELDS
    assert user["username"] == "alice"
    assert user["email"] == "alice@example.org"
    assert user["bio"] == ""
    assert user["image"] == ""
    assert user["token"]

    assert eng.trace_flow(flow).sync_labels() == ONBOARDING_LABELS
    assert elapsed < 1.0, f"flow took {elapsed:.3f}s"


# --------------------------------------------------- 2. duplicate email

def test_c02_duplicate_email_is_refused():
    eng = build_engine()
    run_flow(eng, register_payload())
    flow = run_flow(eng, register_payload(name="alice2"))

    (resp,) = responds(eng, flow)
    code, doc = reply_parts(resp)
    assert code == 422
    assert "taken" in doc["error"]

    # the failed flow must not touch the downstream onboarding concepts
    touched = {short(r).split("/")[0] for r in eng.flow_records(flow)}
    assert "Profile" not in touched
    assert "JWT" not in touched


# ------------------------------------------------ 3. the password bug

def test_c03_bug_reproduces_under_original_rules():
    eng = build_engine(rules=ORIGINAL_RULES)

    bad = run_flow(eng, register_payload(password="short"))
    (resp,) = responds(eng, bad)
    assert reply_parts(resp)[0] == 422
    # the complaint comes from Password/set, after the user already exists
    registered = [r for r in eng.flow_records(bad) if short(r) == "User/register"]
    assert registered and "error" not in registered[0].output

    retry = run_flow(eng, register_payload(password="muchlonger1"))
    (resp2,) = responds(eng, retry)
    code, doc = reply_parts(resp2)
    assert code == 422
    assert "taken" in doc["error"]


def test_c03_fix_validates_before_registering():
    eng = build_engine(rules=FIXED_RULES)

    bad = run_flow(eng, register_payload(password="short"))
    (resp,) = responds(eng, bad)
    code, doc = reply_parts(resp)
    assert code == 422
    assert "error" in doc
    assert all(short(r) != "User/register" for r in eng.flow_records(bad))

    retry = run_flow(eng, register_payload(password="muchlonger1"))
    (resp2,) = responds(eng, retry)
    code2, doc2 = reply_parts(resp2)
    assert code2 == 200

    # the onboarding chain is untouched by the fix: same respond shape
    reference = build_engine(rules=ORIGINAL_RULES)
    ok = run_flow(reference, register_payload())
    (ref_resp,) = responds(reference, ok)
    ref_doc = reply_parts(ref_resp)[1]
    assert set(doc2) == set(ref_doc)
    assert set(doc2["user"]) == set(ref_doc["user"])
    assert eng.trace_flow(retry).sync_labels() >= ONBOARDING_LABELS


# ------------------------------------------------- 4. cascade deletion

def _delete_article(eng, title):
    return run_flow(eng, {"method": "delete_article", "slug": slugify(title)})


def test_c04_cascade_removes_every_comment():
    eng = build_engine(rules=ARTICLE_RULES)
    seed_article(eng, title="Busy Thread")
    for i in range(3):
        run_flow(eng, {
            "method": "add_comment",
            "slug": "busy-thread",
            "author": "alice",
            "body": f"reply {i}",
        })

    flow = _delete_article(eng, "Busy Thread")
    deletes = [
        r for r in eng.flow_records(flow)
        if short(r) == "Comment/delete" and r.is_completion
    ]
    assert len(deletes) == 3
    assert all("error" not in r.output for r in deletes)
    (resp,) = responds(eng, flow)
    assert reply_parts(resp)[0] == 200


def test_c04_commentless_delete_records_a_noop():
    eng = build_engine(rules=ARTICLE_RULES)
    seed_article(eng, title="Quiet Post")

    flow = _delete_article(eng, "Quiet Post")
    assert not [r for r in eng.flow_records(flow) if short(r) == "Comment/delete"]

    # the empty cascade still leaves a provenance mark, so it never refires
    trace = eng.trace_flow(flow)
    noops = [f for f in trace.firings if not f.targets]
    assert any(f.sync == "CascadeDeleteComments" for f in noops)
    assert eng.pending_matches() == []


# --------------------------------------------- 5. exactly-once firing

def _random_stream(eng, rng):
    """Feed a randomized request mix, stepping partway between submissions."""
    users = 0
    titles = []
    for _ in range(rng.randint(3, 8)):
        kind = rng.choice(["register", "register", "ping", "article", "delete", "comment"])
        if kind == "register":
            users += 1
            dup = users > 1 and rng.random() < 0.3
            n = 1 if dup else users
            eng.submit_external("Web", "request", register_payload(
                name=f"user{n}",
                email=f"user{n}@example.org",
                password=rng.choice(["short", "longenough1"]),
            ))
        elif kind == "ping":
            eng.submit_external("Web", "request", {"method": "ping"})
        elif kind == "article":
            title = f"Post {len(titles)}"
            titles.append(title)
            eng.submit_external("Web", "request", {
                "method": "create_article",
                "title": title,
                "description": "d",
                "body": "b",
                "token": _any_token(eng) or "garbage",
            })
        elif kind == "delete":
            title = rng.choice(titles) if titles and rng.random() < 0.7 else "No Such"
            eng.submit_external("Web", "request",
                                {"method": "delete_article", "slug": slugify(title)})
        else:
            eng.submit_external("Web", "request", {
                "method": "add_comment",
                "slug": slugify(rng.choice(titles)) if titles else "no-such",
                "author": f"user{rng.randint(1, max(users, 1))}",
                "body": "hm",
            })
        for _ in range(rng.randint(0, 6)):
            eng.step()
    eng.run_to_quiescence()


def _any_token(eng):
    for r in eng.actions():
        if short(r) == "Web/respond" and r.is_completion:
            user = r.input.get("body", {}).get("user")
            if isinstance(user, dict) and "token" in user:
                return user["token"]
    return None


def test_c05_no_ruleset_fires_twice():
    extras = ["onboarding", "errors", "articles", "formatting", "moderation"]
    for seed in range(100):
        rng = random.Random(seed)
        rules = [rng.choice(["registration", "bugfix"])]
        rules += [s for s in extras if rng.random() < 0.7]
        rng.shuffle(rules)

        eng = build_engine(rules=tuple(rules))
        _random_stream(eng, rng)

        assert eng.pending_matches() == [], f"seed {seed} left live matches"
        before = len(eng.actions())
        assert eng.step() is False, f"seed {seed} had queued work at rest"
        assert len(eng.actions()) == before, f"seed {seed} grew after quiescence"


# ------------------------------------------------- 6. crash recovery

def test_c06_every_crash_point_recovers_to_the_oracle(tmp_path):
    path = tmp_path / "run.log"
    eng = build_engine()
    eng.attach_log(path)
    run_flow(eng, register_payload())
    eng.close()
    oracle = sorted(normalize_actions(eng.actions()))
    data = path.read_bytes()
    ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]

    # every append is one line, so a cut at a line end falls between appends
    # and a cut inside a line is a write the crash tore
    assert len(ends) >= 10
    cuts = [(end, None) for end in ends[1:]]
    for n, (start, end) in enumerate(zip([0] + ends, ends), start=1):
        torn = (end - start) // 2
        cuts.append((start + torn, f"line {n}: skipped {torn} bytes after the last newline"))
    for cut, warning in cuts:
        trunc = tmp_path / f"cut-{cut}.log"
        trunc.write_bytes(data[:cut])
        eng2 = build_engine()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            eng2.recover_from(trunc)
        assert [str(w.message) for w in caught] == ([warning] if warning else [])
        eng2.run_to_quiescence()
        eng2.close()
        got = sorted(normalize_actions(eng2.actions()))
        # a torn root line leaves nothing durable: no flow, not a part of one
        assert got == oracle or (cut < ends[1] and got == []), f"diverged when cut at byte {cut}"
        # resume cut the torn bytes off, so the log now reads back whole
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eng3 = build_engine()
            eng3.recover_from(trunc, resume=False)
        assert sorted(normalize_actions(eng3.actions())) == got

    # before the request is durable there is nothing to recover
    header_only = tmp_path / "header.log"
    header_only.write_bytes(data[: ends[0]])
    eng3 = build_engine()
    eng3.recover_from(header_only)
    assert eng3.actions() == []
    eng3.close()


# -------------------------------------------------- 7. flow isolation

def test_c07_interleaved_flows_never_mix():
    for seed in range(50):
        rng = random.Random(seed)
        eng = build_engine()
        fa = eng.submit_external("Web", "request",
                                 register_payload(name="alice", email="a@x.org"))
        for _ in range(rng.randint(0, 8)):
            eng.step()
        fb = eng.submit_external("Web", "request",
                                 register_payload(name="bob", email="b@x.org"))
        for _ in range(rng.randint(0, 8)):
            eng.step()
        eng.run_to_quiescence()

        by_id = {r.id: r for r in eng.actions()}
        for firing in eng.fired.values():
            for target_id in firing.targets:
                for source_id in firing.sources:
                    assert by_id[source_id].flow == by_id[target_id].flow, f"seed {seed}"

        ua = respond_body(responds(eng, fa)[0])["user"]
        ub = respond_body(responds(eng, fb)[0])["user"]
        assert (ua["username"], ua["email"]) == ("alice", "a@x.org")
        assert (ub["username"], ub["email"]) == ("bob", "b@x.org")
        assert ua["token"] != ub["token"]


# -------------------------------------------- 8. language round-trips

@pytest.mark.parametrize("idx", range(len(ALL_SOURCES)))
def test_c08_rule_listings_round_trip(idx):
    defs = parse_syncs(ALL_SOURCES[idx])
    assert parse_syncs(print_syncs(defs)) == defs


def test_c08_listing_corpus_is_complete():
    assert sum(len(parse_syncs(src)) for src in ALL_SOURCES) >= 14


@pytest.mark.parametrize("src", [USER_SRC, PROFILE_SRC], ids=["user", "profile"])
def test_c08_concept_specs_round_trip(src):
    spec = parse_concept(src)
    assert parse_concept(print_concept(spec)) == spec


# ------------------------------------------- 9. operational principles

def test_c09_every_builtin_honors_its_principle():
    assert len(BUILTINS) == 9
    for name in sorted(BUILTINS):
        spec, handle = attach(name)
        results = check_principle(spec, handle)
        assert principle_passes(results), (name, [(r.status, r.detail) for r in results])


def test_c09_sabotaged_variants_are_caught():
    assert len(BROKEN_VARIANTS) == 3
    for name in sorted(BROKEN_VARIANTS):
        spec, handle = attach(name, handle=BROKEN_VARIANTS[name]())
        assert not principle_passes(check_principle(spec, handle)), name


# ---------------------------------------------- 10. formatted output

def test_c10_two_tags_arrive_as_a_two_element_list():
    eng = build_engine(rules=ARTICLE_RULES)
    _, flow = seed_article(eng, tags=["beta", "alpha"])

    (resp,) = responds(eng, flow)
    article = to_jsonable(respond_body(resp))["article"]
    assert article["tagList"] == ["alpha", "beta"]
    assert len(article["tagList"]) == 2


def test_c10_tagless_article_defaults_to_an_empty_list():
    eng = build_engine(rules=ARTICLE_RULES)
    _, flow = seed_article(eng)

    (resp,) = responds(eng, flow)
    article = to_jsonable(respond_body(resp))["article"]
    assert article["tagList"] == []

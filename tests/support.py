"""Helpers for assembling the demo application inside tests."""
import random
import uuid

from tandem.concepts import BUILTINS, builtin_def_path, load_builtin_spec, make_builtin_handle, slugify
from tandem.engine import Engine
from tandem.synclang import parse_syncs

DEFS = builtin_def_path("Web").parent

ORIGINAL_RULES = ("registration", "onboarding", "errors")
FIXED_RULES = ("bugfix", "onboarding", "errors")
EXTRA_RULES = ("articles", "formatting", "moderation")
ARTICLE_RULES = ORIGINAL_RULES + EXTRA_RULES

# a "loop" request starts a Web/format chain that never ends
LOOP_SYNCS = (
    'sync Echo when { Web/format: [] => [] } then { Web/format: [ type: "echo" ] }\n'
    'sync Kickoff when { Web/request: [ method: "loop" ] => [] } then { Web/format: [ type: "echo" ] }'
)

# where clauses that lint clean but raise at fire time: error -> (clause, message)
BOOM_WHERE = {
    "QueryError": ('FILTER ( ?zz = "a" )', "unbound variable in filter: ?zz"),
    "GroupingError": ("BIND ( COALESCE ( ?zz ) AS ?_eachthen )",
                      "grouping variable ?_eachthen unbound in a frame"),
}


def boom_sync(where: str) -> str:
    """A rule on "boom" requests whose where clause is `where`."""
    return ('sync Boom when { Web/request: [ method: "boom" ] => [ request: ?r ] } '
            f"where {{ {where} }} then {{ Web/respond: [ request: ?r ] }}")


def sync_text(stem: str) -> str:
    return (DEFS / f"{stem}.sync").read_text()


def build_engine(
    rules=ORIGINAL_RULES, concepts=tuple(BUILTINS), version="dev", step_limit=10_000, engine_cls=Engine
) -> Engine:
    eng = engine_cls(version=version, step_limit=step_limit)
    for name in concepts:
        eng.register_concept(
            load_builtin_spec(name), make_builtin_handle(name), bootstrap=(name == "Web")
        )
    for stem in rules:
        eng.register_syncs(parse_syncs(sync_text(stem)))
    diags = eng.lint()
    assert diags == [], diags  # the shipped rules must stay statically clean
    return eng


def all_firings(eng: Engine) -> list:
    """Every firing, flow by flow, as trace_flow hands them out."""
    return [f for flow in eng.flows for f in eng.trace_flow(flow).firings]


def register_payload(name="alice", email="alice@example.org", password="opensesame1"):
    return {"method": "register", "username": name, "email": email, "password": password}


def run_flow(eng: Engine, payload: dict) -> str:
    flow = eng.submit_external("Web", "request", payload)
    eng.run_to_quiescence()
    return flow


def responds(eng: Engine, flow: str) -> list:
    """Completed Web/respond records of one flow."""
    return [
        r
        for r in eng.flow_records(flow)
        if r.name == "respond" and r.concept.endswith("/Web") and r.is_completion
    ]


def respond_body(record) -> dict:
    return record.input.get("body", {})


def registered_token(eng: Engine, flow: str) -> str:
    """The bearer token a registration flow handed back."""
    (resp,) = responds(eng, flow)
    return respond_body(resp)["user"]["token"]


def seed_article(eng: Engine, title="Intro to Sync", tags=None):
    """Register a user, then publish an article through full flows.

    Returns (author flow, article flow).
    """
    f_user = run_flow(eng, register_payload())
    token = registered_token(eng, f_user)
    payload = {
        "method": "create_article",
        "title": title,
        "description": "d",
        "body": "b",
        "token": token,
    }
    if tags is not None:
        payload["tagList"] = tags
    f_article = run_flow(eng, payload)
    return f_user, f_article


def seeded_uuid4(seed):
    """A uuid4 stand-in that mints the same ids, in the same order, per seed."""
    rng = random.Random(seed)
    return lambda: uuid.UUID(int=rng.getrandbits(128), version=4)


def submit_request(eng: Engine, users: dict, kind: str, n: int) -> None:
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


def _golden_batches() -> tuple:
    """Batches of (kind, user number) over 12 users. Every third user's
    password is too short, so that user's article carries a garbage token;
    articles follow their author by two users, comments by four, and every
    other article is deleted after its comment, a cascade. The last batch
    repeats a registration and comments on and deletes an article never made."""
    batches = []
    for n in range(12):
        batch = [("short" if n % 3 == 2 else "register", n)]
        if n >= 2:
            batch.append(("article", n - 2))
        if n >= 4:
            batch.append(("comment", n - 4))
        if n >= 6 and n % 2 == 0:
            batch.append(("delete", n - 6))
        batches.append(tuple(batch))
    batches.append((("register", 0), ("comment", 11), ("delete", 11)))
    return tuple(batches)


# the golden run: its requests are queued a batch at a time, so flows interleave
GOLDEN_RULES = FIXED_RULES + EXTRA_RULES
GOLDEN_BATCHES = _golden_batches()


def run_golden(eng: Engine) -> None:
    users: dict = {}
    for batch in GOLDEN_BATCHES:
        for kind, n in batch:
            submit_request(eng, users, kind, n)
        eng.run_to_quiescence()

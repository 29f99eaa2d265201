"""Concept language: parsing, printing, qualification, and principle runs."""
import pytest
from hypothesis import example, given, settings, strategies as st

from tandem.core import NIL, Ref
from tandem.speclang import (
    BASE_TYPES,
    ActionSig,
    ConceptSpec,
    PrincipleStep,
    SpecError,
    SpecParseError,
    StateDecl,
    Sym,
    check_principle,
    parse_concept,
    principle_passes,
    print_concept,
    validate_against,
)
from tandem.synclang import SyncParseError, parse_syncs

# Three concept sources in the house style: credential storage, identity,
# and public display info. They exercise multi-line signatures, overloads
# split on outputs, continuation lines in principles, and trailing prose.

PASSWORD_SRC = """\
concept Password [U]
purpose
    to securely store and validate user credentials
state
    password: U -> string
    salt: U -> string
actions
    set [ user: U ; password: string ]
        => [ user: U ]
        generate a random salt for the user
        compute a hash of the password with the salt
        store the hash as password and salt in salt
        return the user reference
    set [ user: U ; password: string ]
        => [ error: string ]
        if password does not meet requirements
        return the error description
    check [ user: U ; password: string ]
        => [ valid: boolean ]
        retrieve salt for user
        compute hash of provided password with salt
        compare with stored hash
        return true if hashes match, false otherwise
    check [ user: U ; password: string ]
        => [ error: string ]
        if user does not exist or has no password
        return the error description
    validate [ password: string ]
        => [ valid: boolean ]
        check that the password meets requirements
        return true if valid, false otherwise
operational principle
    after set [ user: x ; password: "secret" ]
        => [ user: x ]
    then check [ user: x ; password: "secret" ]
        => [ valid: true ]
    and check [ user: x ; password: "wrong" ]
        => [ valid: false ]
"""

USER_SRC = """\
concept User [U]
purpose
    to associate identifying information with users
state
    users: set U
    name: U -> string
    email: U -> string
actions
    register [
        user: U ;
        name: string ;
        email: string ] => [ user: U ]
        associate user with users
        associate name and email unique + valid
        return the user reference
    register [
        user: U ;
        name: string ;
        email: string ] => [ error: string ]
        if either name/email is invalid or !unique
        return the error description
    update [ user: U ; name: string ] => [ user: U ]
        if name is unique, update user's name
        return the user reference
    update [ user: U ; name: string ]
        => [ error: string ]
        if name is not-unique, describe error
        return the error description
    update [ user: U ; email: string ]
        => [ user: U ]
        if email is unique + valid, update id's email
        return the user reference
    update [ user: U ; email: string ]
        => [ error: string ]
        if email is not-unique or invalid
        return the error description
operational principle
    after register [] => [ user: x ]
    and update [ name: "xavier" ] => [ user: x ]
    for any ?u such that ?u.name = "xavier", ?u = x
"""

PROFILE_SRC = """\
concept Profile [P, U]
purpose
    to associate descriptive information with users
state
    profiles: set P
    profile: U -> P
    bio: P -> string
    image: P -> string
actions
    register [ profile: P ; user: U ]
        => [ profile: P ]
        add profile to profiles
        associate user with profile
        add a default blank bio and image to profile
        return profile
    update [ profile: P ; bio: string ]
        => [ profile: P ]
        update profile with bio
        return profile
    update [ profile: P ; image: string ]
        => [ profile: P ]
        if image is valid (URL, base64, etc.)
        update profile with image
        return profile
    update [ profile: P ; image: string ]
        => [ error: string ]
        if image is invalid, describe error
        return error
operational principle
    after register [ profile: p ; user: u ]
    => [ profile: p ]
    and update [ profile: p ; bio: "Hello world" ]
    => [ profile: p ]
    and update [ profile: p ; image: "pic.jpg" ]
    => [ profile: p ]
    the profile p contains both the updated bio
    "Hello world" and original image "pic.jpg"
"""


# ---------------------------------------------------------------- parsing

def test_parse_password_shape():
    spec = parse_concept(PASSWORD_SRC)
    assert spec.name == "Password"
    assert spec.params == ("U",)
    assert [d.name for d in spec.state] == ["password", "salt"]
    assert all(d.kind == "relation" and d.range == "string" for d in spec.state)
    assert [a.name for a in spec.actions] == ["set", "set", "check", "check", "validate"]


def test_parse_password_overload_split_on_outputs():
    spec = parse_concept(PASSWORD_SRC)
    first, second = spec.overloads("set")
    assert first.inputs == second.inputs == (("user", "U"), ("password", "string"))
    assert first.outputs == (("user", "U"),)
    assert second.outputs == (("error", "string"),)
    assert first.description[0] == "generate a random salt for the user"


def test_parse_password_principle_steps():
    spec = parse_concept(PASSWORD_SRC)
    kinds = [(s.keyword, s.action) for s in spec.principle]
    assert kinds == [("after", "set"), ("then", "check"), ("and", "check")]
    assert spec.principle[0].inputs == (("user", Sym("x")), ("password", "secret"))
    assert spec.principle[1].outputs == (("valid", True),)
    assert spec.principle[2].inputs[1] == ("password", "wrong")


def test_parse_user_multiline_signatures():
    spec = parse_concept(USER_SRC)
    assert len(spec.actions) == 6
    reg = spec.overloads("register")[0]
    assert reg.inputs == (("user", "U"), ("name", "string"), ("email", "string"))
    # the four update overloads split on both input and output field sets
    updates = spec.overloads("update")
    assert [set(n for n, _ in u.inputs) for u in updates] == [
        {"user", "name"}, {"user", "name"}, {"user", "email"}, {"user", "email"}]


def test_parse_user_trailing_prose_becomes_text_step():
    spec = parse_concept(USER_SRC)
    assert [s.kind for s in spec.principle] == ["action", "action", "text"]
    assert spec.principle[0].inputs == ()  # register [] synthesizes everything
    assert "xavier" in spec.principle[2].text


def test_parse_profile_standalone_arrow_lines():
    spec = parse_concept(PROFILE_SRC)
    assert spec.params == ("P", "U")
    actions = [(s.keyword, s.action) for s in spec.principle if s.kind == "action"]
    assert actions == [("after", "register"), ("and", "update"), ("and", "update")]
    texts = [s for s in spec.principle if s.kind == "text"]
    assert len(texts) == 1
    # two prose lines merge into one step
    assert texts[0].text.startswith("the profile p contains")
    assert texts[0].text.endswith('original image "pic.jpg"')


def test_parse_open_field_marker():
    src = (
        "concept Web\n"
        "purpose\n    to accept requests\n"
        "state\n    requests: set ref\n"
        "actions\n    request [ method: string ; ... ] => [ request: ref ]\n"
    )
    spec = parse_concept(src)
    sig = spec.actions[0]
    assert sig.open_input and not sig.open_output
    assert sig.inputs == (("method", "string"),)


def _with_step(step: str) -> str:
    """A one-action concept whose principle is `step`, at line 8."""
    return ("concept A\npurpose\n    p\nstate\nactions\n"
            "    go [ a: string ] => [ b: string ]\n"
            f"operational principle\n    {step}\n")


def test_signature_takes_a_trailing_comment():
    spec = parse_concept("concept A\npurpose\n    p\nstate\nactions\n"
                         "    go [ a: T ] => [ b: T ] # note\n        prose\n".replace("T", "string"))
    (sig,) = spec.actions
    assert (sig.inputs, sig.outputs) == ((("a", "string"),), (("b", "string"),))
    assert sig.description == ("prose",)


def test_principle_values_read_as_rule_literals():
    # keywords in any case, rdf:nil, a negative integer and escapes read as in a rule;
    # nil stays a scenario name, so every Sym a principle can hold prints back
    spec = parse_concept(_with_step(
        'after go [ a: TRUE ; b: rdf:nil ; c: nil ; d: -5 ; e: "q\\"b\\\\" ] => [] # note'))
    assert spec.principle[0].inputs == (
        ("a", True), ("b", NIL), ("c", Sym("nil")), ("d", -5), ("e", 'q"b\\'))
    assert parse_concept(print_concept(spec)) == spec


def test_parse_no_params_header():
    spec = parse_concept("concept Echo\npurpose\n    to echo\nstate\nactions\n")
    assert spec.params == ()
    assert spec.state == () and spec.actions == ()


@pytest.mark.parametrize("src, fragment", [
    ("", "empty concept source"),
    ("purpose\n    x\n", "header"),
    ("concept A\npurpose\n    p\nstate\nactions\nextras\n", "unknown section"),
    ("concept A\npurpose\n    p\nstate\n    q: blob ->\nactions\n", "bad state"),
    ("concept A\npurpose\n    p\nstate\nactions\n    go [ a: string\n", "unterminated"),
    ("concept A\n    stray\npurpose\n    p\nstate\nactions\n", "before any section"),
    ("concept A\npurpose\n    p\nstate\n    a: set string\n    a: set string\nactions\n",
     "duplicate state"),
    ("concept A [U, U]\npurpose\n    p\nstate\nactions\n", "duplicate type parameter"),
    ("concept A\nstate\nactions\n", "missing required section: purpose"),
    # principle literals follow the rule lexer
    (_with_step("after go [ a: 9223372036854775808 ] => []"),
     "line 8: integer out of 64-bit range: 9223372036854775808"),
    (_with_step("after go [ a: -9223372036854775809 ] => []"),
     "line 8: integer out of 64-bit range: -9223372036854775809"),
    (_with_step('after go [ a: "x\\ny" ] => []'), "line 8: bad escape \\n"),
    (_with_step('after go [ a: "x ] => []'), "line 8: unterminated string"),
    (_with_step("after go [ a: 'x' ] => []"), "line 8: unexpected character \"'\""),
    # signatures and steps are read by the rule parser, with its messages
    ("concept A\npurpose\n    p\nstate\nactions\n    go [ a: string ; ; b: string ] => []\n",
     "line 6: expected a field name, got ';'"),
    ("concept A\npurpose\n    p\nstate\nactions\n    go [ a string ] => []\n",
     "line 6: expected ':', got 'string'"),
    ("concept A\npurpose\n    p\nstate\nactions\n    go [ a: 1 ] => []\n",
     "line 6: expected a type name, got 1"),
    ("concept A\npurpose\n    p\nstate\nactions\n    go [ a: string ]\n    [ b: string ]\n",
     "line 7: expected '=>', got '['"),
    ("concept A\npurpose\n    p\nstate\nactions\n    go [] => [] and more\n",
     "line 6: expected the end of the line, got 'and'"),
    (_with_step("after go [ a: 1"), "line 8: unterminated principle step"),
    (_with_step("after go [ a 1 ] => []"), "line 8: expected ':', got 1"),
    (_with_step("after go [ 1: x ] => []"), "line 8: expected a field name, got 1"),
    (_with_step("after go [ a: ?x ] => []"), "line 8: expected a literal or a bare name, got '?x'"),
    (_with_step("after go [ a: x/y ] => []"), "line 8: expected a value, got 'x/y'"),
    (_with_step("after go [ a: [ b: 1 ] ] => []"),
     "line 8: expected a literal or a bare name, got '['"),
])
def test_parse_errors(src, fragment):
    with pytest.raises(SpecError) as exc:
        parse_concept(src)
    assert fragment in str(exc.value)


def test_parse_error_carries_line_number():
    src = "concept A\npurpose\n    p\nstate\n    broken here\nactions\n"
    with pytest.raises(SpecParseError) as exc:
        parse_concept(src)
    assert exc.value.line == 5


def test_unknown_type_rejected():
    src = "concept A\npurpose\n    p\nstate\n    xs: set Widget\nactions\n"
    with pytest.raises(SpecError, match="unknown type 'Widget'"):
        parse_concept(src)


# ---------------------------------------------------------------- printing

@pytest.mark.parametrize("src", [PASSWORD_SRC, USER_SRC, PROFILE_SRC])
def test_print_parse_fixpoint(src):
    spec = parse_concept(src)
    printed = print_concept(spec)
    assert parse_concept(printed) == spec
    # printing is canonical: a second round changes nothing
    assert print_concept(parse_concept(printed)) == printed


def test_print_preserves_open_marker():
    src = ("concept W\npurpose\n    p\nstate\nactions\n"
           "    go [ ... ] => [ out: ref ]\n")
    spec = parse_concept(src)
    assert "[ ... ]" in print_concept(spec)
    assert parse_concept(print_concept(spec)) == spec


# ------------------------------------------------------------ qualification

PREFIX = "https://concepts.example/v0/"


def test_validate_against_iri_inventory():
    spec = parse_concept(PASSWORD_SRC)
    iris = validate_against(spec, PREFIX)
    # 1 concept + 2 state + 3 actions + set{user,password,error}
    # + check{user,password,valid,error} + validate{password,valid}
    assert len(iris) == 1 + 2 + 3 + 3 + 4 + 2
    assert PREFIX + "Password" in iris
    assert PREFIX + "Password/salt" in iris
    assert PREFIX + "Password/check/valid" in iris
    assert iris == sorted(iris)


def test_validate_rejects_state_action_clash():
    src = ("concept A\npurpose\n    p\nstate\n    go: set ref\nactions\n"
           "    go [ a: string ] => [ b: string ]\n")
    with pytest.raises(SpecError, match="both a state component and an action"):
        validate_against(parse_concept(src), PREFIX)


def test_validate_rejects_identical_overloads():
    src = ("concept A\npurpose\n    p\nstate\nactions\n"
           "    go [ a: string ] => [ b: string ]\n"
           "        first\n"
           "    go [ a: string ] => [ b: string ]\n"
           "        second\n")
    with pytest.raises(SpecError, match="duplicate overload"):
        validate_against(parse_concept(src), PREFIX)


def test_overloads_differing_only_in_openness_are_distinct():
    src = ("concept A\npurpose\n    p\nstate\nactions\n"
           "    go [ a: string ] => [ b: string ]\n"
           "    go [ a: string ; ... ] => [ b: string ]\n")
    assert validate_against(parse_concept(src), PREFIX)


# ------------------------------------------------------- principle execution

class MiniPassword:
    """In-memory stand-in with the invoke(action, inputs, record_id) shape."""

    def __init__(self):
        self.stored = {}

    def invoke(self, action, inputs, record_id):
        if action == "set":
            self.stored[inputs["user"]] = inputs["password"]
            return {"user": inputs["user"]}
        if action == "check":
            ok = self.stored.get(inputs["user"]) == inputs["password"]
            return {"valid": ok}
        if action == "validate":
            return {"valid": bool(inputs["password"])}
        raise ValueError(action)


class MiniUser:
    def invoke(self, action, inputs, record_id):
        return {"user": inputs["user"]}


def test_principle_password_passes():
    spec = parse_concept(PASSWORD_SRC)
    results = check_principle(spec, MiniPassword())
    assert principle_passes(results)
    assert [r.status for r in results] == ["pass", "pass", "pass"]


def test_principle_synthesizes_missing_inputs():
    spec = parse_concept(USER_SRC)
    handle = MiniUser()
    results = check_principle(spec, handle)
    assert principle_passes(results)
    assert [r.status for r in results] == ["pass", "pass", "skip"]


def test_principle_reuses_bound_scenario_vars():
    # both check steps must see the same user ref that set bound to x
    spec = parse_concept(PASSWORD_SRC)
    handle = MiniPassword()
    check_principle(spec, handle)
    assert len(handle.stored) == 1
    (user,) = handle.stored
    assert isinstance(user, Ref)


def test_principle_failure_reports_detail():
    class Liar:
        def invoke(self, action, inputs, record_id):
            if action == "set":
                return {"user": inputs["user"]}
            return {"valid": True}  # wrong answer for the "wrong" password

    spec = parse_concept(PASSWORD_SRC)
    results = check_principle(spec, Liar())
    assert not principle_passes(results)
    assert results[2].status == "fail"
    assert "expected False" in results[2].detail


def test_principle_raising_handle_fails_step():
    class Boom:
        def invoke(self, action, inputs, record_id):
            raise RuntimeError("nope")

    spec = parse_concept(PASSWORD_SRC)
    results = check_principle(spec, Boom())
    assert results[0].status == "fail"
    assert "invoke raised" in results[0].detail


def test_principle_missing_output_field_fails():
    class Silent:
        def invoke(self, action, inputs, record_id):
            return {}

    spec = parse_concept(PASSWORD_SRC)
    results = check_principle(spec, Silent())
    assert results[0].status == "fail"
    assert "missing field 'user'" in results[0].detail


def test_principle_overload_picked_by_given_fields():
    # update [ name: ... ] must route to the {user, name} overload
    spec = parse_concept(USER_SRC)
    seen = []

    class Spy:
        def invoke(self, action, inputs, record_id):
            seen.append(sorted(inputs))
            return {"user": inputs["user"]}

    check_principle(spec, Spy())
    assert seen[1] == ["name", "user"]


# ------------------------------------------------------------- property tests

_word = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda w: w not in ("true", "false"))
_type_params = st.lists(st.sampled_from(list("UVPQ")), unique=True, max_size=2)


@st.composite
def _specs(draw):
    params = tuple(draw(_type_params))
    known = sorted(BASE_TYPES | set(params))
    types = st.sampled_from(known)

    state = tuple(
        StateDecl(name, *draw(st.one_of(
            st.tuples(st.just("set"), types),
            st.tuples(st.just("relation"), types, types))))
        for name in draw(st.lists(_word, unique=True, max_size=3)))

    def fields():
        return st.lists(st.tuples(_word, types), unique_by=lambda f: f[0], max_size=3)

    actions = tuple(
        ActionSig(name, tuple(draw(fields())), tuple(draw(fields())),
                  draw(st.booleans()), draw(st.booleans()),
                  tuple(draw(st.lists(_word, max_size=2))))
        for name in draw(st.lists(_word, max_size=3)))

    value = st.one_of(
        _word.map(Sym), st.integers(-999, 999), st.booleans(),
        # strings hold the spec's own separators, quotes and escapes
        st.from_regex(r'[a-z ;\[\]"\\=>#]{0,8}', fullmatch=True))
    step_sigs = draw(st.lists(st.sampled_from(actions), max_size=3)) if actions else []
    steps = [
        PrincipleStep(
            kind="action",
            keyword=draw(st.sampled_from(["after", "then", "and"])),
            action=sig.name,
            inputs=tuple(draw(st.lists(st.tuples(_word, value),
                                       unique_by=lambda f: f[0], max_size=2))),
            outputs=tuple(draw(st.lists(st.tuples(_word, value),
                                        unique_by=lambda f: f[0], max_size=2))))
        for sig in step_sigs
    ]
    if draw(st.booleans()):
        steps.append(PrincipleStep(kind="text", text=" ".join(draw(
            st.lists(_word, min_size=1, max_size=4)))))

    return ConceptSpec(
        name=draw(st.from_regex(r"[A-Z][a-zA-Z]{0,8}", fullmatch=True)),
        params=params,
        purpose=" ".join(draw(st.lists(_word, min_size=1, max_size=5))),
        state=state,
        actions=actions,
        principle=tuple(steps))


def _principle_with(value):
    """A one-step principle whose strings hold `value`, then a text line."""
    step = PrincipleStep(kind="action", keyword="after", action="go",
                         inputs=(("a", value), ("b", 1)), outputs=(("c", value),))
    return ConceptSpec("Go", (), "p", (), (ActionSig("go", (), (), False, False, ()),),
                       (step, PrincipleStep(kind="text", text="and then")))


@settings(max_examples=120, deadline=None)
@given(_specs())
@example(_principle_with("a;b"))
@example(_principle_with("] => ["))
@example(_principle_with("["))
@example(_principle_with('";x: "y'))
@example(_principle_with('\\"#'))
def test_print_then_parse_recovers_spec(spec):
    assert parse_concept(print_concept(spec)) == spec


def _read_as_rule_and_principle(literal: str):
    """What `literal` reads as in a rule's then field and in a principle step,
    or the error each refuses it with."""
    read = []
    try:
        (d,) = parse_syncs(f"sync A\nwhen {{ X/y: [] => [] }}\nthen {{\n    X/y: [ a: {literal} ] }}\n")
        read.append(d.then[0].fields)
    except SyncParseError as exc:
        read.append(exc)
    try:
        read.append(parse_concept(_with_step(f"after go [ a: {literal} ] => []")).principle[0].inputs)
    except SpecParseError as exc:
        read.append(exc)
    return read


# the separators, brackets, comment mark and escapes of both languages
_tricky = st.lists(st.sampled_from(['"', "\\", ";", "[", "]", "#", "=>", " ", "a"]),
                   max_size=12).map("".join)


@settings(max_examples=150, deadline=None)
@given(_tricky)
def test_string_reads_back_the_same_in_a_rule_and_a_principle(value):
    literal = '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    assert _read_as_rule_and_principle(literal) == [(("a", value),)] * 2


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(-2 ** 63 - 3, -2 ** 63 + 3), st.integers(2 ** 63 - 4, 2 ** 63 + 2)))
def test_integer_near_64_bits_reads_the_same_or_is_refused_by_both(value):
    rule, principle = _read_as_rule_and_principle(str(value))
    if -2 ** 63 <= value < 2 ** 63:
        assert rule == principle == (("a", value),)
    else:
        assert isinstance(rule, SyncParseError) and isinstance(principle, SpecParseError)
        assert str(rule) == f"line 4: integer out of 64-bit range: {value}"
        assert str(principle) == f"line 8: integer out of 64-bit range: {value}"


@settings(max_examples=60, deadline=None)
@given(_specs())
def test_validate_iris_unique_and_prefixed(spec):
    try:
        iris = validate_against(spec, PREFIX)
    except SpecError:
        return  # generated name clash or duplicate overload: rejection is fine
    assert len(iris) == len(set(iris))
    assert all(i.startswith(PREFIX + spec.name) for i in iris)

"""Rule language: lexing, parsing, printing, and static checks."""
import pytest
from hypothesis import given, settings, strategies as st

from tandem.core import NIL
from tandem.speclang import parse_concept
from tandem.store import (
    Bind,
    Compare,
    ConceptPattern,
    FuncCall,
    NotExists,
    OptionalBlock,
    Query,
    Var,
    has_eachthen,
)
from tandem.synclang import (
    Rec,
    SyncDef,
    SyncParseError,
    ThenAction,
    WhenPattern,
    check_syncs,
    parse_syncs,
    print_sync,
    print_syncs,
)

# The fifteen rule listings the demos are built from, kept in their original
# layout: ragged indentation, braces after brackets, mixed keyword case.

REGISTRATION = """\
sync Registration
when {
    Web/request: [
        method: "register" ;
        username: ?username ;
        email: ?email ]
        => [] }
where { bind ( uuid() as ?user) }
then {
    User/register: [
        user: ?user ;
        name: ?username ;
        email: ?email ] }
"""

NEW_PASSWORD = """\
sync NewPassword
when {
    Web/request: [
        method: "register" ;
        password: ?password ]
        => []
    User/register: []
        => [ user: ?user ] }
then {
    Password/set: [
        user: ?user ;
        password: ?password ] }
"""

REGISTRATION_ERROR = """\
sync RegistrationError
when {
    Web/request: []
        => [ request: ?request ]
    User/register: []
        => [ error: ?error ] }
then {
    Web/respond: [
        request: ?request ;
        error: ?error ;
        code: 422 ] }
"""

DEFAULT_PROFILE = """\
sync DefaultProfile
when {
    User/register: []
        => [ user: ?user ] }
where { bind ( uuid() as ?profile ) }
then {
    Profile/register: [
        profile: ?profile ;
        user: ?user ] }
"""

NEW_USER_TOKEN = """\
sync NewUserToken
when {
    User/register: []
        => [ user: ?user ] }
then {
    JWT/generate: [ user: ?user ] }
"""

REGISTRATION_RESPONSE = """\
sync RegistrationResponse
when {
    Web/request: [ method: "register" ]
        => [ request: ?request ]
    User/register: [] => [ user: ?user ]
    Profile/register: [] => [ profile: ?profile ]
    Password/set: [] => [ user: ?user ]
    JWT/generate: [] => [] }
where {
    User: {
        ?user
            name: ?username ;
            email: ?email }
    Profile: {
        ?profile
            bio: ?bio ;
            image: ?image }
    JWT: { ?user token: ?token } }
then {
    Web/respond: [
        request: ?request ;
        body: [
            user: [
                username: ?username ;
                email: ?email ;
                bio: ?bio ;
                image: ?image ;
                token: ?token ] ] ] }
"""

VALIDATION_PAIR = """\
sync ValidateRegistrationPassword
when {
    Web/request: [
        method: "register" ;
        password: ?password ]
        => [ request: ?request ]}
then { Password/validate: [ password: ?password ] }

# Only register user if password is valid
sync Registration
when {
    Web/request: [
        method: "register" ;
        username: ?username ;
        email: ?email ;
        password: ?password ] => []
    Password/validate: [ password: ?password ]
        => [ valid: true ] }
where { bind ( uuid() as ?user) }
then {
    User/register: [
        user: ?user ;
        name: ?username ;
        email: ?email ] }
"""

ARTICLE_SUITE = """\
sync CreateArticle
when {
    Web/request: [
        method: "create_article" ;
        title: ?title ;
        description: ?description ;
        body: ?body ;
        token: ?token ]
        => [ request: ?request ] }
then {
    JWT/verify: [
        token: ?token ] }

sync HandleCreateArticleAuth
when {
    Web/request: [
        method: "create_article" ]
        => [ request: ?request ]
    JWT/verify: []
        => [ error: ?error ] }
then {
    Web/respond: [
        request: ?request ;
        error: ?error ;
        code: 401 ] }

sync PerformCreateArticle
when {
    Web/request: [
        method: "create_article" ;
        title: ?title ;
        description: ?description ;
        body: ?body ]
        => []
    JWT/verify: []
        => [ user: ?user ] }
where {
    BIND ( UUID() as ?article ) }
then {
    Article/create: [
        article: ?article ;
        title: ?title ;
        description: ?description ;
        body: ?body ;
        author: ?user ] }

sync HandleCreateArticleError
when {
    Web/request: [
        method: "create_article" ]
        => [ request: ?request ]
    Article/create: []
        => [ error: ?error ] }
then {
    Web/respond: [
        request: ?request ;
        error: ?error ;
        code: 422 ] }

sync CreateArticleFormat
when {
    Web/request: [
        method: "create_article" ]
        => [ request: ?request ]
    Article/create: []
        => [ article: ?article ]
    JWT/verify: []
        => [ user: ?currentUser ] }
then {
    Web/format: [
        type: "article_auth" ;
        article: ?article ;
        currentUser: ?currentUser ;
        request: ?request ] }

sync AddTagsToArticle
when {
    Web/request: [
        method: "create_article" ;
        tagList: ?tag ]
        => []
    Article/create: []
        => [ slug: ?slug ] }
then {
    Tag/add: [ target: ?slug ; tag: ?tag ] }
"""

FORMAT_ARTICLE = """\
sync FormatArticle
when {
    Web/format: [
        type: "article" ;
        article: ?article ;
        request: ?request ]
        => [] }
where {
    Article: {
        ?article title: ?title ;
        description: ?description ;
        body: ?body ;
        slug: ?slug ;
        createdAt: ?createdAt ;
        updatedAt: ?updatedAt ;
        author: ?author }
    User: { ?author name: ?authorName }
    Profile: {
        ?author profile: ?profile .
        ?profile bio: ?authorBio ;
        image: ?authorImage }

    # Get tags for this article if they exist
    OPTIONAL {
        Tag: { ?article tag: ?tag } }

    # Get favorites count if it exists
    OPTIONAL {
        Favorite: { ?article count: ?count } }

    # Aggregate all results by unique article ID
    BIND ( ?article AS ?_eachthen ) }
then {
    Web/respond: [
        request: ?request ;
        body: [
            article: [
                slug: ?slug ;
                title: ?title ;
                description: ?description ;
                body: ?body ;
                tagList: ?tag ;
                createdAt: ?createdAt ;
                updatedAt: ?updatedAt ;
                favorited: false ;
                favoritesCount: ?count ;
                author: [
                    username: ?authorName ;
                    bio: ?authorBio ;
                    image: ?authorImage ;
                    following: false ] ] ] ] }
"""

ALL_SOURCES = [
    REGISTRATION, NEW_PASSWORD, REGISTRATION_ERROR, DEFAULT_PROFILE,
    NEW_USER_TOKEN, REGISTRATION_RESPONSE, VALIDATION_PAIR, ARTICLE_SUITE,
    FORMAT_ARTICLE,
]


# ---------------------------------------------------------------- parsing

def test_registration_shape():
    (d,) = parse_syncs(REGISTRATION)
    assert d.name == "Registration"
    assert len(d.when) == 1
    p = d.when[0]
    assert (p.concept, p.action) == ("Web", "request")
    assert p.inputs == (("method", "register"),
                        ("username", Var("?username")), ("email", Var("?email")))
    assert p.outputs == ()
    assert d.where == Query((Bind(FuncCall("uuid"), "?user"),))
    (t,) = d.then
    assert (t.concept, t.action) == ("User", "register")
    assert [n for n, _ in t.fields] == ["user", "name", "email"]


def test_new_password_partial_patterns():
    (d,) = parse_syncs(NEW_PASSWORD)
    assert len(d.when) == 2
    assert d.when[1].inputs == ()
    assert d.when[1].outputs == (("user", Var("?user")),)
    assert d.where is None


def test_error_rule_matches_on_error_output_and_int_literal():
    (d,) = parse_syncs(REGISTRATION_ERROR)
    assert d.when[1].outputs == (("error", Var("?error")),)
    assert ("code", 422) in d.then[0].fields


def test_registration_response_shape():
    (d,) = parse_syncs(REGISTRATION_RESPONSE)
    assert len(d.when) == 5
    assert d.when[4].inputs == () and d.when[4].outputs == ()
    # two when patterns share ?user: the join that ties register to set
    assert d.when[1].outputs == d.when[3].outputs == (("user", Var("?user")),)
    assert [type(c) for c in d.where.clauses] == [ConceptPattern] * 3
    jwt = d.where.clauses[2]
    assert jwt.triples == ((Var("?user"), "token", Var("?token")),)
    body = dict(d.then[0].fields)["body"]
    assert isinstance(body, Rec)
    user = dict(body.fields)["user"]
    assert isinstance(user, Rec) and len(user.fields) == 5


def test_validation_pair_parses_two_rules_past_comment():
    defs = parse_syncs(VALIDATION_PAIR)
    assert [d.name for d in defs] == ["ValidateRegistrationPassword", "Registration"]
    gate = defs[1].when[1]
    assert (gate.concept, gate.action) == ("Password", "validate")
    assert gate.outputs == (("valid", True),)


def test_article_suite_parses_six_rules():
    defs = parse_syncs(ARTICLE_SUITE)
    assert [d.name for d in defs] == [
        "CreateArticle", "HandleCreateArticleAuth", "PerformCreateArticle",
        "HandleCreateArticleError", "CreateArticleFormat", "AddTagsToArticle"]
    # keyword case is free: BIND ( UUID() as ... ) parses like bind ( uuid() ... )
    assert defs[2].where == Query((Bind(FuncCall("uuid"), "?article"),))
    assert dict(defs[4].then[0].fields)["type"] == "article_auth"
    assert dict(defs[5].then[0].fields) == {"target": Var("?slug"), "tag": Var("?tag")}


def test_format_article_where_structure():
    (d,) = parse_syncs(FORMAT_ARTICLE)
    kinds = [type(c) for c in d.where.clauses]
    assert kinds == [ConceptPattern, ConceptPattern, ConceptPattern,
                     OptionalBlock, OptionalBlock, Bind]
    article = d.where.clauses[0]
    assert len(article.triples) == 7
    assert all(s == Var("?article") for s, _, _ in article.triples)
    profile = d.where.clauses[2]
    # dot switches the subject mid-block
    assert [s for s, _, _ in profile.triples] == [
        Var("?author"), Var("?profile"), Var("?profile")]
    assert d.where.clauses[5] == Bind(Var("?article"), "?_eachthen")
    assert has_eachthen(d.where)


def test_format_article_then_nests_three_levels():
    (d,) = parse_syncs(FORMAT_ARTICLE)
    body = dict(d.then[0].fields)["body"]
    article = dict(body.fields)["article"]
    author = dict(article.fields)["author"]
    assert dict(article.fields)["favorited"] is False
    assert dict(author.fields)["following"] is False
    assert dict(article.fields)["tagList"] == Var("?tag")


def test_coalesce_with_list_empty_default():
    src = (
        "sync F\n"
        "when { Web/format: [] => [] }\n"
        "where { BIND ( COALESCE( ?tag , rdf:nil ) AS ?tagList ) }\n"
        "then { Web/respond: [ tagList: ?tagList ] }\n"
    )
    (d,) = parse_syncs(src)
    assert d.where.clauses == (
        Bind(FuncCall("coalesce", (Var("?tag"), NIL)), "?tagList"),)


def test_filter_and_not_exists_clauses():
    src = (
        "sync G\n"
        "when { Web/request: [] => [ request: ?r ] }\n"
        "where {\n"
        "    User: { ?u name: ?n }\n"
        "    FILTER ( ?n != \"admin\" )\n"
        "    NOT EXISTS { Tag: { ?u tag: ?n } }\n"
        "}\n"
        "then { Web/respond: [ request: ?r ; user: ?u ] }\n"
    )
    (d,) = parse_syncs(src)
    assert d.where.clauses[1] == Compare(Var("?n"), "!=", "admin")
    assert d.where.clauses[2] == NotExists((ConceptPattern("Tag", ((Var("?u"), "tag", Var("?n")),)),))


@pytest.mark.parametrize("src, fragment", [
    ("sync A\nthen { X/y: [] }\n", "expected 'when'"),
    ("sync A\nwhen { X/y: [] => [] }\n", "expected 'then'"),
    ("sync A\nwhen { X/y: [] => [] }\nthen { }\n", "no invocations"),
    ("sync A\nwhen { }\nthen { X/y: [] }\n", "no completion patterns"),
    ("sync A\nwhen { X/y: [] => [] }\nthen { X/y: [] => [] }\n", "no output pattern"),
    ("sync A\nwhen { request: [] => [] }\nthen { X/y: [] }\n", "expected Concept/action"),
    ("sync A\nwhen { X/y: [ a: ?v ?w ] => [] }\nthen { X/y: [] }\n", "expected ';'"),
    ("sync A\nwhen { X/y: [] => [] }\nwhere { bind ( nope() as ?x ) }\nthen { X/y: [] }\n",
     "unknown function"),
    ("sync A\nwhen { X/y: [ a: \"oops ] => [] }\nthen { X/y: [] }\n", "unterminated string"),
    ("sync A\nwhen { X/y: [ a: ? ] => [] }\nthen { X/y: [] }\n", "bare '?'"),
    # "²" is a digit to str.isdigit, but int() cannot read it
    ("sync A\nwhen { X/y: [ n: ² ] => [] }\nthen { X/y: [] }\n", "line 2: unexpected character '²'"),
    # a string escapes only a quote and a backslash
    ("sync A\nwhen { X/y: [ a: \"x\\ny\" ] => [] }\nthen { X/y: [] }\n", "line 2: bad escape \\n"),
    ("", "no sync definitions"),
])
def test_parse_errors(src, fragment):
    with pytest.raises(SyncParseError) as exc:
        parse_syncs(src)
    assert fragment in str(exc.value)


def test_escaped_quote_and_backslash_lex_and_print_back():
    src = 'sync A\nwhen { X/y: [ a: "a\\"b\\\\c" ] => [] }\nthen { X/y: [] }\n'
    (d,) = parse_syncs(src)
    assert d.when[0].inputs == (("a", 'a"b\\c'),)
    assert parse_syncs(print_syncs([d])) == [d]


@pytest.mark.parametrize("literal, fits", [
    ("9223372036854775807", True),
    ("-9223372036854775808", True),
    ("9223372036854775808", False),
    ("-9223372036854775809", False),
    ("99999999999999999999", False),
])
def test_int_literal_must_fit_64_bits(literal, fits):
    # the log holds 64-bit integers only: a literal past them is refused at its line
    src = f"sync A\nwhen {{ X/y: [] => [] }}\nthen {{\n    X/y: [ n: {literal} ] }}\n"
    if fits:
        (d,) = parse_syncs(src)
        assert d.then[0].fields == (("n", int(literal)),)
    else:
        with pytest.raises(SyncParseError) as exc:
            parse_syncs(src)
        assert exc.value.line == 4
        assert f"integer out of 64-bit range: {literal}" in str(exc.value)


def test_parse_error_carries_line():
    src = "sync A\nwhen {\n    X/y: [ a: @ ] => [] }\nthen { X/y: [] }\n"
    with pytest.raises(SyncParseError) as exc:
        parse_syncs(src)
    assert exc.value.line == 3


# ---------------------------------------------------------------- printing

@pytest.mark.parametrize("src", ALL_SOURCES)
def test_print_parse_fixpoint(src):
    defs = parse_syncs(src)
    printed = print_syncs(defs)
    assert parse_syncs(printed) == defs
    assert print_syncs(parse_syncs(printed)) == printed


def test_print_blocks_indent_nested_clauses():
    (d,) = parse_syncs(FORMAT_ARTICLE)
    printed = print_sync(d)
    assert "    OPTIONAL {\n        Tag: { ?article tag: ?tag }\n    }" in printed
    assert "BIND ( ?article AS ?_eachthen )" in printed


# ------------------------------------------------------------ static checks

WEB_SPEC = parse_concept(
    "concept Web\n"
    "purpose\n    to accept requests and issue responses\n"
    "state\n    requests: set ref\n"
    "actions\n"
    "    request [ method: string ; ... ] => [ request: ref ]\n"
    "    respond [ request: ref ; ... ] => [ request: ref ]\n"
)

USER_SPEC = parse_concept(
    "concept User [U]\n"
    "purpose\n    to identify users\n"
    "state\n    users: set U\n    name: U -> string\n    email: U -> string\n"
    "actions\n"
    "    register [ user: U ; name: string ; email: string ] => [ user: U ]\n"
    "    register [ user: U ; name: string ; email: string ] => [ error: string ]\n"
)

PASSWORD_SPEC = parse_concept(
    "concept Password [U]\n"
    "purpose\n    to store credentials\n"
    "state\n    password: U -> string\n"
    "actions\n"
    "    set [ user: U ; password: string ] => [ user: U ]\n"
    "    set [ user: U ; password: string ] => [ error: string ]\n"
)

SPECS = [WEB_SPEC, USER_SPEC, PASSWORD_SPEC]


def test_check_clean_ruleset_has_no_diagnostics():
    defs = parse_syncs(NEW_PASSWORD)
    assert check_syncs(defs, SPECS) == []


def test_check_open_input_accepts_undeclared_request_fields():
    # Web/request declares only `method`; the ... marker admits the rest
    defs = parse_syncs(REGISTRATION)
    assert check_syncs(defs, SPECS) == []


def test_check_unbound_then_variable():
    src = ("sync A\nwhen { User/register: [] => [ user: ?user ] }\n"
           "then { Password/set: [ user: ?user ; password: ?email ] }\n")
    diags = check_syncs(parse_syncs(src), SPECS)
    assert len(diags) == 1
    assert "unbound variable ?email in then" in diags[0]


def test_check_bind_satisfies_boundedness():
    defs = parse_syncs(DEFAULT_PROFILE)
    profile_spec = parse_concept(
        "concept Profile [P, U]\npurpose\n    p\nstate\n    profiles: set P\n"
        "actions\n    register [ profile: P ; user: U ] => [ profile: P ]\n")
    assert check_syncs(defs, SPECS + [profile_spec]) == []


def test_check_unknown_state_component():
    src = ("sync A\nwhen { User/register: [] => [ user: ?u ] }\n"
           "where { Password: { ?u nickname: ?n } }\n"
           "then { Password/set: [ user: ?u ; password: ?n ] }\n")
    diags = check_syncs(parse_syncs(src), SPECS)
    assert diags == ["A: Password has no state component 'nickname'"]


def test_check_unknown_action_and_concept():
    src = ("sync A\nwhen { User/signup: [] => [] }\nthen { Ledger/post: [] }\n")
    diags = check_syncs(parse_syncs(src), SPECS)
    assert any("unknown action User/signup" in d for d in diags)
    assert any("unknown concept 'Ledger'" in d for d in diags)


def test_check_field_outside_every_overload():
    src = ("sync A\nwhen { User/register: [] => [ user: ?u ] }\n"
           "then { Password/set: [ user: ?u ; pepper: 1 ] }\n")
    diags = check_syncs(parse_syncs(src), SPECS)
    assert diags == ["A: Password/set has no input field 'pepper' in then"]


def test_check_duplicate_rule_names():
    two = parse_syncs(NEW_PASSWORD) + parse_syncs(NEW_PASSWORD)
    diags = check_syncs(two, SPECS)
    assert "NewPassword: duplicate sync name" in diags


def test_check_state_pattern_inside_optional():
    src = ("sync A\nwhen { User/register: [] => [ user: ?u ] }\n"
           "where { OPTIONAL { User: { ?u motto: ?m } } }\n"
           "then { Web/respond: [ request: ?u ] }\n")
    diags = check_syncs(parse_syncs(src), SPECS)
    assert diags == ["A: User has no state component 'motto'"]


# ------------------------------------------------------------- property test

_cname = st.from_regex(r"[A-Z][a-zA-Z0-9]{0,6}", fullmatch=True)
_word = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
_variable = _word.map(lambda w: Var("?" + w))
_scalar = st.one_of(
    st.text(alphabet="abc xyz", max_size=6),
    st.integers(-999, 999),
    st.booleans(),
    st.just(NIL),
    _variable,
)


def _fieldlist(values):
    return st.lists(st.tuples(_word, values), unique_by=lambda f: f[0],
                    max_size=3).map(tuple)


_term = st.one_of(_scalar, _fieldlist(_scalar).map(Rec))
_fields = _fieldlist(st.one_of(_term, _fieldlist(_term).map(Rec)))

_triples = st.lists(st.tuples(_variable, _word, _scalar), min_size=1, max_size=3).map(tuple)
_cpattern = st.builds(ConceptPattern, _cname, _triples)
_expr = st.one_of(
    _scalar,
    st.just(FuncCall("uuid")),
    st.builds(FuncCall, st.just("coalesce"),
              st.lists(_scalar, min_size=1, max_size=2).map(tuple)))
_bind = st.builds(Bind, _expr, _word.map(lambda w: "?" + w))
_compare = st.builds(Compare, _scalar,
                     st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), _scalar)
_flat = st.one_of(_cpattern, _bind, _compare)
_inner = st.lists(_flat, min_size=1, max_size=2).map(tuple)
_clause = st.one_of(_flat, st.builds(OptionalBlock, _inner), st.builds(NotExists, _inner))
_where = st.one_of(
    st.none(),
    st.builds(Query, st.lists(_clause, min_size=1, max_size=3).map(tuple)))

_when = st.lists(st.builds(WhenPattern, _cname, _word, _fields, _fields),
                 min_size=1, max_size=3).map(tuple)
_then = st.lists(st.builds(ThenAction, _cname, _word, _fields),
                 min_size=1, max_size=2).map(tuple)
_syncs = st.lists(st.builds(SyncDef, _cname, _when, _where, _then),
                  min_size=1, max_size=3)


@settings(max_examples=120, deadline=None)
@given(_syncs)
def test_print_then_parse_recovers_rules(defs):
    assert parse_syncs(print_syncs(defs)) == defs

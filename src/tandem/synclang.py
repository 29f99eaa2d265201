"""The synchronization rule language: lexer, parser, printer, and checker.

A rule names itself, matches completed actions in one flow (when), queries
concept state and computes bindings (where), and lists the invocations to
emit (then). Where clauses compile straight to the store's query AST.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from tandem.core import NIL, Ref, canonical_value
from tandem.store import (
    Bind,
    Compare,
    ConceptPattern,
    FuncCall,
    NotExists,
    OptionalBlock,
    Query,
    Var,
)


class SyncError(Exception):
    pass


class SyncParseError(SyncError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


@dataclass(frozen=True)
class Rec:
    """Nested record template inside a pattern or invocation body."""

    fields: tuple  # ((name, term), ...)


@dataclass(frozen=True)
class WhenPattern:
    concept: str
    action: str
    inputs: tuple
    outputs: tuple


@dataclass(frozen=True)
class ThenAction:
    concept: str
    action: str
    fields: tuple


@dataclass(frozen=True)
class SyncDef:
    name: str
    when: tuple
    where: Query | None
    then: tuple


# ---------------------------------------------------------------------- lexer

class Tok(NamedTuple):
    kind: str  # ident, var, string, int, punct, eof
    value: object
    line: int


# One alternation, tried in order where each token starts, the commonest
# first. Blanks and a comment before it are skipped, a line end is counted,
# the last group catches what the language refuses, and \Z ends the text.
# \w is str.isalnum or "_" and \d is str.isdecimal, the digits int() reads,
# so "²" is no digit.
_TOKEN = re.compile(r"""
    [ \t\r]* (?:\#[^\n]*)?
    (?: ([!<>=]= | => | [{}\[\]():;,.=<>])
      | (rdf:nil | [^\W\d]\w*(?:/[^\W\d]\w*)*)        # a name, or Concept/action
      | (\n)
      | ("[^"\\\n]*(?:\\["\\][^"\\\n]*)*")            # a string: \" and \\ escape
      | (\?\w+)
      | (-?\d+)
      | ("[^"\\\n]*(?:\\["\\][^"\\\n]*)*\\[^"\\] | .)  # a bad escape, anything else
      | \Z
    )""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")


def _refusal(token: str) -> str:
    if token == '"':
        return "unterminated string"
    if token[0] == '"':  # the string up to its first bad escape
        return f"bad escape {token[-2:]}"
    if token == "?":
        return "bare '?' is not a variable"
    return f"unexpected character {token!r}"


def _check_name(word: str, line: int) -> None:
    """Each part of a name starts with a letter or "_", not with a digit
    int() cannot read."""
    for k, part in enumerate(word.split("/")):
        if not (part[0].isalpha() or part[0] == "_"):
            raise SyncParseError(f"unexpected character {'/' if k else part[0]!r}", line)


def _lex(text: str, line: int = 1) -> list[Tok]:
    toks: list[Tok] = []
    append = toks.append
    new = tuple.__new__  # the tuple Tok(...) builds, without its Python-level __new__
    for punct, word, newline, string, var, number, refused in _TOKEN.findall(text):
        if punct:
            append(new(Tok, ("punct", punct, line)))
        elif word:
            if not word.isascii():
                _check_name(word, line)
            append(new(Tok, ("ident", word, line)))
        elif newline:
            line += 1
        elif string:
            body = string[1:-1]
            append(new(Tok, ("string", _ESCAPE.sub(r"\1", body) if "\\" in body else body, line)))
        elif var:
            append(new(Tok, ("var", var, line)))
        elif number:
            try:  # one past 64 bits is refused here, not when the log reads it back
                append(new(Tok, ("int", canonical_value(int(number)), line)))
            except ValueError as exc:
                raise SyncParseError(str(exc), line)
        elif refused:
            raise SyncParseError(_refusal(refused), line)
    append(new(Tok, ("eof", None, line)))
    return toks


# --------------------------------------------------------------------- parser

class _Parser:
    def __init__(self, toks: list[Tok]) -> None:
        self.toks = toks
        self.pos = 0
        self.cur = toks[0]

    def peek(self, ahead: int = 1) -> Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def advance(self) -> Tok:  # never past eof: each caller checks the token first
        tok = self.cur
        self.pos += 1
        self.cur = self.toks[self.pos]
        return tok

    def fail(self, message: str):
        raise SyncParseError(message, self.cur.line)

    def expect_punct(self, value: str) -> None:
        if self.cur.kind != "punct" or self.cur.value != value:
            self.fail(f"expected {value!r}, got {self._show(self.cur)}")
        self.advance()

    def at_punct(self, value: str) -> bool:
        return self.cur.kind == "punct" and self.cur.value == value

    def at_keyword(self, word: str) -> bool:
        return self.cur.kind == "ident" and str(self.cur.value).lower() == word

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            self.fail(f"expected {word!r}, got {self._show(self.cur)}")
        self.advance()

    @staticmethod
    def _show(tok: Tok) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.value)

    # ----- structure

    def parse_syncs(self) -> list[SyncDef]:
        defs = []
        while self.cur.kind != "eof":
            defs.append(self.parse_sync())
        if not defs:
            self.fail("no sync definitions found")
        return defs

    def parse_sync(self) -> SyncDef:
        self.expect_keyword("sync")
        if self.cur.kind != "ident":
            self.fail("expected a sync name")
        name = self.advance().value
        self.expect_keyword("when")
        when = self.parse_when_block()
        where = None
        if self.at_keyword("where"):
            self.advance()
            where = self.parse_where_block()
        self.expect_keyword("then")
        then = self.parse_then_block()
        return SyncDef(str(name), when, where, then)

    def parse_when_block(self) -> tuple:
        self.expect_punct("{")
        patterns = []
        while not self.at_punct("}"):
            concept, action = self.parse_qualified()
            self.expect_punct(":")
            inputs = self.parse_record()
            self.expect_punct("=>")
            outputs = self.parse_record()
            patterns.append(WhenPattern(concept, action, inputs, outputs))
        self.advance()
        if not patterns:
            self.fail("when block lists no completion patterns")
        return tuple(patterns)

    def parse_then_block(self) -> tuple:
        self.expect_punct("{")
        actions = []
        while not self.at_punct("}"):
            concept, action = self.parse_qualified()
            self.expect_punct(":")
            fields = self.parse_record()
            if self.at_punct("=>"):
                self.fail("then invocations take no output pattern")
            actions.append(ThenAction(concept, action, fields))
        self.advance()
        if not actions:
            self.fail("then block lists no invocations")
        return tuple(actions)

    def parse_qualified(self) -> tuple:
        if self.cur.kind != "ident":
            self.fail(f"expected Concept/action, got {self._show(self.cur)}")
        name = str(self.advance().value)
        if name.count("/") != 1:
            raise SyncParseError(f"expected Concept/action, got {name!r}",
                                 self.toks[self.pos - 1].line)
        concept, _, action = name.partition("/")
        return concept, action

    def parse_name(self, what: str) -> str:
        """A plain name: an identifier that is not Concept/action."""
        if self.cur.kind != "ident":
            self.fail(f"expected a {what}, got {self._show(self.cur)}")
        name = str(self.advance().value)
        if "/" in name:
            raise SyncParseError(f"bad {what} {name!r}", self.toks[self.pos - 1].line)
        return name

    def parse_record(self, value=None, open_mark: bool = False) -> tuple:
        """`[ f: v ; ... ]`, each value read by `value` (a rule term if none).
        With `open_mark`, a field written `...` reads as None."""
        self.expect_punct("[")
        fields = []
        while not self.at_punct("]"):
            if fields:
                self.expect_punct(";")
            if open_mark and self.at_punct("."):
                for _ in "...":
                    self.expect_punct(".")
                fields.append(None)
                continue
            fname = self.parse_name("field name")
            self.expect_punct(":")
            fields.append((fname, value() if value else self.parse_term()))
        self.advance()
        return tuple(fields)

    def parse_term(self, bare=None):
        """A literal, a ?variable or a nested record. `bare`, if given, reads
        a bare name: a concept principle's scenario name."""
        tok = self.cur
        if tok.kind == "string" or tok.kind == "int":
            return self.advance().value
        if tok.kind == "var":
            return Var(str(self.advance().value))
        if self.at_punct("["):
            return Rec(self.parse_record())
        if tok.kind == "ident":
            word = str(tok.value).lower()
            if word == "true":
                self.advance()
                return True
            if word == "false":
                self.advance()
                return False
            # a principle may name a scenario value nil: there rdf:nil alone is the empty list
            if word == "rdf:nil" or word == "nil" and bare is None:
                self.advance()
                return NIL
            if bare is not None and "/" not in word:
                return bare(self.advance().value)
        self.fail(f"expected a value, got {self._show(tok)}")

    # ----- concept specs

    def parse_signature(self, value, open_mark: bool = False) -> tuple:
        """`name [ f: v ; ... ] => [ g: w ]` and nothing after it: a concept
        spec's action signature, or a principle step after its keyword.
        `value` reads each field's value."""
        name = self.parse_name("action name")
        inputs = self.parse_record(value, open_mark)
        self.expect_punct("=>")
        outputs = self.parse_record(value, open_mark)
        if self.cur.kind != "eof":
            self.fail(f"expected the end of the line, got {self._show(self.cur)}")
        return name, inputs, outputs

    # ----- where

    def parse_where_block(self) -> Query:
        self.expect_punct("{")
        clauses = self.parse_clauses_until("}")
        self.advance()
        return Query(tuple(clauses))

    def parse_clauses_until(self, closer: str) -> list:
        clauses = []
        while not self.at_punct(closer):
            clauses.append(self.parse_clause())
        return clauses

    def parse_clause(self):
        if self.at_keyword("bind") and self.peek().kind == "punct" and self.peek().value == "(":
            self.advance()
            self.expect_punct("(")
            expr = self.parse_expr()
            self.expect_keyword("as")
            if self.cur.kind != "var":
                self.fail("BIND needs a target variable")
            target = str(self.advance().value)
            self.expect_punct(")")
            return Bind(expr, target)
        if self.at_keyword("filter") and self.peek().kind == "punct" and self.peek().value == "(":
            self.advance()
            self.expect_punct("(")
            left = self.parse_term()
            op = self.parse_compare_op()
            right = self.parse_term()
            self.expect_punct(")")
            return Compare(left, op, right)
        if self.at_keyword("optional") and self.peek().kind == "punct" and self.peek().value == "{":
            self.advance()
            self.expect_punct("{")
            clauses = self.parse_clauses_until("}")
            self.advance()
            return OptionalBlock(tuple(clauses))
        if self.at_keyword("not") and self.peek().kind == "ident" \
                and str(self.peek().value).lower() == "exists":
            self.advance()
            self.advance()
            self.expect_punct("{")
            clauses = self.parse_clauses_until("}")
            self.advance()
            return NotExists(tuple(clauses))
        if self.cur.kind == "ident" and self.peek().kind == "punct" and self.peek().value == ":":
            concept = str(self.advance().value)
            if "/" in concept:
                raise SyncParseError(f"state patterns name a concept, got {concept!r}",
                                     self.toks[self.pos - 1].line)
            self.advance()  # ":"
            return ConceptPattern(concept, self.parse_triple_block())
        self.fail(f"expected a where clause, got {self._show(self.cur)}")

    def parse_compare_op(self) -> str:
        if self.cur.kind != "punct" or self.cur.value not in ("=", "==", "!=", "<", "<=", ">", ">="):
            self.fail(f"expected a comparison operator, got {self._show(self.cur)}")
        op = str(self.advance().value)
        return "==" if op == "=" else op

    def parse_triple_block(self) -> tuple:
        """`{ ?s p: o ; q: r . ?t u: v }`: groups share a subject, dots split."""
        self.expect_punct("{")
        triples = []
        while not self.at_punct("}"):
            subject = self.parse_term()
            while True:
                prop = self.parse_name("property name")
                self.expect_punct(":")
                triples.append((subject, prop, self.parse_term()))
                if self.at_punct(";"):
                    self.advance()
                    continue
                break
            if self.at_punct("."):
                self.advance()
        self.advance()
        if not triples:
            self.fail("empty state pattern")
        return tuple(triples)

    def parse_expr(self):
        if self.cur.kind == "ident" and self.peek().kind == "punct" and self.peek().value == "(":
            fname = str(self.advance().value).lower()
            if fname not in ("uuid", "coalesce"):
                raise SyncParseError(f"unknown function {fname!r}", self.toks[self.pos - 1].line)
            self.advance()  # "("
            args = []
            while not self.at_punct(")"):
                if args:
                    self.expect_punct(",")
                args.append(self.parse_expr())
            self.advance()
            return FuncCall(fname, tuple(args))
        return self.parse_term()


def parse_syncs(text: str) -> list[SyncDef]:
    return _Parser(_lex(text)).parse_syncs()


# -------------------------------------------------------------------- printer

def _print_term(term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Rec):
        return _print_record(term.fields)
    if term is NIL:
        return "rdf:nil"
    if isinstance(term, bool):
        return "true" if term else "false"
    if isinstance(term, str):
        return '"' + term.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(term, int):
        return str(term)
    if isinstance(term, Ref):
        raise SyncError(f"refs cannot appear in rule source: {term!r}")
    raise SyncError(f"unprintable term: {term!r}")


def _print_record(fields) -> str:
    if not fields:
        return "[]"
    return "[ " + " ; ".join(f"{n}: {_print_term(t)}" for n, t in fields) + " ]"


def _print_expr(expr) -> str:
    if isinstance(expr, FuncCall):
        return f"{expr.name.upper()}( {', '.join(_print_expr(a) for a in expr.args)} )" \
            if expr.args else f"{expr.name.upper()}()"
    return _print_term(expr)


def _print_triples(triples) -> str:
    groups = []
    for subject, prop, obj in triples:
        if groups and groups[-1][0] == subject:
            groups[-1][1].append((prop, obj))
        else:
            groups.append((subject, [(prop, obj)]))
    parts = []
    for subject, pairs in groups:
        body = " ; ".join(f"{p}: {_print_term(o)}" for p, o in pairs)
        parts.append(f"{_print_term(subject)} {body}")
    return "{ " + " . ".join(parts) + " }"


def _print_clause(clause, indent: str) -> list:
    if isinstance(clause, ConceptPattern):
        return [f"{indent}{clause.concept}: {_print_triples(clause.triples)}"]
    if isinstance(clause, Bind):
        return [f"{indent}BIND ( {_print_expr(clause.expr)} AS {clause.target} )"]
    if isinstance(clause, Compare):
        op = "=" if clause.op == "==" else clause.op
        return [f"{indent}FILTER ( {_print_term(clause.left)} {op} {_print_term(clause.right)} )"]
    if isinstance(clause, (OptionalBlock, NotExists)):
        head = "OPTIONAL" if isinstance(clause, OptionalBlock) else "NOT EXISTS"
        lines = [f"{indent}{head} {{"]
        for inner in clause.clauses:
            lines.extend(_print_clause(inner, indent + "    "))
        lines.append(f"{indent}}}")
        return lines
    raise SyncError(f"unprintable clause: {clause!r}")


def print_sync(d: SyncDef) -> str:
    lines = [f"sync {d.name}", "when {"]
    for p in d.when:
        lines.append(f"    {p.concept}/{p.action}: {_print_record(p.inputs)} "
                     f"=> {_print_record(p.outputs)}")
    lines.append("}")
    if d.where is not None:
        lines.append("where {")
        for clause in d.where.clauses:
            lines.extend(_print_clause(clause, "    "))
        lines.append("}")
    lines.append("then {")
    for t in d.then:
        lines.append(f"    {t.concept}/{t.action}: {_print_record(t.fields)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_syncs(defs) -> str:
    return "\n".join(print_sync(d) for d in defs)


# -------------------------------------------------------------------- checker

def _term_vars(term, out: set) -> None:
    if isinstance(term, Var):
        out.add(term.name)
    elif isinstance(term, Rec):
        for _, t in term.fields:
            _term_vars(t, out)


def _pattern_vars(fields) -> set:
    out: set = set()
    for _, term in fields:
        _term_vars(term, out)
    return out


def _clause_bound_vars(clauses) -> set:
    """Variables a clause list can bind in surviving frames.

    OPTIONAL counts (COALESCE handles the unbound case downstream);
    NOT EXISTS binds nothing outward.
    """
    out: set = set()
    for clause in clauses:
        if isinstance(clause, (ConceptPattern,)):
            for s, _, o in clause.triples:
                _term_vars(s, out)
                _term_vars(o, out)
        elif isinstance(clause, Bind):
            out.add(clause.target)
        elif isinstance(clause, OptionalBlock):
            out |= _clause_bound_vars(clause.clauses)
    return out


def _field_allowed(spec, action: str, fname: str, side: str) -> bool:
    for sig in spec.overloads(action):
        fields = sig.inputs if side == "input" else sig.outputs
        open_flag = sig.open_input if side == "input" else sig.open_output
        if open_flag or any(n == fname for n, _ in fields):
            return True
    return False


def check_syncs(defs, specs) -> list[str]:
    """Static diagnostics: names must exist, then-variables must be bound.
    `specs` are the concepts' parsed specs (speclang.ConceptSpec)."""
    by_name = {s.name: s for s in specs}
    diags: list[str] = []
    seen: set = set()

    def check_action_ref(sync: str, concept: str, action: str, clause: str):
        spec = by_name.get(concept)
        if spec is None:
            diags.append(f"{sync}: unknown concept {concept!r} in {clause}")
            return None
        if not spec.overloads(action):
            diags.append(f"{sync}: unknown action {concept}/{action} in {clause}")
            return None
        return spec

    def check_fields(sync: str, spec, action: str, fields, side: str, clause: str):
        for fname, _ in fields:
            if not _field_allowed(spec, action, fname, side):
                diags.append(f"{sync}: {concept_action(spec, action)} has no "
                             f"{side} field {fname!r} in {clause}")

    def concept_action(spec, action: str) -> str:
        return f"{spec.name}/{action}"

    def check_state_clauses(sync: str, clauses):
        for clause in clauses:
            if isinstance(clause, ConceptPattern):
                spec = by_name.get(clause.concept)
                if spec is None:
                    diags.append(f"{sync}: unknown concept {clause.concept!r} in where")
                    continue
                declared = spec.state_names()
                for _, prop, _ in clause.triples:
                    if prop not in declared:
                        diags.append(f"{sync}: {clause.concept} has no state "
                                     f"component {prop!r}")
            elif isinstance(clause, (OptionalBlock, NotExists)):
                check_state_clauses(sync, clause.clauses)

    for d in defs:
        if d.name in seen:
            diags.append(f"{d.name}: duplicate sync name")
        seen.add(d.name)

        bound: set = set()
        for p in d.when:
            spec = check_action_ref(d.name, p.concept, p.action, "when")
            if spec is not None:
                check_fields(d.name, spec, p.action, p.inputs, "input", "when")
                check_fields(d.name, spec, p.action, p.outputs, "output", "when")
            bound |= _pattern_vars(p.inputs) | _pattern_vars(p.outputs)

        if d.where is not None:
            check_state_clauses(d.name, d.where.clauses)
            bound |= _clause_bound_vars(d.where.clauses)

        for t in d.then:
            spec = check_action_ref(d.name, t.concept, t.action, "then")
            if spec is not None:
                check_fields(d.name, spec, t.action, t.fields, "input", "then")
            for var in sorted(_pattern_vars(t.fields)):
                if var not in bound:
                    diags.append(f"{d.name}: unbound variable {var} in then")

    return diags

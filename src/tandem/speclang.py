"""The concept spec language: parser, printer, and checks.

A concept file declares a name with type parameters, a purpose, relational
state components, action signatures split into overload cases, and an
operational principle (an archetypal scenario that doubles as a test).
Sections start at column zero; their bodies are indented.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from tandem.core import Ref, derive_id, qualify, values_equal

BASE_TYPES = {"string", "boolean", "number", "flag", "date", "ref"}

OPEN_MARK = "..."  # an overload ending a record with ... accepts extra fields


class SpecError(Exception):
    pass


class SpecParseError(SpecError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Sym:
    """Scenario variable in an operational principle (bare identifier)."""

    name: str


@dataclass(frozen=True)
class StateDecl:
    name: str
    kind: str  # "set" or "relation"
    domain: str
    range: str | None = None


@dataclass(frozen=True)
class ActionSig:
    name: str
    inputs: tuple  # ((field, type), ...)
    outputs: tuple
    open_input: bool = False
    open_output: bool = False
    description: tuple = ()


@dataclass(frozen=True)
class PrincipleStep:
    kind: str  # "action" or "text"
    keyword: str | None = None
    action: str | None = None
    inputs: tuple = ()  # ((field, Sym or literal), ...)
    outputs: tuple = ()
    text: str | None = None


@dataclass(frozen=True)
class ConceptSpec:
    name: str
    params: tuple
    purpose: str
    state: tuple
    actions: tuple
    principle: tuple = ()

    def overloads(self, action: str) -> list[ActionSig]:
        return [a for a in self.actions if a.name == action]

    def state_names(self) -> set[str]:
        return {d.name for d in self.state}


_HEADER_RE = re.compile(r"^concept\s+(\w+)\s*(?:\[([^\]]*)\])?\s*$")
_SET_RE = re.compile(r"^(\w+)\s*:\s*set\s+(\w+)$")
_REL_RE = re.compile(r"^(\w+)\s*:\s*(\w+)\s*->\s*(\w+)$")
_SIG_START_RE = re.compile(r"^(\w+)\s*\[")
_SIG_RE = re.compile(r"^(\w+)\s*\[(.*?)\]\s*=>\s*\[(.*?)\]$")
_STEP_START_RE = re.compile(r"^(after|then|and)\s+(\w+)\s*\[")
_STEP_RE = re.compile(r"^(after|then|and)\s+(\w+)\s*\[(.*?)\]\s*=>\s*\[(.*?)\]$")
_FIELD_RE = re.compile(r"^(\w+)\s*:\s*(\w+)$")
_INT_RE = re.compile(r"^-?\d+$")
_STRING_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"$')
_LITERAL_RE = re.compile(r'"(?:[^"\\]|\\.)*"')

SECTIONS = ("purpose", "state", "actions", "operational principle")


def _balanced(text: str) -> bool:
    return text.count("[") == text.count("]")


def _blank_strings(text: str) -> str:
    """text with each string literal's contents blanked, at the same length,
    so brackets and separators are found without looking inside strings."""
    return _LITERAL_RE.sub(lambda m: '"' + "_" * (len(m.group()) - 2) + '"', text)


def _sig_complete(text: str) -> bool:
    return _balanced(text) and "=>" in text and text.rstrip().endswith("]")


def _split_fields(body: str, line: int):
    """Split '[ a: T ; b: S ; ... ]' content into field pairs and an open flag."""
    fields = []
    open_mark = False
    body = body.strip()
    if not body:
        return (), False
    for part in body.split(";"):
        part = part.strip()
        if not part:
            raise SpecParseError("empty field between semicolons", line)
        if part == OPEN_MARK:
            open_mark = True
            continue
        m = _FIELD_RE.match(part)
        if not m:
            raise SpecParseError(f"bad field declaration: {part!r}", line)
        fields.append((m.group(1), m.group(2)))
    return tuple(fields), open_mark


def _parse_pattern_value(text: str, line: int):
    text = text.strip()
    m = _STRING_RE.match(text)
    if m:
        return m.group(1).replace('\\"', '"').replace("\\\\", "\\")
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    if re.match(r"^\w+$", text):
        return Sym(text)
    raise SpecParseError(f"bad pattern value: {text!r}", line)


def _split_pattern_fields(body: str, line: int):
    fields = []
    body = body.strip()
    if not body:
        return ()
    start = 0
    for blanked in _blank_strings(body).split(";"):  # no split inside a string
        part = body[start:start + len(blanked)].strip()
        start += len(blanked) + 1
        if ":" not in part:
            raise SpecParseError(f"bad pattern field: {part!r}", line)
        name, _, value = part.partition(":")
        name = name.strip()
        if not re.match(r"^\w+$", name):
            raise SpecParseError(f"bad pattern field name: {name!r}", line)
        fields.append((name, _parse_pattern_value(value, line)))
    return tuple(fields)


def parse_concept(text: str) -> ConceptSpec:
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx == len(lines):
        raise SpecParseError("empty concept source", 1)
    m = _HEADER_RE.match(lines[idx].rstrip())
    if not m:
        raise SpecParseError("expected 'concept NAME [params]' header", idx + 1)
    name = m.group(1)
    params = tuple(p.strip() for p in (m.group(2) or "").split(",") if p.strip())
    if len(set(params)) != len(params):
        raise SpecParseError("duplicate type parameter", idx + 1)

    # collect sections: a column-zero line names a section, indented lines are its body
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for n in range(idx + 1, len(lines)):
        raw = lines[n].rstrip()
        if not raw:
            continue
        if raw[0] not in " \t":
            sec = raw.strip()
            if sec not in SECTIONS:
                raise SpecParseError(f"unknown section: {sec!r}", n + 1)
            if sec in sections:
                raise SpecParseError(f"duplicate section: {sec!r}", n + 1)
            sections[sec] = []
            current = sec
        else:
            if current is None:
                raise SpecParseError("indented text before any section", n + 1)
            sections[current].append((n + 1, raw.strip()))

    for required in ("purpose", "state", "actions"):
        if required not in sections:
            raise SpecParseError(f"missing required section: {required}", len(lines))

    purpose = " ".join(t for _, t in sections["purpose"])
    if not purpose:
        raise SpecParseError("empty purpose", len(lines))

    state = []
    seen_state = set()
    for n, line in sections["state"]:
        m = _SET_RE.match(line)
        if m:
            decl = StateDecl(m.group(1), "set", m.group(2))
        else:
            m = _REL_RE.match(line)
            if not m:
                raise SpecParseError(f"bad state declaration: {line!r}", n)
            decl = StateDecl(m.group(1), "relation", m.group(2), m.group(3))
        if decl.name in seen_state:
            raise SpecParseError(f"duplicate state component: {decl.name}", n)
        seen_state.add(decl.name)
        state.append(decl)

    actions = []
    body = sections["actions"]
    i = 0
    while i < len(body):
        n, line = body[i]
        if not _SIG_START_RE.match(line):
            raise SpecParseError(f"expected an action signature, got {line!r}", n)
        buf = line
        i += 1
        while not _sig_complete(buf):
            if i >= len(body):
                raise SpecParseError("unterminated action signature", n)
            buf += " " + body[i][1]
            i += 1
        m = _SIG_RE.match(buf)
        if not m:
            raise SpecParseError(f"bad action signature: {buf!r}", n)
        inputs, open_in = _split_fields(m.group(2), n)
        outputs, open_out = _split_fields(m.group(3), n)
        desc = []
        while i < len(body) and not _SIG_START_RE.match(body[i][1]):
            desc.append(body[i][1])
            i += 1
        actions.append(ActionSig(m.group(1), inputs, outputs, open_in, open_out, tuple(desc)))

    principle = []
    if "operational principle" in sections:
        buf = None
        buf_line = 0
        text_buf: list[str] = []

        def flush_text():
            if text_buf:
                principle.append(PrincipleStep(kind="text", text=" ".join(text_buf)))
                text_buf.clear()

        def flush_step():
            nonlocal buf
            if buf is None:
                return
            m = _STEP_RE.match(_blank_strings(buf))
            if not m:
                raise SpecParseError(f"bad principle step: {buf!r}", buf_line)
            principle.append(
                PrincipleStep(
                    kind="action",
                    keyword=m.group(1),
                    action=m.group(2),
                    inputs=_split_pattern_fields(buf[slice(*m.span(3))], buf_line),
                    outputs=_split_pattern_fields(buf[slice(*m.span(4))], buf_line),
                )
            )
            buf = None

        for n, line in sections["operational principle"]:
            if _STEP_START_RE.match(line):
                flush_step()
                flush_text()
                buf = line
                buf_line = n
            elif buf is not None and not _sig_complete(_blank_strings(buf)):
                buf += " " + line
            else:
                flush_step()
                text_buf.append(line)
        flush_step()
        flush_text()

    spec = ConceptSpec(name, params, purpose, tuple(state), tuple(actions), tuple(principle))
    _check_types(spec)
    return spec


def _check_types(spec: ConceptSpec) -> None:
    known = set(spec.params) | BASE_TYPES
    for decl in spec.state:
        for t in (decl.domain, decl.range):
            if t is not None and t not in known:
                raise SpecError(f"{spec.name}.{decl.name}: unknown type {t!r}")
    for sig in spec.actions:
        for fname, ftype in sig.inputs + sig.outputs:
            if ftype not in known:
                raise SpecError(f"{spec.name}.{sig.name}: unknown type {ftype!r} for field {fname!r}")


def _print_fields(fields, open_mark: bool) -> str:
    parts = [f"{n}: {t}" for n, t in fields]
    if open_mark:
        parts.append(OPEN_MARK)
    return "[ " + " ; ".join(parts) + " ]" if parts else "[]"


def _print_pattern_value(value) -> str:
    if isinstance(value, Sym):
        return value.name
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return str(value)


def _print_pattern(fields) -> str:
    if not fields:
        return "[]"
    return "[ " + " ; ".join(f"{n}: {_print_pattern_value(v)}" for n, v in fields) + " ]"


def print_concept(spec: ConceptSpec) -> str:
    out = [f"concept {spec.name} [{', '.join(spec.params)}]" if spec.params else f"concept {spec.name}"]
    out.append("purpose")
    out.append(f"    {spec.purpose}")
    out.append("state")
    for d in spec.state:
        if d.kind == "set":
            out.append(f"    {d.name}: set {d.domain}")
        else:
            out.append(f"    {d.name}: {d.domain} -> {d.range}")
    out.append("actions")
    for sig in spec.actions:
        out.append(f"    {sig.name} {_print_fields(sig.inputs, sig.open_input)} "
                   f"=> {_print_fields(sig.outputs, sig.open_output)}")
        for line in sig.description:
            out.append(f"        {line}")
    if spec.principle:
        out.append("operational principle")
        for step in spec.principle:
            if step.kind == "text":
                out.append(f"    {step.text}")
            else:
                out.append(f"    {step.keyword} {step.action} {_print_pattern(step.inputs)} "
                           f"=> {_print_pattern(step.outputs)}")
    return "\n".join(out) + "\n"


def validate_against(spec: ConceptSpec, prefix: str) -> list[str]:
    """All fully qualified IRIs the concept contributes; raises on collisions."""
    kinds: dict[str, str] = {}
    for d in spec.state:
        kinds[d.name] = "state"
    for sig in spec.actions:
        if kinds.get(sig.name) == "state":
            raise SpecError(f"{spec.name}: {sig.name!r} names both a state component and an action")
        kinds[sig.name] = "action"
    seen_overloads = set()
    for sig in spec.actions:
        shape = (sig.name, frozenset(n for n, _ in sig.inputs), frozenset(n for n, _ in sig.outputs),
                 sig.open_input, sig.open_output)
        if shape in seen_overloads:
            raise SpecError(f"{spec.name}.{sig.name}: duplicate overload with identical field sets")
        seen_overloads.add(shape)
    iris = {qualify(prefix, spec.name)}
    for d in spec.state:
        iris.add(qualify(prefix, spec.name, d.name))
    for sig in spec.actions:
        iris.add(qualify(prefix, spec.name, sig.name))
        for fname, _ in sig.inputs + sig.outputs:
            iris.add(qualify(prefix, spec.name, sig.name, fname))
    return sorted(iris)


# ------------------------------------------------------------------ principles

@dataclass
class StepResult:
    step: PrincipleStep
    status: str  # "pass", "fail", or "skip"
    detail: str = ""


@dataclass
class _Scenario:
    bindings: dict = field(default_factory=dict)
    last_value: dict = field(default_factory=dict)
    counter: int = 0


def _synthesize(scn: _Scenario, spec: ConceptSpec, fname: str, ftype: str):
    scn.counter += 1
    if ftype in spec.params or ftype == "ref":
        return Ref(derive_id(f"principle://{spec.name}", f"{fname}-{scn.counter}"))
    if ftype == "number":
        return scn.counter
    if ftype == "boolean":
        return True
    return f"{fname}-{scn.counter}"  # string, flag, date


def _resolve(scn: _Scenario, spec: ConceptSpec, fname: str, ftype: str, term):
    if isinstance(term, Sym):
        if term.name in scn.bindings:
            return scn.bindings[term.name]
        value = _synthesize(scn, spec, fname, ftype)
        scn.bindings[term.name] = value
        return value
    return term


def _pick_overload(overloads, given: dict) -> ActionSig | None:
    best = None
    best_key = None
    for pos, sig in enumerate(overloads):
        declared = {n for n, _ in sig.inputs}
        if not sig.open_input and not set(given) <= declared:
            continue
        key = (len(declared - set(given)), pos)
        if best_key is None or key < best_key:
            best, best_key = sig, key
    return best


def check_principle(spec: ConceptSpec, handle) -> list[StepResult]:
    """Run the operational principle as a test against a fresh concept instance.

    Action steps invoke the handle; missing inputs reuse the last value seen
    for that field name, else a fresh value of the declared type. Output
    patterns match by subset: literals must compare equal, bare identifiers
    bind on first sight and must agree afterwards. Free-text steps are skipped.
    """
    scn = _Scenario()
    results = []
    for idx, step in enumerate(spec.principle):
        if step.kind == "text":
            results.append(StepResult(step, "skip", "free text"))
            continue
        overloads = spec.overloads(step.action)
        if not overloads:
            results.append(StepResult(step, "fail", f"unknown action {step.action!r}"))
            continue
        given = dict(step.inputs)
        sig = _pick_overload(overloads, given)
        if sig is None:
            results.append(StepResult(step, "fail", "no overload accepts these fields"))
            continue
        types = dict(sig.inputs)
        input_rec = {}
        for fname, ftype in sig.inputs:
            if fname in given:
                input_rec[fname] = _resolve(scn, spec, fname, ftype, given[fname])
            elif fname in scn.last_value:
                input_rec[fname] = scn.last_value[fname]
            else:
                input_rec[fname] = _synthesize(scn, spec, fname, ftype)
        for fname, term in given.items():
            if fname not in input_rec:
                input_rec[fname] = _resolve(scn, spec, fname, types.get(fname, "string"), term)
        record_id = f"principle://{spec.name}/{idx}"
        try:
            output = handle.invoke(step.action, input_rec, record_id)
        except Exception as exc:  # noqa: BLE001 - a raising handle fails the step
            results.append(StepResult(step, "fail", f"invoke raised: {exc}"))
            continue
        status, detail = "pass", ""
        for fname, term in step.outputs:
            if fname not in output:
                status, detail = "fail", f"output missing field {fname!r} (got {sorted(output)})"
                break
            actual = output[fname]
            if isinstance(term, Sym):
                if term.name in scn.bindings:
                    if not values_equal(scn.bindings[term.name], actual):
                        status, detail = "fail", f"{fname}: expected {scn.bindings[term.name]!r}, got {actual!r}"
                        break
                else:
                    scn.bindings[term.name] = actual
            elif not values_equal(term, actual):
                status, detail = "fail", f"{fname}: expected {term!r}, got {actual!r}"
                break
        scn.last_value.update(input_rec)
        if isinstance(output, dict):
            scn.last_value.update(output)
        results.append(StepResult(step, status, detail))
    return results


def principle_passes(results: list[StepResult]) -> bool:
    return all(r.status != "fail" for r in results)

"""The synchronization engine.

An external request and each invocation a rule makes complete on one path,
_dispatch, and the completion lands on a queue. Each step pops one and
matches it against the rules that name its concept and action in a when
pattern: the when patterns must all be satisfied by completions of the same
flow, the where clause is evaluated against current concept state, and each
surviving frame instantiates the then templates as fresh invocations. Each
append to the JSON-lines log is one line, written before it takes effect: a
completion, a firing {"sync","from","then"} (then is empty for a no-op), or a
mark. Each input is written once: an invocation's in its firing's then, so
its completion's line holds only its output, and a flow's first completion's
on its own line. The header names the version and the format, and a build
reads its own format only. Firings are held as their lines hold them; a
firing is the provenance, and its (rule, completions) pair the guard that
keeps it from firing twice. The engine trusts what it mints; recovery checks
each line once, as it comes in, so a recovered engine holds what the writer
held. The log is the only record of history; the quad store holds concept
state only.

Each rule is compiled once, when it is registered: its concept names are
qualified to IRIs, each where pattern is put on its concept's graph and
predicate IRIs, so the store sees only IRIs, and the rule is filed under
every (concept IRI, action) its when patterns name. One table, concepts,
holds each concept by IRI with its overloads. Each flow's records and
firings are held once, in one table of flows, so matching and tracing cost
as much as the flow, not the history.

Matching a completion has two stages, as in the alpha and beta networks of
RETE. The alpha test visits a filed rule only if the completion alone
satisfies one of the rule's patterns on its (concept, action), so a
registration skips every rule whose literal names another method, and a
successful action skips the rules that require its error field. The join
then fills the remaining patterns from the flow's completions, filtered once
per pattern by (concept, action), depth first on an explicit stack: it builds
no closure, so a flow leaves no cyclic garbage for the collector. Log lines
are encoded by one shared encoder in core, without copying the values.

Two control lines mark what the log already proves finished. When
run_to_quiescence has stepped at least one completion and finds the queue
empty, it appends a quiet mark, {"quiet":true}: every completion logged
before it has been matched. When it gives up on a flow, because the flow
exceeds step_limit or a rule's where clause fails at fire time (a FILTER on
an unbound variable, an unbound ?_eachthen), it takes that flow's records
off the queue and appends a halt mark, {"halt":"<flow>"}. Resume queues the
invocations that never completed, then the completions after the last
quiet mark, except those of halted flows, so a restart re-matches the
unfinished tail instead of the whole history (redo from the last point the
log shows complete, as in ARIES). A log without marks re-matches every
completion, which the firing guards make inert. Recovery only reads the
log, every line alike, marks included: by one JSON scan, or by json.loads,
which names the fault, when the scan does not end at its newline (a CRLF
line end), and each value by canonical_value, which admits every value the
engine holds, so the log reads back what was logged. Bytes after the last
newline, a write a crash cut short, are skipped with a RuntimeWarning, and
attach_log, the one writer, cuts them off before it appends. Nor does
recovery build concept state: the handles of the completions it read
re-run once, in log order, at the first step, submit_external,
register_concept or read of store, so a load that only traces skips them.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import warnings
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, NoReturn

from .core import (
    UUID_RE,
    ActionRecord,
    Firing,
    FlowTrace,
    canonical_value,
    completion_from_doc,
    firing_from_doc,
    firing_to_json,
    new_flow,
    new_id,
    qualify,
    record_from_doc,
    record_to_json,
    to_jsonable,
    values_equal,
)
from .speclang import ConceptSpec, validate_against
from .store import (
    ConceptPattern,
    GraphView,
    GroupingError,
    Namespace,
    NotExists,
    OptionalBlock,
    QuadStore,
    Query,
    QueryError,
    group_by_eachthen,
    has_eachthen,
    is_var,
)
from .synclang import Rec, SyncDef, check_syncs

DEFAULT_PREFIX = "https://concepts.example/v0/"

# the header's format tag: a build reads one format and refuses the others at line 1
LOG_FORMAT = 2

QUIET_LINE = '{"quiet":true}'


class EngineError(Exception):
    pass


class RecoveryError(Exception):
    """Log replay failed. `position` is the 1-based offending line number."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"line {position}: {message}")
        self.position = position


class Flow(NamedTuple):
    """One flow's records (id -> record) and firings (guard -> Firing), in log order."""

    records: dict
    firings: dict


@dataclass(frozen=True)
class _Rule:
    """A SyncDef with its concept names qualified, compiled at registration."""

    sync: SyncDef
    when: tuple  # ((concept iri, action, inputs, outputs), ...)
    where: Query | None  # its patterns on graph and predicate IRIs
    eachthen: bool  # where binds ?_eachthen: frames are grouped by it
    then: tuple  # ((concept iri, action, fields), ...)


_MISSING = object()
_NO_FLOW = Flow({}, {})  # what the engine holds of a flow it never saw


def _insert_firing(flow: Flow, sync: str, sources: tuple, invocations: list) -> None:
    """Take in one firing of flow, as made or as read back from its log line."""
    flow.firings[sync, sources] = Firing(sync, sources, tuple([inv.id for inv in invocations]))
    for inv in invocations:
        flow.records[inv.id] = inv

def _match_fields(fields, data, frame):
    # subset semantics: every pattern field must be present and agree,
    # fields absent from the pattern are unconstrained
    for fname, term in fields:
        if fname not in data:
            return None
        frame = _match_term(term, data[fname], frame)
        if frame is None:
            return None
    return frame


def _match_term(term, value, frame):
    if is_var(term):
        bound = frame.get(term.name, _MISSING)
        if bound is _MISSING:
            frame = dict(frame)
            frame[term.name] = value
            return frame
        return frame if values_equal(bound, value) else None
    if isinstance(term, Rec):
        if not isinstance(value, dict):
            return None
        return _match_fields(term.fields, value, frame)
    return frame if values_equal(term, value) else None


def _fill_fields(fields, frame) -> dict:
    out = {}
    for fname, term in fields:
        if is_var(term):
            # a variable with no value in this frame drops the whole field;
            # rules that want a default say so with COALESCE in where
            if term.name in frame:
                out[fname] = frame[term.name]
        elif isinstance(term, Rec):
            out[fname] = _fill_fields(term.fields, frame)
        else:
            out[fname] = term
    return out


def normalize_actions(records) -> list[str]:
    """Canonical text of each record with uuids renamed by first appearance.

    Two runs of the same external inputs differ only in minted identifiers;
    after renaming, equal executions produce equal lists.
    """
    mapping: dict[str, str] = {}

    def rename(match):
        return mapping.setdefault(match.group(0), f"u{len(mapping)}")

    out = []
    for rec in records:
        doc = to_jsonable(rec._asdict())
        del doc["id"]
        if rec.output is None:
            del doc["output"]
        out.append(UUID_RE.sub(rename, json.dumps(doc, sort_keys=True)))
    return out


def normalize_flows(records) -> list[tuple]:
    """Per-flow normal forms, insensitive to how whole flows interleaved.

    Records are grouped by flow token in encounter order and each group is
    renamed on its own, so two runs compare equal exactly when they did the
    same thing flow by flow.
    """
    groups: dict[str, list] = {}
    for rec in records:
        groups.setdefault(rec.flow, []).append(rec)
    return sorted(tuple(normalize_actions(group)) for group in groups.values())


_SCAN = json.JSONDecoder().scan_once  # the C scanner json.loads ends in
_HALT_KEYS = frozenset({"halt"})  # built once, not per line as set displays are
_QUIET_KEYS = frozenset({"quiet"})
_FIRING_KEYS = frozenset({"sync", "from", "then"})


def _read_doc(line: bytes, pos: int) -> dict:
    """A log line's object: one scan reads it, or json.loads if it does not end at the newline."""
    try:
        text = line.decode()  # the log is utf-8; loads would sniff it per line
        try:
            doc, end = _SCAN(text, 0)
        except (StopIteration, ValueError, RecursionError):  # loads says what is wrong
            end = -1
        if end != len(text) - 1:
            doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep to parse
        raise RecoveryError(f"unreadable log line: {exc}", pos)
    if not isinstance(doc, dict):
        raise RecoveryError("log line is not an object", pos)
    return doc


class Engine:
    """Owns the store, the ruleset, the work queue, and the append-only log.

    An engine, its store with it, has one caller at a time; threads that
    share one go through a Runtime, which admits one request at a time.
    Recovered concept state is built at the first step, submit_external,
    register_concept or read of store; a handle reached through concepts
    sees it only after that.
    """

    def __init__(
        self,
        prefix: str = DEFAULT_PREFIX,
        version: str = "dev",
        step_limit: int = 10_000,
    ) -> None:
        self.prefix = prefix
        self.version = version
        self.step_limit = step_limit
        self._store = QuadStore()
        self._unreplayed: list[ActionRecord] = []  # recovered completions, handles not yet re-run
        # concept iri -> (spec, handle, overloads), the overloads built at
        # registration: action -> [(frozenset of input names, open input), ...]
        self.concepts: dict[str, tuple[ConceptSpec, object, dict]] = {}
        self.bootstrap: str | None = None
        self.syncs: list[SyncDef] = []
        self.flows: dict[str, Flow] = {}  # flow token -> Flow, in the order the flows began
        # (concept iri, action) -> (rule, its (inputs, outputs) patterns on it),
        # in registration order
        self._triggers: dict[tuple, list[tuple]] = {}
        self.queue: deque = deque()  # records to match, or for step to dispatch
        self.halted: set = set()  # flows given up on, live or in the log: never matched again
        self._log = None

    @property
    def store(self) -> QuadStore:
        """Concept state, the recovered completions replayed into it first."""
        self._replay()
        return self._store

    def _replay(self) -> None:
        """Re-run each recovered completion's handle, in log order; the logged outputs stand."""
        unreplayed, self._unreplayed = self._unreplayed, []
        for rec in unreplayed:
            self._run_handle(rec)

    # ------------------------------------------------------------- assembly

    def register_concept(self, spec: ConceptSpec, handle, bootstrap: bool = False) -> None:
        self._replay()  # a recovered completion of this concept stays an unknown-concept error
        ns = self._namespace(spec.name)
        if ns.base in self.concepts:
            raise EngineError(f"concept already registered: {spec.name}")
        validate_against(spec, self.prefix)
        handle.attach(GraphView(self._store, ns.graph), ns)
        overloads: dict = {}
        for sig in spec.actions:
            declared = frozenset(f for f, _ in sig.inputs)
            overloads.setdefault(sig.name, []).append((declared, sig.open_input))
        self.concepts[ns.base] = (spec, handle, overloads)
        if bootstrap:
            if self.bootstrap is not None:
                raise EngineError(f"bootstrap concept already chosen: {self.bootstrap}")
            self.bootstrap = spec.name

    def register_sync(self, sync: SyncDef) -> None:
        if any(s.name == sync.name for s in self.syncs):
            raise EngineError(f"sync already registered: {sync.name}")
        rule = self._compile(sync)
        self.syncs.append(sync)
        # a rule with no pattern on a completion's (concept, action) can
        # never count that completion as its trigger, so it is not visited
        for trigger in dict.fromkeys(pat[:2] for pat in rule.when):
            pats = tuple((p[2], p[3]) for p in rule.when if p[:2] == trigger)
            self._triggers.setdefault(trigger, []).append((rule, pats))

    def _namespace(self, name: str) -> Namespace:
        """Where a concept's state lives, registered or not: its graph, and its IRI
        as the base of its predicates."""
        return Namespace(f"app://graphs/{self.version}/{name}", qualify(self.prefix, name))

    def _compile(self, sync: SyncDef) -> _Rule:
        return _Rule(
            sync,
            tuple((qualify(self.prefix, p.concept), p.action, p.inputs, p.outputs) for p in sync.when),
            None if sync.where is None else Query(tuple(map(self._compile_clause, sync.where.clauses))),
            has_eachthen(sync.where),
            tuple((qualify(self.prefix, t.concept), t.action, t.fields) for t in sync.then),
        )

    def _compile_clause(self, clause):
        """A where clause with each concept pattern in it on its graph and predicate IRIs."""
        if isinstance(clause, ConceptPattern):
            ns = self._namespace(clause.concept)
            return ConceptPattern(ns.graph, tuple((s, ns.predicate(p), o) for s, p, o in clause.triples))
        if isinstance(clause, (OptionalBlock, NotExists)):
            return type(clause)(tuple(map(self._compile_clause, clause.clauses)))
        return clause

    def register_syncs(self, syncs) -> None:
        for sync in syncs:
            self.register_sync(sync)

    def lint(self) -> list[str]:
        """Static diagnostics for the registered ruleset. Empty means clean."""
        specs = [spec for spec, _, _ in self.concepts.values()]
        return check_syncs(self.syncs, specs)

    # ------------------------------------------------------------ durability

    def attach_log(self, path) -> None:
        """Append to the log at path from now on, a new one with its header
        when empty, once the bytes after its last newline are cut off. A log
        attached before is closed first, so a failed attach leaves none."""
        self.close()
        log = open(path, "a+", encoding="utf-8")  # one handle cuts, then writes
        size = os.fstat(log.fileno()).st_size
        if size and os.pread(log.fileno(), 1, size - 1) != b"\n":
            # rfind on a mapping reads back from the end, a page at a time
            with mmap.mmap(log.fileno(), 0, access=mmap.ACCESS_READ) as data:
                size = data.rfind(b"\n") + 1
            log.truncate(size)
        if size == 0:
            log.write(json.dumps({"version": self.version, "format": LOG_FORMAT}) + "\n")
            log.flush()
        self._log = log

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def _append(self, line: str) -> None:
        # one write + flush per line: every line is a whole recovery unit
        if self._log is not None:
            self._log.write(line + "\n")
            self._log.flush()

    # -------------------------------------------------------------- plumbing

    def _check_firing(self, sync: str, sources: tuple, invocations: list, records: dict) -> Flow:
        """The flow of a logged firing, refused unless the completions it joined
        are in records, in its invocations' flow, and its guard has not fired yet."""
        flows = {inv.flow for inv in invocations}
        for cid in sources:
            rec = records.get(cid)
            if rec is None or rec.output is None:
                raise ValueError("a firing line names a completion not logged before it")
            flows.add(rec.flow)
        if len(flows) != 1:
            raise ValueError("a firing line spans more than one flow")
        flow = self.flows[flows.pop()]
        ids = {inv.id for inv in invocations}
        # keys().isdisjoint walks ids; set.isdisjoint(dict) would walk the whole history
        repeats = (sync, sources) in flow.firings or not records.keys().isdisjoint(ids)
        if repeats or len(ids) < len(invocations):
            raise ValueError("a firing line repeats a logged firing or record")
        return flow

    def _run_handle(self, rec: ActionRecord) -> dict:
        concept = self.concepts.get(rec.concept)
        if concept is None:
            return {"error": f"unknown concept: {rec.concept}"}
        spec, handle, overloads = concept
        name = spec.name
        keys = rec.input.keys()
        if not any(declared <= keys and (open_input or keys <= declared)
                   for declared, open_input in overloads.get(rec.name, ())):
            return {"error": f"no matching overload: {name}/{rec.name}"}
        try:
            return handle.invoke(rec.name, rec.input, rec.id)
        except Exception as exc:  # a broken handle must not take the engine down
            return {"error": f"{name}/{rec.name} raised: {exc}"}

    # ------------------------------------------------------------- execution

    def submit_external(self, concept: str, action: str, inputs: dict) -> str:
        """Record one externally caused completion and return its fresh flow.

        Only the bootstrap concept takes external submissions; everything
        else is reachable solely through rule firings.
        """
        if self.bootstrap is None or concept != self.bootstrap:
            raise EngineError(
                f"external submissions enter through the bootstrap concept, not {concept}"
            )
        # a value the log cannot read back is refused before it is logged
        inputs = canonical_value(dict(inputs))
        if not isinstance(inputs, dict):
            raise ValueError(f"an external submission's input is a record, not {inputs!r}")
        if self._unreplayed:
            self._replay()
        flow = new_flow()
        self.flows[flow] = Flow({}, {})
        self._dispatch(ActionRecord(new_id(), qualify(self.prefix, concept), action, flow, inputs))
        return flow

    def _visits(self, trigger: ActionRecord):
        """The rules a completion can fire, in registration order.

        This is the alpha test: a rule is visited only if the trigger alone
        satisfies one of its when patterns on the trigger's (concept,
        action), literals and required fields included. A rule that fails
        it can never count the trigger, so its join would find nothing.
        """
        for rule, pats in self._triggers.get((trigger.concept, trigger.name), ()):
            for inputs, outputs in pats:
                frame = _match_fields(inputs, trigger.input, {})
                if frame is not None and _match_fields(outputs, trigger.output, frame) is not None:
                    yield rule
                    break

    def _match_when(self, rule: _Rule, trigger: ActionRecord) -> list:
        """Frames where the trigger fills one when pattern and same-flow
        completions fill the rest; already-fired keys are excluded. A key
        can come twice, from two frames; _fire's guard fires it once."""
        flow_recs, firings = self.flows[trigger.flow]
        pats = rule.when
        # each pattern's candidates: the flow's completions on its (concept, action)
        cands = [
            [r for r in flow_recs.values() if r.concept == iri and r.name == action and r.output is not None]
            for iri, action, _inputs, _outputs in pats
        ]
        name = rule.sync.name
        results = []
        # depth-first join on an explicit stack: children are pushed in
        # reverse so frames come off in the order a recursive join visits them
        stack = [(0, {}, (), False)]
        while stack:
            i, frame, used, hit = stack.pop()
            if i == len(pats):
                if hit:
                    key = (name, tuple(sorted(used)))
                    if key not in firings:
                        results.append((frame, key))
                continue
            _iri, _action, inputs, outputs = pats[i]
            children = []
            for rec in cands[i]:
                if rec.id in used:
                    continue
                nxt = _match_fields(inputs, rec.input, frame)
                if nxt is None:
                    continue
                nxt = _match_fields(outputs, rec.output, nxt)
                if nxt is None:
                    continue
                children.append((i + 1, nxt, used + (rec.id,), hit or rec.id == trigger.id))
            stack.extend(reversed(children))
        return results

    def _fire(self, rule: _Rule, frame: dict, key: tuple, flow: str) -> list:
        if key in self.flows[flow].firings:
            return []
        sync = rule.sync
        frames = [frame]
        if rule.where is not None:
            try:
                frames = self._store.evaluate(rule.where, seed=frame)
                if rule.eachthen:
                    frames = group_by_eachthen(frames)
            except (QueryError, GroupingError) as exc:
                self._halt(flow, f"rule {sync.name}: {exc}")
        invocations = [ActionRecord(new_id(), iri, action, flow, _fill_fields(fields, fr))
                       for fr in frames for iri, action, fields in rule.then]
        self._append(firing_to_json(sync.name, key[1], invocations))
        _insert_firing(self.flows[flow], sync.name, key[1], invocations)
        return invocations

    def _halt(self, flow: str, reason: str) -> NoReturn:
        """Take flow's records off the queue, log a halt mark, raise EngineError.
        The flow is dropped here and on resume, so it halts no later run."""
        self.halted.add(flow)
        self.queue = deque(rec for rec in self.queue if rec.flow != flow)
        self._append(json.dumps({"halt": flow}, separators=(",", ":")))
        raise EngineError(reason)

    def _dispatch(self, inv: ActionRecord) -> None:
        try:
            out = canonical_value(self._run_handle(inv))
            if not isinstance(out, dict):
                raise ValueError("a non-record")
        except ValueError as exc:  # a value the log could not read back
            spec = self.concepts[inv.concept][0]
            out = {"error": f"{spec.name}/{inv.name} returned {exc}"}
        done = inv._replace(output=out)
        records = self.flows[done.flow].records
        # a flow's first record is logged with its input, the others on their firing's line
        self._append(record_to_json(done, with_input=not records))
        records[done.id] = done  # a completion keeps its invocation's slot
        self.queue.append(done)

    def step(self) -> bool:
        """Process one queued record: match a completion against the rules,
        or dispatch an invocation recovery queued. False when it is empty."""
        if self._unreplayed:
            self._replay()
        if not self.queue:
            return False
        trigger = self.queue.popleft()
        if not trigger.is_completion:
            self._dispatch(trigger)
            return True
        for rule in self._visits(trigger):
            for frame, key in self._match_when(rule, trigger):
                for inv in self._fire(rule, frame, key, trigger.flow):
                    self._dispatch(inv)
        return True

    def run_to_quiescence(self) -> int:
        """Step until the queue is empty; returns the number of steps.

        A call that stepped anything ends by logging a quiet mark.
        step_limit bounds the steps of each flow, not of the call, so a long
        backlog or a recovered history is not taken for a rule loop. A flow
        that exceeds it, or whose rule's where clause fails, halts: it
        leaves the queue, a halt mark is logged for it, and EngineError is
        raised.
        """
        steps = 0
        per_flow: dict[str, int] = {}
        while True:
            flow = self.queue[0].flow if self.queue else None
            if not self.step():
                if steps:
                    # nothing logged so far is left to match
                    self._append(QUIET_LINE)
                return steps
            steps += 1
            per_flow[flow] = per_flow.get(flow, 0) + 1
            if per_flow[flow] > self.step_limit:
                self._halt(flow, f"no quiescence after {self.step_limit} steps, a rule loop is likely")

    def pending_matches(self) -> list:
        """Every (rule name, guard) a fresh matching pass would fire now,
        halted flows aside.

        A quiescent engine must return []: all satisfiable matches are
        already evidenced by firings.
        """
        out = []
        for rec in self.actions():
            if not rec.is_completion or rec.flow in self.halted:
                continue
            for rule in self._visits(rec):
                for _frame, key in self._match_when(rule, rec):
                    out.append((rule.sync.name, key))
        return out

    # -------------------------------------------------------------- recovery

    def recover_from(self, path, resume: bool = True) -> str | None:
        """Replay a log into this engine. The log is only read.

        Concept state is rebuilt by re-running each completed action's handle,
        in log order, at the first step, submit_external, register_concept or
        read of store, not here (a handle reached through concepts holds it
        only then); the logged output stays authoritative. Each flow's records
        and firings come back into flows in log order, firing guards with
        them, so nothing already fired fires twice.
        A completion line without an input completes the invocation its
        firing line logged, with that invocation's input. A line the writer
        could not have made fails with RecoveryError, and so does a header
        of another format than LOG_FORMAT, at line 1. Returns the version
        tag the log was written under (None when empty).

        Resume queues the work the log leaves unfinished, except that of
        halted flows: every invocation that never completed, in log order,
        for step to dispatch, then the completions after the last quiet mark,
        to match again. A caller that goes on writing the log attaches it.

        resume=False queues nothing: the history is loaded for inspection.
        """
        version = None
        records: dict[str, ActionRecord] = {}  # id -> record in log order, for lines that name ids
        quiet = len(self._unreplayed)  # the _unreplayed index just after the last quiet mark
        with (open(path, "rb") if os.path.exists(path) else io.BytesIO()) as log:
            for pos, line in enumerate(log, start=1):
                if not line.endswith(b"\n"):
                    warnings.warn(f"line {pos}: skipped {len(line)} bytes after the last newline",
                                  RuntimeWarning, stacklevel=2)
                    break
                if pos == 1:
                    head = _read_doc(line, 1)
                    if "version" not in head or not head.keys() <= {"version", "format"}:
                        raise RecoveryError("missing version header", 1)
                    fmt = head.get("format", 1)  # the tag came with format 2
                    if fmt != LOG_FORMAT:
                        raise RecoveryError(f"log format {fmt}, this build reads format {LOG_FORMAT}", 1)
                    version = head["version"]
                    continue
                doc = _read_doc(line, pos)
                keys = doc.keys()
                if keys == _QUIET_KEYS and doc["quiet"] is True:
                    quiet = len(self._unreplayed)
                    continue
                if keys == _HALT_KEYS and isinstance(doc["halt"], str):
                    self.halted.add(doc["halt"])
                    continue
                try:
                    if keys == _FIRING_KEYS:
                        sync, sources, invocations = firing_from_doc(doc)
                        flow = self._check_firing(sync, sources, invocations, records)
                        _insert_firing(flow, sync, sources, invocations)
                        records.update((inv.id, inv) for inv in invocations)
                        continue
                    if "input" not in keys:
                        rec = completion_from_doc(doc, records)
                    else:
                        rec = record_from_doc(doc, completed=True)
                        # a line that holds its input is a flow's first completion
                        if rec.id in records or rec.flow in self.flows:
                            raise ValueError("a record line with its input starts a new flow under a new id")
                        self.flows[rec.flow] = Flow({}, {})
                except Exception as exc:
                    raise RecoveryError(f"bad action record: {exc}", pos)
                records[rec.id] = self.flows[rec.flow].records[rec.id] = rec
                self._unreplayed.append(rec)
            if resume:
                # invocations complete before anything is matched; the guards
                # make the completions that already fired inert
                pending = [rec for rec in records.values() if not rec.is_completion]
                unmatched = self._unreplayed[quiet:]  # the completions after the last quiet mark
                self.queue.extend(rec for rec in pending + unmatched if rec.flow not in self.halted)
        return version

    # ------------------------------------------------------------ inspection

    def actions(self) -> list[ActionRecord]:
        """Every record, flow by flow in the order the flows began."""
        return [rec for flow in self.flows.values() for rec in flow.records.values()]

    def flow_records(self, flow: str) -> list[ActionRecord]:
        return list(self.flows.get(flow, _NO_FLOW).records.values())

    def root_records(self) -> list[ActionRecord]:
        """Completions nothing caused: the external submissions, each the
        first record of its flow, in log order."""
        return [next(iter(flow.records.values())) for flow in self.flows.values()]

    def trace_flow(self, flow: str) -> FlowTrace:
        """The provenance DAG of one flow: records, firings, and rule labels."""
        held = self.flows.get(flow, _NO_FLOW)
        return FlowTrace(flow, tuple(held.records.values()), tuple(held.firings.values()))

"""The synchronization engine.

Completions land on a queue. Each step pops one and matches it against the
rules that name its concept and action in a when pattern: the when patterns
must all be satisfied by completions of the same flow, the where clause is
evaluated against current concept state, and each surviving frame
instantiates the then templates as fresh invocations. Each append to the
JSON-lines log is one line, written before it takes effect: a completion, a
firing {"sync","from","then"} (then is empty for a no-op), or a mark. In
memory a firing is held as its line holds it, a Firing of the rule, the
completions it joined and the invocations it made: that is the provenance,
and its (rule, completions) pair is the guard that keeps it from firing
twice. A recovered engine rebuilds both from the firing lines alone, so it
holds what the writer held. The log is the only record of history; the quad
store holds concept state and nothing else.

Each rule is compiled once, when it is registered: its concept names are
qualified to IRIs and it is filed under every (concept IRI, action) its when
patterns name. Records and firings are indexed by flow, so matching a
completion and tracing a flow cost as much as that flow, not the history.

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
before it has been matched. When it gives up on a flow for exceeding
step_limit, it takes that flow's completions off the queue and appends a
halt mark, {"halt":"<flow>"}. Resume re-queues only the completions after
the last quiet mark and leaves halted flows alone, so a restart re-matches
the unfinished tail instead of the whole history (redo from the last point
the log shows complete, as in ARIES). A log without marks re-matches every
completion, which the firing guards make inert. Bytes after the last
newline are a write a crash cut short: recovery skips them with a
RuntimeWarning and resume cuts them off before appending.
"""

from __future__ import annotations

import io
import json
import os
import threading
import warnings
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path

from .core import (
    UUID_RE,
    ActionRecord,
    Firing,
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
    GraphView,
    Namespace,
    QuadStore,
    frame_key,
    group_by_eachthen,
    has_eachthen,
    is_var,
)
from .synclang import Rec, SyncDef, check_syncs

DEFAULT_PREFIX = "https://concepts.example/v0/"

QUIET_LINE = '{"quiet":true}'
_QUIET_BYTES = (QUIET_LINE + "\n").encode()


class EngineError(Exception):
    pass


class RecoveryError(Exception):
    """Log replay failed. `position` is the 1-based offending line number."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"line {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class TraceNode:
    record: ActionRecord
    syncs: tuple  # names of the rules that caused this record; () for roots


@dataclass(frozen=True)
class FlowTrace:
    """Everything one flow did: its records and the firings among them."""

    flow: str
    root: ActionRecord | None
    nodes: tuple
    firings: tuple

    def sync_labels(self) -> set:
        return {f.sync for f in self.firings}


@dataclass(frozen=True)
class _Rule:
    """A SyncDef with its concept names qualified, compiled at registration."""

    sync: SyncDef
    when: tuple  # ((concept iri, action, inputs, outputs), ...)
    then: tuple  # ((concept iri, action, fields), ...)


_MISSING = object()


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
        doc = {
            "concept": rec.concept,
            "name": rec.name,
            "flow": rec.flow,
            "input": to_jsonable(rec.input),
        }
        if rec.output is not None:
            doc["output"] = to_jsonable(rec.output)
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


def _read_doc(line: bytes, pos: int) -> dict:
    try:
        doc = json.loads(line.decode())  # the log is utf-8; loads would sniff it per line
    except ValueError as exc:
        raise RecoveryError(f"unreadable log line: {exc}", pos)
    if not isinstance(doc, dict):
        raise RecoveryError("log line is not an object", pos)
    return doc


class Engine:
    """Owns the store, the ruleset, the work queue, and the append-only log."""

    def __init__(
        self,
        prefix: str = DEFAULT_PREFIX,
        version: str = "dev",
        step_limit: int = 10_000,
    ) -> None:
        self.prefix = prefix
        self.version = version
        self.step_limit = step_limit
        self.store = QuadStore()
        self.concepts: dict[str, tuple[ConceptSpec, object]] = {}
        self.namespaces: dict[str, Namespace] = {}
        self.bootstrap: str | None = None
        self.syncs: list[SyncDef] = []
        self.records: dict[str, ActionRecord] = {}  # insertion order = log order
        # per flow: its records (in self.records order) and its firings
        self._by_flow: dict[str, dict[str, ActionRecord]] = {}
        self._firings_by_flow: dict[str, list[Firing]] = {}
        # (concept iri, action) -> (rule, its (inputs, outputs) patterns on it),
        # in registration order
        self._triggers: dict[tuple, list[tuple]] = {}
        self.fired: dict[tuple, Firing] = {}  # guard (rule, completion ids) -> firing
        self.queue: deque = deque()
        self._by_iri: dict[str, str] = {}
        self._log = None
        self._log_path: Path | None = None
        self._lock = threading.RLock()

    # ------------------------------------------------------------- assembly

    def register_concept(self, spec: ConceptSpec, handle, bootstrap: bool = False) -> None:
        with self._lock:
            if spec.name in self.concepts:
                raise EngineError(f"concept already registered: {spec.name}")
            validate_against(spec, self.prefix)
            iri = qualify(self.prefix, spec.name)
            graph = f"app://graphs/{self.version}/{spec.name}"
            ns = Namespace(graph, iri)
            handle.attach(GraphView(self.store, graph), ns)
            self.concepts[spec.name] = (spec, handle)
            self.namespaces[spec.name] = ns
            self._by_iri[iri] = spec.name
            if bootstrap:
                if self.bootstrap is not None:
                    raise EngineError(f"bootstrap concept already chosen: {self.bootstrap}")
                self.bootstrap = spec.name

    def register_sync(self, sync: SyncDef) -> None:
        with self._lock:
            if any(s.name == sync.name for s in self.syncs):
                raise EngineError(f"sync already registered: {sync.name}")
            rule = self._compile(sync)
            self.syncs.append(sync)
            # a rule with no pattern on a completion's (concept, action) can
            # never count that completion as its trigger, so it is not visited
            for trigger in dict.fromkeys(pat[:2] for pat in rule.when):
                pats = tuple((p[2], p[3]) for p in rule.when if p[:2] == trigger)
                self._triggers.setdefault(trigger, []).append((rule, pats))

    def _compile(self, sync: SyncDef) -> _Rule:
        return _Rule(
            sync,
            tuple((qualify(self.prefix, p.concept), p.action, p.inputs, p.outputs) for p in sync.when),
            tuple((qualify(self.prefix, t.concept), t.action, t.fields) for t in sync.then),
        )

    def register_syncs(self, syncs) -> None:
        for sync in syncs:
            self.register_sync(sync)

    def lint(self) -> list[str]:
        """Static diagnostics for the registered ruleset. Empty means clean."""
        with self._lock:
            specs = [spec for spec, _ in self.concepts.values()]
            return check_syncs(self.syncs, specs)

    # ------------------------------------------------------------ durability

    def attach_log(self, path) -> None:
        with self._lock:
            self._log_path = Path(path)
            self._log = open(self._log_path, "a", encoding="utf-8")
            if self._log.tell() == 0:
                self._log.write(json.dumps({"version": self.version}) + "\n")
                self._log.flush()

    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None

    def _append(self, line: str) -> None:
        # one write + flush per line: every line is a whole recovery unit
        if self._log is not None:
            self._log.write(line + "\n")
            self._log.flush()

    # -------------------------------------------------------------- plumbing

    def _insert_record(self, rec: ActionRecord) -> None:
        # a completion replacing its invocation keeps the invocation's slot
        self.records[rec.id] = rec
        self._by_flow.setdefault(rec.flow, {})[rec.id] = rec

    def _insert_firing(self, sync: str, sources: tuple, invocations: list) -> None:
        """Take in one firing, as made or as read back from its log line."""
        firing = Firing(sync, sources, tuple([inv.id for inv in invocations]))
        self.fired[sync, sources] = firing
        for inv in invocations:
            self._insert_record(inv)
        # its completions and invocations are all of one flow
        self._firings_by_flow.setdefault(self.records[sources[0]].flow, []).append(firing)

    def _check_firing(self, sync: str, sources: tuple, invocations: list) -> None:
        """Refuse a logged firing unless the completions it joined were
        logged before it, in the flow of its new invocations, and its guard
        has not fired yet."""
        flows = {inv.flow for inv in invocations}
        for cid in sources:
            rec = self.records.get(cid)
            if rec is None or rec.output is None:
                raise ValueError("a firing line names a completion not logged before it")
            flows.add(rec.flow)
        if len(flows) != 1:
            raise ValueError("a firing line spans more than one flow")
        ids = {inv.id for inv in invocations}
        # keys().isdisjoint walks ids; set.isdisjoint(dict) would walk the whole history
        repeats = (sync, sources) in self.fired or not self.records.keys().isdisjoint(ids)
        if repeats or len(ids) < len(invocations):
            raise ValueError("a firing line repeats a logged firing or record")

    def _check_completion(self, rec: ActionRecord) -> None:
        """Refuse a logged record unless it is a completion that starts a
        flow or completes a logged invocation of its flow."""
        old = self.records.get(rec.id)
        if old is None:
            fits = rec.flow not in self._by_flow
        else:
            fits = old.flow == rec.flow and old.output is None
        if not (rec.output is not None and fits):
            raise ValueError("a record line neither starts a flow nor completes an invocation of its flow")

    def _accepts(self, spec: ConceptSpec, action: str, given: dict) -> bool:
        keys = set(given)
        for sig in spec.overloads(action):
            declared = {f for f, _ in sig.inputs}
            if declared <= keys and (sig.open_input or keys <= declared):
                return True
        return False

    def _run_handle(self, rec: ActionRecord) -> dict:
        name = self._by_iri.get(rec.concept)
        if name is None:
            return {"error": f"unknown concept: {rec.concept}"}
        spec, handle = self.concepts[name]
        if not self._accepts(spec, rec.name, rec.input):
            return {"error": f"no matching overload: {name}/{rec.name}"}
        try:
            out = handle.invoke(rec.name, rec.input, rec.id)
        except Exception as exc:  # a broken handle must not take the engine down
            return {"error": f"{name}/{rec.name} raised: {exc}"}
        if not isinstance(out, dict):
            return {"error": f"{name}/{rec.name} returned a non-record"}
        return out

    # ------------------------------------------------------------- execution

    def submit_external(self, concept: str, action: str, inputs: dict) -> str:
        """Record one externally caused completion and return its fresh flow.

        Only the bootstrap concept takes external submissions; everything
        else is reachable solely through rule firings.
        """
        with self._lock:
            if self.bootstrap is None or concept != self.bootstrap:
                raise EngineError(
                    f"external submissions enter through the bootstrap concept, not {concept}"
                )
            flow = new_flow()
            rec = ActionRecord(new_id(), qualify(self.prefix, concept), action, flow, dict(inputs))
            done = replace(rec, output=self._run_handle(rec))
            self._append(record_to_json(done))
            self._insert_record(done)
            self.queue.append(done.id)
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
        completions fill the rest; already-fired keys are excluded."""
        flow_recs = self._by_flow[trigger.flow].values()
        pats = rule.when
        # each pattern's candidates: the flow's completions on its (concept, action)
        cands = [
            [r for r in flow_recs if r.concept == iri and r.name == action and r.output is not None]
            for iri, action, _inputs, _outputs in pats
        ]
        name = rule.sync.name
        results = []
        seen = set()
        # depth-first join on an explicit stack: children are pushed in
        # reverse so frames come off in the order a recursive join visits them
        stack = [(0, {}, (), False)]
        while stack:
            i, frame, used, hit = stack.pop()
            if i == len(pats):
                if not hit:
                    continue
                key = (name, tuple(sorted(used)))
                if key in self.fired:
                    continue
                mark = (key, frame_key(frame))
                if mark in seen:
                    continue
                seen.add(mark)
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
        if key in self.fired:
            return []
        sync = rule.sync
        frames = [frame]
        if sync.where is not None:
            frames = self.store.evaluate(sync.where, seed=frame, namespaces=self.namespaces)
            if has_eachthen(sync.where):
                frames = group_by_eachthen(frames)
        invocations = [ActionRecord(new_id(), iri, action, flow, _fill_fields(fields, fr))
                       for fr in frames for iri, action, fields in rule.then]
        self._append(firing_to_json(sync.name, key[1], invocations))
        self._insert_firing(sync.name, key[1], invocations)
        return invocations

    def _dispatch(self, inv: ActionRecord) -> None:
        done = replace(inv, output=self._run_handle(inv))
        self._append(record_to_json(done))
        self._insert_record(done)
        self.queue.append(done.id)

    def step(self) -> bool:
        """Process one queued completion. False when the queue is empty."""
        with self._lock:
            if not self.queue:
                return False
            trigger = self.records[self.queue.popleft()]
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
        that exceeds it leaves the queue, a halt mark is logged for it, and
        EngineError is raised.
        """
        steps = 0
        per_flow: dict[str, int] = {}
        while True:
            with self._lock:
                flow = self.records[self.queue[0]].flow if self.queue else None
                if not self.step():
                    if steps:
                        # nothing logged so far is left to match
                        self._append(QUIET_LINE)
                    return steps
            steps += 1
            per_flow[flow] = per_flow.get(flow, 0) + 1
            if per_flow[flow] > self.step_limit:
                with self._lock:
                    # the looping flow is dropped here and on resume, so it
                    # does not halt every later run of this engine or its log
                    self.queue = deque(rid for rid in self.queue if self.records[rid].flow != flow)
                    self._append(json.dumps({"halt": flow}, separators=(",", ":")))
                raise EngineError(
                    f"no quiescence after {self.step_limit} steps, a rule loop is likely"
                )

    def pending_matches(self) -> list:
        """Every (sync name, FiringKey) a fresh matching pass would fire now.

        A quiescent engine must return []: all satisfiable matches are
        already evidenced by firings.
        """
        with self._lock:
            out = []
            for rec in self.records.values():
                if not rec.is_completion:
                    continue
                for rule in self._visits(rec):
                    for _frame, key in self._match_when(rule, rec):
                        out.append((rule.sync.name, key))
            return out

    # -------------------------------------------------------------- recovery

    def recover_from(self, path, resume: bool = True) -> str | None:
        """Replay a log into this engine, then reopen it for appending.

        Concept state is rebuilt by re-running each completed action's
        handle; the logged output stays authoritative. Firing guards come
        back from the firing lines, so nothing already fired fires twice.
        A line the writer could not have made fails with RecoveryError.
        Returns the version tag the log was written under (None when empty).

        Resume cuts off a torn last line, re-queues the completions logged
        after the last quiet mark and dispatches every invocation that never
        completed, except those of halted flows.

        resume=False loads the log read-only for inspection: no reopening,
        no pending dispatch, nothing queued.
        """
        log_path = Path(path)
        version = None
        torn = b""  # bytes after the last newline: a write the crash cut short
        completions: list[str] = []  # since the last quiet mark
        maybe_pending: list[str] = []
        halted: set = set()
        with self._lock, (open(log_path, "rb") if log_path.exists() else io.BytesIO()) as log:
            for pos, line in enumerate(log, start=1):
                if not line.endswith(b"\n"):
                    torn = line
                    warnings.warn(f"line {pos}: skipped {len(torn)} bytes after the last newline",
                                  RuntimeWarning, stacklevel=2)
                    break
                if pos == 1:
                    head = _read_doc(line, 1)
                    if head.keys() != {"version"}:
                        raise RecoveryError("missing version header", 1)
                    version = head["version"]
                    continue
                if line == _QUIET_BYTES:
                    completions.clear()
                    continue
                doc = _read_doc(line, pos)
                keys = doc.keys()
                if keys == {"halt"} and isinstance(doc["halt"], str):
                    halted.add(doc["halt"])
                    continue
                try:
                    if keys == {"sync", "from", "then"}:
                        sync, sources, invocations = firing_from_doc(doc)
                        self._check_firing(sync, sources, invocations)
                        self._insert_firing(sync, sources, invocations)
                        maybe_pending.extend(inv.id for inv in invocations)
                        continue
                    rec = record_from_doc(doc)
                    self._check_completion(rec)
                except Exception as exc:
                    raise RecoveryError(f"bad action record: {exc}", pos)
                self._insert_record(rec)
                self._run_handle(rec)  # rebuilds state; the logged output stands
                completions.append(rec.id)
            pending = [rid for rid in maybe_pending if not self.records[rid].is_completion]
            if halted:
                completions = [rid for rid in completions if self.records[rid].flow not in halted]
                pending = [rid for rid in pending if self.records[rid].flow not in halted]
            if resume:
                # the completions the log does not show matched get another
                # pass; the guards make the ones that already fired inert
                self.queue.extend(completions)
        if not resume:
            return version
        if torn:
            os.truncate(log_path, log_path.stat().st_size - len(torn))
        self.attach_log(log_path)
        with self._lock:
            for rid in pending:
                self._dispatch(self.records[rid])
        return version

    # ------------------------------------------------------------ inspection

    def actions(self) -> list[ActionRecord]:
        with self._lock:
            return list(self.records.values())

    def flow_records(self, flow: str) -> list[ActionRecord]:
        with self._lock:
            return list(self._by_flow.get(flow, {}).values())

    def root_records(self) -> list[ActionRecord]:
        """Completions nothing caused: the external submissions, each the
        first record of its flow, in log order."""
        with self._lock:
            return [next(iter(recs.values())) for recs in self._by_flow.values()]

    def trace_flow(self, flow: str) -> FlowTrace:
        """The provenance DAG of one flow: records, firings, and rule labels."""
        with self._lock:
            recs = list(self._by_flow.get(flow, {}).values())
            firings = tuple(self._firings_by_flow.get(flow, ()))
            cause = {rid: (f.sync,) for f in firings for rid in f.targets}
            nodes = tuple(TraceNode(r, cause.get(r.id, ())) for r in recs)
            return FlowTrace(flow, recs[0] if recs else None, nodes, firings)

"""Spans around tandem's public entry points, and the per-layer split.

Tracing is installed from outside: `Tracer.install()` swaps each entry point
named in `ENTRY_POINTS` for a wrapper that records one span per call (name,
start, end, parent, flow id) in memory. Spans are written out when the run
ends. A layer's self time is its span minus its child spans, so the self
times of all layers add up to the traced time.

An entry point a later version of tandem removes or renames is reported as
absent and its metrics read 0; nothing fails. Untraced runs install
nothing.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time

# The actions the demo application (demo.conf) invokes, by concept.
DEMO_ACTIONS = (
    ("Web", "request"), ("Web", "respond"), ("Web", "format"),
    ("User", "register"), ("Password", "set"), ("Profile", "register"),
    ("JWT", "generate"), ("JWT", "verify"),
    ("Article", "create"), ("Article", "delete"),
    ("Comment", "add"), ("Comment", "delete"), ("Tag", "add"),
)

# (span name, module, class or "" for a module-level function, attribute).
# Module-level functions are rebound in every tandem module that imported
# them by name, so the engine's own calls are seen.
ENTRY_POINTS = (
    ("engine.step", "tandem.engine", "Engine", "step"),
    ("engine.submit_external", "tandem.engine", "Engine", "submit_external"),
    ("engine.recover_from", "tandem.engine", "Engine", "recover_from"),
    ("store.evaluate", "tandem.store", "QuadStore", "evaluate"),
    ("store.insert", "tandem.store", "QuadStore", "insert"),
    ("store.remove", "tandem.store", "QuadStore", "remove"),
    ("concepts.invoke", "tandem.concepts", "ConceptHandle", "invoke"),
    ("core.record_to_json", "tandem.core", "", "record_to_json"),
    ("core.record_to_quads", "tandem.core", "", "record_to_quads"),
    ("core.record_from_json", "tandem.core", "", "record_from_json"),
    ("gateway.submit", "tandem.gateway", "Runtime", "submit"),
    ("synclang.parse_syncs", "tandem.synclang", "", "parse_syncs"),
    ("speclang.parse_concept", "tandem.speclang", "", "parse_concept"),
    ("cli.assemble", "tandem.cli", "", "assemble"),
)

TANDEM_MODULES = (
    "tandem.core", "tandem.store", "tandem.speclang", "tandem.synclang",
    "tandem.concepts", "tandem.engine", "tandem.gateway", "tandem.cli",
)


def write_calls() -> int:
    """This process's write system calls so far (0 where /proc is absent)."""
    try:
        with open("/proc/self/io", encoding="ascii") as f:
            for line in f:
                if line.startswith("syscw:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _concept_of(handle) -> str:
    try:
        return handle.ns.base.rsplit("/", 1)[1]
    except AttributeError:
        return type(handle).__name__


def _step_flow(engine):
    try:
        return engine.records[engine.queue[0]].flow
    except (AttributeError, IndexError, KeyError):
        return None


class Tracer:
    """In-memory span recorder. One instance per traced process."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent span, flow, child seconds,
        # phase, count]; count is a per-call quantity (frames returned,
        # quads added or removed, 1 for an error answer or a raised call)
        self.spans: list[list] = []
        self.phase = "setup"
        self.absent: list[str] = []
        self.engines: list[list] = []  # [engine, fired at baseline, edges at baseline]
        # settled engines: firings, no-op firings, store quads, flows held
        self.totals = [0, 0, 0, 0]
        self.watch_assembled = False
        self._local = threading.local()
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _wrap(self, name, fn, flow_of=None, count_of=None, after=None, result_flow=False):
        local, spans = self._local, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            flow = parent[4] if parent is not None else None
            if flow is None and flow_of is not None:
                flow = flow_of(*args)
            span = [name(*args) if callable(name) else name, 0.0, 0.0, parent, flow, 0.0,
                    self.phase, 0]
            spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[7] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[5] += span[2] - span[1]
            if count_of is not None:
                span[7] = count_of(result)
            if result_flow and span[4] is None:
                span[4] = result
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        for modname in TANDEM_MODULES:
            try:
                importlib.import_module(modname)
            except ImportError:
                pass
        hooks = {
            "engine.step": {"flow_of": _step_flow},
            "engine.submit_external": {"result_flow": True},
            "store.evaluate": {"count_of": len},
            "store.insert": {"count_of": int},
            "store.remove": {"count_of": int},
            "concepts.invoke": {
                "count_of": lambda out: int(not isinstance(out, dict) or "error" in out),
            },
            "engine.recover_from": {"after": lambda args, _r: self.rebase(args[0])},
            "cli.assemble": {"after": lambda _a, eng: self._assembled(eng)},
        }
        for name, modname, cls, attr in ENTRY_POINTS:
            owner = sys.modules.get(modname)
            if cls and owner is not None:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            label = name
            if name == "concepts.invoke":
                label = lambda h, action, *_: f"concepts.{_concept_of(h)}.{action}"
            wrapped = self._wrap(label, fn, **hooks.get(name, {}))
            if cls:
                self._patch(owner, attr, wrapped)
                continue
            for other in TANDEM_MODULES:
                mod = sys.modules.get(other)
                if mod is not None and getattr(mod, attr, None) is fn:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # ------------------------------------------------------ engine counters

    def _assembled(self, engine) -> None:
        if self.watch_assembled:
            self.watch(engine)

    def watch(self, engine) -> None:
        """Count this engine's firings from now on, until `settle`."""
        self.engines.append([engine, *_engine_counts(engine)])

    def rebase(self, engine) -> None:
        # firings restored from a log are history, not this run's work
        for entry in self.engines:
            if entry[0] is engine:
                entry[1:] = _engine_counts(engine)

    def settle(self) -> None:
        """Fold the watched engines into `totals` and let them go."""
        for engine, fired0, edges0 in self.engines:
            try:
                is_noop = engine.schema.is_noop
                self.totals[0] += len(engine.fired) - fired0
                self.totals[1] += len({e.to_id for e in engine.edges[edges0:] if is_noop(e.to_id)})
                self.totals[2] += len(engine.store)
                self.totals[3] += len({r.flow for r in engine.records.values()})
            except AttributeError:
                if "engine.firings" not in self.absent:
                    self.absent.append("engine.firings")
        self.engines.clear()


def export(spans) -> list:
    """Spans with the parent as an index into the list (-1 for none)."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [[name, start, end, index[id(parent)] if parent is not None else -1,
             flow, child, phase, count]
            for name, start, end, parent, flow, child, phase, count in spans]


def write_spans(path, groups) -> None:
    """Write exported spans as gzipped JSON lines; `groups` is [(process, spans)]."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        for proc, spans in groups:
            for name, start, end, parent, flow, _child, phase, count in spans:
                out.write(json.dumps({
                    "proc": proc, "name": name, "start": start, "end": end,
                    "parent": parent, "flow": flow, "phase": phase, "count": count,
                }) + "\n")


def _engine_counts(engine):
    try:
        return [len(engine.fired), len(engine.edges)]
    except AttributeError:
        return [0, 0]


def summarize(spans, phases) -> dict:
    """name -> [calls, total seconds, self seconds, summed count]."""
    out: dict[str, list] = {}
    for name, start, end, _parent, _flow, child, phase, count in spans:
        if phase not in phases:
            continue
        row = out.setdefault(name, [0, 0.0, 0.0, 0])
        dur = end - start
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        row[3] += count
    return out


# metric name prefix -> the entry point it is measured at
_SOURCES = {
    "engine.step": "engine.step", "engine.recover_from": "engine.recover_from",
    "engine.fires": "engine.firings", "engine.noop": "engine.firings",
    "store.quads": "engine.firings",
    "store.evaluate": "store.evaluate", "store.insert": "store.insert",
    "store.remove": "store.remove", "concepts": "concepts.invoke",
    "core.record_to_json": "core.record_to_json",
    "core.record_to_quads": "core.record_to_quads",
    "core.record_from_json": "core.record_from_json",
    "gateway": "gateway.submit", "synclang": "synclang.parse_syncs",
    "speclang": "speclang.parse_concept", "cli": "cli.assemble",
}


def layer_metrics(spans, flow_phases, recover_phases, flows, extra, absent) -> tuple:
    """The per-layer split, normalised per flow, and the names of metrics
    whose entry point is absent.

    `extra` holds what spans cannot give: fires_per_flow, noop_frac,
    store_quads_per_flow, log_bytes_per_flow, write_calls_per_flow,
    client_rtt_ms (gateway only) and flows_per_s.
    """
    s = summarize(spans, flow_phases)
    rec = summarize(spans, recover_phases).get("engine.recover_from")
    build = summarize(spans, {"setup", "timed", "probe", "server"})
    per = 1.0 / flows if flows else 0.0
    zero = [0, 0.0, 0.0, 0]

    def calls(name):
        return s.get(name, zero)[0]

    def self_ms(name):
        return s.get(name, zero)[2] * 1000.0

    m: dict[str, float] = {}
    m["engine.step.calls_per_flow"] = calls("engine.step") * per
    m["engine.step.self_ms_per_flow"] = self_ms("engine.step") * per
    m["engine.fires_per_flow"] = extra.get("fires_per_flow", 0.0)
    m["engine.noop_frac"] = extra.get("noop_frac", 0.0)
    m["engine.recover_from.s"] = rec[1] / rec[0] if rec else 0.0

    n_eval = calls("store.evaluate")
    m["store.evaluate.calls_per_flow"] = n_eval * per
    m["store.evaluate.ms_per_flow"] = self_ms("store.evaluate") * per
    m["store.evaluate.frames_per_call"] = s.get("store.evaluate", zero)[3] / n_eval if n_eval else 0.0
    m["store.insert.quads_per_flow"] = s.get("store.insert", zero)[3] * per
    m["store.insert.ms_per_flow"] = self_ms("store.insert") * per
    m["store.remove.quads_per_flow"] = s.get("store.remove", zero)[3] * per
    m["store.quads_per_flow"] = extra.get("store_quads_per_flow", 0.0)

    concept_rows = [v for k, v in s.items() if k.startswith("concepts.")]
    invoked = sum(v[0] for v in concept_rows)
    m["concepts.invoke.ms_per_flow"] = sum(v[2] for v in concept_rows) * 1000.0 * per
    m["concepts.invoke.error_frac"] = sum(v[3] for v in concept_rows) / invoked if invoked else 0.0
    for concept, action in DEMO_ACTIONS:
        key = f"concepts.{concept}.{action}"
        m[key + ".calls"] = calls(key) * per
        m[key + ".ms"] = self_ms(key) * per

    for fn in ("record_to_json", "record_to_quads", "record_from_json"):
        m[f"core.{fn}.ms_per_flow"] = self_ms(f"core.{fn}") * per

    m["log.bytes_per_flow"] = extra.get("log_bytes_per_flow", 0.0)
    m["log.write_calls_per_flow"] = extra.get("write_calls_per_flow", 0.0)

    sub = s.get("gateway.submit")
    m["gateway.submit_ms"] = sub[1] / sub[0] * 1000.0 if sub else 0.0
    rtt = extra.get("client_rtt_ms")
    m["gateway.http_overhead_ms"] = rtt - m["gateway.submit_ms"] if rtt is not None and sub else 0.0

    assembled = build.get("cli.assemble", zero)
    per_build = 1.0 / assembled[0] if assembled[0] else 0.0
    m["synclang.parse_s"] = build.get("synclang.parse_syncs", zero)[1] * per_build
    m["speclang.parse_s"] = build.get("speclang.parse_concept", zero)[1] * per_build
    m["cli.assemble_s"] = assembled[1] * per_build

    m["trace.flows_per_s"] = extra.get("flows_per_s", 0.0)
    m["trace.spans_per_flow"] = sum(v[0] for v in s.values()) * per
    missing = set(absent)
    gone = sorted(k for k in m for prefix, source in _SOURCES.items()
                  if source in missing and k.startswith(prefix))
    return m, gone

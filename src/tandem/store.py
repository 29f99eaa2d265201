"""In-memory quad store and the query evaluator used by rule where-clauses.

Concept state lives in two indexes per graph, subject -> predicate -> objects
and predicate -> object -> subjects. A write goes straight to both and adds or
drops one quad; a removal deletes every entry it empties. A Quad is only what
quads() reads out.

Queries are lists of clauses applied left to right over a set of frames
(variable bindings): concept patterns, OPTIONAL blocks, BIND expressions,
comparison filters, and NOT-EXISTS guards. A rule says `User: { ?u name: ?n }`
without knowing graph IRIs; the engine compiles each pattern once, when it
registers the rule, to its concept's graph IRI and predicate IRIs, so the
store sees only IRIs. Results are deduplicated and sorted so a query over the
same store always returns the same frame list.
"""
from __future__ import annotations

from dataclasses import dataclass

from tandem.core import Nil, Quad, Ref, new_id, value_key, values_equal


class QueryError(Exception):
    pass


class GroupingError(Exception):
    pass


@dataclass(frozen=True)
class Var:
    name: str  # keeps the leading "?"

    def __post_init__(self) -> None:
        if not self.name.startswith("?") or len(self.name) < 2:
            raise QueryError(f"variable names start with '?': {self.name!r}")


def is_var(term) -> bool:
    return isinstance(term, Var)


@dataclass(frozen=True)
class Namespace:
    """Where a concept's state lives: its graph plus its predicate base."""

    graph: str
    base: str

    def predicate(self, prop: str) -> str:
        return self.base + "/" + prop


@dataclass(frozen=True)
class ConceptPattern:
    # as parsed, a concept name and (subject term, property name, object
    # term) triples; compiled, its graph IRI and (subject, predicate IRI, object)
    concept: str
    triples: tuple


@dataclass(frozen=True)
class FuncCall:
    name: str  # "uuid" or "coalesce"
    args: tuple = ()


@dataclass(frozen=True)
class Bind:
    expr: object
    target: str  # variable name with "?"


@dataclass(frozen=True)
class Compare:
    left: object
    op: str  # == != < <= > >=
    right: object


@dataclass(frozen=True)
class OptionalBlock:
    clauses: tuple


@dataclass(frozen=True)
class NotExists:
    clauses: tuple


@dataclass(frozen=True)
class Query:
    clauses: tuple = ()


EACHTHEN = "?_eachthen"


def has_eachthen(query: Query | None) -> bool:
    if query is None:
        return False
    return any(isinstance(c, Bind) and c.target == EACHTHEN for c in query.clauses)


def frame_key(frame: dict):
    return tuple(sorted((v, value_key(val)) for v, val in frame.items()))


_ATOMS = (str, int, bool, Ref, Nil)


class QuadStore:
    """Set of quads with per-graph indexes. It belongs to one engine and, like
    that engine, has one caller at a time; threads share both through Runtime."""

    def __init__(self) -> None:
        # graph -> subject -> predicate -> {value_key: object}
        self._spo: dict[str, dict[str, dict[str, dict]]] = {}
        # graph -> predicate -> value_key -> (object, set of subjects)
        self._pos: dict[str, dict[str, dict]] = {}
        self._count = 0

    def insert(self, graph: str, subject: str, predicate: str, obj) -> int:
        """Add one quad; 1 if it was new, 0 if the store held it already."""
        if not isinstance(obj, _ATOMS):
            raise ValueError(f"quad objects must be atoms, got {type(obj).__name__}")
        key = value_key(obj)
        # get, and a new level only on a miss: setdefault builds a throwaway {} on every hit
        if (subjects := self._spo.get(graph)) is None:
            subjects = self._spo[graph] = {}
        if (preds := subjects.get(subject)) is None:
            preds = subjects[subject] = {}
        if (objs := preds.get(predicate)) is None:
            objs = preds[predicate] = {}
        if key in objs:
            return 0
        objs[key] = obj
        if (preds := self._pos.get(graph)) is None:
            preds = self._pos[graph] = {}
        if (entry := preds.get(predicate)) is None:
            entry = preds[predicate] = {}
        if key in entry:
            entry[key][1].add(subject)
        else:
            entry[key] = (obj, {subject})
        self._count += 1
        return 1

    def remove(self, graph: str, subject: str, predicate: str, obj) -> int:
        """Drop one quad and every index entry it leaves empty; 1 if it was held."""
        key = value_key(obj)
        if key not in self._spo.get(graph, {}).get(subject, {}).get(predicate, {}):
            return 0
        _drop(self._spo, (graph, subject, predicate, key))
        subjects = self._pos[graph][predicate][key][1]
        subjects.discard(subject)
        if not subjects:
            _drop(self._pos, (graph, predicate, key))
        self._count -= 1
        return 1

    def __len__(self) -> int:
        return self._count

    def quads(self, graph: str | None = None) -> list[Quad]:
        out = [Quad(s, p, o, g) for g, subs in self._spo.items() if graph is None or g == graph
               for s, preds in subs.items() for p, objs in preds.items() for o in objs.values()]
        return sorted(out, key=lambda q: (q.graph, q.subject, q.predicate, value_key(q.object)))

    # ------------------------------------------------------------ queries

    def evaluate(self, query: Query, seed: dict | None = None) -> list[dict]:
        """Every frame extending the seed that satisfies the compiled query.

        The seed may bind any subset of the query's variables. The result is
        deduplicated and sorted by bound values, so evaluation order never
        shows through.
        """
        frames = self._extend(query.clauses, dict(seed) if seed else {})
        seen = set()
        out = []
        for f in frames:
            k = frame_key(f)
            if k not in seen:
                seen.add(k)
                out.append(f)
        out.sort(key=frame_key)
        return out

    def _extend(self, clauses, frame) -> list[dict]:
        """The frames extending frame that satisfy clauses, [] once none is left."""
        frames = [frame]
        for clause in clauses:
            frames = self._apply(clause, frames)
            if not frames:
                break
        return frames

    def _apply(self, clause, frames):
        if isinstance(clause, ConceptPattern):
            for s_term, pred, o_term in clause.triples:
                frames = self._match_triple(clause.concept, s_term, pred, o_term, frames)
            return frames
        if isinstance(clause, OptionalBlock):
            return [g for f in frames for g in (self._extend(clause.clauses, f) or [f])]
        if isinstance(clause, NotExists):
            return [f for f in frames if not self._extend(clause.clauses, f)]
        if isinstance(clause, Bind):
            out = []
            for f in frames:
                val = self._eval_expr(clause.expr, f)
                if val is _UNBOUND:
                    out.append(f)
                elif clause.target in f:
                    if values_equal(f[clause.target], val):
                        out.append(f)
                else:
                    g = dict(f)
                    g[clause.target] = val
                    out.append(g)
            return out
        if isinstance(clause, Compare):
            return [f for f in frames if self._test(clause, f)]
        raise QueryError(f"unknown clause type: {type(clause).__name__}")

    def _match_triple(self, graph, s_term, pred, o_term, frames):
        by_subject = self._spo.get(graph, {})
        entries = self._pos.get(graph, {}).get(pred, {})
        out = []
        for f in frames:
            s_val = f.get(s_term.name, _UNBOUND) if is_var(s_term) else s_term
            o_val = f.get(o_term.name, _UNBOUND) if is_var(o_term) else o_term
            if s_val is not _UNBOUND:
                subject = _as_subject(s_val)
                if subject is None:
                    continue
                objs = by_subject.get(subject, {}).get(pred, {})
                if o_val is _UNBOUND:
                    hits = [(subject, o) for o in objs.values()]
                else:
                    key = value_key(o_val)
                    hits = [(subject, objs[key])] if key in objs else []
            elif o_val is _UNBOUND:
                hits = [(s, o) for o, subjects in entries.values() for s in subjects]
            else:
                o, subjects = entries.get(value_key(o_val), (None, ()))
                hits = [(s, o) for s in subjects]
            for s, o in hits:
                g = f
                if s_val is _UNBOUND:
                    g = dict(g)
                    g[s_term.name] = Ref(s)
                if is_var(o_term):
                    bound = g.get(o_term.name, _UNBOUND)
                    if bound is _UNBOUND:
                        if g is f:
                            g = dict(g)
                        g[o_term.name] = o
                    elif not values_equal(bound, o):
                        continue  # same var bound twice in this triple must agree
                out.append(g)
        return out

    def _eval_expr(self, expr, frame):
        if is_var(expr):
            return frame.get(expr.name, _UNBOUND)
        if isinstance(expr, FuncCall):
            if expr.name == "uuid":
                return Ref(new_id())
            if expr.name == "coalesce":
                for arg in expr.args:
                    val = self._eval_expr(arg, frame)
                    if val is not _UNBOUND:
                        return val
                return _UNBOUND
            raise QueryError(f"unknown function: {expr.name}")
        return expr

    def _test(self, clause, frame):
        vals = []
        for term in (clause.left, clause.right):
            if is_var(term):
                if term.name not in frame:
                    raise QueryError(f"unbound variable in filter: {term.name}")
                vals.append(frame[term.name])
            else:
                vals.append(term)
        a, b = vals
        if clause.op == "==":
            return values_equal(a, b)
        if clause.op == "!=":
            return not values_equal(a, b)
        ka, kb = value_key(a), value_key(b)
        if ka[0] != kb[0]:
            return False  # ordered comparison across types never holds
        if clause.op == "<":
            return ka < kb
        if clause.op == "<=":
            return ka <= kb
        if clause.op == ">":
            return ka > kb
        if clause.op == ">=":
            return ka >= kb
        raise QueryError(f"unknown comparison operator: {clause.op}")


_UNBOUND = object()


def _drop(index: dict, path: tuple) -> None:
    """Delete the entry at path in nested dicts, then each dict that leaves empty."""
    if len(path) > 1:
        _drop(index[path[0]], path[1:])
        if index[path[0]]:
            return
    del index[path[0]]


def _as_subject(value) -> str | None:
    if isinstance(value, Ref):
        return value.iri
    if isinstance(value, str) and "://" in value:
        return value
    return None


def group_by_eachthen(frames: list[dict]) -> list[dict]:
    """Collapse frames into one frame per distinct value of ?_eachthen.

    Within a group, a variable with one distinct value stays scalar; several
    distinct values become a sorted, deduplicated list. Variables bound in no
    frame of the group stay absent.
    """
    if not frames:
        return []
    groups: dict = {}
    order = []
    for f in frames:
        if EACHTHEN not in f:
            raise GroupingError(f"grouping variable {EACHTHEN} unbound in a frame")
        k = value_key(f[EACHTHEN])
        if k not in groups:
            groups[k] = []
            order.append(k)
        groups[k].append(f)
    out = []
    for k in sorted(order):
        members = groups[k]
        names = sorted({n for f in members for n in f})
        merged = {}
        for n in names:
            distinct = {}
            for f in members:
                if n in f:
                    distinct.setdefault(value_key(f[n]), f[n])
            if not distinct:
                continue
            if len(distinct) == 1:
                merged[n] = next(iter(distinct.values()))
            else:
                merged[n] = [distinct[kk] for kk in sorted(distinct)]
        out.append(merged)
    return out


class GraphView:
    """A concept's handle on its own state graph. No way to name other graphs."""

    def __init__(self, store: QuadStore, graph: str) -> None:
        self._store = store
        self._graph = graph

    def add(self, subject: str, predicate: str, obj) -> None:
        self._store.insert(self._graph, subject, predicate, obj)

    def set(self, subject: str, predicate: str, obj) -> None:
        """Replace whatever values (subject, predicate) had with one value."""
        objs = self._store._spo.get(self._graph, {}).get(subject, {}).get(predicate, {})
        for old in list(objs.values()):
            self._store.remove(self._graph, subject, predicate, old)
        self.add(subject, predicate, obj)

    def remove(self, subject: str | None = None, predicate: str | None = None, obj=None) -> int:
        """Drop every quad of this graph that agrees with the given terms; None is a wildcard."""
        by_subject = self._store._spo.get(self._graph, {})
        key = None if obj is None else value_key(obj)
        doomed = [(s, p, o) for s in (by_subject if subject is None else [subject])
                  for p, objs in by_subject.get(s, {}).items() if predicate is None or p == predicate
                  for k, o in objs.items() if key is None or k == key]
        return sum(self._store.remove(self._graph, s, p, o) for s, p, o in doomed)

    def objects(self, subject: str, predicate: str) -> list:
        objs = self._store._spo.get(self._graph, {}).get(subject, {}).get(predicate, {})
        return [objs[k] for k in sorted(objs)]

    def value(self, subject: str, predicate: str, default=None):
        objs = self._store._spo.get(self._graph, {}).get(subject, {}).get(predicate, {})
        return objs[min(objs)] if objs else default

    def subjects(self, predicate: str, obj=None) -> list[str]:
        entries = self._store._pos.get(self._graph, {}).get(predicate, {})
        if obj is None:
            return sorted({s for _o, subs in entries.values() for s in subs})
        _o, subs = entries.get(value_key(obj), (None, ()))
        return sorted(subs)

    def has(self, subject: str | None = None, predicate: str | None = None, obj=None) -> bool:
        # either index maps predicate -> value_key -> the object, or it with its subjects
        if subject is None:
            index = self._store._pos.get(self._graph, {})
        else:
            index = self._store._spo.get(self._graph, {}).get(subject, {})
        tables = index.values() if predicate is None else [index.get(predicate, {})]
        if obj is None:
            return any(tables)
        key = value_key(obj)
        return any(key in table for table in tables)

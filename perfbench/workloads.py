"""The four workloads: inputs from a seed, closed-loop callers, answer checks.

Every workload runs in epochs. An epoch starts from fresh state (its set-up,
timed for `setup_s`) and then runs a fixed amount of closed-loop work, so
history grows from the same start to the same depth in every epoch and the
figures do not depend on how fast the program happened to be. Epochs repeat
until the timed work has lasted `seconds` (and at least MIN_EPOCHS ran).
"""
from __future__ import annotations

import contextlib
import gc
import http.client
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tandem import cli
from tandem.concepts import slugify
from tandem.engine import normalize_flows
from tandem.gateway import reply_parts
from tracing import write_calls

HERE = Path(__file__).resolve().parent
CONFIG = "@builtin/demo.conf"
MIN_EPOCHS = 3
# Request mixes. Each run of len(mix) requests has exactly this mix in an
# order the seed shuffles, so every tenth of an epoch has the same mix and
# late_early_ratio compares like with like. No measured traffic mix of a
# RealWorld API is at hand, so every request kind has the same weight, except
# the one in ten short passwords of `register`.
REGISTER_MIX = ("valid",) * 9 + ("short",)          # 1 in 10 gets a 422
CONTENT_MIX = ("create", "comment", "delete", "forged")
GATEWAY_MIX = ("register",) + CONTENT_MIX + ("bad_body", "unknown_path")
WORDS = ("alpha", "beta", "gamma", "delta", "sigma", "omega", "kappa", "lambda",
         "rust", "python", "river", "stone", "cloud", "ember", "frost", "meadow")


# ----------------------------------------------------------------- inputs

class Inputs:
    """Request payloads drawn from one seeded generator."""

    def __init__(self, rng: random.Random, tag: str) -> None:
        self.rng = rng
        self.tag = tag
        self.n = 0
        self._cycles: dict = {}

    def kind(self, mix) -> str:
        """The next request kind of `mix`."""
        cycle = self._cycles.setdefault(mix, [])
        if not cycle:
            cycle.extend(self.rng.sample(mix, len(mix)))
        return cycle.pop()

    def _next(self) -> int:
        self.n += 1
        return self.n

    def register(self, short=False):
        i = self._next()
        name = f"{self.rng.choice(WORDS)}{self.tag}n{i}"
        if short:
            password = "".join(self.rng.choice("abcxyz019") for _ in range(self.rng.randint(3, 7)))
        else:
            password = "".join(self.rng.choice("abcxyz019!") for _ in range(self.rng.randint(8, 16)))
        payload = {"method": "register", "username": name,
                   "email": f"{name}@example.org", "password": password}
        return payload, Expect("register", name=name, ok=len(password) >= 8)

    def create(self, token, author, good=True):
        i = self._next()
        title = f"{self.rng.choice(WORDS)} {self.rng.choice(WORDS)} {self.tag} {i}"
        tags = self.rng.sample(WORDS, self.rng.randint(2, 3))
        payload = {"method": "create_article", "title": title, "description": f"about {title}",
                   "body": " ".join(self.rng.choice(WORDS) for _ in range(12)),
                   "tagList": tags, "token": token if good else f"forged-{i}"}
        if not good:
            return payload, Expect("unauthorized")
        return payload, Expect("article", slug=slugify(title), tags=sorted(tags), name=author)

    def comment(self, slug, author):
        body = " ".join(self.rng.choice(WORDS) for _ in range(6))
        payload = {"method": "add_comment", "slug": slug, "author": author, "body": body}
        return payload, Expect("comment", slug=slug)

    def delete(self, slug, comments):
        return ({"method": "delete_article", "slug": slug},
                Expect("delete", slug=slug, comments=set(comments)))


@dataclass
class Expect:
    kind: str
    name: str = ""
    ok: bool = True
    slug: str = ""
    tags: list = field(default_factory=list)
    comments: set = field(default_factory=set)


def check(expect: Expect, code, doc, records=None) -> bool:
    """Does one answer match what the request should get?"""
    if code is None or not isinstance(doc, dict):
        return False
    kind = expect.kind
    if kind == "register":
        if not expect.ok:
            return code == 422 and bool(doc.get("error"))
        user = doc.get("user") or {}
        return (code == 200 and user.get("username") == expect.name
                and user.get("email") == f"{expect.name}@example.org"
                and isinstance(user.get("token"), str) and bool(user["token"]))
    if kind == "article":
        art = doc.get("article") or {}
        tags = art.get("tagList")
        tags = sorted(tags) if isinstance(tags, list) else [tags]
        return (code == 200 and art.get("slug") == expect.slug and tags == expect.tags
                and (art.get("author") or {}).get("username") == expect.name)
    if kind == "comment":
        ref = doc.get("comment")
        return code == 200 and isinstance(ref, dict) and isinstance(ref.get("$ref"), str)
    if kind == "delete":
        if code != 200 or doc:
            return False
        if records is None:
            return True
        deleted = {r.input["comment"].iri for r in records
                   if r.name == "delete" and r.concept.endswith("/Comment") and r.is_completion}
        return deleted == expect.comments
    if kind == "unauthorized":
        return code == 401 and bool(doc.get("error"))
    if kind == "bad_request":
        return code == 400 and bool(doc.get("error"))
    if kind == "not_found":
        return code == 404 and bool(doc.get("error"))
    return False


# ------------------------------------------------------------ run results

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class Run:
    """What a workload measured; run.py turns it into metrics."""

    clients: int = 1
    tally: Tally = field(default_factory=Tally)
    # (seconds, reference_task seconds around it) per set-up
    setups: list = field(default_factory=list)
    # per epoch, per client: flow latencies (s) in request order
    epochs: list = field(default_factory=list)
    # p50_ms and p99_ms leave out each epoch's first positions (restart:
    # its cold requests on the half log)
    percentile_from: int = 0
    timed_s: float = 0.0
    # (seconds, reference_task seconds around it) per read-only load and per
    # cold `tandem request`
    recover: list = field(default_factory=list)
    resume: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    # per epoch, reference_task seconds at the start of each tenth of its
    # timed work (of each cold request on restart) and at its end
    reference: list = field(default_factory=list)
    # per-layer inputs, gathered only by traced runs
    flows_traced: int = 0   # flows the span metrics are normalised by
    log_bytes: int = 0
    write_calls: int = 0
    client_rtt: list = field(default_factory=list)
    server_spans: list = field(default_factory=list)
    server_absent: list = field(default_factory=list)


def reference_task() -> int:
    """A fixed piece of pure-Python work, independent of tandem: string
    formatting, a dict of strings and small JSON round trips. It keeps
    under 0.2 MB and every container it makes dies at once, so running it
    beside a live engine moves neither the engine's peak memory nor its
    garbage collections."""
    seen: dict = {}
    total = 0
    for i in range(1500):
        key = f"s{i % 251}/p{i % 7}"
        seen[key] = i
        doc = json.dumps({"key": key, "i": i, "v": [i, key, None]})
        total += len(json.loads(doc)["v"])
    return total + len(seen)


def reference_time() -> float:
    """Seconds reference_task takes now."""
    started = time.perf_counter()
    reference_task()
    return time.perf_counter() - started


def time_call(call):
    """(result, seconds, mean reference_time just before and just after)."""
    before = reference_time()
    started = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - started
    return result, elapsed, (before + reference_time()) / 2


def usable_cpus() -> int:
    """Processors this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------- engine direct

class EngineApp:
    """One engine assembled from the demo config, with its own log file."""

    def __init__(self, log_path: Path) -> None:
        log_path.unlink(missing_ok=True)
        self.log_path = log_path
        self.engine = cli.assemble(cli.load_config(CONFIG))
        diags = self.engine.lint()
        if diags:
            raise RuntimeError(f"demo ruleset does not lint: {diags}")
        self.engine.attach_log(log_path)

    def call(self, payload):
        """Submit one request, run it to quiescence, fetch its answer."""
        eng = self.engine
        flow = eng.submit_external(eng.bootstrap, "request", payload)
        eng.run_to_quiescence()
        records = eng.flow_records(flow)
        responds = [r for r in records if r.name == "respond" and r.is_completion]
        if len(responds) != 1:
            return None, None, records
        code, doc = reply_parts(responds[0])
        return code, doc, records

    def close(self) -> None:
        self.engine.close()


@dataclass
class Population:
    users: list = field(default_factory=list)     # (name, token)
    articles: dict = field(default_factory=dict)  # slug -> [comment iri]


def _apply(pop: Population, expect, code, doc) -> None:
    """Fold a correct answer into what later requests may refer to."""
    if expect.kind == "register" and expect.ok:
        pop.users.append((expect.name, doc["user"]["token"]))
    elif expect.kind == "article":
        pop.articles[expect.slug] = []
    elif expect.kind == "comment":
        pop.articles[expect.slug].append(doc["comment"]["$ref"])
    elif expect.kind == "delete":
        del pop.articles[expect.slug]


def content_request(inputs: Inputs, pop: Population, kind: str):
    """A content request of `kind` over a population. A delete needs more
    than three articles and a comment one; otherwise an article is created."""
    rng = inputs.rng
    name, token = rng.choice(pop.users)
    if kind == "forged":
        return inputs.create(token, name, good=False)
    if kind == "delete" and len(pop.articles) > 3:
        slug = rng.choice(sorted(pop.articles))
        return inputs.delete(slug, pop.articles[slug])
    if kind == "comment" and pop.articles:
        return inputs.comment(rng.choice(sorted(pop.articles)), rng.choice(pop.users)[0])
    return inputs.create(token, name)


def checked_call(call, payload, expect, pop, tally) -> None:
    code, doc, recs = call(payload)
    ok = check(expect, code, doc, recs)
    tally.add(ok, f"{expect.kind} -> {code} {str(doc)[:120]}")
    if ok:
        _apply(pop, expect, code, doc)


def populate(call, inputs: Inputs, pop: Population, users: int, articles: int, tally: Tally):
    """Register users and publish articles through full flows."""
    for _ in range(users):
        payload, expect = inputs.register()
        checked_call(call, payload, expect, pop, tally)
    if not pop.users:
        raise RuntimeError(f"set-up registrations failed: {tally.failures}")
    for _ in range(articles):
        name, token = inputs.rng.choice(pop.users)
        payload, expect = inputs.create(token, name)
        checked_call(call, payload, expect, pop, tally)


# ---------------------------------------------------------- restart probe

def answer_ends(data: bytes) -> list:
    """Byte offsets just past each Web/respond completion of a log.

    A completion is written as a batch of its own, so each offset is a batch
    boundary: the prefix up to it is a log a crash could have left behind.
    """
    ends, pos = [], 0
    for line in data.splitlines(keepends=True):
        pos += len(line)
        if b'"name":"respond"' in line and b'"output"' in line:
            ends.append(pos)
    return ends


def read_only_load(log: Path, run: Run, oracle=None) -> None:
    """Time `recover_from(resume=False)` on a fresh engine, as `tandem trace`
    and `tandem replay` load a log; check it against the writer's flows."""
    cfg = cli.load_config(CONFIG)
    gc.collect()

    def load():
        try:
            eng = cli.assemble(cfg)
            eng.recover_from(log, resume=False)
            return eng
        except Exception as exc:  # a failed load is a failed operation
            return exc

    eng, seconds, ref = time_call(load)
    run.recover.append((seconds, ref))
    if isinstance(eng, Exception):
        run.tally.add(False, f"read-only load raised {eng!r}")
    else:
        run.tally.add(oracle is None or normalize_flows(eng.actions()) == oracle,
                      "read-only load differs from the writer")


def cold_request(log: Path, name: str, out: Path, run: Run, tracer=None) -> float:
    """Run `tandem request register` through cli.main against `log`: a cold
    start that recovers with resume, re-matches every completion and runs
    one flow. Returns its seconds."""
    payload = out / f"{log.stem}-payload.json"
    payload.write_text(json.dumps(
        {"username": name, "email": f"{name}@example.org", "password": "coldstart1"}))
    size0, buf = log.stat().st_size, io.StringIO()
    saved = os.environ.get("TANDEM_LOG")
    os.environ["TANDEM_LOG"] = str(log)
    timed = tracer is not None and tracer.phase == "timed"
    if tracer is not None:
        tracer.watch_assembled = timed
    gc.collect()
    writes0 = write_calls()
    started = time.perf_counter()
    code = 0
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(["-c", CONFIG, "request", "register", str(payload)])
    except SystemExit as exc:
        code = exc.code
    elapsed = time.perf_counter() - started
    writes = write_calls() - writes0
    if saved is None:
        os.environ.pop("TANDEM_LOG", None)
    else:
        os.environ["TANDEM_LOG"] = saved
    payload.unlink()
    first = buf.getvalue().split("\n", 1)[0]
    status, _, body = first.partition(" ")
    try:
        doc, status = json.loads(body), int(status)
    except ValueError:
        doc, status = None, None
    run.tally.add(code == 0 and check(Expect("register", name=name), status, doc),
                  f"cold request -> {first[:120]}")
    if timed:
        tracer.watch_assembled = False
        tracer.settle()
        run.write_calls += writes
        run.log_bytes += log.stat().st_size - size0
    return elapsed


# ------------------------------------------------------------- workloads

PROBE_FLOWS = 60    # answered flows in the log the restart probe replays
PROBE_LOADS = 2     # read-only loads per probe; a load is cheap, a cold request is not
WARMUP_FLOWS = 20


class Workload:
    """Epochs of set-up plus timed closed-loop work, each a replay of the
    same requests from the same state, until `seconds` of timed work."""

    name = ""
    epoch_flows = 0
    recover_phase = "probe"  # where engine.recover_from.s is measured

    def __init__(self, seed: int, out: Path, tracer=None, scale: float = 1.0) -> None:
        self.seed = seed
        self.out = out
        self.tracer = tracer
        self.scale = scale
        self.run = Run()
        self.probe_log = out / f"{self.name}-probe.log"
        self.probes = 0
        self.refs = None  # the measured epoch's reference samples

    def inputs(self, stream: str) -> Inputs:
        """A fresh generator per stream: every epoch replays the same requests."""
        return Inputs(random.Random(f"{self.name}:{self.seed}:{stream}"), stream)

    def n(self, count: int) -> int:
        return max(2, int(count * self.scale))

    def _phase(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase

    def sample_reference(self) -> float:
        """Time reference_task once, untimed; keep it if an epoch is being
        measured."""
        ref = reference_time()
        if self.refs is not None:
            self.refs.append(ref)
        return ref

    def measure(self, seconds: float) -> Run:
        try:
            self.warmup()
            epoch = 0
            gc.collect()
            while self.run.timed_s < seconds or epoch < MIN_EPOCHS:
                self._phase("setup")
                state, took, ref = time_call(self.setup)
                self.run.setups.append((took, ref))
                self._phase("timed")
                self.refs = []
                self.run.reference.append(self.refs)
                started = time.perf_counter()
                self.run.epochs.append(self.epoch(state))
                self.run.timed_s += time.perf_counter() - started
                self.refs = None
                self._phase("setup")
                self.teardown(state)
                state = None
                self._phase("probe")
                self.probe()
                gc.collect()  # every epoch starts from the same heap
                epoch += 1
        finally:
            self._phase("setup")
            self.cleanup()
            self.probe_log.unlink(missing_ok=True)
        self.run.peak_rss_mb = self.peak_rss_mb()
        return self.run

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process holding the engine."""
        return self_peak_rss_mb()

    def layer_counts(self):
        """(firings, no-op firings, store quads, flows held) of the watched
        engines, and the flows they, the log bytes and write calls cover."""
        return self.tracer.totals, self.run.flows_traced

    def probe(self) -> None:
        """recover_s and resume_s on this workload's own history: the first
        epoch's log cut after PROBE_FLOWS answers, one replay per epoch."""
        if not self.probe_log.exists():
            return
        copy = self.out / f"{self.name}-probe-copy.log"
        for _ in range(PROBE_LOADS):
            copy.write_bytes(self.probe_log.read_bytes())
            read_only_load(copy, self.run)
        copy.write_bytes(self.probe_log.read_bytes())
        self.probes += 1
        name = f"cold{self.probes}"
        _, seconds, ref = time_call(lambda: cold_request(copy, name, self.out, self.run))
        self.run.resume.append((seconds, ref))
        copy.unlink()

    def keep_probe_log(self, log: Path) -> None:
        if not self.probe_log.exists() and log.exists():
            data = log.read_bytes()
            self.probe_log.write_bytes(data[:answer_ends(data)[self.n(PROBE_FLOWS) - 1]])

    def warmup(self) -> None:
        """Untimed work that lets lazy initialisation finish before epoch 0."""

    def setup(self):
        """Fresh state for one epoch."""
        raise NotImplementedError

    def epoch(self, state) -> list:
        """Run one epoch; per client, the flow latencies in request order."""
        raise NotImplementedError

    def teardown(self, state, spare=False) -> None:
        """Release an epoch's state; a spare one was set up only to be timed."""

    def cleanup(self) -> None:
        pass


class EngineWorkload(Workload):
    """One caller driving an `Engine` directly."""

    def setup(self):
        app = EngineApp(self.out / f"{self.name}.log")
        inputs = self.inputs("e")
        pop = Population()
        self.prepare(app, inputs, pop)
        return app, inputs, pop

    def prepare(self, app, inputs, pop) -> None:
        pass

    def warmup(self) -> None:
        state = self.setup()
        try:
            self.drive(state, WARMUP_FLOWS)
        finally:
            self.teardown(state, spare=True)

    def teardown(self, state, spare=False) -> None:
        app = state[0]
        app.close()
        if not spare:
            self.keep_probe_log(app.log_path)
        app.log_path.unlink()

    def epoch(self, state) -> list:
        app = state[0]
        tracing = self.tracer is not None
        if tracing:
            self.tracer.watch(app.engine)
            bytes0, writes0 = app.log_path.stat().st_size, write_calls()
        latencies = self.drive(state, self.n(self.epoch_flows))
        if tracing:
            self.run.write_calls += write_calls() - writes0
            self.run.log_bytes += app.log_path.stat().st_size - bytes0
            self.run.flows_traced += len(latencies)
            self.tracer.settle()
        return [latencies]

    def drive(self, state, count) -> list:
        """`count` closed-loop requests; their latencies in seconds."""
        app, inputs, pop = state
        latencies = []
        tally = self.run.tally
        tenth = max(1, count // 10)
        for i in range(count):
            if i % tenth == 0:
                self.sample_reference()
            payload, expect = self.next_request(inputs, pop)
            started = time.perf_counter()
            try:
                code, doc, recs = app.call(payload)
            except Exception as exc:  # a crashed flow is a failed flow
                code, doc, recs = None, repr(exc), None
            latencies.append(time.perf_counter() - started)
            ok = check(expect, code, doc, recs)
            tally.add(ok, f"{expect.kind} -> {code} {str(doc)[:120]}")
            if ok:
                _apply(pop, expect, code, doc)
        self.sample_reference()
        return latencies


class Register(EngineWorkload):
    """Registrations from empty history; one in ten has a short password."""

    name = "register"
    epoch_flows = 400

    def next_request(self, inputs, pop):
        return inputs.register(short=inputs.kind(REGISTER_MIX) == "short")


class Content(EngineWorkload):
    """The content mix over a registered user base."""

    name = "content"
    epoch_flows = 400
    users, articles = 30, 15

    def prepare(self, app, inputs, pop) -> None:
        populate(app.call, inputs, pop, self.n(self.users), self.n(self.articles), self.run.tally)

    def next_request(self, inputs, pop):
        return content_request(inputs, pop, inputs.kind(CONTENT_MIX))


# ---------------------------------------------------------------- gateway

class Server:
    """`tandem run` in its own process on 127.0.0.1:0."""

    def __init__(self, out: Path, trace: bool) -> None:
        self.log = out / "gateway.log"
        self.report = out / "gateway.report.json"
        self.stdout = out / "gateway.out"
        self.window = (0.0, 0.0)
        for p in (self.log, self.report):
            p.unlink(missing_ok=True)
        env = dict(os.environ, TANDEM_BIND="127.0.0.1:0", TANDEM_LOG=str(self.log))
        with open(self.stdout, "w") as sink:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", str(HERE / "serve.py"), str(self.report),
                 "1" if trace else "0", "--", "-c", CONFIG, "run"],
                stdout=sink, stderr=subprocess.STDOUT, env=env, cwd=str(out))
        deadline = time.monotonic() + 60
        self.port = None
        while self.port is None:
            text = self.stdout.read_text()
            if text.startswith("serving on http://"):
                self.port = int(text.split()[2].rsplit(":", 1)[1])
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start: {text[-500:]}")
            else:
                time.sleep(0.005)

    def stop(self) -> dict:
        """Stop the server as Ctrl-C would; its exit report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stdout.unlink(missing_ok=True)
        if not self.report.exists():
            return {}
        report = json.loads(self.report.read_text())
        self.report.unlink()
        return report


class Client:
    """One HTTP connection. The server answers HTTP/1.0 and closes it, so
    http.client reconnects for the next request."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def post(self, path: str, body: bytes, token=None):
        headers = {"Content-Type": "application/json"}
        if token:
            headers["Authorization"] = f"Token {token}"
        self.conn.request("POST", path, body=body, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        try:
            return resp.status, json.loads(data)
        except ValueError:
            return resp.status, None

    def call(self, payload):
        """An API request as a RealWorld client sends it: the method in the
        path, the token in a header, the fields in an envelope."""
        fields = {k: v for k, v in payload.items() if k not in ("method", "token")}
        body = json.dumps({"doc": fields}).encode()
        code, doc = self.post(f"/api/{payload['method']}", body, payload.get("token"))
        return code, doc, None

    def close(self) -> None:
        self.conn.close()


class Gateway(Workload):
    """nproc HTTP clients against a server process on loopback."""

    name = "gateway"
    epoch_flows = 280  # 28 per tenth: four blocks of GATEWAY_MIX
    users, articles = 16, 8

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        # one client per processor the server's engine thread leaves free:
        # clients that compete with it for a processor measure the host's
        # scheduler, not tandem (two clients on two processors spread 14-25%
        # run to run, one client 2%)
        self.run.clients = max(1, min(8, usable_cpus() - 1))
        self.server = None
        self.server_rss_mb = 0.0
        self.firings = [0, 0, 0, 0]
        self.served = 0

    def peak_rss_mb(self) -> float:
        return self.server_rss_mb

    def layer_counts(self):
        # the server's firings, log bytes and write calls cover its whole
        # life, set-up included, so they are per request it served
        return self.firings, self.served

    def setup(self):
        self.server = Server(self.out, self.tracer is not None)
        client = Client(self.server.port)
        pop = Population()
        try:
            populate(client.call, self.inputs("g"), pop, self.n(self.users),
                     self.n(self.articles) * self.run.clients, self.run.tally)
        finally:
            client.close()
        return pop

    def epoch(self, pop) -> list:
        clients = self.run.clients
        slugs = sorted(pop.articles)
        results: list = [None] * clients
        threads = []
        self.server.window = (time.perf_counter(), 0.0)
        for i in range(clients):
            # each client owns a share of the articles, so no two clients
            # touch the same one and every epoch replays the same requests
            own = Population(list(pop.users), {s: [] for s in slugs[i::clients]})
            t = threading.Thread(target=self._client, name=f"client-{i}",
                                 args=(self.inputs(f"c{i}"), own, results, i))
            threads.append(t)
            t.start()
        for t in threads:
            t.join()
        self.server.window = (self.server.window[0], time.perf_counter())
        lanes = []
        for res in results:
            if res is None:
                self.run.tally.add(False, "client thread died")
                res = []
            for _lat, ok, what, _bound in res:
                self.run.tally.add(ok, what)
            self.run.client_rtt.extend(lat for lat, _ok, _w, bound in res if bound)
            lanes.append([lat for lat, _ok, _w, _b in res])
        return lanes

    def _client(self, inputs, pop, results, index) -> None:
        client = Client(self.server.port)
        out = []
        count = self.n(self.epoch_flows) // self.run.clients
        tenth = max(1, count // 10)
        try:
            for i in range(count):
                if index == 0 and i % tenth == 0:
                    self.sample_reference()
                kind = inputs.kind(GATEWAY_MIX)
                if kind == "bad_body":
                    body, path = b'{"user": {"username": ', "/api/register"
                    expect, payload = Expect("bad_request"), None
                elif kind == "unknown_path":
                    body = b"{}"
                    path = inputs.rng.choice(("/users/login", "/api/", "/profiles"))
                    expect, payload = Expect("not_found"), None
                elif kind == "register":
                    payload, expect = inputs.register()
                else:
                    payload, expect = content_request(inputs, pop, kind)
                started = time.perf_counter()
                try:
                    if payload is None:
                        code, doc = client.post(path, body)
                    else:
                        code, doc, _ = client.call(payload)
                except (OSError, http.client.HTTPException) as exc:
                    code, doc = None, repr(exc)
                    client.close()  # the next request reconnects
                lat = time.perf_counter() - started
                ok = check(expect, code, doc)
                if ok and payload is not None:
                    _apply(pop, expect, code, doc)
                out.append((lat, ok, f"{expect.kind} -> {code} {str(doc)[:120]}",
                            payload is not None))
            if index == 0:
                self.sample_reference()
        finally:
            client.close()
        results[index] = out

    def teardown(self, pop, spare=False) -> None:
        server, self.server = self.server, None
        report = server.stop()
        self.server_rss_mb = max(self.server_rss_mb, report.get("peak_rss_mb", 0.0))
        if self.tracer is not None:
            self.run.write_calls += report.get("write_calls") or 0
            self.run.log_bytes += server.log.stat().st_size
            start, end = server.window
            for span in report.get("spans", []):
                # perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes
                span[6] = "timed" if start <= span[1] <= end else "server"
                self.run.server_spans.append(span)
                if span[0] == "gateway.submit":
                    self.served += 1
                    self.run.flows_traced += span[6] == "timed"
            self.run.server_absent = report.get("absent", [])
            firings = report.get("firings") or [0, 0, 0, 0]
            self.firings = [a + b for a, b in zip(self.firings, firings)]
        if not spare:
            self.keep_probe_log(server.log)
        server.log.unlink()

    def cleanup(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server.log.unlink(missing_ok=True)


# ---------------------------------------------------------------- restart

class Restart(Workload):
    """Restart from a log of mixed flows. Each epoch runs cold `tandem
    request` registrations, each on a fresh copy: `cold_runs` on the log cut
    after half its answered flows, then `cold_runs` on the whole log, each
    of these after a read-only load of the whole log. The late/early ratio
    is then the cost of a restart from twice the history, and p50/p99 are
    over the cold requests on the whole log."""

    name = "restart"
    recover_phase = "timed"
    registrations, content_ops = 60, 40
    cold_runs = 4  # per log size and epoch

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        self.run.percentile_from = self.cold_runs

    def setup(self):
        log = self.out / "restart.log"
        app = EngineApp(log)
        inputs = self.inputs("r")
        pop = Population()
        tally = self.run.tally
        try:
            populate(app.call, inputs, pop, 4, 2, tally)
            for _ in range(self.n(self.registrations)):
                short = inputs.kind(REGISTER_MIX) == "short"
                checked_call(app.call, *inputs.register(short), pop, tally)
            for _ in range(self.n(self.content_ops)):
                kind = inputs.kind(CONTENT_MIX)
                checked_call(app.call, *content_request(inputs, pop, kind), pop, tally)
            oracle = normalize_flows(app.engine.actions())
        finally:
            app.close()
        return log, oracle

    def warmup(self) -> None:
        state = self.setup()
        self.epoch(state, run=Run())
        self.teardown(state, spare=True)

    def epoch(self, state, run=None) -> list:
        log, oracle = state
        run = run or self.run
        whole = log.read_bytes()
        ends = answer_ends(whole)
        half = whole[:ends[len(ends) // 2 - 1]]
        copy = self.out / "restart-copy.log"
        latencies, refs = [], []
        for i, data in enumerate([half] * self.cold_runs + [whole] * self.cold_runs):
            if data is whole:
                # one read-only load per cold request on the whole log, so
                # loads sample as many moments of the run as cold requests do
                copy.write_bytes(whole)
                read_only_load(copy, run, oracle)
            copy.write_bytes(data)
            refs.append(self.sample_reference())
            latencies.append(cold_request(copy, f"cold{i}", self.out, run, self.tracer))
        refs.append(self.sample_reference())
        around = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
        run.resume.extend(zip(latencies[self.cold_runs:], around[self.cold_runs:]))
        run.flows_traced += len(latencies)
        copy.unlink()
        return [latencies]

    def teardown(self, state, spare=False) -> None:
        state[0].unlink()


WORKLOADS = {w.name: w for w in (Register, Content, Gateway, Restart)}

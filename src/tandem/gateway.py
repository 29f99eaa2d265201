"""HTTP face of the runtime.

One POST becomes one flow: the path names the method, the JSON body becomes
the request payload, and the reply is whatever Web/respond recorded for that
flow, or 504 when the flow goes quiet without one. A single worker thread
owns all rule evaluation; handler threads only enqueue submissions and wait
for their flow to go quiet.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .core import from_jsonable, to_jsonable
from .engine import Engine, EngineError

DEFAULT_TIMEOUT = 5.0


class Runtime:
    """Engine plus the evaluation thread and per-flow response signaling."""

    def __init__(self, engine: Engine, timeout: float = DEFAULT_TIMEOUT) -> None:
        self.engine = engine
        self.timeout = timeout
        self._waiters: dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop, name="tandem-engine", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.engine.close()

    def _respond_of(self, flow: str):
        for rec in self.engine.flow_records(flow):
            if rec.name == "respond" and rec.is_completion:
                return rec
        return None

    def _loop(self) -> None:
        while True:
            self._wake.wait()
            if self._stop.is_set():
                return
            self._wake.clear()
            try:
                self.engine.run_to_quiescence()
            except EngineError as exc:
                # flows left queued time out; the condition is operator-level
                print(f"engine halted: {exc}", flush=True)
            # a flow with nothing left queued is answered now, with its
            # respond or without one; waiters are read before the queue so
            # a flow submitted meanwhile is seen as still queued
            with self._lock:
                waiting = list(self._waiters.items())
            queued = self.engine.queued_flows()
            for flow, event in waiting:
                if flow not in queued:
                    event.set()

    def submit(self, payload: dict, timeout: float | None = None):
        """Run one external request; returns (flow, respond record or None)."""
        event = threading.Event()
        flow = self.engine.submit_external(self.engine.bootstrap, "request", payload)
        with self._lock:
            self._waiters[flow] = event
        self._wake.set()
        event.wait(self.timeout if timeout is None else timeout)
        with self._lock:
            self._waiters.pop(flow, None)
        return flow, self._respond_of(flow)


def reply_parts(respond) -> tuple[int, dict]:
    """Status code and JSON document for a completed Web/respond record."""
    code = respond.input.get("code", 200)
    if "body" in respond.input:
        doc = to_jsonable(respond.input["body"])
    elif "error" in respond.input:
        doc = {"error": to_jsonable(respond.input["error"])}
    else:
        doc = {}
    return code, doc


def canonical_json(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


class ApiHandler(BaseHTTPRequestHandler):
    server_version = "tandem/0.1"

    def log_message(self, format, *args):  # keep test output quiet
        pass

    def _send(self, code: int, doc) -> None:
        data = canonical_json(doc)
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self) -> None:
        if not self.path.startswith("/api/"):
            self._send(404, {"error": "unknown path"})
            return
        method = self.path[len("/api/"):].strip("/")
        if not method:
            self._send(404, {"error": "missing method"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            body = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, TypeError):
            self._send(400, {"error": "request body is not valid JSON"})
            return
        if not isinstance(body, dict):
            self._send(400, {"error": "request body must be a JSON object"})
            return
        # RealWorld-style envelopes ({"user": {...}}) flatten one level
        if len(body) == 1 and isinstance(next(iter(body.values())), dict):
            body = next(iter(body.values()))
        payload = dict(from_jsonable(body))
        payload["method"] = method  # the path owns the method name
        auth = self.headers.get("Authorization", "")
        if auth.startswith("Token "):
            payload["token"] = auth[len("Token "):].strip()
        try:
            flow, respond = self.server.runtime.submit(payload)
        except EngineError as exc:
            self._send(400, {"error": str(exc)})
            return
        if respond is None:
            self._send(504, {"error": "no response", "flow": flow})
            return
        code, doc = reply_parts(respond)
        self._send(code, doc)


def make_server(runtime: Runtime, host: str, port: int) -> ThreadingHTTPServer:
    server = ThreadingHTTPServer((host, port), ApiHandler)
    server.runtime = runtime
    return server

"""HTTP face of the runtime.

One POST becomes one flow: the path names the method, the JSON body becomes
the request payload, and the reply is whatever Web/respond recorded for that
flow, or 504 when the flow goes quiet without one. The runtime serves one
flow at a time: a request's handler thread submits it and runs the engine
itself, under the runtime's lock, until the flow goes quiet. There is no
worker thread.

Connections persist (HTTP/1.1): a client's connection, and the one handler
thread serving it, carry request after request. A client that sends
`Connection: close`, or speaks HTTP/1.0 without asking for keep-alive,
gets one request per connection. A reused connection stays correct by
three framing rules:

- every reply is sent only after the body named by Content-Length has been
  read, whatever the answer, so the next request starts at its first byte;
- a request whose body cannot be framed gets its answer on a connection
  that then closes, and runs no flow: 400 for a Content-Length that is not
  one non-negative integer or that the body falls short of, 413 for one
  above MAX_BODY, 411 for any Transfer-Encoding;
- each reply leaves in one send, with Nagle's algorithm off, so a reply on
  a warm connection never waits out the client's delayed ACK.

A connection that sends nothing for IDLE_TIMEOUT seconds is closed, so an
idle client does not hold its handler thread for good.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .core import from_jsonable, to_jsonable
from .engine import Engine, EngineError


class Runtime:
    """An engine that serves one external request at a time: how threads
    share an engine, which has one caller at a time."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._lock = threading.Lock()
        self._closed = False

    def submit(self, payload: dict):
        """Run one external request; returns (flow, respond record or None).

        Raises EngineError when the flow runs into a rule loop or the
        runtime is closed.
        """
        eng = self.engine
        with self._lock:
            # a closed log would drop the flow's records without a word
            if self._closed:
                raise EngineError("runtime is closed")
            flow = eng.submit_external(eng.bootstrap, "request", payload)
            # the lock admits one request at a time and a halted run takes
            # its flow off the queue, so no other flow is queued: the run
            # ends exactly when this flow goes quiet
            eng.run_to_quiescence()
            respond = next(
                (r for r in eng.flow_records(flow) if r.name == "respond" and r.is_completion), None
            )
        return flow, respond

    def close(self) -> None:
        # a flow in progress is logged in full before the log closes
        with self._lock:
            self._closed = True
            self.engine.close()


# Request bodies nest a few levels. Converting and logging a value recurses
# once per level, and how deep Python lets that go differs between versions,
# so a fixed bound far below every version's limit gives a body the same
# answer on all of them, and keeps the log of one readable by the others.
MAX_NESTING = 100
_TOO_DEEP = f"request body nests deeper than {MAX_NESTING} levels"

# Seconds a connection may wait on the client before it is closed. The
# handler's socket timeout, so it also bounds a stalled request or body.
IDLE_TIMEOUT = 60

# The largest request body read. Bodies are a few hundred bytes; a bound
# keeps a bogus Content-Length from making the handler allocate for it.
MAX_BODY = 1 << 20


def _nests_deeper_than(doc, limit: int) -> bool:
    stack = [(doc, 1)]
    while stack:
        value, depth = stack.pop()
        if isinstance(value, dict):
            value = value.values()
        elif not isinstance(value, list):
            continue
        if depth > limit:
            return True
        stack.extend((v, depth + 1) for v in value)
    return False


def decode_payload(doc) -> dict:
    """The request record a parsed JSON document stands for.

    RealWorld-style envelopes ({"user": {...}}) flatten one level. Raises
    ValueError when lists and objects nest more than MAX_NESTING deep, a
    value is not a tandem value, or the result is not a record.
    """
    if _nests_deeper_than(doc, MAX_NESTING):
        raise ValueError(_TOO_DEEP)
    if isinstance(doc, dict) and len(doc) == 1 and isinstance(next(iter(doc.values())), dict):
        doc = next(iter(doc.values()))
    payload = from_jsonable(doc)
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    return payload


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
    protocol_version = "HTTP/1.1"
    # wfile buffers the reply and handle_one_request flushes it in one send
    wbufsize = -1
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT  # handle_one_request closes a connection that times out

    def log_message(self, format, *args):  # keep test output quiet
        pass

    def _send(self, code: int, doc, close: bool = False) -> None:
        data = canonical_json(doc)
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")  # sets close_connection
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self):
        """The request body, or None when its framing was refused: the
        answer is sent and the connection closes, since where the next
        request starts is unknown."""
        if "Transfer-Encoding" in self.headers:
            self._send(411, {"error": "Transfer-Encoding is not supported; send Content-Length"},
                       close=True)
            return None
        lengths = self.headers.get_all("Content-Length", [])
        if not lengths:
            return b""
        text = lengths[0].strip()
        if len(lengths) > 1 or not (text.isascii() and text.isdigit()):
            self._send(400, {"error": "Content-Length must be one non-negative integer"},
                       close=True)
            return None
        length = int(text)
        if length > MAX_BODY:
            self._send(413, {"error": f"request body is larger than {MAX_BODY} bytes"},
                       close=True)
            return None
        body = self.rfile.read(length)
        if len(body) < length:
            self._send(400, {"error": "request body is shorter than its Content-Length"},
                       close=True)
            return None
        return body

    def do_POST(self) -> None:
        body = self._read_body()
        if body is None:
            return
        if not self.path.startswith("/api/"):
            self._send(404, {"error": "unknown path"})
            return
        method = self.path[len("/api/"):].strip("/")
        if not method:
            self._send(404, {"error": "missing method"})
            return
        try:
            doc = json.loads(body or b"{}")
        except RecursionError:
            self._send(400, {"error": _TOO_DEEP})
            return
        except ValueError:
            self._send(400, {"error": "request body is not valid JSON"})
            return
        try:
            payload = decode_payload(doc)
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        payload["method"] = method  # the path owns the method name
        auth = self.headers.get("Authorization", "")
        if auth.startswith("Token "):
            payload["token"] = auth[len("Token "):].strip()
        try:
            flow, respond = self.server.runtime.submit(payload)
        except EngineError as exc:
            self._send(503, {"error": f"engine halted: {exc}"})
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

"""HTTP gateway: request mapping, response shaping, answers without a respond."""
import contextlib
import http.client
import json
import socket
import sys
import threading
import time
import urllib.request
import urllib.error

import pytest

from support import (
    ARTICLE_RULES, LOOP_SYNCS, build_engine, register_payload, respond_body, responds,
)
from tandem.engine import EngineError, normalize_flows
from tandem.gateway import (
    IDLE_TIMEOUT, MAX_BODY, MAX_NESTING, ApiHandler, Runtime, decode_payload, make_server, reply_parts,
)
from tandem.synclang import parse_syncs


@contextlib.contextmanager
def serving(eng):
    runtime = Runtime(eng)
    server = make_server(runtime, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        runtime.close()


@pytest.fixture()
def served():
    eng = build_engine()
    with serving(eng) as base:
        yield eng, base


def post(base, path, doc=None, headers=None, timeout=10):
    data = json.dumps(doc or {}).encode()
    req = urllib.request.Request(base + path, data=data, method="POST")
    req.add_header("Content-Type", "application/json")
    for k, v in (headers or {}).items():
        req.add_header(k, v)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def test_register_over_http(served):
    _, base = served
    status, doc = post(base, "/api/register", {
        "user": {"username": "alice", "email": "alice@example.org", "password": "opensesame1"}
    })
    assert status == 200
    assert doc["user"]["username"] == "alice"
    assert doc["user"]["bio"] == "" and doc["user"]["image"] == ""
    assert doc["user"]["token"]


def test_flat_payload_works_too(served):
    _, base = served
    status, doc = post(base, "/api/register", register_payload())
    assert status == 200
    assert doc["user"]["email"] == "alice@example.org"


def test_duplicate_email_maps_to_422(served):
    _, base = served
    post(base, "/api/register", register_payload())
    status, doc = post(base, "/api/register", register_payload(name="alice2"))
    assert status == 422
    assert "email already taken" in doc["error"]


def test_unmatched_method_times_out_with_flow_id(served):
    # 504 (gateway timeout) names the flow that went quiet without a respond
    eng, base = served
    status, doc = post(base, "/api/nonsense", {"x": 1})
    assert status == 504
    assert doc["flow"]
    # the root action still happened, and nothing else did
    assert [r.name for r in eng.flow_records(doc["flow"])] == ["request"]


@pytest.mark.parametrize("client_wait", [5.0])
def test_quiet_flow_without_respond_is_answered_at_once(served, client_wait):
    _, base = served
    start = time.monotonic()
    status, _ = post(base, "/api/nonsense", {"x": 1}, timeout=client_wait)
    assert status == 504
    assert time.monotonic() - start < 1.0  # the flow is quiet, so nothing is waited out


def test_engine_halt_gets_503_at_once():
    eng = build_engine(rules=(), step_limit=25)
    eng.register_syncs(parse_syncs(LOOP_SYNCS))
    with serving(eng) as base:
        start = time.monotonic()
        status, doc = post(base, "/api/loop")
        assert time.monotonic() - start < 1.0
    assert status == 503
    assert doc["error"].startswith("engine halted: no quiescence")


def test_runtime_serves_again_after_a_halt(tmp_path):
    eng = build_engine(step_limit=25)
    eng.register_syncs(parse_syncs(LOOP_SYNCS))
    eng.attach_log(tmp_path / "run.log")
    with serving(eng) as base:
        assert post(base, "/api/loop")[0] == 503
        status, doc = post(base, "/api/register", register_payload())
    assert status == 200
    assert doc["user"]["username"] == "alice"


@pytest.mark.parametrize("body", [
    '{"x": null}',
    '{"user": {"age": 1.5}}',
    '{"x": 99999999999999999999999}',
    '{"x": {"$ref": "a://b"}}',
    '{"$ref": "nope"}',
    # nested past the bound, and at 100000 past what json.loads can parse
    pytest.param('{"x": ' + "[" * 950 + "]" * 950 + "}", id="nested-950"),
    pytest.param('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}", id="nested-100000"),
])
def test_malformed_values_get_400(served, body):
    _, base = served
    req = urllib.request.Request(base + "/api/register", data=body.encode(), method="POST")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=10)
    with err.value:
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]


def test_nesting_bound_is_exact():
    at_bound = {"x": json.loads("[" * (MAX_NESTING - 1) + "]" * (MAX_NESTING - 1))}
    assert "x" in decode_payload(at_bound)
    with pytest.raises(ValueError, match=f"nests deeper than {MAX_NESTING} levels"):
        decode_payload({"x": at_bound})


def test_authorization_header_becomes_token_field(served):
    eng, base = served
    status, doc = post(base, "/api/register", register_payload())
    token = doc["user"]["token"]
    status2, _ = post(base, "/api/whoami", {}, headers={"Authorization": f"Token {token}"})
    roots = [r for r in eng.root_records() if r.input.get("method") == "whoami"]
    assert roots and roots[0].input["token"] == token
    assert status2 == 504  # no rule answers whoami; the mapping is what matters


def test_bad_json_is_rejected(served):
    _, base = served
    req = urllib.request.Request(base + "/api/register", data=b"{oops", method="POST")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=10)
    with err.value:
        assert err.value.code == 400


def test_unknown_path_is_404(served):
    _, base = served
    status, _ = post(base, "/healthz", {})
    assert status == 404


def test_one_connection_carries_request_after_request():
    # every answer, 404 and 400 included, leaves the connection at the next
    # request's first byte, so one socket serves the whole sequence
    eng = build_engine(rules=ARTICLE_RULES)
    with serving(eng) as base:
        conn = http.client.HTTPConnection("127.0.0.1", int(base.rsplit(":", 1)[1]), timeout=10)
        socks = []

        def call(path, body, token=None):
            headers = {"Content-Type": "application/json"}
            if token:
                headers["Authorization"] = f"Token {token}"
            conn.request("POST", path, body=body, headers=headers)
            resp = conn.getresponse()
            doc = json.loads(resp.read())
            socks.append(conn.sock)
            return resp.status, doc

        try:
            assert call("/healthz", b'{"x": 1}') == (404, {"error": "unknown path"})
            assert call("/api/register", b"{oops") == (400, {"error": "request body is not valid JSON"})
            status, doc = call("/api/register", json.dumps(register_payload()).encode())
            assert status == 200 and doc["user"]["username"] == "alice"
            token = doc["user"]["token"]
            status, dup = call("/api/register", json.dumps(register_payload(name="alice2")).encode())
            assert status == 422 and "email already taken" in dup["error"]
            article = {"article": {"title": "Kept Alive", "description": "d", "body": "b"}}
            status, doc = call("/api/create_article", json.dumps(article).encode(), token)
            assert status == 200
            assert doc["article"]["slug"] == "kept-alive"
            assert doc["article"]["author"]["username"] == "alice"
        finally:
            conn.close()
    assert socks[0] is not None and all(sock is socks[0] for sock in socks)
    assert len(eng.root_records()) == 3


def test_idle_connections_are_closed(monkeypatch):
    # a client that connects and sends nothing holds a handler thread only
    # until the idle timeout, not for as long as it keeps the socket open
    assert ApiHandler.timeout == IDLE_TIMEOUT == 60
    monkeypatch.setattr(ApiHandler, "timeout", 0.2)
    with serving(build_engine()) as base:
        before = threading.active_count()
        host, port = base.rsplit("/", 1)[1].split(":")
        start = time.monotonic()
        socks = [socket.create_connection((host, int(port)), timeout=10) for _ in range(5)]
        try:
            for sock in socks:
                assert sock.recv(1) == b""  # the server closed it: EOF
        finally:
            for sock in socks:
                sock.close()
        assert time.monotonic() - start >= 0.2
        deadline = time.monotonic() + 10
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before


def raw_exchange(base, data: bytes) -> tuple[int, dict, bytes]:
    """Send raw bytes and end the request stream, then read until the server
    closes the connection. Returns the status, the JSON body and the header
    block."""
    host, port = base.rsplit("/", 1)[1].split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)  # a server reading past the body sees its end
        reply = b""
        while chunk := sock.recv(65536):  # times out if the server keeps it open
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body), head


@pytest.mark.parametrize("framing, body, status, names", [
    pytest.param("Content-Length: -1", b"{}", 400, "Content-Length", id="negative-length"),
    pytest.param("Content-Length: abc", b"{}", 400, "Content-Length", id="non-integer-length"),
    pytest.param("Content-Length: 2\r\nContent-Length: 3", b"{} ", 400, "Content-Length",
                 id="two-lengths"),
    pytest.param(f"Content-Length: {MAX_BODY + 1}", b"{}", 413, str(MAX_BODY), id="over-max-body"),
    pytest.param("Content-Length: 99999999999999", b"{}", 413, str(MAX_BODY), id="huge-length"),
    pytest.param("Content-Length: 40", b"{}", 400, "Content-Length", id="short-body"),
    pytest.param("Transfer-Encoding: chunked", b"2\r\n{}\r\n0\r\n\r\n", 411,
                 "Transfer-Encoding", id="chunked"),
])
def test_unframeable_body_is_answered_and_runs_no_flow(served, framing, body, status, names):
    eng, base = served
    request = (f"POST /api/register HTTP/1.1\r\nHost: tandem\r\n{framing}\r\n\r\n").encode()
    code, doc, head = raw_exchange(base, request + body)
    assert code == status
    assert names in doc["error"]
    assert b"\r\nConnection: close" in head
    assert eng.actions() == []


def test_submit_after_close_is_refused(tmp_path):
    log = tmp_path / "run.log"
    eng = build_engine()
    eng.attach_log(log)
    runtime = Runtime(eng)
    runtime.submit(register_payload())
    runtime.close()
    closed = log.read_bytes()
    with pytest.raises(EngineError, match="closed"):
        runtime.submit(register_payload(name="bob", email="bob@example.org"))
    assert log.read_bytes() == closed
    assert len(eng.root_records()) == 1


def test_concurrent_submits_each_get_their_own_answer():
    eng = build_engine()
    runtime = Runtime(eng)
    payloads = [register_payload(name=f"u{t}-{i}", email=f"u{t}-{i}@example.org")
                for t in range(8) for i in range(5)]
    answers = {}

    def client(batch):
        for p in batch:
            answers[p["username"]] = runtime.submit(p)

    threads = [threading.Thread(target=client, args=(payloads[t::8],)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(answers) == len(payloads)
    for name, (flow, respond) in answers.items():
        assert len(responds(eng, flow)) == 1
        assert reply_parts(respond)[1]["user"]["username"] == name
    assert not eng.queue and eng.pending_matches() == []

    direct = build_engine()
    for p in payloads:
        direct.submit_external("Web", "request", p)
        direct.run_to_quiescence()
    assert normalize_flows(eng.actions()) == normalize_flows(direct.actions())


def test_http_flow_equals_direct_flow(served):
    eng, base = served
    post(base, "/api/register", register_payload())

    direct = build_engine()
    flow = direct.submit_external("Web", "request", register_payload())
    direct.run_to_quiescence()
    assert len(responds(direct, flow)) == 1
    assert normalize_flows(eng.actions()) == normalize_flows(direct.actions())


def test_reply_parts_shapes():
    eng = build_engine()
    flow = eng.submit_external("Web", "request", register_payload())
    eng.run_to_quiescence()
    (resp,) = responds(eng, flow)
    code, doc = reply_parts(resp)
    assert code == 200
    assert doc == {"user": {
        "username": "alice",
        "email": "alice@example.org",
        "bio": "",
        "image": "",
        "token": respond_body(resp)["user"]["token"],
    }}

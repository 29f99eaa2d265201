"""HTTP gateway: request mapping, response shaping, timeouts."""
import json
import threading
import time
import urllib.request
import urllib.error

import pytest

from support import build_engine, register_payload, respond_body, responds
from tandem.engine import normalize_flows
from tandem.gateway import Runtime, make_server, reply_parts


@pytest.fixture()
def served(request):
    eng = build_engine()
    # happy paths return on the flow event; only flows still working wait it out
    runtime = Runtime(eng, timeout=getattr(request, "param", 1.0))
    runtime.start()
    server = make_server(runtime, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield eng, base
    server.shutdown()
    server.server_close()
    runtime.stop()


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


def test_unmatched_method_times_out_with_flow_id():
    eng = build_engine()
    runtime = Runtime(eng, timeout=0.2)
    runtime.start()
    server = make_server(runtime, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        status, doc = post(base, "/api/nonsense", {"x": 1})
        assert status == 504
        assert doc["flow"]
        assert eng.flow_records(doc["flow"])  # the root action still happened
    finally:
        server.shutdown()
        server.server_close()
        runtime.stop()


@pytest.mark.parametrize("served", [5.0], indirect=True)
def test_quiet_flow_without_respond_is_answered_at_once(served):
    eng, base = served
    start = time.monotonic()
    status, doc = post(base, "/api/nonsense", {"x": 1})
    assert status == 504
    assert time.monotonic() - start < 1.0  # not the 5 s timeout
    assert [r.name for r in eng.flow_records(doc["flow"])] == ["request"]


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
    assert err.value.code == 400


def test_unknown_path_is_404(served):
    _, base = served
    status, _ = post(base, "/healthz", {})
    assert status == 404


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

"""Command line tool: config parsing, assembly, and the five subcommands."""
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import tandem.cli

from support import DEFS, register_payload
from tandem.cli import AppConfig, ConfigError, assemble, cmd_lint, load_config, main, render_trace
from tandem.engine import Engine


def write_config(tmp_path, name="app.conf", **overrides):
    lines = {
        "prefix": "https://concepts.example/v0/",
        "version": "t1",
        "bootstrap": "Web",
        "concepts": ", ".join(
            f"@builtin/{f}.concept"
            for f in ("web", "user", "password", "profile", "jwt", "article", "comment", "tag", "favorite")
        ),
        "syncs": ", ".join(
            f"@builtin/{f}.sync"
            for f in ("registration", "onboarding", "errors", "articles", "formatting", "moderation")
        ),
        "log": str(tmp_path / "run.log"),
        "bind": "127.0.0.1:0",
    }
    lines.update(overrides)
    path = tmp_path / name
    path.write_text("# test app\n" + "".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


def run_main(capsys, *argv):
    with pytest.raises(SystemExit) as status:
        main(list(argv))
    captured = capsys.readouterr()
    return status.value.code, captured.out, captured.err


# ------------------------------------------------------------------ config

def test_load_config_reads_all_keys(tmp_path):
    path = write_config(tmp_path, step_limit="123")
    cfg = load_config(path)
    assert cfg.version == "t1"
    assert cfg.step_limit == 123
    assert len(cfg.concepts) == 9 and len(cfg.syncs) == 6
    assert all(p.exists() for p in cfg.concepts + cfg.syncs)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("nonsense = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_load_config_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.conf")


def test_load_config_rejects_empty_version(tmp_path):
    path = write_config(tmp_path, version="")
    with pytest.raises(ConfigError, match="version"):
        load_config(path)


def test_load_config_rejects_dangling_reference(tmp_path):
    path = write_config(tmp_path, syncs="nowhere.sync")
    with pytest.raises(ConfigError, match="nowhere.sync"):
        load_config(path)


def test_env_overrides_log_and_bind(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    monkeypatch.setenv("TANDEM_LOG", str(tmp_path / "elsewhere.log"))
    monkeypatch.setenv("TANDEM_BIND", "0.0.0.0:1234")
    cfg = load_config(path)
    assert cfg.log == tmp_path / "elsewhere.log"
    assert cfg.bind == "0.0.0.0:1234"


@pytest.mark.parametrize("overrides, env, command", [
    ({"step_limit": "abc"}, None, "lint"),
    ({"step_limit": "0"}, None, "lint"),
    ({"bind": "127.0.0.1:notaport"}, None, "run"),
    ({}, "127.0.0.1:notaport", "run"),
    ({"bind": "127.0.0.1:65536"}, None, "run"),
    ({"prefix": "notaniri"}, None, "lint"),
], ids=["step_limit-abc", "step_limit-0", "bind", "TANDEM_BIND", "bind-65536", "prefix"])
def test_bad_config_value_is_one_config_error_line(tmp_path, monkeypatch, capsys, overrides, env, command):
    path = write_config(tmp_path, **overrides)
    if env is not None:
        monkeypatch.setenv("TANDEM_BIND", env)
    with pytest.raises(SystemExit) as exit_info:
        main(["-c", str(path), command])
    assert exit_info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"config error: [^\n]+\n", err), err


def test_assemble_builds_working_engine(tmp_path):
    eng = assemble(load_config(write_config(tmp_path)))
    assert isinstance(eng, Engine)
    assert eng.bootstrap == "Web"
    assert eng.lint() == []


def test_assemble_requires_known_implementation(tmp_path):
    custom = tmp_path / "ghost.concept"
    custom.write_text(
        "concept Ghost\npurpose\n    to spook\nstate\n    sheets: set ref\nactions\n"
        "    boo [ ... ] => [ ... ]\n        appear briefly\n"
    )
    path = write_config(tmp_path, concepts=f"@builtin/web.concept, {custom}")
    with pytest.raises(ConfigError, match="no implementation"):
        assemble(load_config(path))


_WEB_SPEC = (DEFS / "web.concept").read_text()


@pytest.mark.parametrize("name, text, message", [
    # both parsers take a letter like "é"; qualify refuses it in an IRI
    ("web.concept", _WEB_SPEC.replace("    request [", "    r\u00e9quest ["),
     "action name must be a plain identifier: 'r\u00e9quest'"),
    ("bad.sync", 'sync A when { W\u00e9b/request: [ method: "x" ] => [ request: ?r ] }\n'
                 "then { Web/respond: [ request: ?r ] }\n",
     "concept name must be a plain identifier: 'W\u00e9b'"),
    # refused when the concept is registered, after it parsed
    ("web.concept", _WEB_SPEC.replace("    requests: set ref", "    requests: set ref\n    respond: set ref"),
     "Web: 'respond' names both a state component and an action"),
], ids=["action-name", "rule-concept-name", "state-and-action"])
def test_bad_name_in_a_spec_or_rule_file_is_one_config_error_line(tmp_path, capsys, name, text, message):
    bad = tmp_path / name
    bad.write_text(text)
    if name.endswith(".concept"):
        path = write_config(tmp_path, concepts=str(bad), syncs="@builtin/errors.sync")
    else:
        path = write_config(tmp_path, syncs=str(bad))
    code, out, err = run_main(capsys, "-c", str(path), "lint")
    assert (code, out, err) == (1, "", f"config error: {bad}: {message}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["sync", "concept"])
def test_rule_or_concept_registered_twice_is_one_config_error_line(tmp_path, capsys, kind):
    if kind == "sync":
        copy = tmp_path / "errors-copy.sync"
        copy.write_text((DEFS / "errors.sync").read_text())
        path = write_config(tmp_path, syncs=f"@builtin/errors.sync, {copy}")
        line = f"config error: {copy}: sync already registered: RegistrationError\n"
    else:
        path = write_config(tmp_path, concepts="@builtin/web.concept, @builtin/web.concept", syncs="")
        line = f"config error: {DEFS / 'web.concept'}: concept already registered: Web\n"
    code, out, err = run_main(capsys, "-c", str(path), "lint")
    assert (code, out, err) == (1, "", line)
    assert "Traceback" not in err


def test_shipped_demo_configs_assemble():
    for name in ("demo.conf", "fixed.conf"):
        eng = assemble(load_config(DEFS / name))
        assert eng.lint() == []


def test_builtin_prefix_names_a_shipped_config(capsys):
    code, out, _ = run_main(capsys, "-c", "@builtin/demo.conf", "lint")
    assert code == 0
    assert "clean" in out


# ------------------------------------------------------------- subcommands

def test_lint_clean_ruleset(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, _ = run_main(capsys, "-c", str(path), "lint")
    assert code == 0
    assert "clean" in out


def test_lint_reports_unbound_variable(tmp_path, capsys):
    bad = tmp_path / "bad.sync"
    bad.write_text(
        "sync Bad\nwhen { Web/request: [ method: \"x\" ] => [] }\n"
        "then { Web/respond: [ request: ?nowhere ] }\n"
    )
    path = write_config(tmp_path, syncs=str(bad))
    code, out, _ = run_main(capsys, "-c", str(path), "lint")
    assert code == 1
    assert "?nowhere" in out


def test_request_prints_response_and_trace(tmp_path, capsys):
    path = write_config(tmp_path)
    payload = tmp_path / "register.json"
    payload.write_text(json.dumps(register_payload()))
    code, out, _ = run_main(capsys, "-c", str(path), "request", "register", str(payload))
    assert code == 0
    assert '"username": "alice"' in out
    for label in ("Registration", "NewPassword", "DefaultProfile", "NewUserToken", "RegistrationResponse"):
        assert label in out


def test_request_unknown_method_exits_nonzero(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, err = run_main(capsys, "-c", str(path), "request", "teleport")
    assert code == 2
    assert "no response" in err
    assert "Web/request" in out  # the root still shows in the trace


def test_requests_accumulate_state_across_invocations(tmp_path, capsys):
    path = write_config(tmp_path)
    payload = tmp_path / "register.json"
    payload.write_text(json.dumps(register_payload()))
    code1, _, _ = run_main(capsys, "-c", str(path), "request", "register", str(payload))
    payload.write_text(json.dumps(register_payload(name="alice2")))
    code2, out, _ = run_main(capsys, "-c", str(path), "request", "register", str(payload))
    assert (code1, code2) == (0, 0)
    assert "email already taken" in out


def test_replay_verdict_on_truncated_log(tmp_path, capsys):
    path = write_config(tmp_path)
    payload = tmp_path / "register.json"
    payload.write_text(json.dumps(register_payload()))
    run_main(capsys, "-c", str(path), "request", "register", str(payload))
    log = tmp_path / "run.log"
    lines = log.read_text().splitlines()
    n = len(lines) // 2
    half = "".join(line + "\n" for line in lines[:n])
    truncated = tmp_path / "truncated.log"
    torn = f"warning: line {n + 1}: skipped 9 bytes after the last newline"
    # cut between two lines, then inside the next one
    for cut, warned in ((half, []), (half + lines[n][:9], [torn])):
        truncated.write_text(cut)
        before = truncated.read_bytes()
        code, out, err = run_main(capsys, "-c", str(path), "replay", str(truncated))
        assert err.splitlines() == warned
        assert code == 0
        assert "equal after recovery" in out
        assert truncated.read_bytes() == before  # replay resumes in memory


def test_replay_flags_version_mismatch(tmp_path, capsys):
    path = write_config(tmp_path)
    payload = tmp_path / "register.json"
    payload.write_text(json.dumps(register_payload()))
    run_main(capsys, "-c", str(path), "request", "register", str(payload))
    other = write_config(tmp_path, name="other.conf", version="t2")
    code, out, _ = run_main(capsys, "-c", str(other), "replay", str(tmp_path / "run.log"))
    assert code == 1
    assert "version mismatch" in out


def test_replay_empty_log_is_trivially_equal(tmp_path, capsys):
    path = write_config(tmp_path)
    empty = tmp_path / "empty.log"
    empty.write_text("")
    code, out, _ = run_main(capsys, "-c", str(path), "replay", str(empty))
    assert code == 0
    assert "equal after recovery" in out
    assert empty.read_bytes() == b""
    missing = tmp_path / "missing.log"
    code, out, _ = run_main(capsys, "-c", str(path), "replay", str(missing))
    assert (code, out.strip()) == (0, "equal after recovery")
    assert not missing.exists()  # replay creates no log


def test_trace_prints_flow_dag(tmp_path, capsys):
    path = write_config(tmp_path)
    payload = tmp_path / "register.json"
    payload.write_text(json.dumps(register_payload()))
    _, out, _ = run_main(capsys, "-c", str(path), "request", "register", str(payload))
    flow = out.splitlines()[1].split()[1]  # "flow <token>" heading
    code, out2, _ = run_main(capsys, "-c", str(path), "trace", flow)
    assert code == 0
    assert "RegistrationResponse" in out2
    log_size = (tmp_path / "run.log").stat().st_size
    run_main(capsys, "-c", str(path), "trace", flow)
    assert (tmp_path / "run.log").stat().st_size == log_size  # tracing never writes


def test_trace_unknown_flow_exits_nonzero(tmp_path, capsys):
    path = write_config(tmp_path)
    payload = tmp_path / "register.json"
    payload.write_text(json.dumps(register_payload()))
    run_main(capsys, "-c", str(path), "request", "register", str(payload))
    code, out, _ = run_main(capsys, "-c", str(path), "trace", "no-such-flow")
    assert code == 1
    assert "no records" in out


@pytest.mark.parametrize("command", ["trace", "replay"])
def test_corrupt_middle_line_fails_recovery(tmp_path, capsys, command):
    path = write_config(tmp_path)
    payload = tmp_path / "register.json"
    payload.write_text(json.dumps(register_payload()))
    run_main(capsys, "-c", str(path), "request", "register", str(payload))
    lines = (tmp_path / "run.log").read_text().splitlines()
    middle = len(lines) // 2
    lines[middle] = "{not json"
    corrupt = tmp_path / "corrupt.log"
    corrupt.write_text("".join(line + "\n" for line in lines))
    argv = ["trace", "some-flow", "--log", str(corrupt)] if command == "trace" else ["replay", str(corrupt)]
    code, _, err = run_main(capsys, "-c", str(path), *argv)
    assert code == 1
    assert f"recovery failed: line {middle + 1}" in err


def test_request_with_malformed_payload_is_refused(tmp_path, capsys):
    path = write_config(tmp_path)
    payload = tmp_path / "bad.json"
    payload.write_text('{"user": {"age": 1.5}}')
    code, _, err = run_main(capsys, "-c", str(path), "request", "register", str(payload))
    assert code == 1
    assert err.startswith("bad payload: floats are not valid values")
    assert not (tmp_path / "run.log").exists()  # refused before the log is opened


@pytest.mark.parametrize("body", ['{"": 1}', '{"user": {"x": {"": "y"}}}'], ids=["top", "nested"])
def test_request_with_an_empty_field_name_is_refused(tmp_path, capsys, body):
    path = write_config(tmp_path)
    payload = tmp_path / "bad.json"
    payload.write_text(body)
    code, _, err = run_main(capsys, "-c", str(path), "request", "register", str(payload))
    assert code == 1
    assert err == "bad payload: record field names must be non-empty strings: ''\n"
    assert not (tmp_path / "run.log").exists()


@pytest.mark.parametrize("depth", [950, 100_000])
def test_request_with_deeply_nested_payload_is_refused(tmp_path, capsys, depth):
    path = write_config(tmp_path)
    payload = tmp_path / "deep.json"
    payload.write_text('{"x": ' + "[" * depth + "]" * depth + "}")
    code, _, err = run_main(capsys, "-c", str(path), "request", "register", str(payload))
    assert code == 1
    assert err.startswith("bad payload: ")
    assert not (tmp_path / "run.log").exists()


def start_run(path, cwd):
    """`tandem run` in its own process; returns the process and its base URL."""
    src = str(Path(tandem.cli.__file__).resolve().parent.parent)
    # faulthandler dumps every thread's stack on SIGABRT, for a run that hangs
    env = dict(os.environ, TANDEM_BIND="127.0.0.1:0", PYTHONUNBUFFERED="1", PYTHONFAULTHANDLER="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    server = subprocess.Popen(
        [sys.executable, "-m", "tandem.cli", "-c", str(path), "run"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    ready, _, _ = select.select([server.stdout], [], [], 60)
    line = server.stdout.readline() if ready else ""
    if not line.startswith("serving on http://"):
        stop_run(server)
        pytest.fail(f"tandem run did not start: {line!r}")
    return server, line.split()[2]


def stop_run(server) -> None:
    server.send_signal(signal.SIGINT)  # does nothing once the process has exited
    try:
        server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
    server.stdout.close()


def test_run_resumes_its_log(tmp_path, capsys):
    path = write_config(tmp_path)
    payload = tmp_path / "register.json"
    payload.write_text(json.dumps(register_payload()))
    code, _, _ = run_main(capsys, "-c", str(path), "request", "register", str(payload))
    assert code == 0

    server, base = start_run(path, tmp_path)
    try:
        req = urllib.request.Request(
            base + "/api/register",
            data=json.dumps(register_payload(name="alice2")).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 422  # the email taken before the restart stays taken
        assert "email already taken" in json.loads(err.value.read())["error"]
    finally:
        stop_run(server)
    code, out, _ = run_main(capsys, "-c", str(path), "replay")
    assert (code, out.strip()) == (0, "equal after recovery")


def test_run_exits_on_sigint_with_an_idle_connection_open(tmp_path, capsys):
    # the connection's handler thread waits for a next request that never
    # comes; it must not keep the process alive
    path = write_config(tmp_path)
    server, base = start_run(path, tmp_path)
    host, port = base.rsplit("/", 1)[1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.request("POST", "/api/register", body=json.dumps(register_payload()).encode(),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 200
        resp.read()
        assert conn.sock is not None  # kept open for a next request
        server.send_signal(signal.SIGINT)
        try:
            code = server.wait(timeout=5)
        except subprocess.TimeoutExpired:
            server.send_signal(signal.SIGABRT)
            out, _ = server.communicate(timeout=30)
            pytest.fail(f"tandem run still running 5 s after SIGINT; its output and stacks:\n{out}")
    finally:
        conn.close()
        stop_run(server)
    assert code == 0
    code, out, _ = run_main(capsys, "-c", str(path), "replay")
    assert (code, out.strip()) == (0, "equal after recovery")


def test_render_trace_orders_and_labels():
    from support import build_engine, run_flow

    eng = build_engine()
    flow = run_flow(eng, register_payload())
    text = render_trace(eng.trace_flow(flow))
    lines = text.splitlines()
    assert lines[0] == f"flow {flow}"
    assert lines[1].startswith("[1] Web/request")
    assert any("caused by Registration from [1]" in line for line in lines)
    assert any("caused by RegistrationResponse" in line for line in lines)


def test_render_trace_prints_causes_and_the_noop():
    from support import ARTICLE_RULES, build_engine, run_flow, seed_article

    eng = build_engine(rules=ARTICLE_RULES)
    seed_article(eng)
    flow = run_flow(eng, {"method": "delete_article", "slug": "intro-to-sync"})
    lines = render_trace(eng.trace_flow(flow)).splitlines()
    records = [i for i, line in enumerate(lines) if line.startswith("[")]
    # every record but the request is an invocation, with exactly one cause under it
    for n, i in enumerate(records, start=1):
        end = records[n] if n < len(records) else len(lines)
        causes = [line for line in lines[i + 1:end] if "caused by" in line]
        assert len(causes) == (n > 1), lines[i:end]
        assert all(re.fullmatch(r"      caused by \w+ from \[\d+(, \d+)*\]", c) for c in causes)
    (k,) = [n for n, i in enumerate(records, start=1) if lines[i].startswith(f"[{n}] Article/delete ")]
    assert lines[-1] == f"no-op firing CascadeDeleteComments from [{k}]"

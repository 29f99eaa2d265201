"""Command line surface: assemble an application from a config file, serve
it over HTTP, fire scripted requests, replay logs, lint rules, trace flows.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

from .concepts import BUILTINS
from .core import is_iri, to_jsonable
from .engine import DEFAULT_PREFIX, Engine, EngineError, RecoveryError, normalize_flows
from .gateway import Runtime, decode_payload, make_server, reply_parts
from .speclang import SpecError, parse_concept
from .synclang import SyncError, parse_syncs

_DEFS = Path(__file__).resolve().parent / "defs"


class ConfigError(Exception):
    pass


@dataclass
class AppConfig:
    prefix: str = DEFAULT_PREFIX
    version: str = "dev"
    concepts: tuple = ()
    syncs: tuple = ()
    log: Path = Path("tandem.log")
    bind: str = "127.0.0.1:8799"
    step_limit: int = 10_000
    bootstrap: str = "Web"


def _resolve(base: Path, text: str) -> Path:
    if text.startswith("@builtin/"):
        return _DEFS / text[len("@builtin/"):]
    path = Path(text)
    return path if path.is_absolute() else base / path


def load_config(path) -> AppConfig:
    """Read a key = value file, one key per AppConfig field. Lists are comma
    separated; paths resolve relative to the config file, @builtin/ resolves
    to the shipped files. A value that cannot work is a ConfigError."""
    path = _resolve(Path.cwd(), str(path))
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    # each key's value is read as its default's type
    kinds = {f.name: type(f.default) for f in fields(AppConfig)}
    cfg = AppConfig()
    for n, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{n}: expected key = value")
        if key not in kinds:
            raise ConfigError(f"{path}:{n}: unknown key {key!r}")
        if kinds[key] is tuple:
            value = (_resolve(path.parent, s.strip()) for s in value.split(",") if s.strip())
        try:
            setattr(cfg, key, kinds[key](value))  # a log, a run artifact, resolves against the cwd
        except ValueError:
            raise ConfigError(f"{path}:{n}: {key} must be an integer, not {value!r}")

    if os.environ.get("TANDEM_LOG"):
        cfg.log = Path(os.environ["TANDEM_LOG"])
    if os.environ.get("TANDEM_BIND"):
        cfg.bind = os.environ["TANDEM_BIND"]

    if not cfg.version:
        raise ConfigError("version must not be empty")
    if not is_iri(cfg.prefix):
        raise ConfigError(f"prefix must be an IRI with a scheme: {cfg.prefix!r}")
    if cfg.step_limit < 1:
        raise ConfigError(f"step_limit must be a positive integer, not {cfg.step_limit}")
    port = cfg.bind.rpartition(":")[2]
    if not (port.isdecimal() and int(port) <= 65535):
        raise ConfigError(f"bind needs a port from 0 to 65535: {cfg.bind!r}")
    for p in cfg.concepts + cfg.syncs:
        if not p.exists():
            raise ConfigError(f"referenced file not found: {p}")
    return cfg


def assemble(cfg: AppConfig) -> Engine:
    """Build an engine from parsed concept and sync files."""
    eng = Engine(prefix=cfg.prefix, version=cfg.version, step_limit=cfg.step_limit)
    for p in cfg.concepts:
        try:
            spec = parse_concept(p.read_text())
        except SpecError as exc:
            raise ConfigError(f"{p}: {exc}")
        entry = BUILTINS.get(spec.name)
        if entry is None:
            raise ConfigError(f"no implementation for concept {spec.name}")
        eng.register_concept(spec, entry[1](), bootstrap=(spec.name == cfg.bootstrap))
    for p in cfg.syncs:
        try:
            eng.register_syncs(parse_syncs(p.read_text()))
        except SyncError as exc:
            raise ConfigError(f"{p}: {exc}")
    if eng.bootstrap is None:
        raise ConfigError(f"bootstrap concept {cfg.bootstrap} is not among the configured concepts")
    return eng


def render_trace(trace) -> str:
    """Human-readable provenance DAG: numbered records, labeled causes."""
    if not trace.records:
        return f"flow {trace.flow}: no records\n"
    index = {rec.id: i for i, rec in enumerate(trace.records, start=1)}
    cause = {rid: f for f in trace.firings for rid in f.targets}
    lines = [f"flow {trace.flow}"]
    for i, rec in enumerate(trace.records, start=1):
        name = rec.concept.rsplit("/", 1)[1] + "/" + rec.name
        inp = json.dumps(to_jsonable(rec.input), sort_keys=True)
        out = json.dumps(to_jsonable(rec.output), sort_keys=True) if rec.is_completion else "(pending)"
        lines.append(f"[{i}] {name} {inp} => {out}")
        f = cause.get(rec.id)
        if f is not None:
            lines.append(f"      caused by {f.sync} from {sorted(index[s] for s in f.sources)}")
    for f in trace.firings:
        if not f.targets:
            lines.extend(f"no-op firing {f.sync} from [{index[s]}]" for s in f.sources)
    return "".join(line + "\n" for line in lines)


def _lint_or_die(eng: Engine) -> None:
    diags = eng.lint()
    if diags:
        for d in diags:
            print(d, file=sys.stderr)
        raise SystemExit(1)


def _recover(eng: Engine, path, resume: bool = True) -> str | None:
    """Engine.recover_from, each warning printed as one `warning: ...` line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        version = eng.recover_from(path, resume)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return version


def _open_log(eng: Engine, cfg: AppConfig) -> None:
    """Resume the configured log, or start it, and finish its unfinished work."""
    _recover(eng, cfg.log)
    eng.attach_log(cfg.log)
    eng.run_to_quiescence()


def cmd_lint(args) -> int:
    cfg = load_config(args.config)
    eng = assemble(cfg)
    diags = eng.lint()
    for d in diags:
        print(d)
    if not diags:
        print("ruleset is clean")
    return 1 if diags else 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    eng = assemble(cfg)
    _lint_or_die(eng)
    _open_log(eng, cfg)
    runtime = Runtime(eng)
    host, _, port = cfg.bind.rpartition(":")
    server = make_server(runtime, host or "127.0.0.1", int(port))
    # what start-up built (modules, specs, compiled rules, recovered history)
    # lives as long as the process; frozen, no full collection walks it again
    gc.collect()
    gc.freeze()
    print(f"serving on http://{server.server_address[0]}:{server.server_address[1]}"
          f" (log: {cfg.log}, version: {cfg.version})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        runtime.close()
    return 0


def cmd_request(args) -> int:
    cfg = load_config(args.config)
    eng = assemble(cfg)
    _lint_or_die(eng)
    payload = {}
    if args.payload:
        try:
            payload = decode_payload(json.loads(Path(args.payload).read_text()))
        except (ValueError, RecursionError) as exc:
            print(f"bad payload: {exc}", file=sys.stderr)
            return 1
    payload["method"] = args.method
    if args.token:
        payload["token"] = args.token
    _open_log(eng, cfg)
    runtime = Runtime(eng)
    flow, respond = runtime.submit(payload)
    runtime.close()
    if respond is not None:
        code, doc = reply_parts(respond)
        print(f"{code} {json.dumps(doc, sort_keys=True)}")
    else:
        print("no response", file=sys.stderr)
    print(render_trace(eng.trace_flow(flow)), end="")
    return 0 if respond is not None else 2


def cmd_replay(args) -> int:
    cfg = load_config(args.config)
    log_path = Path(args.log) if args.log else cfg.log
    recovered = assemble(cfg)
    # resumed in memory, with no log attached: replay leaves the log as it found it
    log_version = _recover(recovered, log_path)
    recovered.run_to_quiescence()

    oracle = assemble(cfg)
    for root in recovered.root_records():
        oracle.submit_external(oracle.bootstrap, root.name, root.input)
        oracle.run_to_quiescence()

    flags = []
    if log_version is not None and log_version != cfg.version:
        flags.append(f"version mismatch: log has {log_version!r}, config has {cfg.version!r}")
    equal = normalize_flows(recovered.actions()) == normalize_flows(oracle.actions())
    for flag in flags:
        print(flag)
    print("equal after recovery" if equal else "diverged from oracle run")
    return 0 if equal and not flags else 1


def cmd_trace(args) -> int:
    cfg = load_config(args.config)
    log_path = Path(args.log) if args.log else cfg.log
    eng = assemble(cfg)
    _recover(eng, log_path, resume=False)
    trace = eng.trace_flow(args.flow)
    print(render_trace(trace), end="")
    return 0 if trace.records else 1


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="tandem", description=__doc__)
    parser.add_argument("-c", "--config", default="tandem.conf", help="application config file")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("lint", help="check the ruleset against the concept specs")

    sub.add_parser("run", help="serve the application over HTTP")

    p_request = sub.add_parser("request", help="run one request offline and print its trace")
    p_request.add_argument("method")
    p_request.add_argument("payload", nargs="?", help="JSON payload file")
    p_request.add_argument("--token", help="bearer token field")

    p_replay = sub.add_parser("replay", help="recover a log and compare against a fresh run")
    p_replay.add_argument("log", nargs="?", help="log file (default: the configured one)")

    p_trace = sub.add_parser("trace", help="print the provenance DAG of one flow")
    p_trace.add_argument("flow")
    p_trace.add_argument("--log", help="log file (default: the configured one)")

    args = parser.parse_args(argv)
    handlers = {
        "lint": cmd_lint,
        "run": cmd_run,
        "request": cmd_request,
        "replay": cmd_replay,
        "trace": cmd_trace,
    }
    try:
        raise SystemExit(handlers[args.command](args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()

"""Serve tandem over HTTP for the gateway workload, optionally traced.

    python3 -u perfbench/serve.py REPORT TRACE -- <tandem cli arguments>

Runs `tandem.cli.main` with the given arguments (normally `-c CONFIG run`
with TANDEM_BIND=127.0.0.1:0). On SIGINT the server stops as `tandem run`
does, and REPORT receives a JSON object: peak RSS, write system calls made
while serving, and with TRACE=1 the spans and firing counts of the server.
"""
from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[4:]
    from tandem import cli
    from tracing import Tracer, export, write_calls

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.phase = "server"
        tracer.watch_assembled = True
        tracer.install()
    writes0 = write_calls()
    code = 0
    try:
        cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        writes1 = write_calls()
        report = {
            "exit": code,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "write_calls": writes1 - writes0,
        }
        if tracer is not None:
            tracer.uninstall()
            tracer.settle()
            report["spans"] = export(tracer.spans)
            report["absent"] = tracer.absent
            report["firings"] = tracer.totals
        with open(report_path, "w", encoding="utf-8") as out:
            json.dump(report, out)


if __name__ == "__main__":
    main()

"""Pytest wiring: one verdict line per acceptance criterion after the run,
and a hypothesis profile that prints the reproducer blob of a failing
example."""
import re

from hypothesis import settings

settings.register_profile("tandem", print_blob=True)
settings.load_profile("tandem")

_CRITERION = re.compile(r"test_acceptance\.py::test_c(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts: dict[int, tuple[str, bool]] = {}
    for outcome, ok in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", "call") != "call" and outcome != "error":
                continue
            m = _CRITERION.search(rep.nodeid)
            if not m:
                continue
            num = int(m.group(1))
            label = m.group(2).split("[")[0].replace("_", " ")
            prior = verdicts.get(num)
            verdicts[num] = (label, ok and (prior is None or prior[1]))
    if not verdicts:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(verdicts):
        label, ok = verdicts[num]
        terminalreporter.write_line(f"  {num:>2}  {label:<44} {'PASS' if ok else 'FAIL'}")

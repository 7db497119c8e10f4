"""Acceptance reporting: one pass/fail line per criterion at the end of the run.

The entries are also stored as JSON in pytest's cache, under the key
``sobolev_lab/acceptance``, so measured values can be diffed between runs.
"""

import json

ACCEPTANCE_LOG: dict[str, dict] = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", "call") == "call":
                outcomes[rep.nodeid.split("::")[-1]] = status
    tw = terminalreporter
    tw.write_sep("=", "acceptance criteria")
    entries = {}
    for crit_id in sorted(ACCEPTANCE_LOG):
        entry = ACCEPTANCE_LOG[crit_id]
        status = outcomes.get(entry["test"], "unknown")
        verdict = "PASS" if status == "passed" else "FAIL"
        entries[crit_id] = {"verdict": verdict, **entry}
        tw.write_line(f"[{crit_id}] {verdict}  {entry['title']}")
        for key, val in entry.get("measured", {}).items():
            tw.write_line(f"        {key} = {val}")
    if getattr(config, "cache", None) is not None:
        plain = json.dumps(entries, default=lambda v: v.item() if hasattr(v, "item") else str(v))
        config.cache.set("sobolev_lab/acceptance", json.loads(plain))

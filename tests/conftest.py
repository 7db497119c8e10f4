"""Acceptance reporting: one line per judged criterion at the end of the run.

Each acceptance test records the entry ``criteria.judge`` returned for its
criterion.  The entries are also stored as JSON in pytest's cache, under the
key ``sobolev_lab/acceptance``, keyed and ordered like the ``criteria`` of
``summarize``'s report.json, so measured values can be diffed between runs.
"""

from sobolev_lab.criteria import CRITERIA

ACCEPTANCE_LOG: dict[str, dict] = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    entries = {crit: ACCEPTANCE_LOG[crit] for crit in CRITERIA if crit in ACCEPTANCE_LOG}
    if not entries:
        return
    tw = terminalreporter
    tw.write_sep("=", "acceptance criteria")
    for crit, entry in entries.items():
        tw.write_line(f"[{crit}] {entry['status'].upper()}  {entry['title']}")
        for key, val in entry["measured"].items():
            tw.write_line(f"        {key} = {val}")
        for clause in entry["failed"]:
            tw.write_line(f"        FAILED: {clause['clause']} (measured {clause['value']})")
    if getattr(config, "cache", None) is not None:
        config.cache.set("sobolev_lab/acceptance", entries)

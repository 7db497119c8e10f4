"""Acceptance reporting: one line per judged criterion at the end of the run.

Each acceptance test records the entry ``criteria.judge`` returned for its
criterion.  The entries are also stored as JSON in pytest's cache, under the
key ``sobolev_lab/acceptance``, keyed and ordered like the ``criteria`` of
``summarize``'s report.json, so measured values can be diffed between runs.
"""

import numpy as np
import pytest

from sobolev_lab.criteria import CRITERIA
from sobolev_lab.geometry import basin_pairs

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


@pytest.fixture
def plane_starts():
    """make(d, seed) -> starts (m, d) and teacher (d,) for the plane-flow tests:
    random basin students, then one on the teacher's line (b = 0 in plane
    coordinates) and one 1e-12 off it."""
    def make(d, seed):
        rng = np.random.default_rng(seed)
        w0, ws = basin_pairs(rng, d, 6, rmin=0.1, rmax=0.7)
        ws = 1.3 * ws
        u = ws / np.linalg.norm(ws)
        e = rng.standard_normal(d)
        e -= (e @ u) * u
        e /= np.linalg.norm(e)
        return np.concatenate([w0, [1.2 * u, 0.8 * u + 1e-12 * e]]), ws

    return make

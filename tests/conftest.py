import re

import pytest
from hypothesis import HealthCheck, settings

from nextpage.sitegraph import SiteGraph

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# Six-page fixture used across the suite.  Hand-picked so that every
# interesting case shows up at least once: a class-0 page (H), a score tie
# inside a level boundary (S/M and a/b), and one common page (c) whose
# in-link tie resolves to the smaller class.
MICRO_PAGES = ("H", "S", "M", "a", "b", "c")
MICRO_LINKS = {
    "H": ("S", "M"),
    "S": ("a", "b"),
    "M": ("c",),
    "a": ("c",),
    "b": (),
    "c": (),
}

# Frozen expected values, computed once with the dense reference
# implementation in oracles.py (damping 0.85, iterated to convergence).
MICRO_SCORES = {
    "H": 0.094008983733508,
    "M": 0.133962801820249,
    "S": 0.133962801820249,
    "a": 0.150943174507114,
    "b": 0.150943174507114,
    "c": 0.336179063611766,
}
MICRO_ORDINALS = {"H": 1, "M": 2, "S": 3, "a": 4, "b": 5, "c": 6}
MICRO_PROVISIONAL = {"H": 0, "S": 1, "M": 2, "a": 1, "b": 1, "c": 2}
MICRO_COMMON = ["c"]
MICRO_CLASSES = {"H": 0, "S": 1, "M": 2, "a": 1, "b": 1, "c": 1}
MICRO_LEVELS = {"H": 1, "M": 1, "S": 2, "a": 2, "b": 3, "c": 3}


@pytest.fixture
def micro_site() -> SiteGraph:
    return SiteGraph(
        pages=MICRO_PAGES,
        links=dict(MICRO_LINKS),
        dominants=("S", "M"),
        home="H",
    )


MICRO_GRAPH_TEXT = """\
# six-page sample site
H -> S M
S -> a b
M -> c
a -> c
b ->
c ->
@dominant S M
@home H
"""


@pytest.fixture
def micro_graph_text() -> str:
    return MICRO_GRAPH_TEXT


def classes_of(model) -> dict[int, set[str]]:
    """The model's pages grouped by class number."""
    groups: dict[int, set[str]] = {}
    for url, rec in model.records.items():
        groups.setdefault(rec.class_no, set()).add(url)
    return groups


def settled_state(model) -> dict[str, tuple[int, int, int]]:
    """Every page's (level, lc, ts), read through `Model.settled`."""
    state = {}
    for url in model.records:
        rec = model.settled(url)
        state[url] = (rec.level, rec.lc, rec.ts)
    return state


@pytest.fixture
def sweep_log(monkeypatch):
    """Every sweep run from now on, as (sweep name, tick, returned URLs), in
    call order.  The sweeps are wrapped where `run_sweeps` looks them up,
    in the updates module's globals.  The demotion sweep returns no URLs:
    records settle when read, so read them through `settled_state`."""
    import nextpage.updates as updates

    log = []
    for name in ("demotion_sweep", "modification_sweep"):

        def recorded(model, cfg, now, _sweep=getattr(updates, name), _name=name):
            moved = _sweep(model, cfg, now)
            log.append((_name, now, moved))
            return moved

        monkeypatch.setattr(updates, name, recorded)
    return log


_CRITERION = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per numbered acceptance check."""
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if not m:
                continue
            num = int(m.group(1))
            ok = outcome == "passed"
            results[num] = results.get(num, True) and ok
    if not results:
        return
    terminalreporter.section("acceptance checks")
    for num in sorted(results):
        verdict = "PASS" if results[num] else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict}")

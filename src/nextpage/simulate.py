"""Trace replay against the full engine, plus a synthetic trace generator.

Replay drives predict -> observe -> update for every trace event while
maintaining one simulated prefetch cache per session.  A request is a hit
when its URL was prefetched earlier in the same session; the first request of
a session is never scored.  Sweeps follow the one schedule in
`updates.run_sweeps`, which the service shares.

The generator produces class-affine surfing sessions: from each page the
next request follows an out-link, staying inside the current class with the
given affinity probability.  Everything is driven by one seed, so identical
arguments always produce identical traces.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .config import EngineConfig
from .errors import TraceFormatError, UnknownPageError, ValidationError
# Nothing here calls `assign_classes` or `resolve_common_pages`; they stay
# importable from this module because perfbench's traced run wraps
# `simulate.assign_classes` and `simulate.resolve_common_pages` by attribute.
from .model import Model, assign_classes, page_classes, resolve_common_pages  # noqa: F401
from .predictor import predict
from .sitegraph import ModificationLog, SiteGraph
from .updates import ModificationEvent, SessionEvent, apply_event, run_sweeps

TRACE_CSV_HEADER = "tick,session_id,url"
REPORT_CSV_HEADER = "window,requests,hits,hit_pct,session"


@dataclass
class SessionStats:
    requests: int = 0
    hits: int = 0

    @property
    def hit_pct(self) -> float:
        return 100.0 * self.hits / self.requests if self.requests else 0.0


@dataclass
class HitReport:
    """Hit counts for one replay at one window size."""

    window: int
    requests: int
    hits: int
    per_session: dict[str, SessionStats] = field(default_factory=dict)

    @property
    def hit_pct(self) -> float:
        return 100.0 * self.hits / self.requests if self.requests else 0.0


def replay(
    model: Model,
    trace: list[SessionEvent],
    window: int,
    cfg: EngineConfig,
    modlog: ModificationLog | None = None,
    window_only_cache: bool = False,
) -> HitReport:
    """Replay `trace` against `model` (mutated in place) and score hits.

    Per event: check the session's prefetch cache, feed the access to the
    update engine, then predict with `window` and prefetch the result.
    Prefetched pages stay cached for the whole session unless
    `window_only_cache` is set, in which case only the latest window counts.
    Modification log entries are interleaved by tick (modifications first on
    equal ticks).  Sweeps follow `run_sweeps`, called only when a sweep is
    due: a sweep due at tick m runs after all events carrying tick m, or
    before the next later event when no event carries m.
    """
    if window < 0:
        raise ValidationError("window must be non-negative")
    last_tick = None
    for ev in trace:
        if ev.url not in model.records:
            raise UnknownPageError(ev.url)
        if last_tick is not None and ev.tick <= last_tick:
            raise ValidationError("trace ticks must be strictly increasing")
        last_tick = ev.tick
    mods = [ModificationEvent(url=url, tick=tick) for url, tick in (modlog.entries if modlog else ())]
    for mod in mods:
        if mod.url not in model.records:
            raise UnknownPageError(mod.url)

    # Merged timeline: by tick, modifications before requests on equal ticks.
    # (tick, kind, index) is unique, so the sort never compares two events.
    timeline = [(m.tick, 0, i, m) for i, m in enumerate(mods)]
    timeline += [(e.tick, 1, i, e) for i, e in enumerate(trace)]
    timeline.sort()

    caches: dict[str, set[str]] = {}
    stats: dict[str, SessionStats] = {}
    hits = 0
    due = 0  # every sweep before this tick has run

    for tick, kind, _, event in timeline:
        if tick > due:
            # the sweeps at ticks due .. tick - 1, each after its tick's events
            due = run_sweeps(model, cfg, due - 1, tick - 1)
        if kind == 0:
            apply_event(model, event)
            continue
        sid = event.session_id
        cache = caches.get(sid)
        if cache is None:
            stats[sid] = SessionStats()
            cache = caches[sid] = set()
        elif event.url in cache:
            stats[sid].hits += 1
            hits += 1
        apply_event(model, event)
        prediction = predict(model, event.url, window)
        if window_only_cache:
            caches[sid] = set(prediction.window)
        else:
            cache.update(prediction.window)

    if timeline:
        run_sweeps(model, cfg, due - 1, timeline[-1][0])
    # Every request but a session's first is scored.
    for sid, n in Counter(ev.session_id for ev in trace).items():
        stats[sid].requests = n - 1
    requests = len(trace) - len(stats)
    return HitReport(window=window, requests=requests, hits=hits, per_session=stats)


def generate_trace(
    g: SiteGraph,
    sessions: int,
    length: int,
    affinity: float,
    seed: int,
) -> list[SessionEvent]:
    """Generate `sessions` interleaved sessions of `length` requests each.

    Sessions start at the home page (uniform random page when no home is
    declared) and advance round-robin, one request per session per round.
    Each step follows an out-link of the current page: with probability
    `affinity` uniformly among same-class out-links (all out-links when the
    page has none), otherwise uniformly among all out-links.  Dead ends
    restart the session at its start page.  Classes come from `page_classes`,
    worked out once per graph object, so a graph already built into a model
    or used for a trace does not redo them.  A page's moves (its out-links
    and its same-class out-links, none in class 0) are worked out once, on
    its first visit.
    """
    if sessions < 1 or length < 1:
        raise ValidationError("sessions and length must be at least 1")
    if not 0.0 <= affinity <= 1.0:
        raise ValidationError("affinity must be within [0, 1]")

    rng = random.Random(seed)
    random_, choice = rng.random, rng.choice
    classes = page_classes(g)

    starts = [g.home if g.home is not None else choice(g.pages) for _ in range(sessions)]
    ids = [f"s{s + 1}" for s in range(sessions)]
    events = [SessionEvent(ids[s], starts[s], s + 1) for s in range(sessions)]
    # Per page, filled on its first visit: (out-links, same-class out-links).
    moves: dict[str, tuple[tuple[str, ...], list[str]]] = {}
    current = list(starts)
    tick = sessions
    for _ in range(length - 1):
        for s, sid in enumerate(ids):
            here = current[s]
            move = moves.get(here)
            if move is None:
                outs, cls = g.links[here], classes[here]
                move = moves[here] = (outs, [t for t in outs if classes[t] == cls] if cls else [])
            outs, same_class = move
            if not outs:
                url = starts[s]
            elif random_() < affinity and same_class:
                url = choice(same_class)
            else:
                url = choice(outs)
            tick += 1
            events.append(SessionEvent(sid, url, tick))
            current[s] = url
    return events


def trace_to_csv(trace: list[SessionEvent]) -> str:
    lines = [TRACE_CSV_HEADER]
    lines.extend(f"{ev.tick},{ev.session_id},{ev.url}" for ev in trace)
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> list[SessionEvent]:
    """Parse a trace CSV (`tick,session_id,url`, header optional)."""
    events: list[SessionEvent] = []
    last_tick = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or (lineno == 1 and line == TRACE_CSV_HEADER):
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise TraceFormatError("expected 'tick,session_id,url'", lineno)
        try:
            tick = int(fields[0])
        except ValueError:
            raise TraceFormatError(f"bad tick {fields[0]!r}", lineno) from None
        if tick < 0:
            raise TraceFormatError("negative tick", lineno)
        if last_tick is not None and tick <= last_tick:
            raise TraceFormatError("ticks must be strictly increasing", lineno)
        last_tick = tick
        events.append(SessionEvent(fields[1], fields[2], tick))
    return events


def report_to_csv(report: HitReport) -> str:
    """Report CSV: the totals row first (empty session field), then one row
    per session sorted by session id."""
    lines = [REPORT_CSV_HEADER]
    lines.append(
        f"{report.window},{report.requests},{report.hits},{report.hit_pct:.4f},"
    )
    for sid in sorted(report.per_session):
        s = report.per_session[sid]
        lines.append(f"{report.window},{s.requests},{s.hits},{s.hit_pct:.4f},{sid}")
    return "\n".join(lines) + "\n"

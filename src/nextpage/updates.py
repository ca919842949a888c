"""Online model maintenance: per-access counters and the periodic sweeps.

Every observed request bumps the page's local counter; the L-th access at a
level promotes the page one level and resets the counter.  Two periodic
sweeps move pages the access stream alone would not: the demotion sweep drops
pages nobody has touched for `demote_threshold` ticks one level, and the
modification sweep raises freshly modified pages one level.  Class numbers
are assigned at build time and never change here.

All times are logical ticks (event indices), never wall clock, so any replay
of the same event stream produces the same model.  `apply_event` records one
event and only then advances the clock, so an event for an unknown page is
rejected without touching the model.  `run_sweeps` is the one sweep
schedule: both sweeps, demotion first, at every positive multiple of
`sweep_period`.  Replay and the service both call it, so the same event
stream leaves the same model on either path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import EngineConfig
from .errors import UnknownPageError
from .model import Model


@dataclass(frozen=True)
class SessionEvent:
    """One observed request within a session."""

    session_id: str
    url: str
    tick: int


@dataclass(frozen=True)
class ModificationEvent:
    """A page changed content at `tick`."""

    url: str
    tick: int


def record_access(model: Model, url: str, now: int) -> bool:
    """Apply one access; returns True when the page was promoted.

    Pages already at the top level only get their timestamp refreshed (no
    counter is kept there).  Below the top, the counter runs 0..L-1 and the
    L-th access promotes one level, resetting counter and timestamp.
    """
    rec = model.records.get(url)
    if rec is None:
        raise UnknownPageError(url)
    if rec.level >= model.levels:
        rec.ts = now
        return False
    if rec.lc < model.levels - 1:
        rec.lc += 1
        rec.ts = now
        return False
    rec.level += 1
    rec.lc = 0
    rec.ts = now
    return True


def record_modification(model: Model, url: str, now: int) -> None:
    """Note a content change; level movement happens at the next sweep."""
    rec = model.records.get(url)
    if rec is None:
        raise UnknownPageError(url)
    rec.dm = now


def demotion_sweep(model: Model, cfg: EngineConfig, now: int) -> list[str]:
    """Drop every page idle for demote_threshold ticks one level (floor 1)."""
    demoted = []
    for rec in model.records.values():
        if rec.level > 1 and now - rec.ts >= cfg.demote_threshold:
            rec.level -= 1
            rec.lc = 0
            rec.ts = now
            demoted.append(rec.url)
    return demoted


def modification_sweep(model: Model, cfg: EngineConfig, now: int) -> list[str]:
    """Raise pages modified within recency_window one level (cap L).

    Each page's newest examined dm is remembered, so a single modification is
    considered by exactly one sweep and can promote at most once.
    """
    promoted = []
    for rec in model.records.values():
        if rec.dm <= rec.dm_seen:
            continue
        if now - rec.dm <= cfg.recency_window and rec.level < model.levels:
            rec.level += 1
            rec.lc = 0
            rec.ts = now
            promoted.append(rec.url)
        rec.dm_seen = rec.dm
    return promoted


def apply_event(model: Model, event: SessionEvent | ModificationEvent) -> None:
    """Apply one access or modification, then advance the model clock monotonically.

    An event for an unknown page raises UnknownPageError and leaves the
    model, clock included, untouched.
    """
    if isinstance(event, SessionEvent):
        record_access(model, event.url, event.tick)
    elif isinstance(event, ModificationEvent):
        record_modification(model, event.url, event.tick)
    else:
        raise TypeError(f"unsupported event {event!r}")
    model.tick = max(model.tick, event.tick)


def run_sweeps(model: Model, cfg: EngineConfig, after: int, upto: int) -> None:
    """Run both sweeps, demotion first, at each positive multiple of
    `sweep_period` in the tick interval (after, upto], advancing the clock.

    Stateless: the caller says which ticks have passed since its last call,
    so the schedule lives here and nowhere else.
    """
    period = cfg.sweep_period
    for now in range((max(after, 0) // period + 1) * period, upto + 1, period):
        model.tick = max(model.tick, now)
        demotion_sweep(model, cfg, now)
        modification_sweep(model, cfg, now)

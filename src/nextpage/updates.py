"""Online model maintenance: per-access counters and the periodic sweeps.

Every observed request bumps the page's local counter; the L-th access at a
level promotes the page one level and resets the counter.  Two periodic
sweeps move pages the access stream alone would not: the demotion sweep drops
pages nobody has touched for `demote_threshold` ticks one level, and the
modification sweep raises freshly modified pages one level.  Class numbers
are assigned at build time and never change here.

Demotion is settled on read.  Whether and how often an untouched page has
been demoted follows from its (level, ts) and the sweeps run so far, so the
demotion sweep only records that it ran (`Model.schedule`) and one rule,
`model._settle`, applies the demotions a record owes when something reads it:
an access, the modification sweep, `predict` and the dump.  The modification
sweep walks only the pages modified since it last ran (`Model.pending`).  A
sweep that does not continue the schedule (another threshold or period, or a
tick other than the last sweep's plus one period) settles every page and
starts a new schedule; so does a write dated before sweeps already run.
Every call sequence therefore leaves the model a sweep of every page would.

All times are logical ticks (event indices), never wall clock, so any replay
of the same event stream produces the same model.  `apply_event` records one
event and only then advances the clock, so an event for an unknown page is
rejected without touching the model.  `run_sweeps` is the one sweep
schedule: both sweeps, demotion first, at every positive multiple of
`sweep_period`.  Replay and the service both call it, so the same event
stream leaves the same model on either path; it returns the tick of the
next sweep due, so replay calls it only once a tick passes that one.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import EngineConfig
from .errors import UnknownPageError
from .model import Model, Schedule, _settle


class SessionEvent(NamedTuple):
    """One observed request within a session (an immutable named tuple)."""

    session_id: str
    url: str
    tick: int


class ModificationEvent(NamedTuple):
    """A page changed content at `tick` (an immutable named tuple)."""

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
    s = model.schedule
    if s is not None:
        if now + s.threshold <= s.last:
            _rewind(model, now)
        elif rec.level > 1 and rec.ts <= s.last - s.threshold:
            _settle(s, rec)
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
    """Note a content change; level movement happens at the next sweep.

    A change dated at or before the newest one a sweep has examined (the
    clock ran backward: a second replay of the same model, say) counts as
    examined too, so dm_seen never exceeds dm and the dump stays loadable.
    """
    rec = model.records.get(url)
    if rec is None:
        raise UnknownPageError(url)
    rec.dm = now
    rec.dm_seen = min(rec.dm_seen, now)
    model.pending.add(url)


def _rewind(model: Model, now: int) -> None:
    """Get ready to stamp a record with ts=now.

    If the schedule already holds a sweep at or after now + threshold, the
    settle rule would charge the stamped record for it, though it ran before
    the stamp.  That happens only when the clock runs backward (a second
    replay of the same model, say); then settle every page and end the
    schedule.
    """
    s = model.schedule
    if s is not None and now + s.threshold <= s.last:
        model.settle_all()
        model.schedule = None


def demotion_sweep(model: Model, cfg: EngineConfig, now: int) -> list[str]:
    """Drop every page idle for demote_threshold ticks one level (floor 1).

    Only the schedule advances here; `Model.settled` applies the demotions
    when a record is read, so the list of moved pages is always empty.  A
    call that does not continue the schedule settles every page under the
    old one and starts a new schedule at `now`.
    """
    s = model.schedule
    if (
        s is not None
        and (s.threshold, s.period) == (cfg.demote_threshold, cfg.sweep_period)
        and now == s.last + s.period
    ):
        model.schedule = s._replace(last=now)
    else:
        model.settle_all()
        model.schedule = Schedule(now, now, cfg.demote_threshold, cfg.sweep_period)
    return []


def modification_sweep(model: Model, cfg: EngineConfig, now: int) -> list[str]:
    """Raise pages modified within recency_window one level (cap L).

    Each page's newest examined dm is remembered, so a single modification is
    considered by exactly one sweep and can promote at most once.  Only the
    pending pages are examined, in URL order.
    """
    if not model.pending:
        return []
    _rewind(model, now)
    promoted = []
    for url in sorted(model.pending):
        rec = model.settled(url)
        if rec.dm <= rec.dm_seen:
            continue
        if now - rec.dm <= cfg.recency_window and rec.level < model.levels:
            rec.level += 1
            rec.lc = 0
            rec.ts = now
            promoted.append(url)
        rec.dm_seen = rec.dm
    model.pending.clear()
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
    if event.tick > model.tick:
        model.tick = event.tick


def run_sweeps(model: Model, cfg: EngineConfig, after: int, upto: int) -> int:
    """Run both sweeps, demotion first, at each positive multiple of
    `sweep_period` in the tick interval (after, upto], advancing the clock.
    Returns the first positive multiple above `upto`: the tick of the next
    sweep due, so a caller may skip the calls before a later tick reaches it.

    Stateless: the caller says which ticks have passed since its last call,
    so the schedule lives here and nowhere else.
    """
    period = cfg.sweep_period
    for now in range((max(after, 0) // period + 1) * period, upto + 1, period):
        model.tick = max(model.tick, now)
        demotion_sweep(model, cfg, now)
        modification_sweep(model, cfg, now)
    return (max(upto, 0) // period + 1) * period

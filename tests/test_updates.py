import pickle
from copy import deepcopy
from dataclasses import replace
from itertools import count
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextpage.config import (
    DEFAULT_DEMOTE_THRESHOLD,
    DEFAULT_RECENCY_WINDOW,
    DEFAULT_SWEEP_PERIOD,
    EngineConfig,
)
from nextpage.errors import ConfigError, UnknownPageError
from nextpage.model import Schedule, build_model, model_from_csv, model_to_csv
from nextpage.predictor import predict
from nextpage.ranking import rank_pages
from nextpage.sitegraph import SiteGraph
from nextpage.updates import (
    ModificationEvent,
    SessionEvent,
    apply_event,
    demotion_sweep,
    modification_sweep,
    record_access,
    record_modification,
    run_sweeps,
)
from conftest import MICRO_LINKS, MICRO_PAGES, settled_state
from oracles import (
    eager_demotion_sweep,
    eager_modification_sweep,
    eager_sweeps,
    rewind_then_settle_access,
)
from strategies import site_graphs


@pytest.fixture
def model(micro_site):
    # six pages, so three levels and a three-access promotion cadence
    return build_model(micro_site, rank_pages(micro_site))


def micro_model():
    """The `model` fixture's model, for tests that draw many examples."""
    g = SiteGraph(pages=MICRO_PAGES, links=dict(MICRO_LINKS), dominants=("S", "M"), home="H")
    return build_model(g, rank_pages(g))


CFG = EngineConfig(demote_threshold=10, recency_window=5, sweep_period=4)
# Same thresholds, sweeping at every tick.
EVERY_TICK = replace(CFG, sweep_period=1)


def settled_levels(model) -> dict[str, int]:
    return {url: level for url, (level, _, _) in settled_state(model).items()}


@pytest.fixture
def levels_at_modification_sweep(monkeypatch, sweep_log):
    """Settled levels as each modification sweep starts, that is after the
    demotion sweep of the same tick has run."""
    import nextpage.updates as updates

    seen = []

    def spied(model, cfg, now, _sweep=updates.modification_sweep):
        seen.append(settled_levels(model))
        return _sweep(model, cfg, now)

    monkeypatch.setattr(updates, "modification_sweep", spied)
    return seen


class TestRecordAccess:
    def test_counter_runs_then_promotes(self, model):
        rec = model.records["H"]
        assert (rec.level, rec.lc) == (1, 0)
        assert record_access(model, "H", 1) is False
        assert (rec.level, rec.lc, rec.ts) == (1, 1, 1)
        assert record_access(model, "H", 2) is False
        assert (rec.level, rec.lc, rec.ts) == (1, 2, 2)
        # third access at the level promotes and resets the counter
        assert record_access(model, "H", 3) is True
        assert (rec.level, rec.lc, rec.ts) == (2, 0, 3)

    def test_climb_to_top_costs_levels_accesses_per_level(self, model):
        promotions = [record_access(model, "H", t) for t in range(1, 7)]
        assert promotions == [False, False, True, False, False, True]
        assert model.records["H"].level == 3

    def test_top_level_only_refreshes_timestamp(self, model):
        rec = model.records["c"]
        assert rec.level == model.levels
        assert record_access(model, "c", 9) is False
        assert (rec.level, rec.lc, rec.ts) == (model.levels, 0, 9)

    def test_unknown_page(self, model):
        with pytest.raises(UnknownPageError):
            record_access(model, "nope", 1)

    def test_single_level_model_never_promotes(self, micro_site):
        flat = build_model(micro_site, rank_pages(micro_site), levels=1)
        for t in range(1, 8):
            assert record_access(flat, "H", t) is False
        assert flat.records["H"].level == 1


@st.composite
def access_cases(draw):
    """The micro model with drawn (level, lc, ts) records, a drawn schedule
    or none, and one access at a tick within 3 of where now + threshold
    meets the schedule's last sweep."""
    model = micro_model()
    period = draw(st.integers(1, 7))
    threshold = draw(st.integers(1, 20))
    first = period * draw(st.integers(1, 6))
    last = first + period * draw(st.integers(0, 6))
    for rec in model.records.values():
        rec.level = draw(st.integers(1, model.levels))
        rec.lc = 0 if rec.level == model.levels else draw(st.integers(0, model.levels - 1))
        rec.ts = draw(st.integers(0, last + 5))
    if draw(st.booleans()):
        model.schedule = Schedule(first, last, threshold, period)
    now = last - threshold + draw(st.integers(-3, 3))
    return model, draw(st.sampled_from(MICRO_PAGES)), now


class TestRecordAccessAgainstRewindThenSettle:
    @settings(max_examples=300)
    @given(access_cases())
    def test_matches_the_two_step_reference(self, case):
        """Testing for a backward clock in line, and settling only
        otherwise, leaves the records, schedule and reply that rewinding
        then settling on every access does."""
        model, url, now = case
        reference = deepcopy(model)
        assert record_access(model, url, now) == rewind_then_settle_access(reference, url, now)
        assert model == reference


class TestRecordModification:
    def test_sets_dm_only(self, model):
        rec = model.records["a"]
        level, lc, ts = rec.level, rec.lc, rec.ts
        record_modification(model, "a", 6)
        assert rec.dm == 6
        assert (rec.level, rec.lc, rec.ts) == (level, lc, ts)

    def test_unknown_page(self, model):
        with pytest.raises(UnknownPageError):
            record_modification(model, "nope", 1)


class TestDemotionSweep:
    def test_below_threshold_untouched(self, model):
        before = settled_state(model)
        assert demotion_sweep(model, CFG, now=9) == []
        assert model.settled("c").level == 3
        assert settled_state(model) == before

    def test_demotes_exactly_at_threshold(self, model):
        # idle time equal to the threshold already counts as expired
        before = settled_levels(model)
        assert demotion_sweep(model, CFG, now=10) == []
        after = settled_levels(model)
        assert {u for u in before if after[u] < before[u]} == {"S", "a", "b", "c"}
        assert (model.settled("c").level, model.settled("c").ts, model.settled("c").lc) == (2, 10, 0)

    def test_level_one_is_the_floor(self, model):
        for now in (10, 20, 30, 40):
            demotion_sweep(model, CFG, now)
        assert set(settled_levels(model).values()) == {1}
        before = settled_state(model)
        assert demotion_sweep(model, CFG, now=50) == []
        assert settled_state(model) == before

    def test_recent_access_protects(self, model):
        record_access(model, "c", 8)
        demotion_sweep(model, CFG, now=10)
        assert (model.settled("c").level, model.settled("c").ts) == (3, 8)
        # the same sweep does demote the pages left idle since tick 0
        assert model.settled("b").level == 2

    def test_demotion_resets_counter(self, model):
        record_access(model, "S", 1)  # S level 2, lc 1
        model.records["S"].ts = 0
        demotion_sweep(model, CFG, now=10)
        assert (model.settled("S").level, model.settled("S").lc) == (1, 0)


class TestModificationSweep:
    def test_fresh_modification_promotes(self, model):
        record_modification(model, "H", 7)
        promoted = modification_sweep(model, CFG, now=9)
        assert promoted == ["H"]
        rec = model.records["H"]
        assert (rec.level, rec.lc, rec.ts, rec.dm_seen) == (2, 0, 9, 7)

    def test_one_modification_promotes_once(self, model):
        record_modification(model, "H", 7)
        assert modification_sweep(model, CFG, now=9) == ["H"]
        assert modification_sweep(model, CFG, now=10) == []
        assert model.records["H"].level == 2

    def test_stale_modification_consumed_without_promotion(self, model):
        record_modification(model, "H", 1)
        assert modification_sweep(model, CFG, now=20) == []
        assert model.records["H"].dm_seen == 1
        assert model.records["H"].level == 1

    def test_recency_boundary_is_inclusive(self, model):
        record_modification(model, "H", 4)
        assert modification_sweep(model, CFG, now=9) == ["H"]

    def test_top_level_modification_consumed_without_promotion(self, model):
        record_modification(model, "c", 7)
        assert modification_sweep(model, CFG, now=8) == []
        assert model.records["c"].level == 3
        assert model.records["c"].dm_seen == 7

    def test_two_modifications_one_sweep_one_promotion(self, model):
        record_modification(model, "H", 6)
        record_modification(model, "H", 7)
        assert modification_sweep(model, CFG, now=8) == ["H"]
        assert model.records["H"].level == 2
        assert model.records["H"].dm_seen == 7

    def test_modification_dated_before_an_examined_one_counts_as_examined(self, model):
        record_modification(model, "H", 7)
        assert modification_sweep(model, CFG, now=8) == ["H"]
        record_modification(model, "H", 5)  # the clock ran backward
        assert modification_sweep(model, CFG, now=9) == []
        assert (model.records["H"].dm, model.records["H"].dm_seen) == (5, 5)
        assert model_from_csv(model_to_csv(model)).records["H"].dm_seen == 5

    def test_later_modification_can_promote_again(self, model):
        record_modification(model, "H", 7)
        modification_sweep(model, CFG, now=8)
        record_modification(model, "H", 20)
        assert modification_sweep(model, CFG, now=21) == ["H"]
        assert model.records["H"].level == 3


class TestEventRecords:
    def test_positional_and_keyword_construction(self):
        assert SessionEvent("s1", "a", 3) == SessionEvent(session_id="s1", url="a", tick=3)
        assert SessionEvent("s1", url="a", tick=3) == SessionEvent("s1", "a", 3)
        assert ModificationEvent("a", 3) == ModificationEvent(url="a", tick=3)
        ev = SessionEvent("s1", "a", 3)
        assert (ev.session_id, ev.url, ev.tick) == ("s1", "a", 3)
        mod = ModificationEvent("a", 3)
        assert (mod.url, mod.tick) == ("a", 3)

    def test_repr(self):
        assert repr(SessionEvent("s1", "a", 3)) == "SessionEvent(session_id='s1', url='a', tick=3)"
        assert repr(ModificationEvent("a", 3)) == "ModificationEvent(url='a', tick=3)"

    def test_equality_and_hash_of_the_fields(self):
        ev = SessionEvent("s1", "a", 3)
        assert ev == SessionEvent("s1", "a", 3)
        assert ev != SessionEvent("s2", "a", 3)
        assert ev != SessionEvent("s1", "b", 3)
        assert ev != SessionEvent("s1", "a", 4)
        assert hash(ev) == hash(("s1", "a", 3))
        mod = ModificationEvent("a", 3)
        assert mod == ModificationEvent("a", 3)
        assert mod != ModificationEvent("a", 4)
        assert hash(mod) == hash(("a", 3))
        assert ev != mod

    @pytest.mark.parametrize("event", [SessionEvent("s1", "a", 3), ModificationEvent("a", 3)])
    def test_pickle_round_trip(self, event):
        again = pickle.loads(pickle.dumps(event, pickle.HIGHEST_PROTOCOL))
        assert type(again) is type(event)
        assert again == event

    @pytest.mark.parametrize(
        "event,names",
        [
            (SessionEvent("s1", "a", 3), ("session_id", "url", "tick")),
            (ModificationEvent("a", 3), ("url", "tick")),
        ],
    )
    def test_attributes_are_read_only(self, event, names):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(event, name, "x")
        with pytest.raises(AttributeError):
            event.extra = 1


class TestApplyEvent:
    def test_access_dispatch(self, model):
        rec = model.records["H"]
        assert apply_event(model, SessionEvent("s1", "H", 1)) is None
        assert (rec.level, rec.lc) == (1, 1)
        apply_event(model, SessionEvent("s1", "H", 2))
        apply_event(model, SessionEvent("s1", "H", 3))
        assert (rec.level, rec.lc) == (2, 0)
        assert model.tick == 3

    def test_modification_dispatch(self, model):
        level = model.records["a"].level
        assert apply_event(model, ModificationEvent("a", 4)) is None
        assert model.records["a"].dm == 4
        assert model.records["a"].level == level

    def test_clock_never_runs_backward(self, model):
        apply_event(model, SessionEvent("s1", "H", 9))
        apply_event(model, SessionEvent("s2", "S", 3))
        assert model.tick == 9

    def test_sweep_runs_demotion_before_modification(
        self, model, sweep_log, levels_at_modification_sweep
    ):
        # "a" is both idle past the threshold and freshly modified.  Demotion
        # first means: drop 2 -> 1, then promote 1 -> 2 with refreshed state.
        # The opposite order would leave it at level 3.
        apply_event(model, ModificationEvent("a", 9))
        run_sweeps(model, EVERY_TICK, 9, 10)
        (first, t1, _), (second, t2, promoted) = sweep_log
        assert (first, t1, second, t2) == ("demotion_sweep", 10, "modification_sweep", 10)
        [levels] = levels_at_modification_sweep
        assert levels["a"] == 1
        assert "a" in promoted
        assert model.settled("a").level == 2
        assert model.settled("a").ts == 10

    def test_sweep_delta_frozen_example(self, model, sweep_log, levels_at_modification_sweep):
        apply_event(model, SessionEvent("s1", "c", 8))
        apply_event(model, ModificationEvent("H", 9))
        before = settled_levels(model)
        run_sweeps(model, EVERY_TICK, 9, 10)
        _, (_, _, promoted) = sweep_log
        [between] = levels_at_modification_sweep
        assert {u for u in before if between[u] < before[u]} == {"S", "a", "b"}
        assert promoted == ["H"]
        assert settled_levels(model) == {"H": 2, "M": 1, "S": 1, "a": 1, "b": 2, "c": 3}

    def test_unsupported_event(self, model):
        with pytest.raises(TypeError):
            apply_event(model, object())

    @pytest.mark.parametrize(
        "event", [SessionEvent("s1", "nope", 99), ModificationEvent("nope", 99)]
    )
    def test_unknown_page_leaves_model_and_clock_untouched(self, model, event):
        apply_event(model, SessionEvent("s1", "H", 5))
        before = model_to_csv(model)
        with pytest.raises(UnknownPageError, match="unknown page nope"):
            apply_event(model, event)
        assert model.tick == 5
        assert model_to_csv(model) == before


class TestRunSweeps:
    def test_sweeps_each_period_multiple_in_half_open_interval(self, model, sweep_log):
        run_sweeps(model, CFG, 3, 12)
        assert [(name, now) for name, now, _ in sweep_log] == [
            (name, now)
            for now in (4, 8, 12)
            for name in ("demotion_sweep", "modification_sweep")
        ]

    @pytest.mark.parametrize("after,upto", [(4, 7), (8, 8), (0, 3), (-1, 0), (-9, 3)])
    def test_no_multiple_no_sweep(self, model, sweep_log, after, upto):
        run_sweeps(model, CFG, after, upto)
        assert sweep_log == []
        assert model.tick == 0

    @given(
        period=st.integers(1, 7),
        after=st.integers(-3, 30),
        upto=st.integers(-3, 30),
        data=st.data(),
    )
    def test_returns_the_next_sweep_due(self, period, after, upto, data):
        """The return value is the first positive multiple of the period
        above `upto`; a call that stops short of it sweeps nothing and
        leaves the model as it was."""
        import nextpage.updates as updates

        cfg = replace(CFG, sweep_period=period)
        model = micro_model()
        due = run_sweeps(model, cfg, after, upto)
        assert due == next(m for m in count(period, period) if m > upto)
        later = data.draw(st.integers(upto, due - 1))
        before = deepcopy(model)
        with mock.patch.object(updates, "demotion_sweep") as demote, \
                mock.patch.object(updates, "modification_sweep") as promote:
            assert run_sweeps(model, cfg, upto, later) == due
        assert demote.call_count == promote.call_count == 0
        assert model == before

    def test_advances_the_clock_to_each_sweep(self, model):
        run_sweeps(model, CFG, 0, 10)
        assert model.tick == 8
        run_sweeps(model, CFG, 0, 4)
        assert model.tick == 8


class TestUpdateConfig:
    """The sweep thresholds, as EngineConfig holds them."""

    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.demote_threshold == DEFAULT_DEMOTE_THRESHOLD == 100
        assert cfg.recency_window == DEFAULT_RECENCY_WINDOW == 25
        assert cfg.sweep_period == DEFAULT_SWEEP_PERIOD == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"demote_threshold": 0},
            {"recency_window": 0},
            {"sweep_period": -1},
        ],
    )
    def test_positivity(self, kwargs):
        with pytest.raises(ConfigError):
            EngineConfig(**kwargs)


class TestDecay:
    def test_idle_model_reaches_floor_within_bound(self, model, sweep_log):
        """With no traffic, per-tick sweeps flatten the ladder in
        (levels - 1) * demote_threshold ticks, then nothing else moves."""
        bound = (model.levels - 1) * CFG.demote_threshold
        run_sweeps(model, EVERY_TICK, 0, bound)
        assert set(settled_levels(model).values()) == {1}
        before = settled_state(model)
        sweep_log.clear()
        quiet = 2 * CFG.demote_threshold - 1
        run_sweeps(model, EVERY_TICK, bound, bound + quiet)
        assert len(sweep_log) == 2 * quiet
        assert settled_state(model) == before


@st.composite
def event_streams(draw):
    urls = st.sampled_from(["H", "S", "M", "a", "b", "c"])
    raw = draw(
        st.lists(
            st.tuples(st.integers(0, 2), urls, st.integers(0, 3)),
            min_size=0,
            max_size=40,
        )
    )
    events = []
    tick = 0
    for kind, url, gap in raw:
        tick += gap
        if kind == 0:
            events.append(SessionEvent("s1", url, tick))
        elif kind == 1:
            events.append(ModificationEvent(url, tick))
        else:
            events.append(tick)  # both sweeps at this tick
    return events


class TestStreamInvariants:
    @given(event_streams())
    def test_bounds_hold_throughout(self, events):
        from conftest import MICRO_LINKS, MICRO_PAGES
        from nextpage.sitegraph import SiteGraph

        g = SiteGraph(
            pages=MICRO_PAGES,
            links=dict(MICRO_LINKS),
            dominants=("S", "M"),
            home="H",
        )
        model = build_model(g, rank_pages(g))
        frozen = {u: (r.class_no, r.ordinal, r.links) for u, r in model.records.items()}
        for event in events:
            if isinstance(event, int):
                run_sweeps(model, EVERY_TICK, event - 1, event)
                tick = event
            else:
                apply_event(model, event)
                tick = event.tick
            assert model.tick >= tick
            for rec in model.records.values():
                assert 1 <= rec.level <= model.levels
                assert 0 <= rec.lc <= model.levels - 1
                assert rec.level < model.levels or rec.lc == 0
                assert rec.ts <= model.tick and rec.dm <= model.tick
                assert rec.dm_seen <= rec.dm
        assert {
            u: (r.class_no, r.ordinal, r.links) for u, r in model.records.items()
        } == frozen


LAZY = (run_sweeps, demotion_sweep, modification_sweep)
EAGER = (eager_sweeps, eager_demotion_sweep, eager_modification_sweep)


def drive(model, events, cfg, engine, previous=0):
    """Replay-style loop over events on distinct, increasing ticks: the
    sweeps due before each event, the event, then the sweep due at its tick.
    A ("sweeps", tick) event calls both sweeps directly, a ("modification
    sweep", tick) event only the second, off the period schedule.  Returns
    every access's full candidate order."""
    sweeps, demote, promote = engine
    orders = []
    for ev in events:
        tick = ev[1] if type(ev) is tuple else ev.tick
        sweeps(model, cfg, previous, tick - 1)
        if ev == ("sweeps", tick):
            demote(model, cfg, tick)
        if type(ev) is tuple:
            promote(model, cfg, tick)
        else:
            apply_event(model, ev)
        if isinstance(ev, SessionEvent):
            orders.append(predict(model, ev.url, 0).candidates)
        sweeps(model, cfg, tick - 1, tick)
        previous = tick
    return orders


sweep_configs = st.builds(
    EngineConfig,
    demote_threshold=st.integers(1, 12),
    recency_window=st.integers(1, 6),
    sweep_period=st.sampled_from([1, 2, 3, 5, 7]),
)


@st.composite
def differential_cases(draw):
    """A site, two sweep configs, and two event streams: the first with a
    point to dump and reload at, the second either restarting at tick 1 or
    running on from the first."""
    g = draw(site_graphs(min_pages=1, max_pages=8))
    kinds = st.sampled_from(["access", "access", "access", "modification", "modification", "sweeps",
                             "modification sweep"])

    def stream(tick):
        events = []
        for kind, url, gap in draw(st.lists(st.tuples(kinds, st.sampled_from(g.pages), st.integers(1, 9)),
                                            max_size=30)):
            tick += gap
            if kind == "access":
                events.append(SessionEvent("s1", url, tick))
            elif kind == "modification":
                events.append(ModificationEvent(url, tick))
            else:
                events.append((kind, tick))
        return events, tick

    first, end = stream(0)
    split = draw(st.integers(0, len(first)))
    resume = draw(st.sampled_from([0, end]))
    second, _ = stream(resume)
    return g, draw(sweep_configs), draw(sweep_configs), first, split, second, resume


class TestSettleOnRead:
    """Settling demotions on read leaves the model the eager sweeps leave."""

    @settings(max_examples=300)
    @given(differential_cases())
    def test_lazy_matches_eager(self, case):
        g, cfg, cfg_again, first, split, second, resume = case
        lazy = build_model(g, rank_pages(g))
        eager = build_model(g, rank_pages(g))

        # The first stream, dumped and reloaded at `split`.
        assert drive(lazy, first[:split], cfg, LAZY) == drive(eager, first[:split], cfg, EAGER)
        dump = model_to_csv(lazy)
        assert dump == model_to_csv(eager)
        lazy = model_from_csv(dump)
        eager = model_from_csv(dump)
        # Like `replay` on a reloaded model, the rest starts its schedule at 0.
        tail = first[split:]
        assert drive(lazy, tail, cfg, LAZY) == drive(eager, tail, cfg, EAGER)
        assert model_to_csv(lazy) == model_to_csv(eager)

        # The same models again, under other thresholds: either a second
        # replay whose clock restarts at tick 1, or the clock running on.
        assert drive(lazy, second, cfg_again, LAZY, resume) == drive(eager, second, cfg_again, EAGER, resume)
        assert model_to_csv(lazy) == model_to_csv(eager)

    @pytest.mark.parametrize("write", ["access", "modification sweep"])
    def test_write_dated_before_sweeps_already_run(self, micro_site, write):
        """A second pass restarting its clock stamps pages with ticks the
        schedule has already swept past; those sweeps must not demote them."""
        lazy = build_model(micro_site, rank_pages(micro_site))
        eager = build_model(micro_site, rank_pages(micro_site))
        for model, (sweeps, _, promote) in ((lazy, LAZY), (eager, EAGER)):
            sweeps(model, CFG, 0, 12)  # demotes c from 3 to 2 at tick 12
            if write == "access":
                record_access(model, "c", 2)
            else:
                record_modification(model, "c", 1)
                assert promote(model, CFG, 2) == ["c"]
            # sweeps at 4 and 8, both within demote_threshold of tick 2
            sweeps(model, CFG, 0, 8)
        assert model_to_csv(lazy) == model_to_csv(eager)
        assert (lazy.settled("c").level, lazy.settled("c").ts) == (2 if write == "access" else 3, 2)

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nextpage.config import (
    DEFAULT_DEMOTE_THRESHOLD,
    DEFAULT_RECENCY_WINDOW,
    DEFAULT_SWEEP_PERIOD,
    EngineConfig,
)
from nextpage.errors import ConfigError, UnknownPageError
from nextpage.model import build_model, model_to_csv
from nextpage.ranking import rank_pages
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
from strategies import site_graphs


@pytest.fixture
def model(micro_site):
    # six pages, so three levels and a three-access promotion cadence
    return build_model(micro_site, rank_pages(micro_site))


CFG = EngineConfig(demote_threshold=10, recency_window=5, sweep_period=4)
# Same thresholds, sweeping at every tick.
EVERY_TICK = replace(CFG, sweep_period=1)


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
        assert demotion_sweep(model, CFG, now=9) == []
        assert model.records["c"].level == 3

    def test_demotes_exactly_at_threshold(self, model):
        # idle time equal to the threshold already counts as expired
        demoted = demotion_sweep(model, CFG, now=10)
        assert set(demoted) == {"S", "a", "b", "c"}
        assert model.records["c"].level == 2
        assert model.records["c"].ts == 10
        assert model.records["c"].lc == 0

    def test_level_one_is_the_floor(self, model):
        for now in (10, 20, 30, 40):
            demotion_sweep(model, CFG, now)
        assert all(r.level == 1 for r in model.records.values())
        assert demotion_sweep(model, CFG, now=50) == []

    def test_recent_access_protects(self, model):
        record_access(model, "c", 8)
        demoted = demotion_sweep(model, CFG, now=10)
        assert "c" not in demoted

    def test_demotion_resets_counter(self, model):
        record_access(model, "S", 1)  # S level 2, lc 1
        model.records["S"].ts = 0
        demotion_sweep(model, CFG, now=10)
        assert (model.records["S"].level, model.records["S"].lc) == (1, 0)


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

    def test_later_modification_can_promote_again(self, model):
        record_modification(model, "H", 7)
        modification_sweep(model, CFG, now=8)
        record_modification(model, "H", 20)
        assert modification_sweep(model, CFG, now=21) == ["H"]
        assert model.records["H"].level == 3


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

    def test_sweep_runs_demotion_before_modification(self, model, sweep_log):
        # "a" is both idle past the threshold and freshly modified.  Demotion
        # first means: drop 2 -> 1, then promote 1 -> 2 with refreshed state.
        # The opposite order would leave it at level 3.
        apply_event(model, ModificationEvent("a", 9))
        run_sweeps(model, EVERY_TICK, 9, 10)
        (first, t1, demoted), (second, t2, promoted) = sweep_log
        assert (first, t1, second, t2) == ("demotion_sweep", 10, "modification_sweep", 10)
        assert "a" in demoted
        assert "a" in promoted
        assert model.records["a"].level == 2
        assert model.records["a"].ts == 10

    def test_sweep_delta_frozen_example(self, model, sweep_log):
        apply_event(model, SessionEvent("s1", "c", 8))
        apply_event(model, ModificationEvent("H", 9))
        run_sweeps(model, EVERY_TICK, 9, 10)
        (_, _, demoted), (_, _, promoted) = sweep_log
        assert set(demoted) == {"S", "a", "b"}
        assert promoted == ["H"]
        levels = {u: model.records[u].level for u in model.records}
        assert levels == {"H": 2, "M": 1, "S": 1, "a": 1, "b": 2, "c": 3}

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
        assert all(r.level == 1 for r in model.records.values())
        sweep_log.clear()
        quiet = 2 * CFG.demote_threshold - 1
        run_sweeps(model, EVERY_TICK, bound, bound + quiet)
        assert len(sweep_log) == 2 * quiet
        assert all(moved == [] for _, _, moved in sweep_log)


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

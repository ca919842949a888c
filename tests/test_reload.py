"""A model dumped and reloaded behaves exactly like the one that stayed in memory."""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nextpage.config import EngineConfig
from nextpage.model import build_model, model_from_csv, model_to_csv
from nextpage.predictor import predict
from nextpage.ranking import rank_pages
from nextpage.service import PredictionService
from nextpage.simulate import replay
from nextpage.sitegraph import ModificationLog, parse_graph
from nextpage.updates import SessionEvent, record_modification, run_sweeps
from strategies import site_graphs

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def demo_site():
    return parse_graph((DATA / "demo_site.txt").read_text())


def reload(model):
    return model_from_csv(model_to_csv(model))


def candidate_orders(model):
    """Every page's full candidate list, as predict orders it."""
    return {
        url: predict(model, url, len(rec.links)).candidates
        for url, rec in sorted(model.records.items())
    }


class TestDumpKeepsState:
    def test_consumed_modification_does_not_promote_again(self, demo_site):
        cfg = EngineConfig(sweep_period=10)
        model = build_model(demo_site, rank_pages(demo_site))
        record_modification(model, "/s1/p12", 40)
        run_sweeps(model, cfg, 0, 40)
        assert model.records["/s1/p12"].level == 5
        reloaded = reload(model)
        for m in (model, reloaded):
            run_sweeps(m, cfg, 40, 50)
        assert model.settled("/s1/p12").level == 5
        assert reloaded.settled("/s1/p12").level == 5

    def test_built_clock_starts_where_a_reload_resumes(self, demo_site):
        """A service on a model built with a modification log and one on its
        reloaded dump number their observes alike and end alike."""
        cfg = EngineConfig(sweep_period=10)
        log = ModificationLog(entries=(("/s1/p12", 40),))
        built = build_model(demo_site, rank_pages(demo_site), dm_log=log)
        assert built.tick == 40
        services = [PredictionService(m, cfg) for m in (built, reload(built))]
        observe = json.dumps({"kind": "observe", "url": "/s2/p3", "session": "s1"})
        ask = json.dumps({"kind": "predict", "url": "/s2/p3", "window": 3})
        for _ in range(10):
            for line in (observe, ask):
                first, second = (service.handle_line(line) for service in services)
                assert first == second
        assert built.tick == 50
        assert services[0].snapshot_csv() == services[1].snapshot_csv()

    def test_level_cap_survives(self, demo_site):
        model = build_model(demo_site, rank_pages(demo_site), levels=4)
        reloaded = reload(model)
        assert reloaded.levels == 4
        assert model_to_csv(reloaded) == model_to_csv(model)

    def test_ordinals_survive_any_damping(self, demo_site):
        model = build_model(demo_site, rank_pages(demo_site, damping=0.5))
        reloaded = reload(model)
        assert {u: r.ordinal for u, r in reloaded.records.items()} == {
            u: r.ordinal for u, r in model.records.items()
        }


@st.composite
def built_models(draw):
    """A site, a sweep config and the arguments to build its model with."""
    g = draw(site_graphs(min_pages=1, max_pages=8))
    cfg = EngineConfig(
        demote_threshold=draw(st.integers(1, 12)),
        recency_window=draw(st.integers(1, 6)),
        sweep_period=draw(st.sampled_from([1, 2, 3, 5, 7])),
    )
    levels = draw(st.none() | st.integers(1, 5))
    damping = draw(st.sampled_from([0.5, 0.85]))
    return g, cfg, levels, damping


def build(g, levels, damping):
    return build_model(g, rank_pages(g, damping=damping), levels=levels)


@st.composite
def split_replays(draw):
    """A built model's inputs, a stream of accesses and modifications at
    ticks 1..n, and a split tick."""
    g, cfg, levels, damping = draw(built_models())
    pages = st.sampled_from(g.pages)
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("access"), pages, st.sampled_from(["s1", "s2", "s3"])),
                st.tuples(st.just("modify"), pages, st.just("")),
            ),
            max_size=60,
        )
    )
    split = draw(st.integers(0, len(steps)))
    return g, cfg, levels, damping, steps, split


def replay_part(model, cfg, steps, first, last, window):
    """Replay the steps at ticks first..last (the i-th step has tick i + 1)."""
    trace, mods = [], []
    for tick, (kind, url, session) in enumerate(steps[first - 1 : last], start=first):
        if kind == "access":
            trace.append(SessionEvent(session, url, tick))
        else:
            mods.append((url, tick))
    return replay(model, trace, window, cfg, modlog=ModificationLog(entries=tuple(mods)))


class TestSplitReplay:
    @given(split_replays(), st.integers(0, 3))
    def test_reload_at_any_split_changes_nothing(self, case, window):
        """Replaying A then B in memory, and replaying A, reloading the dump,
        then replaying B, leave the same dump and candidate orders, and B
        scores the same hits."""
        g, cfg, levels, damping, steps, split = case
        n = len(steps)
        in_memory = build(g, levels, damping)
        replay_part(in_memory, cfg, steps, 1, split, window)
        expected = replay_part(in_memory, cfg, steps, split + 1, n, window)

        reloaded = build(g, levels, damping)
        replay_part(reloaded, cfg, steps, 1, split, window)
        reloaded = reload(reloaded)
        report = replay_part(reloaded, cfg, steps, split + 1, n, window)

        assert report == expected
        assert model_to_csv(reloaded) == model_to_csv(in_memory)
        assert candidate_orders(reloaded) == candidate_orders(in_memory)


@st.composite
def split_services(draw):
    """A built model's inputs, observe/predict request lines and a split index."""
    g, cfg, levels, damping = draw(built_models())
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(["observe", "predict"]), st.sampled_from(g.pages)),
            max_size=60,
        )
    )
    lines = [
        json.dumps({"kind": kind, "url": url, "session": "s1", "window": 3})
        for kind, url in steps
    ]
    return g, cfg, levels, damping, lines, draw(st.integers(0, len(lines)))


class TestSplitService:
    @given(split_services())
    def test_restart_from_a_snapshot_changes_nothing(self, case):
        """A service restarted from its snapshot answers the rest of the
        stream and ends exactly like the one that kept running."""
        g, cfg, levels, damping, lines, split = case
        running = PredictionService(build(g, levels, damping), cfg)
        for line in lines[:split]:
            running.handle_line(line)
        restarted = PredictionService(model_from_csv(running.snapshot_csv()), cfg)
        assert restarted.model.tick == running.model.tick

        for line in lines[split:]:
            assert restarted.handle_line(line) == running.handle_line(line)
        assert restarted.snapshot_csv() == running.snapshot_csv()
        assert candidate_orders(restarted.model) == candidate_orders(running.model)

import json
import pickle
from collections import Counter
from dataclasses import FrozenInstanceError
from functools import cmp_to_key
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import settled_state
from nextpage.config import EngineConfig
from nextpage.errors import UnknownPageError, ValidationError
from nextpage.model import build_model, model_to_csv
from nextpage.predictor import Candidate, LevelRank, compare_level_rank, predict
from nextpage.ranking import rank_pages
from nextpage.service import PredictionService
from nextpage.simulate import parse_trace, replay
from nextpage.sitegraph import SiteGraph, parse_graph
from nextpage.updates import ModificationEvent, SessionEvent, apply_event, run_sweeps
from oracles import reference_predict
from strategies import site_graphs

DATA = Path(__file__).resolve().parent.parent / "data"


class TestCompareLevelRank:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ((3, 5), (1, 6), 1),   # level dominates rank
            ((1, 6), (3, 5), -1),
            ((2, 4), (2, 4), 0),   # identical pairs tie
            ((2, 7), (2, 3), 1),   # same level, rank decides
            ((2, 3), (2, 7), -1),
            ((1, 9), (2, 1), -1),
        ],
    )
    def test_pairs(self, a, b, expected):
        assert compare_level_rank(LevelRank(*a), LevelRank(*b)) == expected

    def test_exhaustive_totality(self):
        pairs = [LevelRank(lvl, rk) for lvl, rk in product(range(1, 7), repeat=2)]
        for a in pairs:
            for b in pairs:
                fwd = compare_level_rank(a, b)
                assert fwd in (-1, 0, 1)
                assert compare_level_rank(b, a) == -fwd
                assert (fwd == 0) == ((a.level, a.rank) == (b.level, b.rank))

    def test_transitive(self):
        pairs = [LevelRank(lvl, rk) for lvl, rk in product(range(1, 5), repeat=2)]
        for a, b, c in product(pairs, repeat=3):
            if compare_level_rank(a, b) >= 0 and compare_level_rank(b, c) >= 0:
                assert compare_level_rank(a, c) >= 0


def model_of(pages, links, dominants, levels=None):
    g = SiteGraph(
        pages=tuple(pages),
        links={u: tuple(ts) for u, ts in links.items()},
        dominants=tuple(dominants),
    )
    return build_model(g, rank_pages(g), levels=levels)


def force(model, url, level=None, lc=None):
    if level is not None:
        model.records[url].level = level
    if lc is not None:
        model.records[url].lc = lc


class TestPredict:
    def test_orders_by_level_then_rank(self, micro_site):
        model = build_model(micro_site, rank_pages(micro_site))
        pred = predict(model, "H", window=2)
        # S (level 2) precedes M (level 1); neither matches H's class 0
        assert [c.url for c in pred.candidates] == ["S", "M"]
        assert pred.window == ("S", "M")
        assert not any(c.class_match for c in pred.candidates)

    def test_class_match_beats_priority(self):
        model = model_of(
            ["d1", "d2", "p", "q"],
            {"d1": ["p", "q"], "d2": ["q"], "p": [], "q": []},
            ["d1", "d2"],
        )
        # q is common, resolved to class 1... force a clean split instead:
        model.records["p"].class_no = 1
        model.records["q"].class_no = 2
        force(model, "p", level=1)
        force(model, "q", level=2)
        pred = predict(model, "d1", window=2)
        assert model.records["d1"].class_no == 1
        assert [c.url for c in pred.candidates] == ["p", "q"]
        assert pred.candidates[0].class_match
        assert not pred.candidates[1].class_match

    def test_class_zero_never_matches(self):
        model = model_of(
            ["d", "x", "u", "v"],
            {"d": ["x"], "x": [], "u": ["v"], "v": []},
            ["d"],
        )
        assert model.records["u"].class_no == 0
        assert model.records["v"].class_no == 0
        pred = predict(model, "u", window=1)
        assert not pred.candidates[0].class_match

    def test_url_breaks_full_ties(self):
        model = model_of(
            ["d", "m", "n"],
            {"d": ["n", "m"], "m": [], "n": []},
            ["d"],
        )
        force(model, "m", level=1)
        force(model, "n", level=1)
        model.records["m"].ordinal = 4
        model.records["n"].ordinal = 4
        pred = predict(model, "d", window=2)
        assert [c.url for c in pred.candidates] == ["m", "n"]

    def test_duplicate_links_collapse(self):
        model = model_of(["d", "x"], {"d": ["x", "x", "x"], "x": []}, ["d"])
        pred = predict(model, "d", window=5)
        assert [c.url for c in pred.candidates] == ["x"]

    def test_self_link_is_a_candidate(self):
        model = model_of(["d"], {"d": ["d"]}, ["d"])
        pred = predict(model, "d", window=1)
        assert pred.window == ("d",)

    def test_no_links_no_candidates(self):
        model = model_of(["d", "x"], {"d": ["x"], "x": []}, ["d"])
        pred = predict(model, "x", window=3)
        assert pred.candidates == ()
        assert pred.window == ()

    def test_window_prefix(self):
        model = model_of(
            ["d", "a", "b", "c"],
            {"d": ["a", "b", "c"], "a": [], "b": [], "c": []},
            ["d"],
        )
        full = predict(model, "d", window=3)
        for w in range(4):
            pred = predict(model, "d", window=w)
            assert pred.window == full.window[:w]
            assert pred.candidates == full.candidates

    def test_window_zero_empty(self, micro_site):
        model = build_model(micro_site, rank_pages(micro_site))
        assert predict(model, "H", window=0).window == ()

    def test_window_beyond_candidates(self, micro_site):
        model = build_model(micro_site, rank_pages(micro_site))
        assert len(predict(model, "H", window=99).window) == 2

    def test_negative_window_rejected(self, micro_site):
        model = build_model(micro_site, rank_pages(micro_site))
        with pytest.raises(ValidationError):
            predict(model, "H", window=-1)

    def test_unknown_source_rejected(self, micro_site):
        model = build_model(micro_site, rank_pages(micro_site))
        with pytest.raises(UnknownPageError, match="unknown page nope"):
            predict(model, "nope", window=1)

    def test_link_storage_order_is_irrelevant(self):
        forward = model_of(
            ["d", "a", "b", "c"],
            {"d": ["a", "b", "c"], "a": [], "b": [], "c": []},
            ["d"],
        )
        backward = model_of(
            ["d", "a", "b", "c"],
            {"d": ["c", "b", "a"], "a": [], "b": [], "c": []},
            ["d"],
        )
        assert (
            predict(forward, "d", window=3).window
            == predict(backward, "d", window=3).window
        )

    @given(site_graphs(min_pages=1, max_pages=8), st.integers(0, 6))
    def test_matches_pairwise_comparator(self, g, w):
        """The sort must agree with the pairwise precedence relation."""
        model = build_model(g, rank_pages(g))

        def cmp(a, b):
            if a.class_match != b.class_match:
                return 1 if a.class_match else -1
            by_priority = compare_level_rank(a.priority, b.priority)
            if by_priority:
                return by_priority
            return 1 if a.url < b.url else -1  # smaller URL first

        for url in g.pages:
            pred = predict(model, url, window=w)
            expected = sorted(
                pred.candidates, key=cmp_to_key(cmp), reverse=True
            )
            assert list(pred.candidates) == expected
            assert pred.window == tuple(c.url for c in pred.candidates[:w])


class TestPredictionRecord:
    def test_attributes_are_read_only(self, micro_site):
        pred = predict(build_model(micro_site, rank_pages(micro_site)), "H", window=1)
        for name in ("source", "window", "candidates"):
            with pytest.raises(FrozenInstanceError):
                setattr(pred, name, ())

    def test_equality_and_hash_of_the_full_record(self, micro_site):
        model = build_model(micro_site, rank_pages(micro_site))
        pred = predict(model, "H", window=1)
        again = predict(model, "H", window=1)
        assert pred == again
        assert hash(pred) == hash(again)
        assert pred != predict(model, "H", window=2)
        assert pred != (pred.source, pred.candidates, pred.window)


class TestLinkRecords:
    def test_built_once_per_page_distinct_and_sorted(self):
        model = model_of(["a", "b", "c"], {"a": ["c", "b", "c", "a"], "b": [], "c": []}, ["a"])
        assert model.link_records == {}
        first = predict(model, "a", window=3)
        links = model.link_records["a"]
        assert [rec.url for rec in links] == ["a", "b", "c"]
        assert all(rec is model.records[rec.url] for rec in links)
        force(model, "b", level=2)
        assert predict(model, "a", window=3) != first
        assert model.link_records["a"] is links
        assert set(model.link_records) == {"a"}

    def test_not_part_of_the_model(self, micro_site):
        """Equality, repr and the dump ignore the cache."""
        cached, plain = (build_model(micro_site, rank_pages(micro_site)) for _ in range(2))
        for url in cached.records:
            predict(cached, url, window=2)
        assert len(cached.link_records) == len(cached.records)
        assert cached == plain
        assert repr(cached) == repr(plain)
        assert "link_records" not in repr(cached)
        assert model_to_csv(cached) == model_to_csv(plain)

    def test_survives_a_pickle_clone(self, micro_site):
        """A clone's cache holds the clone's own records, so events on the
        clone show in its predictions and leave the original's alone."""
        cfg = EngineConfig(demote_threshold=2, sweep_period=1)
        model = build_model(micro_site, rank_pages(micro_site))
        for url in model.records:
            predict(model, url, window=2)
        clone = pickle.loads(pickle.dumps(model, pickle.HIGHEST_PROTOCOL))
        assert clone == model
        assert clone.link_records.keys() == model.link_records.keys()
        for url, links in clone.link_records.items():
            assert all(rec is clone.records[rec.url] for rec in links)
        twin = build_model(micro_site, rank_pages(micro_site))
        for tick, url in enumerate(["a", "a", "a", "b", "M", "c", "S"], start=1):
            for m in (clone, twin):
                apply_event(m, SessionEvent("s1", url, tick))
                run_sweeps(m, cfg, tick - 1, tick)
            for source in clone.records:
                pred, ref = predict(clone, source, window=3), reference_predict(twin, source, 3)
                assert (pred.window, pred.candidates) == (ref.window, ref.candidates)
        assert clone == twin != model
        assert model_to_csv(model) == model_to_csv(build_model(micro_site, rank_pages(micro_site)))


@st.composite
def predicted_streams(draw):
    """A site, a sweep config, hand-set classes and ordinals (class 0 and
    duplicate ordinals included), and a stream of accesses and
    modifications at ticks 1..n, each with the window to predict with."""
    g = draw(site_graphs(min_pages=1, max_pages=8))
    cfg = EngineConfig(
        demote_threshold=draw(st.integers(1, 12)),
        recency_window=draw(st.integers(1, 6)),
        sweep_period=draw(st.sampled_from([1, 2, 3, 5, 7])),
    )
    levels = draw(st.none() | st.integers(1, 4))
    n = len(g.pages)
    classes = draw(st.none() | st.lists(st.integers(0, 2), min_size=n, max_size=n))
    ordinals = draw(st.none() | st.lists(st.integers(1, 3), min_size=n, max_size=n))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["access", "modify"]),
                st.sampled_from(g.pages),
                st.integers(0, 5),
            ),
            max_size=60,
        )
    )
    return g, cfg, levels, classes, ordinals, steps


class TestReferencePredict:
    @given(predicted_streams())
    def test_agrees_with_the_candidate_building_predict(self, case):
        """After every event, `predict` on one model and the reference on
        a twin give the same window and candidates, and the same verdict on
        equality with the previous prediction."""
        g, cfg, levels, classes, ordinals, steps = case
        engine, twin = (build_model(g, rank_pages(g), levels=levels) for _ in range(2))
        for model in (engine, twin):
            for i, url in enumerate(g.pages):
                if classes is not None:
                    model.records[url].class_no = classes[i]
                if ordinals is not None:
                    model.records[url].ordinal = ordinals[i]
        previous = None
        for tick, (kind, url, window) in enumerate(steps, start=1):
            event = (
                SessionEvent("s1", url, tick)
                if kind == "access"
                else ModificationEvent(url, tick)
            )
            for model in (engine, twin):
                apply_event(model, event)
                run_sweeps(model, cfg, tick - 1, tick)
            pred = predict(engine, url, window)
            ref = reference_predict(twin, url, window)
            assert pred.source == ref.source
            assert pred.window == ref.window
            assert pred.candidates == ref.candidates
            assert pred == predict(engine, url, window)
            if previous is not None:
                assert (pred == previous[0]) == (ref == previous[1])
            previous = pred, ref
        assert settled_state(engine) == settled_state(twin)


@pytest.fixture
def constructions(monkeypatch):
    """Counts of `Candidate` and `LevelRank` objects built from now on."""
    counts = Counter()
    for cls in (Candidate, LevelRank):

        def counting(klass, *args, _new=cls.__new__, **kwargs):
            counts[klass.__name__] += 1
            return _new(klass, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting))
    return counts


class TestCandidatesBuiltOnRead:
    @pytest.fixture
    def demo(self):
        g = parse_graph((DATA / "demo_site.txt").read_text())
        return build_model(g, rank_pages(g))

    def test_replay_builds_none(self, demo, constructions):
        trace = parse_trace((DATA / "demo_trace.csv").read_text())
        report = replay(demo, trace, 3, EngineConfig())
        assert report.requests > 0
        assert constructions == Counter()

    def test_service_predicts_build_none(self, demo, constructions):
        service = PredictionService(demo, EngineConfig())
        for url in sorted(demo.records):
            reply = service.handle_line(json.dumps({"kind": "predict", "url": url, "window": 3}))
            assert "window" in json.loads(reply)
        assert constructions == Counter()

    def test_reading_candidates_builds_them(self, demo, constructions):
        pred = predict(demo, "/", window=3)
        assert constructions == Counter()
        first = pred.candidates
        n = len(first)
        assert n > 0
        assert constructions == Counter(Candidate=n, LevelRank=n)
        assert pred.candidates == first
        assert constructions == Counter(Candidate=2 * n, LevelRank=2 * n)

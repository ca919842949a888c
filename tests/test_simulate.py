import importlib.util
import pickle
import sys
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nextpage.config import EngineConfig
from nextpage.errors import TraceFormatError, UnknownPageError, ValidationError
from nextpage.model import build_model, model_to_csv
from nextpage.predictor import predict
from nextpage.ranking import rank_pages
from nextpage.simulate import (
    REPORT_CSV_HEADER,
    TRACE_CSV_HEADER,
    HitReport,
    SessionStats,
    generate_trace,
    parse_trace,
    replay,
    report_to_csv,
    trace_to_csv,
)
from nextpage.sitegraph import ModificationLog, SiteGraph
from nextpage.updates import ModificationEvent, SessionEvent, apply_event
from oracles import eager_demotion_sweep, eager_modification_sweep
from strategies import site_graphs


def graph(pages, links, dominants, home=None):
    return SiteGraph(
        pages=tuple(pages),
        links={u: tuple(ts) for u, ts in links.items()},
        dominants=tuple(dominants),
        home=home,
    )


def fresh_model(g, levels=None):
    return build_model(g, rank_pages(g), levels=levels)


def chain_graph():
    return graph(
        ["x1", "x2", "x3"],
        {"x1": ["x2"], "x2": ["x3"], "x3": ["x1"]},
        ["x1"],
        home="x1",
    )


def trace_of(*steps):
    return [SessionEvent(session_id=sid, url=url, tick=t) for t, sid, url in steps]


CFG = EngineConfig(demote_threshold=1000, sweep_period=1000)


class TestReplayScoring:
    def test_forced_chain_all_hits(self):
        g = chain_graph()
        trace = trace_of(
            (1, "s1", "x1"), (2, "s1", "x2"), (3, "s1", "x3"),
            (4, "s1", "x1"), (5, "s1", "x2"),
        )
        report = replay(fresh_model(g), trace, window=1, cfg=CFG)
        assert (report.requests, report.hits) == (4, 4)
        assert report.hit_pct == 100.0

    def test_window_zero_never_hits(self):
        g = chain_graph()
        trace = trace_of((1, "s1", "x1"), (2, "s1", "x2"), (3, "s1", "x3"))
        report = replay(fresh_model(g), trace, window=0, cfg=CFG)
        assert (report.requests, report.hits) == (2, 0)
        assert report.window == 0

    def test_first_event_per_session_unscored(self):
        g = chain_graph()
        trace = trace_of(
            (1, "s1", "x1"), (2, "s2", "x2"), (3, "s1", "x2"), (4, "s2", "x3")
        )
        report = replay(fresh_model(g), trace, window=1, cfg=CFG)
        assert report.requests == 2
        assert report.per_session["s1"].requests == 1
        assert report.per_session["s2"].requests == 1

    def test_prefetches_do_not_leak_across_sessions(self):
        g = graph(
            ["a", "b", "c"],
            {"a": ["b"], "b": ["a"], "c": []},
            ["a"],
        )
        # s1 prefetches b at tick 1; s2 must not see it
        trace = trace_of(
            (1, "s1", "a"), (2, "s2", "c"), (3, "s1", "b"), (4, "s2", "b")
        )
        report = replay(fresh_model(g), trace, window=1, cfg=CFG)
        assert report.per_session["s1"] == SessionStats(requests=1, hits=1)
        assert report.per_session["s2"] == SessionStats(requests=1, hits=0)

    def test_session_cache_accumulates(self):
        # a's window at W=1 holds only d (higher level); b is cached at W=2
        # and stays cached for the revisit even though later windows drop it
        g = graph(
            ["a", "b", "d"],
            {"a": ["b", "d"], "b": [], "d": []},
            ["a"],
        )
        trace = trace_of((1, "s1", "a"), (2, "s1", "d"), (3, "s1", "b"))
        session_mode = replay(fresh_model(g), trace, window=2, cfg=CFG)
        assert (session_mode.requests, session_mode.hits) == (2, 2)

    def test_window_only_cache_forgets(self):
        g = graph(
            ["a", "b", "d"],
            {"a": ["b", "d"], "b": [], "d": []},
            ["a"],
        )
        trace = trace_of((1, "s1", "a"), (2, "s1", "d"), (3, "s1", "b"))
        report = replay(
            fresh_model(g), trace, window=2, cfg=CFG, window_only_cache=True
        )
        # d's empty prediction wipes the cache, so the b revisit misses
        assert (report.requests, report.hits) == (2, 1)

    def test_requests_equal_events_minus_sessions(self):
        g = chain_graph()
        trace = generate_trace(g, sessions=4, length=9, affinity=0.5, seed=11)
        report = replay(fresh_model(g), trace, window=2, cfg=CFG)
        assert report.requests == len(trace) - 4

    def test_one_session_record_per_session(self, monkeypatch):
        import nextpage.simulate as simulate

        built = []

        class Counted(SessionStats):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(simulate, "SessionStats", Counted)
        g = chain_graph()
        trace = generate_trace(g, sessions=4, length=9, affinity=0.5, seed=11)
        report = replay(fresh_model(g), trace, window=2, cfg=CFG)
        assert len(built) == 4
        assert sorted(map(id, built)) == sorted(map(id, report.per_session.values()))

    def test_empty_trace(self):
        report = replay(fresh_model(chain_graph()), [], window=2, cfg=CFG)
        assert (report.requests, report.hits) == (0, 0)
        assert report.hit_pct == 0.0


class TestReplayValidation:
    def test_unknown_url_rejected_before_any_mutation(self):
        model = fresh_model(chain_graph())
        before = model_to_csv(model)
        trace = trace_of((1, "s1", "x1"), (2, "s1", "zzz"))
        with pytest.raises(UnknownPageError, match="unknown page zzz"):
            replay(model, trace, window=1, cfg=CFG)
        assert model_to_csv(model) == before

    def test_non_increasing_ticks_rejected(self):
        trace = trace_of((2, "s1", "x1"), (2, "s2", "x2"))
        with pytest.raises(ValidationError, match="strictly increasing"):
            replay(fresh_model(chain_graph()), trace, window=1, cfg=CFG)

    def test_negative_window_rejected(self):
        with pytest.raises(ValidationError):
            replay(fresh_model(chain_graph()), [], window=-1, cfg=CFG)

    def test_unknown_modlog_url_rejected(self):
        log = ModificationLog(entries=(("zzz", 1),))
        with pytest.raises(UnknownPageError):
            replay(fresh_model(chain_graph()), [], window=1, cfg=CFG, modlog=log)


class TestReplayModelEvolution:
    def test_model_evolution_ignores_window(self):
        g = chain_graph()
        trace = generate_trace(g, sessions=3, length=15, affinity=0.7, seed=5)
        cfg = EngineConfig(demote_threshold=8, recency_window=4, sweep_period=6)
        dumps = []
        for w in range(4):
            model = fresh_model(g)
            replay(model, trace, window=w, cfg=cfg, modlog=ModificationLog((("x2", 9),)))
            dumps.append(model_to_csv(model))
        assert len(set(dumps)) == 1

    def test_hits_monotone_in_window(self):
        g = graph(
            ["h", "a", "b", "c"],
            {"h": ["a", "b", "c"], "a": ["b", "c"], "b": ["a"], "c": ["h"]},
            ["h"],
            home="h",
        )
        trace = generate_trace(g, sessions=3, length=12, affinity=0.8, seed=3)
        hits = []
        for w in range(4):
            hits.append(replay(fresh_model(g), trace, window=w, cfg=CFG).hits)
        assert hits == sorted(hits)

    def test_replay_is_deterministic(self):
        g = chain_graph()
        trace = generate_trace(g, sessions=2, length=10, affinity=0.6, seed=7)
        cfg = EngineConfig(demote_threshold=5, recency_window=3, sweep_period=4)
        outs = []
        for _ in range(2):
            model = fresh_model(g)
            report = replay(model, trace, window=2, cfg=cfg)
            outs.append((report_to_csv(report), model_to_csv(model)))
        assert outs[0] == outs[1]


def oracle_replay(model, trace, window, cfg, modlog=None):
    """Tick-by-tick reference replay: walk every integer tick, apply the
    modifications then the request carrying it, and sweep on period
    multiples.  Slower but with no merge or scheduling machinery, and it
    runs the eager reference sweeps, which walk every page, itself rather
    than the engine's through `run_sweeps`."""
    mods_at = {}
    if modlog is not None:
        for url, tick in modlog.entries:
            mods_at.setdefault(tick, []).append(url)
    event_at = {ev.tick: ev for ev in trace}
    end = max([ev.tick for ev in trace] + list(mods_at) + [0])

    caches, stats = {}, {}
    requests = hits = 0
    for t in range(0, end + 1):
        for url in mods_at.get(t, []):
            apply_event(model, ModificationEvent(url, t))
        ev = event_at.get(t)
        if ev is not None:
            first = ev.session_id not in stats
            stats.setdefault(ev.session_id, SessionStats())
            cache = caches.setdefault(ev.session_id, set())
            if not first:
                stats[ev.session_id].requests += 1
                requests += 1
                if ev.url in cache:
                    stats[ev.session_id].hits += 1
                    hits += 1
            apply_event(model, ev)
            cache.update(predict(model, ev.url, window).window)
        if t > 0 and t % cfg.sweep_period == 0:
            eager_demotion_sweep(model, cfg, t)
            eager_modification_sweep(model, cfg, t)
    return HitReport(window=window, requests=requests, hits=hits, per_session=stats)


class TestReplayDifferential:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_tick_by_tick_oracle(self, seed):
        g = graph(
            ["h", "a", "b", "c", "d"],
            {
                "h": ["a", "b"],
                "a": ["c", "d"],
                "b": ["d", "h"],
                "c": ["a"],
                "d": [],
            },
            ["a", "b"],
            home="h",
        )
        trace = generate_trace(g, sessions=3, length=10, affinity=0.7, seed=seed)
        # mods landing on sweep ticks, event ticks, and gaps
        log = ModificationLog(entries=(("d", 3), ("c", 6), ("d", 12), ("h", 29)))
        cfg = EngineConfig(demote_threshold=7, recency_window=5, sweep_period=3)

        model_a = fresh_model(g)
        report_a = replay(model_a, trace, window=2, cfg=cfg, modlog=log)
        model_b = fresh_model(g)
        report_b = oracle_replay(model_b, trace, window=2, cfg=cfg, modlog=log)

        assert (report_a.requests, report_a.hits) == (report_b.requests, report_b.hits)
        assert report_a.per_session == report_b.per_session
        assert model_to_csv(model_a) == model_to_csv(model_b)


@st.composite
def replay_cases(draw):
    """A site, a sweep config, a trace whose first tick is 0, 1 or the
    period and whose gaps are a period, shorter or over two periods long,
    and modifications on event ticks, in the gaps and past the last event."""
    g = draw(site_graphs(min_pages=1, max_pages=6))
    period = draw(st.integers(1, 7))
    cfg = EngineConfig(
        demote_threshold=draw(st.integers(1, 12)),
        recency_window=draw(st.integers(1, 6)),
        sweep_period=period,
    )
    levels = draw(st.none() | st.integers(1, 4))
    first = draw(st.sampled_from([0, 1, period]))
    gaps = draw(st.lists(st.just(period) | st.integers(1, 2 * period + 2), max_size=30))
    ticks = list(accumulate([first, *gaps]))
    trace = [
        SessionEvent(draw(st.sampled_from(["s1", "s2", "s3"])), draw(st.sampled_from(g.pages)), t)
        for t in ticks
    ]
    mod_ticks = st.sampled_from(ticks) | st.integers(0, ticks[-1] + 2 * period)
    mods = draw(st.lists(st.tuples(st.sampled_from(g.pages), mod_ticks), max_size=8))
    modlog = ModificationLog(tuple(sorted(mods, key=lambda m: m[1])))
    return g, cfg, levels, trace, modlog, draw(st.integers(0, 3))


class TestReplayAgainstEagerSweeps:
    @given(replay_cases())
    def test_one_sweep_call_per_tick_matches_the_eager_oracle(self, case):
        """Replay's one `run_sweeps` call per tick, covering the ticks since
        the last one, leaves the report and model that sweeping every period
        multiple with the eager reference sweeps does."""
        g, cfg, levels, trace, modlog, window = case
        engine, oracle = (fresh_model(g, levels=levels) for _ in range(2))
        report = replay(engine, trace, window, cfg, modlog)
        expected = oracle_replay(oracle, trace, window, cfg, modlog)
        assert (report.requests, report.hits) == (expected.requests, expected.hits)
        assert report.per_session == expected.per_session
        assert model_to_csv(engine) == model_to_csv(oracle)
        assert engine.tick == oracle.tick


class TestTracedLayers:
    def test_replay_calls_predict_and_apply_event_through_the_module(self, monkeypatch):
        """Replay looks `predict` and `apply_event` up in `nextpage.simulate`
        on every call, once per request and once per request or
        modification, so wrappers put there (as perfbench's traced layers
        are) see every call."""
        import nextpage.simulate as simulate_mod

        calls = Counter()
        for name in ("predict", "apply_event"):

            def counted(*args, _fn=getattr(simulate_mod, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(simulate_mod, name, counted)
        g = chain_graph()
        trace = generate_trace(g, sessions=3, length=10, affinity=0.6, seed=2)
        log = ModificationLog(entries=(("x2", 3), ("x3", 3), ("x1", 40)))
        replay(fresh_model(g), trace, window=2, cfg=EngineConfig(sweep_period=4), modlog=log)
        assert calls == Counter(predict=len(trace), apply_event=len(trace) + len(log.entries))

    def test_perfbench_targets_resolve(self, micro_site, monkeypatch):
        """perfbench's traced run wraps every `(module, attr)` that its
        `engine_targets()` names, and measures what the sweeps return with
        `len`: each attribute must exist, and each sweep's value be sized."""
        import nextpage.updates as updates_mod

        path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
        spec = importlib.util.spec_from_file_location("perfbench_run", path)
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, run)  # dataclasses look it up
        spec.loader.exec_module(run)
        model, cfg = fresh_model(micro_site), EngineConfig()
        for module, attr, span, measure in run.engine_targets():
            fn = getattr(module, attr, None)
            assert callable(fn), f"{module.__name__}.{attr} (span {span})"
            if module is updates_mod:
                assert measure(fn(model, cfg, cfg.sweep_period)) >= 0


class TestPickledModel:
    def test_pickled_model_replays_like_the_original(self):
        """A pickle round trip, taken mid-replay when the model holds a sweep
        schedule, pending modifications and records owing demotions, loses
        nothing: both copies finish the trace with the same report and dump."""
        g = graph(
            ["h", "a", "b", "c", "d"],
            {"h": ["a", "b"], "a": ["c", "d"], "b": ["d", "h"], "c": ["a"], "d": []},
            ["a", "b"],
            home="h",
        )
        trace = generate_trace(g, sessions=3, length=20, affinity=0.7, seed=4)
        cfg = EngineConfig(demote_threshold=7, recency_window=5, sweep_period=3)
        half = len(trace) // 2
        original = fresh_model(g, levels=4)
        replay(original, trace[:half], window=2, cfg=cfg, modlog=ModificationLog((("c", 2),)))
        apply_event(original, ModificationEvent("d", trace[half - 1].tick))
        assert original.schedule is not None and original.pending == {"d"}
        cutoff = original.schedule.last - original.schedule.threshold
        assert any(r.ts <= cutoff and r.level > 1 for r in original.records.values())
        copy = pickle.loads(pickle.dumps(original, pickle.HIGHEST_PROTOCOL))
        reports = [report_to_csv(replay(m, trace[half:], window=2, cfg=cfg)) for m in (original, copy)]
        assert reports[0] == reports[1]
        assert model_to_csv(copy) == model_to_csv(original)


class TestSweepScheduling:
    def test_sweeps_fire_in_gaps_between_events(self):
        g = chain_graph()
        model = fresh_model(g)
        cfg = EngineConfig(demote_threshold=2, sweep_period=2)
        # events at ticks 1 and 9; sweeps at 2,4,6,8 must all land first
        trace = trace_of((1, "s1", "x1"), (9, "s1", "x2"))
        replay(model, trace, window=0, cfg=cfg)
        # every page demoted to the floor before tick 9
        assert model.records["x3"].level == 1
        assert model.records["x3"].ts <= 8

    def test_sweep_at_event_tick_runs_after_the_event(self):
        g = chain_graph()
        cfg = EngineConfig(demote_threshold=4, sweep_period=4)
        model = fresh_model(g)
        # x3 is accessed exactly at the sweep tick; the access must land
        # first, refreshing ts so the demotion skips it
        trace = trace_of(
            (1, "s1", "x1"), (2, "s1", "x2"), (3, "s1", "x3"), (4, "s1", "x1")
        )
        model.records["x3"].level = 3
        model.records["x3"].ts = 0
        replay(model, trace, window=0, cfg=cfg)
        assert model.records["x3"].ts == 3
        assert model.records["x3"].level == 3

    def test_modification_before_request_on_equal_tick(self):
        g = chain_graph()
        cfg = EngineConfig(demote_threshold=100, recency_window=10, sweep_period=2)
        model = fresh_model(g)
        start = model.records["x2"].level
        log = ModificationLog(entries=(("x2", 2),))
        trace = trace_of((1, "s1", "x1"), (2, "s1", "x2"))
        replay(model, trace, window=1, cfg=cfg, modlog=log)
        # the tick-2 sweep saw the fresh dm and promoted x2
        assert model.records["x2"].dm == 2
        assert model.records["x2"].level == start + 1


class TestGenerateTrace:
    def affinity_graph(self):
        # d1 (class 1) links to s (class 1) and o (class 2, a resolved
        # common page); both loop back, so every other step is a class choice
        return graph(
            ["d1", "d2", "s", "o", "e", "e2"],
            {
                "d1": ["s", "o"],
                "d2": ["e", "e2"],
                "e": ["o"],
                "e2": ["o"],
                "s": ["d1"],
                "o": ["d1"],
            },
            ["d1", "d2"],
            home="d1",
        )

    def test_shape_and_interleaving(self):
        g = chain_graph()
        trace = generate_trace(g, sessions=3, length=4, affinity=0.5, seed=1)
        assert len(trace) == 12
        assert [ev.tick for ev in trace] == list(range(1, 13))
        assert [ev.session_id for ev in trace] == ["s1", "s2", "s3"] * 4
        assert all(ev.url == "x1" for ev in trace[:3])

    def test_steps_follow_links(self):
        g = self.affinity_graph()
        trace = generate_trace(g, sessions=2, length=30, affinity=0.5, seed=9)
        last = {}
        for ev in trace:
            if ev.session_id in last:
                prev = last[ev.session_id]
                assert ev.url in g.links[prev] or not g.links[prev]
            last[ev.session_id] = ev.url

    def test_dead_end_restarts_at_session_start(self):
        g = graph(["h", "x"], {"h": ["x"], "x": []}, ["h"], home="h")
        trace = generate_trace(g, sessions=1, length=5, affinity=0.5, seed=2)
        assert [ev.url for ev in trace] == ["h", "x", "h", "x", "h"]

    def test_same_seed_same_trace(self):
        g = self.affinity_graph()
        a = generate_trace(g, sessions=3, length=20, affinity=0.9, seed=42)
        b = generate_trace(g, sessions=3, length=20, affinity=0.9, seed=42)
        assert a == b

    def test_different_seed_different_trace(self):
        g = self.affinity_graph()
        a = generate_trace(g, sessions=3, length=20, affinity=0.5, seed=1)
        b = generate_trace(g, sessions=3, length=20, affinity=0.5, seed=2)
        assert a != b

    def test_full_affinity_always_stays_in_class(self):
        g = self.affinity_graph()
        trace = generate_trace(g, sessions=1, length=101, affinity=1.0, seed=6)
        picks = [
            trace[i + 1].url for i in range(len(trace) - 1) if trace[i].url == "d1"
        ]
        assert picks and all(p == "s" for p in picks)

    def test_page_without_same_class_links_still_moves(self):
        # o is class 2 but only links to d1 (class 1); affinity 1.0 must
        # fall back to the full link set rather than stall
        g = self.affinity_graph()
        trace = generate_trace(g, sessions=1, length=40, affinity=1.0, seed=6)
        after_o = [
            trace[i + 1].url for i in range(len(trace) - 1) if trace[i].url == "o"
        ]
        assert all(p == "d1" for p in after_o)

    @pytest.mark.parametrize(
        "affinity,lo,hi",
        [
            (0.0, 0.433, 0.567),   # p = 0.5, binomial 3 sigma at n ~ 500
            (0.9, 0.921, 0.979),   # p = 0.95
        ],
    )
    def test_class_preference_rate(self, affinity, lo, hi):
        g = self.affinity_graph()
        trace = generate_trace(g, sessions=1, length=1001, affinity=affinity, seed=8)
        picks = [
            trace[i + 1].url for i in range(len(trace) - 1) if trace[i].url == "d1"
        ]
        assert len(picks) >= 450
        rate = sum(1 for p in picks if p == "s") / len(picks)
        assert lo <= rate <= hi

    def test_no_home_starts_are_seeded(self):
        g = graph(["a", "b"], {"a": ["b"], "b": ["a"]}, ["a"])
        assert g.home is None
        a = generate_trace(g, sessions=4, length=3, affinity=0.5, seed=13)
        b = generate_trace(g, sessions=4, length=3, affinity=0.5, seed=13)
        assert a == b
        starts = [ev.url for ev in a[:4]]
        assert set(starts) <= {"a", "b"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sessions": 0, "length": 5, "affinity": 0.5},
            {"sessions": 1, "length": 0, "affinity": 0.5},
            {"sessions": 1, "length": 5, "affinity": 1.5},
            {"sessions": 1, "length": 5, "affinity": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            generate_trace(chain_graph(), seed=1, **kwargs)


class TestTraceCsv:
    def test_round_trip(self):
        g = chain_graph()
        trace = generate_trace(g, sessions=2, length=5, affinity=0.5, seed=4)
        assert parse_trace(trace_to_csv(trace)) == trace

    def test_header_written(self):
        text = trace_to_csv([SessionEvent("s1", "a", 1)])
        assert text.splitlines()[0] == TRACE_CSV_HEADER

    def test_header_optional_on_parse(self):
        assert parse_trace("1,s1,a\n") == [SessionEvent("s1", "a", 1)]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("1,s1\n", "expected"),
            ("x,s1,a\n", "bad tick 'x'"),
            ("-1,s1,a\n", "negative tick"),
            ("2,s1,a\n2,s2,b\n", "strictly increasing"),
            ("2,s1,a\n1,s2,b\n", "strictly increasing"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(text)
        assert fragment in str(exc.value)


class TestReportCsv:
    def test_golden(self):
        report = HitReport(
            window=3,
            requests=8,
            hits=2,
            per_session={
                "s2": SessionStats(requests=5, hits=1),
                "s1": SessionStats(requests=3, hits=1),
            },
        )
        assert report_to_csv(report) == (
            REPORT_CSV_HEADER + "\n"
            "3,8,2,25.0000,\n"
            "3,3,1,33.3333,s1\n"
            "3,5,1,20.0000,s2\n"
        )

    def test_zero_requests(self):
        report = HitReport(window=2, requests=0, hits=0)
        assert report_to_csv(report) == REPORT_CSV_HEADER + "\n2,0,0,0.0000,\n"

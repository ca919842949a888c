import math
import pickle
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import (
    MICRO_CLASSES,
    MICRO_COMMON,
    MICRO_LEVELS,
    MICRO_ORDINALS,
    MICRO_PROVISIONAL,
    classes_of,
)
from nextpage.errors import ModelFormatError, ValidationError
from nextpage.model import (
    MODEL_V2_HEADER,
    assign_classes,
    assign_levels,
    build_model,
    model_from_csv,
    model_to_csv,
    page_classes,
    resolve_common_pages,
)
from nextpage.ranking import RankAssignment, rank_pages
from nextpage.simulate import generate_trace
from nextpage.sitegraph import ModificationLog, SiteGraph, parse_graph
from oracles import resolve_by_inlink_majority
from strategies import site_graphs


def graph(pages, links, dominants):
    return SiteGraph(
        pages=tuple(pages),
        links={u: tuple(ts) for u, ts in links.items()},
        dominants=tuple(dominants),
    )


class TestAssignClasses:
    def test_micro_site(self, micro_site):
        classes, common = assign_classes(micro_site)
        assert classes == MICRO_PROVISIONAL
        assert common == MICRO_COMMON

    def test_unreached_pages_get_class_zero(self):
        g = graph(["d", "x", "y"], {"d": ["x"], "x": [], "y": ["d"]}, ["d"])
        classes, common = assign_classes(g)
        assert classes == {"d": 1, "x": 1, "y": 0}
        assert common == []

    def test_dominant_never_common(self):
        # both dominants link at each other; neither may be reassigned
        g = graph(["d1", "d2"], {"d1": ["d2"], "d2": ["d1"]}, ["d1", "d2"])
        classes, common = assign_classes(g)
        assert classes == {"d1": 1, "d2": 2}
        assert common == []

    def test_first_touch_is_breadth_first(self):
        # d1's whole subtree is one hop closer, so it claims x before d2's
        # deeper chain gets there; x is still flagged common.
        g = graph(
            ["d1", "d2", "m", "x"],
            {"d1": ["x"], "d2": ["m"], "m": ["x"], "x": []},
            ["d1", "d2"],
        )
        classes, common = assign_classes(g)
        assert classes["x"] == 1
        assert common == ["x"]

    def test_common_recorded_once(self):
        g = graph(
            ["d1", "d2", "a", "b", "x"],
            {"d1": ["a", "b"], "d2": ["x"], "a": ["x"], "b": ["x"], "x": []},
            ["d1", "d2"],
        )
        classes, common = assign_classes(g)
        assert classes["x"] == 2
        assert common == ["x"]

    def test_dominant_order_seeds_class_numbers(self):
        g = graph(["p", "q"], {"p": [], "q": []}, ["q", "p"])
        classes, _ = assign_classes(g)
        assert classes == {"q": 1, "p": 2}


class TestResolveCommonPages:
    def test_micro_site_tie_goes_to_smaller_class(self, micro_site):
        classes, common = assign_classes(micro_site)
        assert resolve_common_pages(micro_site, classes, common) == MICRO_CLASSES

    def test_tie_goes_to_smaller_class_not_to_the_first_counted(self):
        # x is first touched by d2 (class 2), and its class-2 in-link is
        # counted before its class-1 one; one in-link each, so class 1 wins
        g = graph(
            ["d1", "d2", "a", "x"],
            {"d1": ["a"], "d2": ["x"], "a": ["x"], "x": []},
            ["d1", "d2"],
        )
        classes, common = assign_classes(g)
        assert classes["x"] == 2
        assert common == ["x"]
        assert resolve_common_pages(g, classes, common)["x"] == 1

    def test_majority_wins(self):
        g = graph(
            ["d1", "d2", "a", "b", "x"],
            {"d1": ["x"], "d2": ["a", "b"], "a": ["x"], "b": ["x"], "x": []},
            ["d1", "d2"],
        )
        classes, common = assign_classes(g)
        assert classes["x"] == 1
        resolved = resolve_common_pages(g, classes, common)
        assert resolved["x"] == 2

    def test_duplicate_links_count_each_time(self):
        g = graph(
            ["d1", "d2", "a", "x"],
            {"d1": ["x"], "d2": ["a"], "a": ["x", "x"], "x": []},
            ["d1", "d2"],
        )
        classes, common = assign_classes(g)
        resolved = resolve_common_pages(g, classes, common)
        assert resolved["x"] == 2

    def test_class_zero_sources_not_counted(self):
        # direct-call corner: with every in-link source in class 0 the page
        # keeps its provisional class
        g = graph(["d", "x", "u"], {"d": ["x"], "x": [], "u": ["x"]}, ["d"])
        classes, _ = assign_classes(g)
        assert classes["u"] == 0
        resolved = resolve_common_pages(g, classes, ["x"])
        assert resolved["x"] == 1

    def test_no_countable_inlinks_keeps_provisional(self):
        g = graph(["d", "x"], {"d": [], "x": []}, ["d"])
        classes, _ = assign_classes(g)
        resolved = resolve_common_pages(g, dict(classes, x=2), ["x"])
        assert resolved["x"] == 2

    def test_counts_use_provisional_map(self):
        # two common pages, each counted against the other's provisional
        # class, so the answer cannot depend on resolution order
        g = graph(
            ["d1", "d2", "x", "y"],
            {"d1": ["x"], "d2": ["y"], "x": ["y"], "y": ["x"]},
            ["d1", "d2"],
        )
        classes, common = assign_classes(g)
        assert classes == {"d1": 1, "d2": 2, "x": 1, "y": 2}
        assert sorted(common) == ["x", "y"]
        resolved = resolve_common_pages(g, classes, common)
        resolved_flipped = resolve_common_pages(g, classes, list(reversed(common)))
        assert resolved == resolved_flipped

    def test_duplicated_link_outweighs_single_link_from_smaller_class(self):
        # x is first touched by d1 (class 1) and also linked once from d2
        # (class 2); class 3 links to it twice through one duplicated link.
        # Counted once per distinct link, all three would tie and class 1
        # would win; counted per occurrence, class 3 wins.
        g = graph(
            ["d1", "d2", "d3", "x"],
            {"d1": ["x"], "d2": ["x"], "d3": ["x", "x"], "x": []},
            ["d1", "d2", "d3"],
        )
        classes, common = assign_classes(g)
        assert classes["x"] == 1
        assert common == ["x"]
        assert resolve_common_pages(g, classes, common)["x"] == 3

    @given(site_graphs(min_pages=1, max_pages=8))
    def test_matches_inlink_majority_oracle(self, g):
        classes, common = assign_classes(g)
        assert resolve_common_pages(g, classes, common) == resolve_by_inlink_majority(
            g, classes, common
        )

    @given(st.data())
    def test_matches_oracle_for_any_class_map_and_common_list(self, data):
        # direct calls: arbitrary provisional classes (0 included) and any
        # common list, with repeats and pages nothing links to
        g = data.draw(site_graphs(min_pages=1, max_pages=8))
        classes = {
            url: data.draw(st.integers(min_value=0, max_value=3)) for url in g.pages
        }
        common = data.draw(st.lists(st.sampled_from(g.pages), max_size=10))
        assert resolve_common_pages(g, classes, common) == resolve_by_inlink_majority(
            g, classes, common
        )


class TestAssignLevels:
    def ranks(self, p):
        return RankAssignment(
            scores={f"u{i}": 0.0 for i in range(1, p + 1)},
            ordinals={f"u{i}": i for i in range(1, p + 1)},
        )

    def test_six_pages_three_even_groups(self, micro_site):
        count, level_map = assign_levels(rank_pages(micro_site))
        assert count == 3
        assert level_map == MICRO_LEVELS

    def test_five_pages_larger_groups_low(self):
        count, level_map = assign_levels(self.ranks(5))
        assert count == 3
        assert [level_map[f"u{i}"] for i in range(1, 6)] == [1, 1, 2, 2, 3]

    def test_single_page(self):
        count, level_map = assign_levels(self.ranks(1))
        assert count == 1
        assert level_map == {"u1": 1}

    def test_explicit_level_count(self):
        count, level_map = assign_levels(self.ranks(6), levels=2)
        assert count == 2
        assert [level_map[f"u{i}"] for i in range(1, 7)] == [1, 1, 1, 2, 2, 2]

    def test_more_levels_than_pages(self):
        count, level_map = assign_levels(self.ranks(2), levels=4)
        assert count == 4
        assert [level_map[f"u{i}"] for i in range(1, 3)] == [1, 2]

    @pytest.mark.parametrize("p", range(1, 21))
    def test_partition_invariants(self, p):
        count, level_map = assign_levels(self.ranks(p))
        assert count == math.isqrt(p - 1) + 1
        sizes = [sum(1 for v in level_map.values() if v == lvl) for lvl in range(1, count + 1)]
        assert sum(sizes) == p
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)
        by_ordinal = [level_map[f"u{i}"] for i in range(1, p + 1)]
        assert by_ordinal == sorted(by_ordinal)

    def test_rejects_empty_and_bad_count(self):
        with pytest.raises(ValidationError):
            assign_levels(RankAssignment(scores={}, ordinals={}))
        with pytest.raises(ValidationError):
            assign_levels(self.ranks(3), levels=0)


class TestBuildModel:
    def test_micro_site(self, micro_site):
        model = build_model(micro_site, rank_pages(micro_site))
        assert model.levels == 3
        assert len(model.records) == 6
        assert model.tick == 0
        assert classes_of(model) == {
            0: {"H"},
            1: {"S", "a", "b", "c"},
            2: {"M"},
        }
        for url, rec in model.records.items():
            assert rec.url == url
            assert rec.lc == 0 and rec.ts == 0 and rec.dm == 0 and rec.dm_seen == 0
            assert rec.level == MICRO_LEVELS[url]
            assert rec.class_no == MICRO_CLASSES[url]
            assert rec.ordinal == MICRO_ORDINALS[url]
            assert rec.links == micro_site.links[url]

    def test_modification_log_seeds_dm(self, micro_site):
        log = ModificationLog(entries=(("c", 3), ("a", 5), ("c", 7)))
        model = build_model(micro_site, rank_pages(micro_site), dm_log=log)
        assert model.records["c"].dm == 7
        assert model.records["a"].dm == 5
        assert model.records["b"].dm == 0

    def test_unknown_page_in_log_rejected(self, micro_site):
        log = ModificationLog(entries=(("zzz", 1),))
        with pytest.raises(ValidationError, match="unknown page zzz"):
            build_model(micro_site, rank_pages(micro_site), dm_log=log)

    def test_rank_cover_mismatch_rejected(self, micro_site):
        bad = RankAssignment(scores={"H": 1.0}, ordinals={"H": 1})
        with pytest.raises(ValidationError):
            build_model(micro_site, bad)

    @pytest.mark.parametrize("ordinals", [{"a": 1, "b": 1}, {"a": 0, "b": 7}])
    def test_ordinals_not_a_permutation_rejected(self, ordinals):
        g = SiteGraph(pages=("a", "b"), links={"a": ("b",), "b": ()}, dominants=("a",))
        ranks = RankAssignment(scores={"a": 0.5, "b": 0.5}, ordinals=ordinals)
        with pytest.raises(ValidationError, match="not a permutation of 1..2"):
            build_model(g, ranks)

    @given(st.data())
    def test_every_accepted_build_round_trips(self, data):
        """Whatever ordinals, level count and modification log a build
        accepts, its dump reloads to the same model."""
        g = data.draw(site_graphs(min_pages=1, max_pages=6))
        p = len(g.pages)
        ordinals = data.draw(
            st.permutations(range(1, p + 1))
            | st.lists(st.integers(-1, p + 1), min_size=p, max_size=p)
        )
        ranks = RankAssignment({url: 0.0 for url in g.pages}, dict(zip(g.pages, ordinals)))
        levels = data.draw(st.none() | st.integers(1, p + 2))
        ticks = data.draw(st.none() | st.dictionaries(st.sampled_from(g.pages), st.integers(0, 9)))
        log = None if ticks is None else ModificationLog(tuple(ticks.items()))
        try:
            model = build_model(g, ranks, dm_log=log, levels=levels)
        except ValidationError:
            return
        dump = model_to_csv(model)
        reloaded = model_from_csv(dump)
        assert reloaded == model
        assert model_to_csv(reloaded) == dump

    def test_rebuild_is_deterministic(self, micro_site):
        a = build_model(micro_site, rank_pages(micro_site))
        b = build_model(micro_site, rank_pages(micro_site))
        assert a == b

    @given(site_graphs(min_pages=1, max_pages=8))
    def test_every_page_gets_a_record(self, g):
        model = build_model(g, rank_pages(g))
        assert set(model.records) == set(g.pages)
        assert set().union(*classes_of(model).values()) == set(g.pages)


MICRO_CSV_V2 = """\
nextpage-model v2,levels=3
key,url,lc,level,class,ts,dm,ordinal,dm_seen,links
A1,H,0,1,0,0,0,1,0,S;M
A2,M,0,1,2,0,0,2,0,c
A3,S,0,2,1,0,0,3,0,a;b
A4,a,0,2,1,0,0,4,0,c
A5,b,0,3,1,0,0,5,0,
A6,c,0,3,1,0,7,6,0,
"""

V2 = "nextpage-model v2,levels=3\n" + MODEL_V2_HEADER + "\n"
ROW = "A1,a,0,1,1,0,0,1,0,\n"


class TestPageClasses:
    """The resolved class map is worked out once per graph object and kept
    on it; it is no part of the graph's value."""

    def test_worked_out_once_per_graph(self, micro_graph_text, monkeypatch):
        import nextpage.model as model_mod

        calls = []

        def counted(g, _fn=model_mod.assign_classes):
            calls.append(g)
            return _fn(g)

        monkeypatch.setattr(model_mod, "assign_classes", counted)
        g = parse_graph(micro_graph_text)
        ranks = rank_pages(g)
        for _ in range(2):
            build_model(g, ranks)
            generate_trace(g, sessions=2, length=5, affinity=0.5, seed=1)
        assert len(calls) == 1 and calls[0] is g
        other = parse_graph(micro_graph_text)
        build_model(other, ranks)
        generate_trace(other, sessions=2, length=5, affinity=0.5, seed=1)
        assert len(calls) == 2 and calls[1] is other

    def test_filled_map_leaves_equality_and_repr(self, micro_graph_text):
        g, fresh = parse_graph(micro_graph_text), parse_graph(micro_graph_text)
        classes = page_classes(g)
        assert classes == MICRO_CLASSES
        assert g.class_map is classes and fresh.class_map is None
        assert g == fresh and repr(g) == repr(fresh)
        assert SiteGraph(g.pages, g.links, g.dominants, g.home) == g

    def test_pickle_carries_the_map(self, micro_graph_text, monkeypatch):
        import nextpage.model as model_mod

        g = parse_graph(micro_graph_text)
        page_classes(g)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.class_map == MICRO_CLASSES

        def fail(g):
            raise AssertionError("the pickled map was recomputed")

        monkeypatch.setattr(model_mod, "assign_classes", fail)
        assert page_classes(copy) == MICRO_CLASSES

    @given(
        site_graphs(min_pages=1, max_pages=8),
        st.integers(1, 4),
        st.integers(1, 8),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.integers(0, 2**16),
    )
    # no home, a dead end (c), a common page (c) and a class-0 page (z)
    @example(
        graph(["d1", "d2", "c", "z"], {"d1": ["c"], "d2": ["c"], "c": [], "z": ["d1"]}, ["d1", "d2"]),
        3, 6, 0.5, 7,
    )
    def test_warm_map_gives_what_a_fresh_graph_gives(self, g, sessions, length, affinity, seed):
        """A trace from a graph already built into a model equals one from a
        freshly built equal graph, and so does a second build's dump."""
        ranks = rank_pages(g)
        first_dump = model_to_csv(build_model(g, ranks))
        assert g.class_map is not None
        warm_trace = generate_trace(g, sessions, length, affinity, seed)
        warm_dump = model_to_csv(build_model(g, ranks))

        def fresh():
            return SiteGraph(g.pages, dict(g.links), g.dominants, g.home)

        assert generate_trace(fresh(), sessions, length, affinity, seed) == warm_trace
        assert model_to_csv(build_model(fresh(), ranks)) == warm_dump == first_dump


class TestModelCsv:
    def test_dump_matches_golden(self, micro_site):
        log = ModificationLog(entries=(("c", 7),))
        model = build_model(micro_site, rank_pages(micro_site), dm_log=log)
        assert model_to_csv(model) == MICRO_CSV_V2

    def test_round_trip(self, micro_site):
        log = ModificationLog(entries=(("c", 7),))
        model = build_model(micro_site, rank_pages(micro_site), dm_log=log)
        reloaded = model_from_csv(model_to_csv(model))
        assert reloaded.records == model.records
        assert reloaded.levels == model.levels
        assert classes_of(reloaded) == classes_of(model)
        assert len(reloaded.records) == len(model.records)

    def test_link_targets_share_the_url_strings(self):
        """A loaded link list holds the URL strings of the pages it names,
        not strings of its own."""
        reloaded = model_from_csv(
            V2 + "A1,/home,0,1,1,0,0,1,0,/news;/about\nA2,/news,0,1,1,0,0,2,0,/about;/home\n"
            "A3,/about,0,1,1,0,0,3,0,\n"
        )
        links = [t for rec in reloaded.records.values() for t in rec.links]
        assert links
        for target in links:
            assert target is reloaded.records[target].url

    def test_mutated_counters_survive(self, micro_site):
        model = build_model(micro_site, rank_pages(micro_site))
        model.records["c"].lc = 1
        model.records["c"].level = 1
        model.records["c"].ts = 42
        reloaded = model_from_csv(model_to_csv(model))
        assert reloaded.records["c"].lc == 1
        assert reloaded.records["c"].level == 1
        assert reloaded.records["c"].ts == 42

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("nope\nA1,a,0,1,1,0,0,\n", "expected header"),
            ("", "line 1: expected header"),
            # a dump of the former format, which had no tag line, is not read
            ("key,url,lc,level,class,ts,dm,links\nA1,a,0,1,1,0,0,\n", "line 1: expected header"),
            ("nextpage-model v2,levels=3\nkey,url\n" + ROW, "line 2: expected header"),
            (V2 + "A1,a,0,1,1,0,0,1,0\n", "10 comma-separated"),
            (V2 + "A1,a,x,1,1,0,0,1,0,\n", "must be integers"),
            (V2 + "A1,a,0,1,1,0,0,x,0,\n", "must be integers"),
            (V2 + "A1,a,0,1,1,0,0,1,x,\n", "must be integers"),
            (V2, "no rows"),
            (V2 + ROW + "A2,a,0,1,1,0,0,2,0,\n", "duplicate URL"),
            (V2 + "A1,a,0,1,1,0,0,1,0,zz\n", "unknown page zz"),
            (V2 + "A1,a,0,4,1,0,0,1,0,\n", "level 4 outside [1, 3]"),
            (V2 + "A1,a,3,1,1,0,0,1,0,\n", "counter 3 outside [0, 2]"),
            (V2 + "A1,a,0,1,-1,0,0,1,0,\n", "negative"),
            (V2 + "A1,a,0,1,1,-1,0,1,0,\n", "negative"),
            (V2 + "A1,a b,0,1,1,0,0,1,0,\n", "illegal character"),
            (V2 + "A1,@a,0,1,1,0,0,1,0,\n", "illegal URL"),
            # the tag line
            (f"nextpage-model v2\n{MODEL_V2_HEADER}\n{ROW}", "line 1: expected header"),
            (f"nextpage-model v2,levels=0\n{MODEL_V2_HEADER}\n{ROW}", "line 1: expected header"),
            (f"nextpage-model v2,levels=x\n{MODEL_V2_HEADER}\n{ROW}", "line 1: expected header"),
            (f"nextpage-model v2,tick=3\n{MODEL_V2_HEADER}\n{ROW}", "line 1: expected header"),
            (f"nextpage-model v3,levels=3\n{MODEL_V2_HEADER}\n{ROW}", "line 1: expected header"),
            # ordinals must be a permutation of 1..p
            (V2 + "A1,a,0,1,1,0,0,0,0,\n", "line 3: ordinals are not a permutation of 1..1"),
            (V2 + ROW + "A2,b,0,1,1,0,0,3,0,\n", "line 4: ordinals are not a permutation"),
            (V2 + "A1,a,0,1,1,0,0,2,0,\nA2,b,0,1,1,0,0,2,0,\n", "line 4: ordinals are not a permutation"),
            # 0 <= dm_seen <= dm
            (V2 + "A1,a,0,1,1,0,4,1,5,\n", "line 3: dm_seen 5 outside [0, 4]"),
            (V2 + "A1,a,0,1,1,0,4,1,-1,\n", "line 3: dm_seen -1 outside [0, 4]"),
            # blank lines count: an error names its line in the file
            (V2 + "\n\nA1,a,0,1,1,0,0,1,0,\nA2,b,9,1,1,0,0,2,0,\n", "line 6: counter 9 outside [0, 2]"),
            (V2 + "\nA1,a,0,1,1,0,0,1,0,b\n\n\nA2,b,0,1,1,0,0,2,0,zz\n", "line 7: unknown page zz in links"),
            ("\n\nnextpage-model v2,levels=0\n", "line 3: expected header"),
            ("\nnextpage-model v2,levels=3\n\nkey,url\n" + ROW, "line 4: expected header"),
            ("nextpage-model v2,levels=3\n\n", "line 2: expected header"),
        ],
    )
    def test_format_errors(self, text, fragment):
        with pytest.raises(ModelFormatError) as exc:
            model_from_csv(text)
        assert fragment in str(exc.value)


GOLDEN_DUMP = (Path(__file__).resolve().parent / "golden" / "demo_model_post_replay.csv").read_text()
# The last row cut after `/s8/p10`: read up to there, /s8/p9 would keep one
# of its three out-links.
CUT_IN_LAST_ROW = GOLDEN_DUMP.rindex("/s8/p10") + len("/s8/p10")


class TestTruncatedDump:
    @example(CUT_IN_LAST_ROW)
    @given(st.integers(0, len(GOLDEN_DUMP) - 1))
    def test_every_prefix_ending_mid_row_is_rejected(self, end):
        prefix = GOLDEN_DUMP[:end]
        assume(not prefix.endswith("\n"))
        with pytest.raises(ModelFormatError):
            model_from_csv(prefix)


class TestModelCsvV2:
    def test_reload_is_a_parse(self, monkeypatch):
        def no_pagerank(*args, **kwargs):
            raise AssertionError("a v2 load must not run PageRank")

        monkeypatch.setattr("nextpage.model.pagerank", no_pagerank)
        reloaded = model_from_csv(MICRO_CSV_V2)
        assert model_to_csv(reloaded) == MICRO_CSV_V2
        assert {u: r.ordinal for u, r in reloaded.records.items()} == MICRO_ORDINALS

    def test_stored_cap_wins_over_default(self):
        text = f"nextpage-model v2,levels=7\n{MODEL_V2_HEADER}\nA1,a,6,1,1,0,0,1,0,\n"
        assert model_from_csv(text).levels == 7

    def test_sweep_bookkeeping_persisted(self, micro_site):
        model = build_model(micro_site, rank_pages(micro_site))
        model.records["c"].dm = 5
        model.records["c"].dm_seen = 5
        model.records["a"].dm = 6
        reloaded = model_from_csv(model_to_csv(model))
        assert (reloaded.records["c"].dm, reloaded.records["c"].dm_seen) == (5, 5)
        assert reloaded.pending == {"a"}

    def test_clock_resumes_at_newest_tick(self):
        text = V2 + "A1,a,0,1,1,4,0,1,0,b\nA2,b,1,1,1,0,9,2,3,\n"
        assert model_from_csv(text).tick == 9

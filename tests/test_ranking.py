import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import MICRO_ORDINALS, MICRO_SCORES
from nextpage.errors import ConvergenceError, ValidationError
from nextpage.ranking import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ordinal_ranks,
    pagerank,
    rank_pages,
)
from nextpage.sitegraph import SiteGraph
from oracles import dict_pagerank, random_site_graph
from strategies import site_graphs


def graph(pages, links, dominants=None):
    return SiteGraph(
        pages=tuple(pages),
        links={u: tuple(ts) for u, ts in links.items()},
        dominants=tuple(dominants or pages[:1]),
    )


class TestPagerank:
    def test_symmetric_pair_splits_evenly(self):
        g = graph(["a", "b"], {"a": ["b"], "b": ["a"]})
        scores = pagerank(g)
        assert scores["a"] == pytest.approx(0.5, abs=1e-12)
        assert scores["b"] == pytest.approx(0.5, abs=1e-12)

    def test_single_page(self):
        g = graph(["only"], {"only": []})
        assert pagerank(g) == {"only": pytest.approx(1.0, abs=1e-12)}

    def test_dangling_pair_matches_hand_solution(self):
        # a -> b, b dangling.  Solving the two balance equations with
        # damping 0.85 and uniform dangling spread gives a = 20/57, b = 37/57.
        g = graph(["a", "b"], {"a": ["b"], "b": []})
        scores = pagerank(g, tol=1e-14)
        assert scores["a"] == pytest.approx(20 / 57, abs=1e-10)
        assert scores["b"] == pytest.approx(37 / 57, abs=1e-10)

    def test_micro_site_matches_frozen_scores(self, micro_site):
        scores = pagerank(micro_site, tol=1e-13)
        for url, expected in MICRO_SCORES.items():
            assert scores[url] == pytest.approx(expected, abs=1e-9)

    def test_duplicate_links_weighted(self):
        # a spends 2/3 of its vote on b, 1/3 on c, so b must outrank c.
        g = graph(["a", "b", "c"], {"a": ["b", "b", "c"], "b": [], "c": []})
        scores = pagerank(g)
        assert scores["b"] > scores["c"]

    @given(site_graphs(min_pages=1, max_pages=8))
    def test_positive_and_normalized(self, g):
        scores = pagerank(g)
        assert all(s > 0 for s in scores.values())
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)

    @given(site_graphs(min_pages=2, max_pages=7))
    def test_declaration_order_is_irrelevant(self, g):
        flipped = SiteGraph(
            pages=tuple(reversed(g.pages)),
            links={u: g.links[u] for u in reversed(g.pages)},
            dominants=g.dominants,
            home=g.home,
        )
        assert pagerank(g) == pagerank(flipped)

    def test_non_convergence_raises(self, micro_site):
        with pytest.raises(ConvergenceError) as exc:
            pagerank(micro_site, max_iter=2)
        assert "2" in str(exc.value)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_tol_must_be_positive(self, micro_site, tol):
        with pytest.raises(ValidationError, match="tol must be positive"):
            pagerank(micro_site, tol=tol)

    def test_defaults(self):
        assert DEFAULT_DAMPING == 0.85
        assert DEFAULT_TOL == 1e-10
        assert DEFAULT_MAX_ITER == 200


def _outcome(rank, g, **kwargs):
    """Scores as an ordered item list, or the ConvergenceError message."""
    try:
        return list(rank(g, **kwargs).items())
    except ConvergenceError as e:
        return str(e)


class TestBitIdentity:
    """The index-based loop must reproduce the URL-keyed loop exactly: the
    ordinals, and so every model dump and golden file, rest on exact scores."""

    @given(
        site_graphs(min_pages=1, max_pages=8),
        st.sampled_from([0.85, 0.5, 0.99, 0.1]),
        st.sampled_from([1e-10, 1e-14, 1e-3]),
        st.integers(min_value=1, max_value=200),
    )
    def test_matches_dict_loop_on_site_graphs(self, g, damping, tol, max_iter):
        kwargs = dict(damping=damping, tol=tol, max_iter=max_iter)
        assert _outcome(pagerank, g, **kwargs) == _outcome(dict_pagerank, g, **kwargs)

    @given(
        st.randoms(use_true_random=False),
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=0, max_value=8),
    )
    def test_matches_dict_loop_on_random_graphs(self, rng, n, max_out):
        g = random_site_graph(rng, n, max_out=max_out)
        assert _outcome(pagerank, g) == _outcome(dict_pagerank, g)

    @given(
        st.randoms(use_true_random=False),
        st.integers(min_value=10, max_value=80),
        st.integers(min_value=1, max_value=60),
    )
    def test_tolerance_equal_to_a_residual_stops_on_the_same_iteration(self, rng, n, k):
        # the residual decides when to stop, so it must be summed in the
        # same order to the last bit: with tol set to the reference's k-th
        # residual, a residual one ulp larger would run another iteration
        g = random_site_graph(rng, n)
        residuals = []
        dict_pagerank(g, residuals=residuals)
        tol = residuals[min(k, len(residuals)) - 1]
        assume(tol > 0.0)
        assert _outcome(pagerank, g, tol=tol) == _outcome(dict_pagerank, g, tol=tol)

    def test_both_raise_on_non_convergence(self, micro_site):
        with pytest.raises(ConvergenceError) as fast:
            pagerank(micro_site, max_iter=2)
        with pytest.raises(ConvergenceError) as reference:
            dict_pagerank(micro_site, max_iter=2)
        assert str(fast.value) == str(reference.value)


class TestOrdinalRanks:
    def test_micro_site(self, micro_site):
        assert ordinal_ranks(pagerank(micro_site)) == MICRO_ORDINALS

    def test_tie_broken_by_url(self):
        g = graph(["b", "a"], {"b": ["a"], "a": ["b"]})
        assert ordinal_ranks(pagerank(g)) == {"a": 1, "b": 2}

    def test_three_cycle_all_tied(self):
        g = graph(["c", "a", "b"], {"c": ["a"], "a": ["b"], "b": ["c"]})
        assert ordinal_ranks(pagerank(g)) == {"a": 1, "b": 2, "c": 3}

    @given(site_graphs(min_pages=1, max_pages=8))
    def test_permutation_of_one_to_p(self, g):
        ordinals = ordinal_ranks(pagerank(g))
        assert sorted(ordinals.values()) == list(range(1, len(g.pages) + 1))

    @given(site_graphs(min_pages=2, max_pages=8))
    def test_order_respects_scores(self, g):
        scores = pagerank(g)
        ordinals = ordinal_ranks(scores)
        by_ordinal = sorted(g.pages, key=ordinals.get)
        for lo, hi in zip(by_ordinal, by_ordinal[1:]):
            assert (scores[lo], lo) < (scores[hi], hi)


class TestRankPages:
    def test_bundles_scores_and_ordinals(self, micro_site):
        ranks = rank_pages(micro_site)
        assert ranks.ordinals == MICRO_ORDINALS
        assert ranks.scores == pagerank(micro_site)

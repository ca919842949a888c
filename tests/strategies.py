"""Hypothesis strategies shared by the suite."""

from __future__ import annotations

from hypothesis import strategies as st

from nextpage.config import EngineConfig
from nextpage.sitegraph import SiteGraph

_NAME = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-/",
    min_size=1,
    max_size=8,
).filter(lambda s: s != "->" and not s.startswith("@"))


@st.composite
def site_graphs(draw, min_pages=1, max_pages=8, allow_home=True):
    pages = draw(
        st.lists(_NAME, min_size=min_pages, max_size=max_pages, unique=True)
    )
    links = {}
    for url in pages:
        links[url] = tuple(
            draw(st.lists(st.sampled_from(pages), min_size=0, max_size=4))
        )
    k = draw(st.integers(min_value=1, max_value=len(pages)))
    dominants = tuple(draw(st.permutations(pages))[:k])
    home = draw(st.sampled_from(pages)) if allow_home and draw(st.booleans()) else None
    return SiteGraph(pages=tuple(pages), links=links, dominants=dominants, home=home)


def sweep_configs():
    """Engine configs whose sweeps fire often within a short stream."""
    return st.builds(
        EngineConfig,
        demote_threshold=st.integers(1, 12),
        recency_window=st.integers(1, 6),
        sweep_period=st.sampled_from([1, 2, 3, 5, 7]),
    )

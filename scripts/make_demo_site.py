#!/usr/bin/env python3
"""Build the committed demo site plus its frozen trace and replay outputs.

The site imitates a small content portal: a home page fanning out to eight
section roots (the dominant pages), each section holding twelve member pages
that link forward within the section, back to their root, and occasionally
across sections.  `perfbench/sites.site_text` renders it, the generator the
benchmark scales up.  Everything is produced from fixed seeds and then
written to data/ and tests/golden/, so reruns are byte-identical.

Run from the repository root:

    python3 scripts/make_demo_site.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from nextpage.config import EngineConfig
from nextpage.model import build_model, model_to_csv
from nextpage.ranking import rank_pages
from nextpage.simulate import generate_trace, replay, report_to_csv, trace_to_csv
from nextpage.sitegraph import SiteGraph, parse_graph, render_graph

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from sites import site_text  # noqa: E402  (perfbench/ is no package on the path)

SECTIONS = 8
MEMBERS = 12
CROSS_LINK_RATE = 0.12
SITE_SEED = 95
TRACE_SEED = 7
SESSIONS = 30
LENGTH = 20
AFFINITY = 0.9


def build_site(seed: int = SITE_SEED) -> SiteGraph:
    return parse_graph(site_text(SECTIONS, MEMBERS, CROSS_LINK_RATE, seed))


def main() -> None:
    data = ROOT / "data"
    golden = ROOT / "tests" / "golden"
    data.mkdir(exist_ok=True)
    golden.mkdir(exist_ok=True)

    site = build_site()
    (data / "demo_site.txt").write_text(render_graph(site))
    print(f"site: {len(site.pages)} pages -> data/demo_site.txt")

    trace = generate_trace(site, SESSIONS, LENGTH, AFFINITY, TRACE_SEED)
    (data / "demo_trace.csv").write_text(trace_to_csv(trace))
    print(f"trace: {len(trace)} events -> data/demo_trace.csv")

    cfg = EngineConfig()
    ranks = rank_pages(site)
    for window in (2, 3):
        model = build_model(site, ranks)
        report = replay(model, trace, window, cfg)
        (golden / f"demo_report_w{window}.csv").write_text(report_to_csv(report))
        if window == 2:
            (golden / "demo_model_post_replay.csv").write_text(model_to_csv(model))
        print(
            f"replay W={window}: {report.hits}/{report.requests} hits"
            f" ({report.hit_pct:.2f}%) -> tests/golden/demo_report_w{window}.csv"
        )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the committed demo site plus its frozen trace and replay outputs.

The site imitates a small content portal: a home page fanning out to eight
section roots (the dominant pages), each section holding twelve member pages
that link forward within the section, back to their root, and occasionally
across sections.  Everything is produced from fixed seeds and then written
to data/ and tests/golden/, so reruns are byte-identical.

Run from the repository root:

    python3 scripts/make_demo_site.py
"""

from __future__ import annotations

import random
from pathlib import Path

from nextpage.config import EngineConfig
from nextpage.model import build_model, model_to_csv
from nextpage.ranking import rank_pages
from nextpage.simulate import generate_trace, replay, report_to_csv, trace_to_csv
from nextpage.sitegraph import SiteGraph, render_graph

SECTIONS = 8
MEMBERS = 12
CROSS_LINK_RATE = 0.12
SITE_SEED = 95
TRACE_SEED = 7
SESSIONS = 30
LENGTH = 20
AFFINITY = 0.9

ROOT = Path(__file__).resolve().parent.parent


def section_root(i: int) -> str:
    return f"/s{i}/"


def member(i: int, j: int) -> str:
    return f"/s{i}/p{j}"


def build_site(seed: int = SITE_SEED) -> SiteGraph:
    rng = random.Random(seed)
    pages = ["/"]
    links: dict[str, tuple[str, ...]] = {}

    for i in range(1, SECTIONS + 1):
        pages.append(section_root(i))
        pages.extend(member(i, j) for j in range(1, MEMBERS + 1))

    links["/"] = tuple(section_root(i) for i in range(1, SECTIONS + 1))
    for i in range(1, SECTIONS + 1):
        links[section_root(i)] = tuple(member(i, j) for j in range(1, 5))
        for j in range(1, MEMBERS + 1):
            out = []
            if j < MEMBERS:
                out.append(member(i, j + 1))
            out.append(section_root(i))
            for _ in range(rng.randint(1, 2)):
                out.append(member(i, rng.randint(1, MEMBERS)))
            if rng.random() < CROSS_LINK_RATE:
                other = rng.choice([k for k in range(1, SECTIONS + 1) if k != i])
                out.append(member(other, rng.randint(1, MEMBERS)))
            deduped = []
            for url in out:
                if url != member(i, j) and url not in deduped:
                    deduped.append(url)
            links[member(i, j)] = tuple(deduped)

    return SiteGraph(
        pages=tuple(pages),
        links=links,
        dominants=tuple(section_root(i) for i in range(1, SECTIONS + 1)),
        home="/",
    )


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

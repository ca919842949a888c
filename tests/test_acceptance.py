"""Numbered acceptance checks for the whole engine.

Each check is self-contained and prints one PASS/FAIL line through the
terminal-summary hook in conftest.py.  Tolerances and case counts are pinned
here on purpose; loosening them is an API change, not a test fix.
"""

import json
import math
import random
import socket
import threading
import time
from itertools import product
from pathlib import Path

import pytest

from conftest import classes_of, settled_state
from nextpage.cli import EXIT_OK, main
from nextpage.config import EngineConfig
from nextpage.model import (
    Model,
    PageRecord,
    assign_classes,
    build_model,
    resolve_common_pages,
)
from nextpage.predictor import LevelRank, compare_level_rank, predict
from nextpage.ranking import pagerank, rank_pages
from nextpage.service import PredictionServer, PredictionService
from nextpage.simulate import generate_trace, parse_trace, replay
from nextpage.sitegraph import SiteGraph, parse_graph
from nextpage.updates import record_access, run_sweeps
from oracles import (
    all_digraphs,
    dense_pagerank,
    dominant_choices,
    first_touch_classes,
    random_site_graph,
    resolve_by_inlink_majority,
)

pytestmark = pytest.mark.acceptance

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"


def demo_site() -> SiteGraph:
    return parse_graph((DATA / "demo_site.txt").read_text())


def _assert_class_agreement(g: SiteGraph) -> None:
    mine, mine_common = assign_classes(g)
    ref, ref_common = first_touch_classes(g)
    assert mine == ref
    assert set(mine_common) == ref_common
    resolved = resolve_common_pages(g, mine, mine_common)
    assert resolved == resolve_by_inlink_majority(g, ref, ref_common)


def test_criterion_01_class_assignment_matches_oracle():
    """Exhaustive <= 4-node digraphs with 1-2 dominants, plus 1,000 random
    5-7-node graphs, all in under a minute."""
    start = time.perf_counter()
    checked = 0
    for n in range(1, 5):
        for pages, links in all_digraphs(n):
            for dominants in dominant_choices(pages, max_dominants=2):
                g = SiteGraph(pages=pages, links=links, dominants=dominants)
                _assert_class_agreement(g)
                checked += 1
    assert checked == 1 + 16 + 576 + 65536

    rng = random.Random(19)
    for _ in range(1000):
        _assert_class_agreement(random_site_graph(rng, rng.randint(5, 7)))
    assert time.perf_counter() - start < 60.0


def test_criterion_02_partition_invariants():
    """1,000 random built models: classes partition the pages and every
    level sits inside [1, ceil(sqrt(p))]."""
    rng = random.Random(29)
    for _ in range(1000):
        g = random_site_graph(rng, rng.randint(1, 12), with_home=True)
        model = build_model(g, rank_pages(g))
        cap = math.isqrt(len(g.pages) - 1) + 1
        assert model.levels == cap

        union: set[str] = set()
        for members in classes_of(model).values():
            assert not (union & members)
            union |= members
        assert union == set(g.pages)
        for rec in model.records.values():
            assert 1 <= rec.level <= cap


def test_criterion_03_pagerank_matches_dense_oracle():
    """50 random graphs up to 50 nodes, 1e-8 max error, unit sum to 1e-9."""
    rng = random.Random(37)
    for _ in range(50):
        g = random_site_graph(rng, rng.randint(1, 50), max_out=6)
        mine = pagerank(g)
        ref = dense_pagerank(g, iters=20000, tol=1e-15)
        assert max(abs(mine[u] - ref[u]) for u in g.pages) <= 1e-8
        assert abs(sum(mine.values()) - 1.0) <= 1e-9


def test_criterion_04_precedence_is_a_total_preorder():
    """Every (level, rank) pair in [1,6]^2: total, antisymmetric up to
    equivalence, transitive."""
    pairs = [LevelRank(lvl, rk) for lvl, rk in product(range(1, 7), repeat=2)]
    for a, b in product(pairs, repeat=2):
        fwd = compare_level_rank(a, b)
        assert fwd in (-1, 0, 1)
        assert compare_level_rank(b, a) == -fwd
        assert (fwd == 0) == (a == b)
    for a, b, c in product(pairs, repeat=3):
        if compare_level_rank(a, b) >= 0 and compare_level_rank(b, c) >= 0:
            assert compare_level_rank(a, c) >= 0


def _one_page_model(levels: int, level: int, lc: int = 0) -> Model:
    rec = PageRecord(
        url="u", lc=lc, level=level, class_no=1, ts=0, dm=0, links=(), ordinal=1
    )
    return Model(records={"u": rec}, levels=levels)


def test_criterion_05_promotion_arithmetic():
    """Exactly L accesses per level step, counter in [0, L-1], level capped
    at L; at least 10,000 checked cases."""
    cases = 0
    for levels in range(2, 13):
        for start in range(1, levels):
            model = _one_page_model(levels, start)
            rec = model.records["u"]
            for i in range(1, levels + 1):
                promoted = record_access(model, "u", i)
                assert promoted == (i == levels)
                assert 0 <= rec.lc <= levels - 1
                cases += 1
            assert rec.level == start + 1
            assert rec.lc == 0

    rng = random.Random(41)
    while cases < 10_000:
        levels = rng.randint(2, 12)
        level = rng.randint(1, levels)
        lc = 0 if level == levels else rng.randint(0, levels - 1)
        model = _one_page_model(levels, level, lc)
        rec = model.records["u"]
        if level == levels:
            for t in range(1, 4):
                assert record_access(model, "u", t) is False
                assert (rec.level, rec.lc) == (levels, lc)
                cases += 1
        else:
            to_promote = levels - lc
            for t in range(1, to_promote + 1):
                promoted = record_access(model, "u", t)
                assert promoted == (t == to_promote)
                assert rec.level <= levels
                assert 0 <= rec.lc <= levels - 1
                cases += 1
            assert (rec.level, rec.lc) == (level + 1, 0)
    assert cases >= 10_000


def test_criterion_06_decay_reaches_the_floor_and_stays(sweep_log):
    """Sweeps alone flatten any quiet model within (L-1)*demote_threshold
    ticks; afterwards nothing moves."""
    threshold = 5
    cfg = EngineConfig(demote_threshold=threshold, recency_window=3, sweep_period=1)
    rng = random.Random(43)
    for case in range(30):
        g = random_site_graph(rng, rng.randint(2, 10), with_home=True)
        model = build_model(g, rank_pages(g))
        for rec in model.records.values():
            if case % 2:  # half the cases start from scrambled ladders
                rec.level = rng.randint(1, model.levels)
                rec.lc = 0 if rec.level == model.levels else rng.randint(0, model.levels - 1)
        bound = (model.levels - 1) * threshold
        run_sweeps(model, cfg, 0, bound)
        settled = settled_state(model)
        assert all(level == 1 for level, _, _ in settled.values())
        sweep_log.clear()
        run_sweeps(model, cfg, bound, bound + 2 * threshold)
        assert len(sweep_log) == 2 * 2 * threshold
        # nothing moves across the quiet window
        assert settled_state(model) == settled

    # worst case pinned: a full ladder reaches the floor exactly at the bound
    g = demo_site()
    model = build_model(g, rank_pages(g))
    for rec in model.records.values():
        rec.level = model.levels
        rec.lc = 0
    bound = (model.levels - 1) * threshold
    run_sweeps(model, cfg, 0, bound - 1)
    assert any(level > 1 for level, _, _ in settled_state(model).values())
    run_sweeps(model, cfg, bound - 1, bound)
    assert all(level == 1 for level, _, _ in settled_state(model).values())


def test_criterion_07_window_three_beats_window_two():
    """Shipped demo site, 20 seeds x 30 sessions x 20 requests at affinity
    0.9: W=3 never loses to W=2, strictly wins on >= 18 seeds, and wins on
    the mean; all inside 30 s."""
    start = time.perf_counter()
    site = demo_site()
    ranks = rank_pages(site)
    cfg = EngineConfig()

    strict_wins = 0
    pct = {2: [], 3: []}
    for seed in range(1, 21):
        trace = generate_trace(site, sessions=30, length=20, affinity=0.9, seed=seed)
        hits = {}
        for window in (2, 3):
            model = build_model(site, ranks)
            report = replay(model, trace, window, cfg)
            hits[window] = report.hits
            pct[window].append(report.hit_pct)
        assert hits[3] >= hits[2], f"seed {seed}: W=3 fell below W=2"
        if hits[3] > hits[2]:
            strict_wins += 1

    assert strict_wins >= 18
    assert sum(pct[3]) / 20 - sum(pct[2]) / 20 > 0.0
    assert time.perf_counter() - start < 30.0


def test_criterion_08_cold_start_predictions():
    """A freshly built model predicts for every linked page with zero
    access history."""
    window = EngineConfig().window
    site = demo_site()
    model = build_model(site, rank_pages(site))
    for url in site.pages:
        prediction = predict(model, url, window)
        if site.links[url]:
            assert prediction.window, f"no prediction for {url}"
        else:
            assert prediction.window == ()

    rng = random.Random(47)
    for _ in range(100):
        g = random_site_graph(rng, rng.randint(1, 10))
        model = build_model(g, rank_pages(g))
        for url in g.pages:
            if g.links[url]:
                assert predict(model, url, window).window


def test_criterion_09_replay_is_byte_deterministic(tmp_path):
    """Same model, trace, and config twice: reports and post-replay dumps
    are byte-identical."""
    model_path = tmp_path / "model.csv"
    assert main(
        ["build", "--graph", str(DATA / "demo_site.txt"), "--out", str(model_path)]
    ) == EXIT_OK

    outputs = []
    for run in ("a", "b"):
        report = tmp_path / f"report-{run}.csv"
        dump = tmp_path / f"dump-{run}.csv"
        assert main(
            ["replay", "--model", str(model_path),
             "--trace", str(DATA / "demo_trace.csv"),
             "--window", "2", "--out", str(report), "--dump-out", str(dump)]
        ) == EXIT_OK
        outputs.append((report.read_bytes(), dump.read_bytes()))
    assert outputs[0] == outputs[1]


def _service_script() -> list[str]:
    trace = parse_trace((DATA / "demo_trace.csv").read_text())
    lines = []
    for i, ev in enumerate(trace[:60]):
        lines.append(
            json.dumps({"kind": "observe", "url": ev.url, "session": ev.session_id})
        )
        if i % 3 == 0:
            lines.append(json.dumps({"kind": "predict", "url": ev.url, "window": 3}))
    lines.append(json.dumps({"kind": "snapshot"}))
    return lines


def _run_service_script(script: list[str]) -> list[str]:
    site = demo_site()
    model = build_model(site, rank_pages(site))
    service = PredictionService(model, EngineConfig(sweep_period=20, demote_threshold=30))
    server = PredictionServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    transcript = []
    try:
        with socket.create_connection(server.server_address[:2], timeout=10) as conn:
            fh = conn.makefile("rwb")
            for line in script:
                fh.write(line.encode() + b"\n")
                fh.flush()
                transcript.append(fh.readline().decode().rstrip("\n"))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return transcript


def test_criterion_10_service_transcripts_are_deterministic():
    """The same interleaved observe/predict script over a real socket twice
    produces identical transcripts."""
    script = _service_script()
    first = _run_service_script(script)
    second = _run_service_script(script)
    assert len(first) == len(script)
    assert first == second


class TestShippedArtifacts:
    """The committed demo files must stay in sync with the code."""

    def test_demo_site_shape(self):
        site = demo_site()
        assert len(site.pages) == 105
        assert len(site.dominants) == 8
        assert site.home == "/"

    def test_golden_reports_reproduce(self, tmp_path):
        model_path = tmp_path / "model.csv"
        main(["build", "--graph", str(DATA / "demo_site.txt"), "--out", str(model_path)])
        for window in (2, 3):
            out = tmp_path / f"report-w{window}.csv"
            dump = tmp_path / f"dump-w{window}.csv"
            assert main(
                ["replay", "--model", str(model_path),
                 "--trace", str(DATA / "demo_trace.csv"),
                 "--window", str(window), "--out", str(out),
                 "--dump-out", str(dump)]
            ) == EXIT_OK
            golden = (GOLDEN / f"demo_report_w{window}.csv").read_bytes()
            assert out.read_bytes() == golden
        assert dump.read_bytes() == (GOLDEN / "demo_model_post_replay.csv").read_bytes()

    def test_demo_trace_matches_generator(self):
        site = demo_site()
        trace = generate_trace(site, sessions=30, length=20, affinity=0.9, seed=7)
        assert parse_trace((DATA / "demo_trace.csv").read_text()) == trace

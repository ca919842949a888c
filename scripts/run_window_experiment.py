#!/usr/bin/env python3
"""Hit percentage as a function of prediction-window size.

Replays synthetic traces against a freshly built model for each window size
and prints a per-window summary over all seeds.  The model always evolves
identically regardless of the window, so differences are purely about how
many candidates get prefetched.

    python3 scripts/run_window_experiment.py
    python3 scripts/run_window_experiment.py --graph data/demo_site.txt \
        --windows 0 1 2 3 4 5 --seeds 20 --out results.csv
"""

from __future__ import annotations

import argparse
import statistics
from pathlib import Path

from nextpage.config import EngineConfig
from nextpage.model import build_model
from nextpage.ranking import rank_pages
from nextpage.simulate import generate_trace, replay
from nextpage.sitegraph import parse_graph

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", default=str(ROOT / "data" / "demo_site.txt"))
    parser.add_argument("--windows", type=int, nargs="+", default=[0, 1, 2, 3, 4, 5])
    parser.add_argument("--seeds", type=int, default=20, help="seeds 1..N")
    parser.add_argument("--sessions", type=int, default=30)
    parser.add_argument("--length", type=int, default=20)
    parser.add_argument("--affinity", type=float, default=0.9)
    parser.add_argument("--out", help="also write the table as CSV")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> None:
    args = parse_args(argv)
    site = parse_graph(Path(args.graph).read_text())
    ranks = rank_pages(site)
    cfg = EngineConfig()

    traces = [
        generate_trace(site, args.sessions, args.length, args.affinity, seed)
        for seed in range(1, args.seeds + 1)
    ]

    rows = []
    for window in args.windows:
        pcts = []
        for trace in traces:
            model = build_model(site, ranks)
            pcts.append(replay(model, trace, window, cfg).hit_pct)
        spread = statistics.stdev(pcts) if len(pcts) > 1 else 0.0
        rows.append((window, statistics.mean(pcts), min(pcts), max(pcts), spread))

    print(f"site: {args.graph} ({len(site.pages)} pages)")
    print(
        f"traces: {args.seeds} seeds x {args.sessions} sessions"
        f" x {args.length} requests, affinity {args.affinity}"
    )
    print(f"{'window':>6}  {'mean hit%':>9}  {'min':>6}  {'max':>6}  {'stdev':>6}")
    for window, mean, lo, hi, spread in rows:
        print(f"{window:>6}  {mean:>9.2f}  {lo:>6.2f}  {hi:>6.2f}  {spread:>6.2f}")

    if args.out:
        lines = ["window,mean_hit_pct,min_hit_pct,max_hit_pct,stdev"]
        lines += [
            f"{w},{mean:.4f},{lo:.4f},{hi:.4f},{spread:.4f}"
            for w, mean, lo, hi, spread in rows
        ]
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

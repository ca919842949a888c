"""Command line front end.

Subcommands: build, rank, predict, replay, gen-trace, serve, dump.
Exit codes: 0 success, 2 bad flags, 3 unreadable/unwritable files,
4 input validation failures, 5 ranking non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .config import EngineConfig, load_config
from .errors import ConvergenceError, EngineError
from .model import Model, build_model, model_from_csv, model_to_csv
from .predictor import predict
from .ranking import rank_pages
from .service import serve
from .simulate import generate_trace, parse_trace, replay, report_to_csv, trace_to_csv
from .sitegraph import parse_graph, parse_modlog

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INVALID = 4
EXIT_NO_CONVERGENCE = 5


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# The config keys a subcommand may also take as flags.
_CONFIG_FLAGS = {
    "levels": dict(type=int, help="override the level count"),
    "damping": dict(type=float, help="PageRank damping factor"),
    "window": dict(type=int, help="prediction window size"),
}


def _config(args) -> EngineConfig:
    """The config file's values (defaults without one), with CLI flags on top."""
    cfg = load_config(args.config) if getattr(args, "config", None) else EngineConfig()
    flags = {name: getattr(args, name, None) for name in _CONFIG_FLAGS}
    return replace(cfg, **{name: value for name, value in flags.items() if value is not None})


def _build_from_graph(args, cfg: EngineConfig) -> Model:
    g = parse_graph(_read(args.graph))
    ranks = rank_pages(g, damping=cfg.damping)
    modlog = parse_modlog(_read(args.modlog)) if getattr(args, "modlog", None) else None
    return build_model(g, ranks, dm_log=modlog, levels=cfg.levels)


def _cmd_build(args) -> int:
    cfg = _config(args)
    model = _build_from_graph(args, cfg)
    _write(args.out, model_to_csv(model))
    return EXIT_OK


def _cmd_rank(args) -> int:
    cfg = _config(args)
    g = parse_graph(_read(args.graph))
    ranks = rank_pages(g, damping=cfg.damping, tol=args.tol, max_iter=args.max_iter)
    lines = ["url,score,ordinal"]
    for url in sorted(g.pages):
        lines.append(f"{url},{ranks.scores[url]:.12g},{ranks.ordinals[url]}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_predict(args) -> int:
    cfg = _config(args)
    model = model_from_csv(_read(args.model))
    prediction = predict(model, args.url, cfg.window)
    payload = {
        "source": prediction.source,
        "window": list(prediction.window),
        "candidates": [
            {
                "url": c.url,
                "level": c.priority.level,
                "rank": c.priority.rank,
                "class": c.class_no,
                "class_match": c.class_match,
            }
            for c in prediction.candidates
        ],
    }
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_replay(args) -> int:
    cfg = _config(args)
    model = model_from_csv(_read(args.model))
    trace = parse_trace(_read(args.trace))
    modlog = parse_modlog(_read(args.modlog)) if args.modlog else None
    report = replay(
        model,
        trace,
        cfg.window,
        cfg,
        modlog=modlog,
        window_only_cache=args.cache_mode == "window",
    )
    _write(args.out, report_to_csv(report))
    if args.dump_out:
        _write(args.dump_out, model_to_csv(model))
    return EXIT_OK


def _cmd_gen_trace(args) -> int:
    g = parse_graph(_read(args.graph))
    trace = generate_trace(g, args.sessions, args.length, args.affinity, args.seed)
    _write(args.out, trace_to_csv(trace))
    return EXIT_OK


def _cmd_serve(args) -> int:
    cfg = _config(args)
    model = model_from_csv(_read(args.model))
    serve(model, cfg, host=args.host, port=args.port, snapshot_path=args.snapshot_out)
    return EXIT_OK


def _cmd_dump(args) -> int:
    _write(args.out, model_to_csv(model_from_csv(_read(args.model))))
    return EXIT_OK


def _add_config_flags(p, *names):
    """`--config`, and a flag for each named config key that overrides it."""
    p.add_argument("--config", help="key=value config file")
    for name in names:
        p.add_argument(f"--{name}", **_CONFIG_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nextpage",
        description="Category-based next-page prediction engine for web prefetching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a model from a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--modlog", help="modification log file")
    p.add_argument("--out", help="model CSV path (default stdout)")
    _add_config_flags(p, "levels", "damping")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("rank", help="dump PageRank scores and ordinals as CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--out")
    _add_config_flags(p, "damping")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("predict", help="predict the next requests for one URL")
    p.add_argument("--model", required=True)
    p.add_argument("--url", required=True)
    p.add_argument("--out")
    _add_config_flags(p, "window")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("replay", help="replay a trace and report hit percentage")
    p.add_argument("--model", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--modlog", help="modification log interleaved by tick")
    p.add_argument("--cache-mode", choices=("session", "window"), default="session")
    p.add_argument("--out", help="report CSV path (default stdout)")
    p.add_argument("--dump-out", help="write the post-replay model CSV here")
    _add_config_flags(p, "window")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("gen-trace", help="generate a synthetic class-affine trace")
    p.add_argument("--graph", required=True)
    p.add_argument("--sessions", type=int, default=10)
    p.add_argument("--length", type=int, default=20)
    p.add_argument("--affinity", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_trace)

    p = sub.add_parser("serve", help="serve predict/observe/snapshot over TCP")
    p.add_argument("--model", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8750)
    p.add_argument("--snapshot-out", help="write a final model CSV on shutdown")
    _add_config_flags(p, "window")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("dump", help="validate and re-emit a model CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ConvergenceError as e:
        print(f"nextpage: {e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as e:
        print(f"nextpage: {e}", file=sys.stderr)
        return EXIT_IO
    except EngineError as e:
        print(f"nextpage: {e}", file=sys.stderr)
        return EXIT_INVALID


def main_entry() -> None:
    sys.exit(main())

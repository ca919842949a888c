#!/usr/bin/env python3
"""The nextpage benchmark: one workload, end to end or traced, from a seed.

    python3 perfbench/run.py --workload large-site --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the engine is imported from its `src/`.
Every workload runs the same path through the engine, at its own scale:

  graph text -> parse_graph -> rank_pages -> build_model        (setup)
  generate_trace, trace CSV round trip                          (gen-trace)
  model_to_csv -> model_from_csv round trip, replay at W=3      (replay)
  `nextpage serve` on the model dump under an open-loop ladder  (service)

and checks the outputs: repeated builds, traces and replays must agree
byte for byte, the demo replays must reproduce the committed goldens, and
every service reply must equal an in-process `PredictionService` fed the same
stream.  Each mismatch counts as a failed operation and makes the exit code 1.
About `--seconds` seconds go to the replay repetitions and the service ladder;
set-up and trace generation run at a fixed size on top.

With `--trace 0` the last line holds the end-to-end metrics.  With
`--trace 1` the engine's module attributes are wrapped for the run (see
tracing.py) and the last line holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import signal
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 15
WINDOW = 3
AFFINITY = 0.9
# Replays get this share of --seconds, at least MIN_REPLAYS of them; the
# service ladder gets the rest.
REPLAY_SHARE = 0.4
MIN_REPLAYS = 3
P99_LIMIT_S = 0.050
DRAIN_S = 20.0
# The generated site is the same for every run seed, so set-up time compares
# like with like; the run seed drives the trace, the modification log and so
# the service stream.
SITE_SEED = 2011

EXIT_INCORRECT = 1
EXIT_ENVIRONMENT = 2


@dataclass(frozen=True)
class Plan:
    """What one workload runs.  `site` None means the shipped demo site."""

    site: tuple[int, int, float] | None
    sessions: int
    length: int
    # Offered requests/s on connection A, ascending; the first is the
    # reference rate for service_p50_ms, the same 5000/s on both workloads,
    # where neither model's server is near its capacity.  Pipelining on one
    # connection lifts capacity above the ~10k/s of a closed loop, but
    # unsteadily: from run to run the 10^4-page model with snapshots keeps up
    # with 10k-30k/s or falls behind, and the demo model with 20k-58k/s.  The
    # ladders skip those bands, so service_max_rps moves only when capacity
    # crosses a step.
    ladder: tuple[int, ...]
    mod_every: int | None = None  # one modification per this many requests
    setups: int = 1
    # Trace generations per round (see gen_round).  Short ones are timed
    # between calibrations (see speed.py), multi-second ones as wall time.
    gen_reps: int = 1
    gen_calibrated: bool = False
    goldens: bool = False
    launches: int = 3  # server start-ups; the last one serves the ladder
    snapshot_every: float = 1.0  # seconds between snapshots on connection B
    # Steps above the reference rate run this long; a shorter step is
    # dominated by the queue a rate change leaves behind.
    min_step_s: float = 2.0


# Replays are repeated on traces short enough (0.5-1 s) for the median of
# several calibrated repetitions to be steady; see speed.py.
PLANS = {
    "large-site": Plan(
        site=(100, 100, 0.12), sessions=200, length=50, mod_every=20,
        ladder=(5000, 40000),
    ),
    "demo-site": Plan(
        site=None, sessions=500, length=50, setups=25, gen_reps=3, gen_calibrated=True, goldens=True,
        ladder=(5000, 10000, 80000), launches=5,
    ),
}


def sub_seed(seed: int, label: str) -> int:
    """Independent, reproducible seed for one input drawn from the run seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:8], "big")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_engine():
    """Import the engine from this checkout's src/, or exit with code 2."""
    needed = [SRC / "nextpage" / "__init__.py", DATA / "demo_site.txt", DATA / "demo_trace.csv", GOLDEN]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: not a nextpage checkout, missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(EXIT_ENVIRONMENT)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import nextpage

    if Path(nextpage.__file__).resolve().parent != (SRC / "nextpage").resolve():
        print(f"perfbench: imported nextpage from {nextpage.__file__}", file=sys.stderr)
        sys.exit(EXIT_ENVIRONMENT)


@dataclass
class Outcome:
    """Counts, metrics and report lines of one workload run."""

    workload: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(what)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.count(count, 0 if ok else count, what)

    def result(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def engine_targets():
    """Module attributes the engine looks up at call time, with span names."""
    import nextpage.model as model_mod
    import nextpage.ranking as ranking_mod
    import nextpage.simulate as simulate_mod
    import nextpage.updates as updates_mod

    return [
        (ranking_mod, "pagerank", "ranking.pagerank", None),
        (ranking_mod, "ordinal_ranks", "ranking.ordinal_ranks", None),
        (model_mod, "assign_classes", "model.assign_classes", None),
        (model_mod, "resolve_common_pages", "model.resolve_common_pages", None),
        (model_mod, "assign_levels", "model.assign_levels", None),
        (model_mod, "pagerank", "ranking.pagerank", None),
        (model_mod, "ordinal_ranks", "ranking.ordinal_ranks", None),
        (simulate_mod, "assign_classes", "model.assign_classes", None),
        (simulate_mod, "resolve_common_pages", "model.resolve_common_pages", None),
        (simulate_mod, "predict", "predictor.predict", lambda p: len(p.candidates)),
        (simulate_mod, "apply_event", "updates.apply_event", None),
        (updates_mod, "demotion_sweep", "updates.demotion_sweep", len),
        (updates_mod, "modification_sweep", "updates.modification_sweep", len),
    ]


class Probe:
    """Calls into the engine; with a tracer, as spans with traced layers."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._targets = engine_targets() if tracer is not None else None

    def layers(self):
        """Context in which the engine's inner calls are traced."""
        if self.tracer is None:
            return nullcontext()
        from tracing import patched

        return patched(self.tracer, self._targets)

    def call(self, name: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)


PLAIN = Probe(None)


def clone(model):
    """An independent copy of a model, for one replay to evolve."""
    return pickle.loads(pickle.dumps(model, pickle.HIGHEST_PROTOCOL))


def read_goldens() -> dict[str, str]:
    names = ["demo_report_w2.csv", "demo_report_w3.csv", "demo_model_post_replay.csv"]
    return {name: (GOLDEN / name).read_text(encoding="utf-8") for name in names}


def run_workload(name, seed, seconds, traced, plan=None, goldens=None) -> Outcome:
    """Run one workload and return its outcome with metrics filled in."""
    from nextpage.config import EngineConfig
    from nextpage.model import assign_classes, build_model, model_from_csv, model_to_csv
    from nextpage.ranking import rank_pages
    from nextpage.simulate import generate_trace, parse_trace, replay, report_to_csv, trace_to_csv
    from nextpage.sitegraph import parse_graph, parse_modlog

    import service_phase
    import sites
    from speed import Calibrated
    from tracing import Tracer, describe, median

    plan = plan or PLANS[name]
    out = Outcome(name)
    tracer = Tracer() if traced else None
    probe = Probe(tracer)
    cfg = EngineConfig()

    if plan.site is None:
        graph_text = (DATA / "demo_site.txt").read_text(encoding="utf-8")
    else:
        sections, members, cross_rate = plan.site
        graph_text = sites.site_text(sections, members, cross_rate, SITE_SEED)

    def setup():
        graph = probe.call("sitegraph.parse_graph", parse_graph, graph_text)
        ranks = probe.call("ranking.rank_pages", rank_pages, graph)
        return graph, probe.call("model.build_model", build_model, graph, ranks)

    def gen_trace():
        return probe.call(
            "simulate.generate_trace", generate_trace, graph,
            plan.sessions, plan.length, AFFINITY, sub_seed(seed, "trace"),
        )

    # Trace generation is timed in three rounds spread over the run: after
    # set-up, after the replays and after the service phase.  On a shared
    # machine the speed of pure Python drifts by 10-20% over tens of seconds;
    # one 10-second generation of the large site's trace per run spread 0.21
    # (interquartile range over median) over ten seeds, while the build in
    # the same runs spread 0.08.
    gen_times, traces = [], set()

    def gen_round():
        clock = Calibrated() if plan.gen_calibrated else None
        with probe.layers():
            for _ in range(plan.gen_reps):
                if clock is None:
                    start = perf_counter()
                    trace = gen_trace()
                    gen_times.append(perf_counter() - start)
                else:
                    trace, _, scaled = clock.time(gen_trace)
                    gen_times.append(scaled)
                traces.add(trace_to_csv(trace))
        return trace

    # Setup: graph text to a model ready to predict, then the trace.
    setup_times, dumps = [], set()
    with probe.layers():
        for _ in range(plan.setups):
            start = perf_counter()
            graph, model = setup()
            setup_times.append(perf_counter() - start)
            dumps.add(model_to_csv(model))
    out.check(len(dumps) == 1, "repeated builds differ", plan.setups)
    dump = dumps.pop()
    trace = gen_round()
    trace_csv = trace_to_csv(trace)
    out.check(probe.call("simulate.parse_trace", parse_trace, trace_csv) == trace, "trace CSV round trip differs")
    out.digests["trace"] = sha256(trace_csv)

    # Model dump round trip; replays start from the reloaded model.
    with probe.layers():
        probe.call("model.model_to_csv", model_to_csv, model)
        loaded = probe.call("model.model_from_csv", model_from_csv, dump)
    out.check(model_to_csv(loaded) == dump, "model dump round trip differs")

    modlog = None
    if plan.mod_every is not None:
        urls = list(graph.pages)
        modlog = parse_modlog(sites.modlog_text(urls, len(trace), plan.mod_every, sub_seed(seed, "modlog")))

    # Replay repetitions between calibrations; a traced run alternates plain
    # and traced ones.
    clock = Calibrated()
    replay_times = {False: [], True: []}  # scaled seconds, keyed by "traced"
    wall_rates = []
    results = set()
    budget_end = perf_counter() + seconds * REPLAY_SHARE
    rep = 0
    while True:
        with_layers = traced and rep % 2 == 1
        fresh = clone(loaded)
        timer = probe if with_layers else PLAIN
        with timer.layers():
            report, wall, scaled = clock.time(timer.call, "simulate.replay", replay, fresh, trace, WINDOW, cfg, modlog)
        replay_times[with_layers].append(scaled)
        if not with_layers:
            wall_rates.append(len(trace) / wall)
        results.add((report_to_csv(report), model_to_csv(fresh)))
        rep += 1
        enough = all(len(replay_times[k]) >= MIN_REPLAYS for k in ({False, True} if traced else {False}))
        if enough and perf_counter() >= budget_end:
            break
    out.check(len(results) == 1, "replays differ (plain, traced or repeated)", rep)
    report_csv, post_dump = next(iter(results))
    out.digests["report"] = sha256(report_csv)
    out.digests["post_replay_dump"] = sha256(post_dump)
    gen_round()

    if plan.goldens:
        goldens = goldens if goldens is not None else read_goldens()
        demo_trace = parse_trace((DATA / "demo_trace.csv").read_text(encoding="utf-8"))
        for window in (2, 3):
            fresh = clone(model)
            golden_report = replay(fresh, demo_trace, window, cfg)
            out.check(
                report_to_csv(golden_report) == goldens[f"demo_report_w{window}.csv"],
                f"demo trace at W={window} does not reproduce demo_report_w{window}.csv",
            )
            out.check(
                model_to_csv(fresh) == goldens["demo_model_post_replay.csv"],
                f"demo trace at W={window} does not reproduce demo_model_post_replay.csv",
            )

    # The live path: `nextpage serve` on the freshly built model's dump.
    svc = service_phase.run(
        root=ROOT, work=WORK, dump=dump, trace=trace, plan=plan,
        seconds=seconds * (1.0 - REPLAY_SHARE), traced=traced,
        limit_s=P99_LIMIT_S, drain_s=DRAIN_S, window=WINDOW, out=out,
    )
    gen_round()
    out.check(len(traces) == 1, "repeated trace generation differs", len(gen_times))

    rates = {k: [len(trace) / t for t in times] for k, times in replay_times.items()}
    out.metrics = {
        # Graph text to a model ready to predict, then its dump to a server
        # answering: everything before the first prediction is served.
        "setup_s": (median(setup_times) + median(svc.launch_times), "s"),
        "gen_trace_s": (median(gen_times), "s"),
        "replay_events_per_s": (median(rates[False]), "1/s"),
        "hit_pct": (report.hit_pct, "%"),
        "service_p50_ms": (svc.reference_p50_s * 1e3, "ms"),
        "service_max_rps": (svc.max_rps, "1/s"),
        "peak_rss_mb": (svc.peak_rss_mb, "MiB"),
    }
    out.lines += [
        f"  setup (build)        {describe(setup_times)} s",
        f"  setup (server start) {describe(svc.launch_times)} s",
        f"  gen-trace            {describe(gen_times)} s{' (calibrated)' if plan.gen_calibrated else ''}"
        f"  ({len(trace)} events)",
        f"  replay W={WINDOW}           calibrated {describe(rates[False], digits=1)}"
        f"  wall {describe(wall_rates, digits=1)} events/s",
        f"  hit ratio            {report.hits}/{report.requests} = {report.hit_pct:.4f}%",
    ]
    out.lines += svc.lines
    out.lines.append(
        f"  service_p99_ms       {svc.reference_p99_s * 1e3:.4f} ms  (printed only: its spread"
        " between runs exceeds any allowed bound on a shared machine)"
    )

    if traced:
        import layers

        out.metrics = layers.per_layer(
            tracer=tracer, server_spans=svc.server_spans, steps=svc.steps,
            delayed_ack=svc.delayed_ack, echo_p50_s=svc.echo_p50_s, warmup=2 * plan.sessions,
            pages=len(graph.pages), edges=sum(len(v) for v in graph.links.values()),
            common_pages=len(assign_classes(graph)[1]), dump_bytes=len(dump.encode()),
            plain_rates=rates[False], traced_rates=rates[True],
        )
        WORK.mkdir(exist_ok=True)
        spans_file = WORK / f"{name}-seed{seed}.spans.json"
        spans_file.write_text(json.dumps({"engine": tracer.spans, "server": svc.server_spans}))
        out.lines.append(f"  spans written to {spans_file.relative_to(ROOT)}")
    return out


def print_outcome(out: Outcome, seed: int, seconds: int, traced: bool) -> None:
    print(f"workload {out.workload}  seed {seed}  seconds {seconds}  trace {int(traced)}")
    for line in out.lines:
        print(line)
    pct = 100.0 * out.failed / out.attempted if out.attempted else 0.0
    print(f"  failed_pct           {pct:.4f} %  ({out.failed} of {out.attempted} operations failed)")
    for problem in out.problems:
        print(f"  FAILED: {problem}")
    print("  digests  " + "  ".join(f"{k}={v[:16]}" for k, v in out.digests.items()))
    for key, (value, unit) in out.metrics.items():
        print(f"  {key:<44} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*PLANS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # Unwind on SIGTERM too, so the servers and helpers started are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(EXIT_ENVIRONMENT))
    load_engine()

    names = list(PLANS) if args.workload == "all" else [args.workload]
    outcomes = []
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except Exception:
            traceback.print_exc()
            print(f"perfbench: workload {name} crashed", file=sys.stderr)
            return EXIT_INCORRECT
        print_outcome(out, args.seed, args.seconds, bool(args.trace))
        outcomes.append(out)

    if len(outcomes) == 1:
        result = outcomes[0].result()
    else:
        result = {
            "correct": all(o.failed == 0 for o in outcomes),
            "attempted": sum(o.attempted for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "metrics": {
                f"{o.workload}/{k}": v for o in outcomes for k, v in o.result()["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics of a traced run, named `<module>.<function>.<stat>`.

`.s` is the median duration of one call, `.self_s` the median self time of
one call, and `.calls`, `.total_s` and `.moved` are per replay of the trace.
Replay-path figures come from the traced replays only; the run alternates
them with plain replays, and `simulate.replay.trace_overhead_pct` compares the
two.  `service.*` figures come from the spans the traced server wrote and
from the load generator.
"""

from __future__ import annotations

from tracing import SpanIndex, duration, median, quantile

PER_LAYER = [
    ("sitegraph.parse_graph.s", "s", "lower"),
    ("sitegraph.pages", "count", "lower"),
    ("sitegraph.edges", "count", "lower"),
    ("ranking.pagerank.s", "s", "lower"),
    ("ranking.ordinal_ranks.s", "s", "lower"),
    ("model.assign_classes.s", "s", "lower"),
    ("model.common_pages", "count", "lower"),
    ("model.resolve_common_pages.s", "s", "lower"),
    ("model.assign_levels.s", "s", "lower"),
    ("model.build_model.self_s", "s", "lower"),
    ("model.model_to_csv.s", "s", "lower"),
    ("model.dump_bytes", "bytes", "lower"),
    ("model.model_from_csv.s", "s", "lower"),
    ("model.model_from_csv.self_s", "s", "lower"),
    ("predictor.predict.calls", "count", "lower"),
    ("predictor.predict.total_s", "s", "lower"),
    ("predictor.predict.p50_us", "us", "lower"),
    ("predictor.predict.p99_us", "us", "lower"),
    ("predictor.candidates_per_call", "count", "lower"),
    ("updates.apply_event.calls", "count", "lower"),
    ("updates.apply_event.self_s", "s", "lower"),
    *(
        (f"updates.{sweep}.{stat}", unit, better)
        for sweep in ("demotion_sweep", "modification_sweep")
        for stat, unit, better in (
            ("calls", "count", "lower"),
            ("total_s", "s", "lower"),
            ("p99_ms", "ms", "lower"),
            ("moved", "count", "lower"),
            ("useful_ratio", "ratio", "higher"),
        )
    ),
    ("simulate.generate_trace.s", "s", "lower"),
    ("simulate.generate_trace.self_s", "s", "lower"),
    ("simulate.parse_trace.s", "s", "lower"),
    ("simulate.replay.s", "s", "lower"),
    ("simulate.replay.self_s", "s", "lower"),
    ("simulate.replay.trace_overhead_pct", "%", "lower"),
    *(
        (f"service.handle.{kind}.{stat}", "us", "lower")
        for kind in ("predict", "observe", "snapshot")
        for stat in ("p50_us", "p99_us", "self_us")
    ),
    ("service.snapshot.ms", "ms", "lower"),
    ("service.latency.p50_ms", "ms", "lower"),
    ("service.latency.p99_ms", "ms", "lower"),
    ("service.echo.p50_us", "us", "lower"),
    ("service.delayed_ack.p50_ms", "ms", "lower"),
    ("service.transport.p50_us", "us", "lower"),
    ("service.generator_late.p99_ms", "ms", "lower"),
    ("service.backlog.max", "count", "lower"),
]


def per_layer(*, tracer, server_spans, steps, delayed_ack, echo_p50_s, warmup, pages, edges, common_pages, dump_bytes,
              plain_rates, traced_rates) -> dict[str, tuple[float, str]]:
    idx = SpanIndex(tracer.spans)
    server = SpanIndex(server_spans)
    m: dict[str, float] = {}

    def one_call(name, under=None):
        return median([duration(s) for s in idx.named(name, under)])

    def one_call_self(name, under=None):
        return median([idx.self_time(s) for s in idx.named(name, under)])

    m["sitegraph.parse_graph.s"] = one_call("sitegraph.parse_graph")
    m["sitegraph.pages"] = pages
    m["sitegraph.edges"] = edges
    m["ranking.pagerank.s"] = one_call("ranking.pagerank", "ranking.rank_pages")
    m["ranking.ordinal_ranks.s"] = one_call("ranking.ordinal_ranks", "ranking.rank_pages")
    m["model.assign_classes.s"] = one_call("model.assign_classes", "model.build_model")
    m["model.common_pages"] = common_pages
    m["model.resolve_common_pages.s"] = one_call("model.resolve_common_pages", "model.build_model")
    m["model.assign_levels.s"] = one_call("model.assign_levels", "model.build_model")
    m["model.build_model.self_s"] = one_call_self("model.build_model")
    m["model.model_to_csv.s"] = one_call("model.model_to_csv")
    m["model.dump_bytes"] = dump_bytes
    m["model.model_from_csv.s"] = one_call("model.model_from_csv")
    m["model.model_from_csv.self_s"] = one_call_self("model.model_from_csv")

    replays = len(idx.named("simulate.replay"))
    predicts = idx.named("predictor.predict", "simulate.replay")
    m["predictor.predict.calls"] = len(predicts) / replays
    m["predictor.predict.total_s"] = sum(map(duration, predicts)) / replays
    m["predictor.predict.p50_us"] = quantile([duration(s) for s in predicts], 0.5) * 1e6
    m["predictor.predict.p99_us"] = quantile([duration(s) for s in predicts], 0.99) * 1e6
    m["predictor.candidates_per_call"] = tracer.values["predictor.predict"] / len(predicts)
    applies = idx.named("updates.apply_event", "simulate.replay")
    m["updates.apply_event.calls"] = len(applies) / replays
    m["updates.apply_event.self_s"] = sum(map(idx.self_time, applies)) / replays
    for sweep in ("demotion_sweep", "modification_sweep"):
        name = f"updates.{sweep}"
        spans = idx.named(name, "simulate.replay")
        moved = tracer.values[name] / replays
        m[f"{name}.calls"] = len(spans) / replays
        m[f"{name}.total_s"] = sum(map(duration, spans)) / replays
        m[f"{name}.p99_ms"] = quantile([duration(s) for s in spans], 0.99) * 1e3
        m[f"{name}.moved"] = moved
        m[f"{name}.useful_ratio"] = moved / (m[f"{name}.calls"] * pages) if spans else 0.0
    m["simulate.generate_trace.s"] = one_call("simulate.generate_trace")
    m["simulate.generate_trace.self_s"] = one_call_self("simulate.generate_trace")
    m["simulate.parse_trace.s"] = one_call("simulate.parse_trace")
    m["simulate.replay.s"] = one_call("simulate.replay")
    m["simulate.replay.self_s"] = one_call_self("simulate.replay")
    m["simulate.replay.trace_overhead_pct"] = 100.0 * (1.0 - median(traced_rates) / median(plain_rates))

    for kind in ("predict", "observe", "snapshot"):
        spans = server.named(f"service.handle.{kind}")
        m[f"service.handle.{kind}.p50_us"] = quantile([duration(s) for s in spans], 0.5) * 1e6
        m[f"service.handle.{kind}.p99_us"] = quantile([duration(s) for s in spans], 0.99) * 1e6
        m[f"service.handle.{kind}.self_us"] = median([server.self_time(s) for s in spans]) * 1e6
    m["service.snapshot.ms"] = median([duration(s) for s in server.named("service.snapshot")]) * 1e3
    m["service.latency.p50_ms"] = steps[0].windowed(0.5) * 1e3
    m["service.latency.p99_ms"] = steps[0].windowed(0.99) * 1e3
    m["service.echo.p50_us"] = echo_p50_s * 1e6
    # Absent only when a ladder step lost replies, which fails the run.
    m["service.delayed_ack.p50_ms"] = delayed_ack.windowed(0.5) * 1e3 if delayed_ack else 0.0
    # Connection A's requests are handled in order: the start-up probe, the
    # warm-up round, then the ladder.
    on_a = sorted(server.named("service.handle.predict") + server.named("service.handle.observe"),
                  key=lambda s: s[3])[1 + warmup:]
    reference = steps[0]
    m["service.transport.p50_us"] = quantile(
        [rtt - duration(span) for rtt, span in zip(reference.rtt, on_a)], 0.5) * 1e6
    m["service.generator_late.p99_ms"] = quantile([t for s in steps for t in s.late], 0.99) * 1e3
    m["service.backlog.max"] = max(s.backlog_max for s in steps)

    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (float(m[name]), units[name]) for name, _, _ in PER_LAYER}

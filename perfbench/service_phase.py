"""The service part of every workload: `nextpage serve` under an open loop.

The request stream is built from the workload's trace before any server
starts: each trace event becomes `observe(url, session)` then
`predict(url, window)`, as a prefetching proxy would send them.  The trace
starts with one round in which every session requests the home page; that
round is sent one request at a time as a warm-up, untimed.  The ladder then
cycles through the rest of the trace, running its fixed offered rates in
ascending order and stopping after the first step that misses the p99
limit.  The reference step (the first) also pings an echo server on the
server's core, and its median latency is scaled by the echo round trip (see
loadgen.py).  A traced run then sends the reference rate for DELAYED_ACK_S more
seconds on a new connection in place of B, one that keeps the kernel's
delayed ACKs (see loadgen.py).  Afterwards the same requests go through an
in-process `PredictionService` loaded from the same dump; every reply on
connection A and the final snapshot must match it.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from loadgen import (
    SNAPSHOT_REQUEST, Server, Step, echo_server, kept_awake, observe_line, pinned, predict_line, run_step,
    split_cores,
)
from tracing import describe, median

REQUEST_TIMEOUT_S = 60.0
# A step stops sending once its queue holds this many times the limit's worth
# of requests; it has missed the limit by then, and draining costs time.
ABORT_FACTOR = 4
DELAYED_ACK_S = 2.0


@dataclass
class ServiceResult:
    launch_times: list[float] = field(default_factory=list)
    reference_p50_s: float = 0.0  # scaled by the echo round trip
    reference_raw_p50_s: float = 0.0
    reference_p99_s: float = 0.0
    echo_p50_s: float = 0.0
    steps: list[Step] = field(default_factory=list)
    delayed_ack: Step | None = None  # traced runs only
    max_rps: float = 0.0
    peak_rss_mb: float = 0.0
    server_spans: list = field(default_factory=list)
    lines: list[str] = field(default_factory=list)


def run(*, root, work, dump, trace, plan, seconds, traced, limit_s, drain_s, window, out):
    """Serve `dump`, drive the ladder, check every reply; returns a ServiceResult."""
    result = ServiceResult()
    stream = []
    for event in trace:
        stream.append(observe_line(event.url, event.session_id))
        stream.append(predict_line(event.url, window))
    probe = predict_line(trace[0].url, window)
    warmup, stream = stream[: 2 * plan.sessions], stream[2 * plan.sessions :]
    # The reference step gets what the other steps leave of the time.
    others = [plan.min_step_s] * (len(plan.ladder) - 1)
    durations = [max(plan.min_step_s, seconds - sum(others))] + others

    client_cpus, server_cpus = split_cores()
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp, pinned(client_cpus):
        model_path = Path(tmp) / "model.csv"
        model_path.write_text(dump, encoding="utf-8")
        spans_path = Path(tmp) / "server-spans.json"

        server = Server(root, model_path, spans_path if traced else None, server_cpus)
        sent, replies, snapshots, final = [], [], [], None
        conns = []
        try:
            for _ in range(plan.launches - 1):
                extra = Server(root, model_path, cpus=server_cpus)
                try:
                    elapsed, conn, _ = extra.start(probe)
                    conn.close()
                finally:
                    extra.stop()
                result.launch_times.append(elapsed)
            elapsed, a, reply = server.start(probe)
            conns.append(a)
            result.launch_times.append(elapsed)
            sent.append(probe)
            replies.append(reply)
            for line in warmup:
                replies.append(a.request(line, REQUEST_TIMEOUT_S))
                sent.append(line)
            b = server.connect()
            conns.append(b)
            with kept_awake(server_cpus), echo_server(server_cpus) as echo:
                offset = 0
                for rate, step_s in zip(plan.ladder, durations):
                    n = max(1, round(rate * step_s))
                    lines = [stream[(offset + i) % len(stream)] for i in range(n)]
                    offset += n
                    step = run_step(
                        a, b, lines, rate, step_s, plan.snapshot_every, drain_s,
                        abort_backlog=round(rate * limit_s * ABORT_FACTOR),
                        echo=echo if not result.steps else None,
                    )
                    result.steps.append(step)
                    sent.extend(lines[: step.sent])
                    replies.extend(step.replies)
                    snapshots.extend(line for _, line in step.snapshots)
                    if not step.complete or not step.meets(limit_s):
                        break
                    result.max_rps = step.achieved_rps
                if traced and all(step.complete for step in result.steps):
                    b.close()
                    c = server.connect(quickack=False)
                    conns.append(c)
                    rate = plan.ladder[0]
                    lines = [stream[(offset + i) % len(stream)] for i in range(round(rate * DELAYED_ACK_S))]
                    step = run_step(c, None, lines, rate, DELAYED_ACK_S, plan.snapshot_every, drain_s,
                                    abort_backlog=len(lines))
                    result.delayed_ack = step
                    sent.extend(lines[: step.sent])
                    replies.extend(step.replies)
            if all(step.complete for step in result.steps) and (not traced or result.delayed_ack.complete):
                final = a.request(SNAPSHOT_REQUEST, REQUEST_TIMEOUT_S)
            result.peak_rss_mb = server.peak_rss_mb()
        finally:
            for conn in conns:
                conn.close()
            server.stop()
        if traced:
            result.server_spans = json.loads(spans_path.read_text(encoding="utf-8"))

    check_replies(dump, sent, replies, snapshots, final, out)
    reference = result.steps[0]
    result.reference_p50_s = reference.echo_scaled(0.5)
    result.reference_raw_p50_s = reference.windowed(0.5)
    result.reference_p99_s = reference.windowed(0.99)
    result.echo_p50_s = median([rtt for _, rtt in reference.echo])
    for step in result.steps:
        verdict = "meets" if step.meets(limit_s) else "misses"
        result.lines.append(
            f"  service {step.rate:>6.0f}/s  latency {describe(step.latency, 1e3, 3)} ms"
            f"  windowed p50={step.windowed(0.5) * 1e3:.3f} p99={step.windowed(0.99) * 1e3:.3f} ms"
            f"  achieved {step.achieved_rps:.0f}/s  backlog max {step.backlog_max}"
            f"  late {describe(step.late, 1e3, 3)} ms  {verdict} p99<={limit_s * 1e3:.0f} ms"
        )
    result.lines.append(
        f"  echo pings           {describe([rtt for _, rtt in reference.echo], 1e3, 4)} ms"
        f"  p50 scaled by echo {result.reference_p50_s * 1e3:.4f} ms"
    )
    if result.delayed_ack is not None:
        step = result.delayed_ack
        result.lines.append(
            f"  delayed ACKs {step.rate:>6.0f}/s  latency {describe(step.latency, 1e3, 3)} ms"
            f"  windowed p50={step.windowed(0.5) * 1e3:.3f} ms"
        )
    if snapshots:
        times = [t for step in result.steps for t, _ in step.snapshots]
        result.lines.append(f"  snapshots on B       {describe(times, 1e3, 2)} ms")
    return result


def check_replies(dump, sent, replies, snapshots, final, out):
    """Compare the server's replies with an in-process service on the same stream."""
    from nextpage.config import EngineConfig
    from nextpage.model import model_from_csv, model_to_csv
    from nextpage.service import PredictionService

    reference = PredictionService(model_from_csv(dump), EngineConfig())
    mismatched = 0
    for request, reply in zip(sent, replies):
        expected = reference.handle_line(request.decode("utf-8").strip())
        if reply.decode("utf-8") != expected:
            mismatched += 1
    missing = len(sent) - len(replies)
    out.count(len(sent), mismatched + missing,
              f"{mismatched} service replies differ from the in-process reference, {missing} missing")

    header = dump.split("\n", 1)[0]
    bad = sum(1 for line in snapshots if not json.loads(line).get("snapshot", "").startswith(header))
    out.check(bad == 0, f"{bad} snapshots on connection B are not model dumps", len(snapshots))
    ok = final is not None and json.loads(final).get("snapshot") == model_to_csv(reference.model)
    out.check(ok, "final snapshot differs from the in-process reference model")

"""Open-loop load against a `nextpage serve` subprocess.

One client thread drives at most two connections through `selectors`:
connection A carries the request stream at a fixed offered rate, and
connection B asks for a whole-model snapshot about once a second.
Each request on A is timed from when it was due to be sent, so a stall also
counts against every request queued behind it, and the generator records how
late it sent each request.  The client polls rather than sleeps while a step
is sending, so it keeps one core busy; where there are two cores, the client
and the server are each pinned to their own (see `split_cores`).

The client acknowledges every reply at once (TCP_QUICKACK, re-armed after
each read, on Linux).  `nextpage serve` does not set TCP_NODELAY, so with
the kernel's delayed ACKs a reply can wait, behind the one before it, for the
client's next request: once one reply waits, every later one does, and a run
spends a varying part of its time in that state (median latency at 2500/s on
the 10^4-page model: 0.56-1.1 ms run to run, against 0.27 ms with immediate
ACKs).  A connection made with `quickack=False` keeps the delayed ACKs; the
traced run measures that case on its own.

Most of a request's latency at the reference rate is the round trip through
the kernel and the virtual machine (on a 2-vCPU machine, ~55 us of ~90 us on
the demo model), and that part drifts by 20-30% over tens of seconds with
the host's load.  So the reference step also pings a trivial echo server
pinned to the server's core, whenever connection A is idle, and the
reported median is scaled by the echo round trip measured in the same
half-second windows (see `Step.echo_scaled`).
"""

from __future__ import annotations

import gc
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import median, quantile

START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
SNAPSHOT_REQUEST = b'{"kind": "snapshot"}\n'
# Latency statistics are taken per half-second window; at the reference
# rate, 5000/s, a window's p99 has 25 samples beyond it.
WINDOW_S = 0.5
# Median round trip of an idle echo ping on the 2-vCPU machine the first
# figures came from: echo-scaled latencies are given for a machine on which
# the ping takes this long.
ECHO_REFERENCE_S = 56e-6
ECHO_LINE = b'{"kind": "ping"}\n'
# A ping goes out after every ECHO_EVERY-th reply on A, when A has nothing
# outstanding and its next request is due no sooner than ECHO_GAP_S, so that
# the echo server and the service do not run at the same time; on a machine
# too slow to leave such gaps, after ECHO_MAX_WAIT_S without a ping it goes
# out whenever A is idle.
ECHO_EVERY = 4
ECHO_GAP_S = 80e-6
ECHO_MAX_WAIT_S = 0.005
# Fewer pings than this in a window leave it out of the scaled median.
ECHO_MIN_PER_WINDOW = 20


def observe_line(url: str, session: str) -> bytes:
    return json.dumps({"kind": "observe", "url": url, "session": session}).encode() + b"\n"


def predict_line(url: str, window: int) -> bytes:
    return json.dumps({"kind": "predict", "url": url, "window": window}).encode() + b"\n"


class LineConn:
    """A non-blocking socket that writes and reads newline-terminated lines."""

    def __init__(self, sock: socket.socket, quickack: bool = True):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self.sock = sock
        self.quickack = quickack and hasattr(socket, "TCP_QUICKACK")
        self.out = bytearray()
        self._in = bytearray()

    def flush(self) -> None:
        if self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:sent]

    def read_lines(self) -> list[bytes]:
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("server closed the connection")
        if self.quickack:
            # The kernel clears the option as it leaves quick-ACK mode.
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        self._in += data
        if b"\n" not in data:
            return []
        *lines, rest = self._in.split(b"\n")
        self._in = bytearray(rest)
        return [bytes(line) for line in lines]

    def request(self, line: bytes, timeout: float) -> bytes:
        """Send one line and wait for its reply (nothing else in flight)."""
        self.out += line
        deadline = perf_counter() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(self.sock, selectors.EVENT_READ)
            while perf_counter() < deadline:
                self.flush()
                if sel.select(0.001 if self.out else max(0.0, min(0.05, deadline - perf_counter()))):
                    lines = self.read_lines()
                    if lines:
                        return lines[0]
        raise TimeoutError("no reply")

    def close(self) -> None:
        self.sock.close()


class Server:
    """One `nextpage serve --port 0` subprocess.

    With `spans_path`, the benchmark's traced launcher starts the same
    service with wrapped internals and writes its spans there on exit.
    """

    def __init__(self, root: Path, model_path: Path, spans_path: Path | None = None,
                 cpus: set[int] | None = None):
        self.root = root
        self.cpus = cpus
        if spans_path is None:
            self.cmd = [sys.executable, "-m", "nextpage", "serve", "--model", str(model_path), "--port", "0"]
        else:
            launcher = root / "perfbench" / "serve_traced.py"
            self.cmd = [sys.executable, str(launcher), str(model_path), str(spans_path)]
        self.proc: subprocess.Popen | None = None

    def start(self, probe: bytes) -> tuple[float, LineConn, bytes]:
        """Launch, connect and send `probe`.

        Returns the seconds from launch to the first reply, the connection
        and the reply.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p
        )
        start = perf_counter()
        self.proc = subprocess.Popen(self.cmd, cwd=self.root, env=env, stdout=subprocess.PIPE)
        if self.cpus:
            # Before the server starts its handler threads, which inherit it.
            os.sched_setaffinity(self.proc.pid, self.cpus)
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(START_TIMEOUT_S):
                raise TimeoutError("server did not start")
        banner = self.proc.stdout.readline().decode()
        if not banner.startswith("listening on "):
            raise RuntimeError(f"unexpected server banner {banner!r}")
        host, _, port = banner.split()[-1].rpartition(":")
        self.address = (host, int(port))
        conn = LineConn(socket.create_connection(self.address, timeout=START_TIMEOUT_S))
        reply = conn.request(probe, START_TIMEOUT_S)
        elapsed = perf_counter() - start
        if b'"window"' not in reply:
            raise RuntimeError(f"probe failed: {reply[:200]!r}")
        return elapsed, conn, reply

    def connect(self, quickack: bool = True) -> LineConn:
        return LineConn(socket.create_connection(self.address, timeout=START_TIMEOUT_S), quickack)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the running server so far, in MiB (Linux's VmHWM).

        Not the reaped children's maximum from getrusage: a child's figure
        there starts from the benchmark's own RSS at the fork before exec.
        """
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self) -> None:
        """Interrupt the server (it exits cleanly on SIGINT) and reap it."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def split_cores() -> tuple[set[int] | None, set[int] | None]:
    """One core for the client and another for the server, if there are two.

    Pinned apart, neither process migrates or waits behind the other: on a
    2-vCPU machine the median latency at 5000/s spread 0.04 (interquartile
    range over median) over five runs pinned, and 0.14 over five unpinned.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


@contextmanager
def pinned(cpus: set[int] | None):
    """Run this process on `cpus` inside the block (no change for None)."""
    if not cpus:
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


# Sets its own affinity and lowest priority, reports, then spins until
# stopped or until the benchmark that started it is gone.
KEEP_AWAKE = """
import os, sys
os.sched_setaffinity(0, {int(c) for c in sys.argv[1:]})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
parent = os.getppid()
print("ready", flush=True)
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


@contextmanager
def kept_awake(cpus: set[int] | None):
    """Keep `cpus` from idling inside the block with a lowest-priority busy loop.

    On a virtual machine a core that idles between requests must be woken
    by the host for the next one, which adds 0.1-2 ms that varies with the
    host's load.  The loop runs only when the server has nothing to do, and
    the server preempts it as soon as a request arrives: on the demo model
    at 5000/s the median latency of five runs was 0.099-0.103 ms with the
    loop and 0.124-0.592 ms without it.
    """
    if not cpus:
        yield
        return
    proc = subprocess.Popen(
        [sys.executable, "-c", KEEP_AWAKE, *map(str, sorted(cpus))], stdout=subprocess.PIPE, text=True
    )
    try:
        if proc.stdout.readline().strip() != "ready":
            raise RuntimeError("keep-awake loop did not start")
        yield
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


# Pinned to the server's core, answers each line on one connection with the
# same line, until the connection closes.
ECHO_SERVER = """
import os, socket, sys
if len(sys.argv) > 1:
    os.sched_setaffinity(0, {int(c) for c in sys.argv[1:]})
listener = socket.socket()
listener.bind(("127.0.0.1", 0))
listener.listen(1)
print(listener.getsockname()[1], flush=True)
conn, _ = listener.accept()
conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
for line in conn.makefile("rb"):
    conn.sendall(line)
"""


@contextmanager
def echo_server(cpus: set[int] | None):
    """A connection to a trivial echo server on `cpus`, inside the block."""
    proc = subprocess.Popen(
        [sys.executable, "-c", ECHO_SERVER, *map(str, sorted(cpus or ()))], stdout=subprocess.PIPE, text=True
    )
    conn = None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(START_TIMEOUT_S):
                raise TimeoutError("echo server did not start")
        port = int(proc.stdout.readline())
        conn = LineConn(socket.create_connection(("127.0.0.1", port), timeout=START_TIMEOUT_S))
        if conn.request(ECHO_LINE, START_TIMEOUT_S) != ECHO_LINE.rstrip(b"\n"):
            raise RuntimeError("echo server answered wrongly")
        yield conn
    finally:
        if conn is not None:
            conn.close()  # the server exits when its connection closes
        else:
            proc.kill()
        try:
            proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


@dataclass
class Step:
    """One open-loop step at a fixed offered rate on connection A."""

    rate: float
    sent: int = 0
    replies: list[bytes] = field(default_factory=list)
    latency: list[float] = field(default_factory=list)  # from due time, s
    rtt: list[float] = field(default_factory=list)  # from actual send, s
    late: list[float] = field(default_factory=list)  # generator lateness, s
    backlog_max: int = 0
    backlog_end: int = 0  # outstanding when the last request was sent
    aborted: bool = False  # sending stopped early: the backlog kept growing
    elapsed: float = 0.0
    snapshots: list[tuple[float, bytes]] = field(default_factory=list)
    echo: list[tuple[float, float]] = field(default_factory=list)  # (sent after t0, round trip), s

    @property
    def complete(self) -> bool:
        return len(self.replies) == self.sent

    @property
    def achieved_rps(self) -> float:
        return len(self.replies) / self.elapsed if self.elapsed > 0 else 0.0

    def windowed(self, q: float, window_s: float = WINDOW_S) -> float:
        """Median over windows of `window_s` (by due time) of each window's q-quantile.

        On a shared machine a host stall of a few milliseconds hits the
        generator and the server alike; it moves one window, not the figure.
        """
        size = max(1, round(self.rate * window_s))
        windows = [self.latency[i : i + size] for i in range(0, len(self.latency), size)]
        full = [w for w in windows if len(w) * 2 >= size] or windows
        return median([quantile(w, q) for w in full])

    def echo_scaled(self, q: float, window_s: float = WINDOW_S) -> float:
        """Median over windows of (latency q-quantile / echo median) x ECHO_REFERENCE_S.

        The latency of a window is scaled by the round trip of the echo
        pings sent in the same window, which drifts with the host as the
        transport part of the latency does: over twelve runs of 3 s on the
        demo model at 5000/s, raw medians spread 0.11 (interquartile range
        over median) and scaled ones 0.05.
        """
        size = max(1, round(self.rate * window_s))
        ratios = []
        for k, i in enumerate(range(0, len(self.latency), size)):
            window = self.latency[i : i + size]
            pings = [rtt for sent, rtt in self.echo if k * window_s <= sent < (k + 1) * window_s]
            if len(window) * 2 >= size and len(pings) >= ECHO_MIN_PER_WINDOW:
                ratios.append(quantile(window, q) / median(pings))
        if not ratios:
            raise RuntimeError("too few echo pings to scale the step's latency")
        return median(ratios) * ECHO_REFERENCE_S

    def meets(self, limit_s: float) -> bool:
        """Windowed p99 within the limit, nothing lost, no backlog left growing."""
        if self.aborted or not self.complete or not self.latency:
            return False
        growing = self.backlog_end > self.rate * limit_s + 1
        return self.windowed(0.99) <= limit_s and not growing


def run_step(
    a: LineConn,
    b: LineConn | None,
    lines: list[bytes],
    rate: float,
    seconds: float,
    snapshot_every: float,
    drain_s: float,
    abort_backlog: int,
    echo: LineConn | None = None,
) -> Step:
    """Send `lines` on A at `rate` per second and collect every reply.

    Sending stops early once more than `abort_backlog` requests are
    outstanding, since the step has then already missed its limit.  With
    `echo`, a ping goes to the echo server in gaps on A (see ECHO_EVERY).
    """
    step = Step(rate=rate, sent=0)
    n = len(lines)
    interval = 1.0 / rate
    sent_at: list[float] = []
    sel = selectors.SelectSelector()  # microsecond timeouts; epoll rounds to ms
    sel.register(a.sock, selectors.EVENT_READ, a)
    if b is not None:
        sel.register(b.sock, selectors.EVENT_READ, b)
    if echo is not None:
        sel.register(echo.sock, selectors.EVENT_READ, echo)
    echo_sent = None
    # The generator's own garbage-collection pauses would delay sends and count
    # against the server; the step allocates little, so collect afterwards.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter() + 0.002
    echo_last = t0
    next_snapshot = t0 + snapshot_every if b is not None else float("inf")
    snapshot_sent = None
    deadline = t0 + seconds + drain_s
    try:
        while len(step.replies) < n or snapshot_sent is not None or echo_sent is not None:
            now = perf_counter()
            if now > deadline:
                break
            sent = step.sent
            if sent < n and sent - len(step.replies) > abort_backlog:
                step.aborted = True
                n = sent
                step.backlog_end = sent - len(step.replies)
            while sent < n and t0 + sent * interval <= now:
                a.out += lines[sent]
                sent_at.append(now)
                step.late.append(now - (t0 + sent * interval))
                sent += 1
                if sent == n:
                    step.backlog_end = sent - len(step.replies)
            step.sent = sent
            a.flush()
            if snapshot_sent is None and now >= next_snapshot and sent < n:
                b.out += SNAPSHOT_REQUEST
                snapshot_sent = now
                next_snapshot += snapshot_every
            if b is not None:
                b.flush()
            step.backlog_max = max(step.backlog_max, sent - len(step.replies))
            if a.out or (b is not None and b.out):
                wait = 0.0002
            elif sent < n:
                # Poll until the last request is sent: on a shared virtual
                # machine, waking from even a sub-millisecond sleep costs
                # 0.1-1 ms that varies from run to run.
                wait = 0.0
            else:
                wait = 0.05
            for key, _ in sel.select(wait):
                conn = key.data
                got = conn.read_lines()
                if not got:
                    continue
                arrived = perf_counter()
                if conn is echo:
                    if got != [ECHO_LINE.rstrip(b"\n")]:
                        raise RuntimeError(f"echo server answered {got!r}")
                    step.echo.append((echo_sent - t0, arrived - echo_sent))
                    echo_sent = None
                elif conn is a:
                    for line in got:
                        i = len(step.replies)
                        step.replies.append(line)
                        step.latency.append(arrived - (t0 + i * interval))
                        step.rtt.append(arrived - sent_at[i])
                        step.elapsed = arrived - t0
                    done = len(step.replies)
                    if echo is not None and echo_sent is None and done == sent and done % ECHO_EVERY == 0:
                        now = perf_counter()
                        if t0 + sent * interval - now >= ECHO_GAP_S or now - echo_last >= ECHO_MAX_WAIT_S:
                            echo.out += ECHO_LINE
                            echo_sent = echo_last = now
                            echo.flush()
                else:
                    for line in got:
                        step.snapshots.append((arrived - snapshot_sent, line))
                    snapshot_sent = None
    finally:
        sel.close()
        if gc_was_enabled:
            gc.enable()
    return step

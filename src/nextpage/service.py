"""Line-delimited JSON service exposing predict / observe / snapshot.

One JSON object per line in both directions over a plain TCP socket:

    {"kind": "predict", "url": "/a", "window": 2}   -> {"window": ["/b", "/c"]}
    {"kind": "observe", "url": "/a", "session": "s1"} -> {"ok": true}
    {"kind": "snapshot"}                            -> {"snapshot": "<model csv>"}

Malformed requests get an {"error": ...} response and the connection stays
usable; a request line longer than MAX_LINE_BYTES gets one and its connection
is closed, and so does a connection beyond the MAX_CONNECTIONS being served.
A connection silent for IDLE_TIMEOUT_S is closed, and so, with no traceback,
is one its peer resets.  Requests may be pipelined: replies come back in
request order, and those to the lines of one read go out in one send, with
TCP_NODELAY, so none waits on the client's delayed ACK.  One thread answers
every request, one at a time; each observe advances the model's logical
clock one tick, then runs the sweeps due at that tick on the schedule replay
uses (`updates.run_sweeps`), so a given request sequence always leaves the
same model behind.
"""

from __future__ import annotations

import contextlib
import json
import os
import selectors
import signal
import socket
import threading
import time

from .config import EngineConfig
from .errors import EngineError
from .model import Model, model_to_csv
from .predictor import predict
from .updates import SessionEvent, apply_event, run_sweeps


# The reply to every observe that succeeds, and its line, made once.
_OK = {"ok": True}
_OK_LINE = json.dumps(_OK)


class PredictionService:
    """Request handler around one model; transport-independent."""

    def __init__(self, model: Model, cfg: EngineConfig):
        self.model = model
        self.cfg = cfg

    def handle(self, request: object) -> dict:
        if not isinstance(request, dict):
            return {"error": "request must be a JSON object"}
        kind = request.get("kind")
        try:
            if kind == "predict":
                return self._predict(request)
            if kind == "observe":
                return self._observe(request)
            if kind == "snapshot":
                return {"snapshot": self.snapshot_csv()}
            return {"error": f"unknown kind {kind!r}"}
        except EngineError as e:
            return {"error": str(e)}

    def handle_line(self, line: str) -> str:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as e:
            return json.dumps({"error": f"bad JSON: {e.msg}"})
        except (ValueError, RecursionError) as e:
            # Nested deeper than the decoder recurses, or an integer literal
            # longer than int() converts (4300 digits by default).
            return json.dumps({"error": f"bad JSON: {e}"})
        reply = self.handle(request)
        return _OK_LINE if reply == _OK else json.dumps(reply)

    def _predict(self, request: dict) -> dict:
        url = request.get("url")
        if not isinstance(url, str):
            return {"error": "predict needs a string 'url'"}
        window = request.get("window", self.cfg.window)
        if type(window) is not int or window < 0:
            return {"error": "'window' must be a non-negative integer"}
        return {"window": list(predict(self.model, url, window).window)}

    def _observe(self, request: dict) -> dict:
        url = request.get("url")
        if not isinstance(url, str):
            return {"error": "observe needs a string 'url'"}
        session = request.get("session", "")
        tick = self.model.tick + 1
        apply_event(self.model, SessionEvent(session_id=str(session), url=url, tick=tick))
        run_sweeps(self.model, self.cfg, tick - 1, tick)
        return {"ok": True}

    def snapshot_csv(self) -> str:
        return model_to_csv(self.model)


# The longest request line read, newline included.  A longer line gets an
# error reply and its connection is closed.
MAX_LINE_BYTES = 65536

# The most bytes one read takes from a connection.
READ_BYTES = 8192

# The most connections served at once; each costs its read buffer of
# MAX_LINE_BYTES.  One more gets an error reply and is closed.
MAX_CONNECTIONS = 64

# Seconds a connection may stay silent, or leave a reply unread, before it is
# closed and its slot freed.
IDLE_TIMEOUT_S = 120.0

# Seconds between the serving loop's checks for `shutdown` and idle connections.
POLL_INTERVAL_S = 0.5

_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


def _connection(sock, handle_line):
    """Serve one connection from when `sock` is first readable, yielding the
    selector event to wait for next.  Each read answers, in order, the lines
    it completes, in one send; but a reply longer than READ_BYTES is sent
    before the next line is answered, and the generator then yields once.
    Until the socket has taken every reply, nothing more is read.  The read
    buffer holds one line of MAX_LINE_BYTES and the byte after it, which tells
    an over-long line from a final unterminated one."""
    cap = MAX_LINE_BYTES
    buf = bytearray(cap + 1)
    view = memoryview(buf)
    end = 0  # buf[:end] is the start of a line, no newline in it yet
    replies = []
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(0)
    while n := sock.recv_into(view[end:], min(READ_BYTES, cap + 1 - end)):
        start, scan, end = 0, end, end + n  # no newline before `scan`
        while (newline := buf.find(b"\n", scan, end)) >= 0 and newline - start < cap:
            line = buf[start:newline].decode("utf-8", "replace").strip()
            start = scan = newline + 1
            if line:
                replies.append(handle_line(line))
                if len(replies[-1]) > READ_BYTES:
                    yield from _send(sock, replies)
                    yield selectors.EVENT_WRITE
        if newline >= 0 or end - start > cap:
            replies.append(json.dumps({"error": f"request line longer than {cap} bytes"}))
            yield from _send(sock, replies)
            return
        yield from _send(sock, replies)
        if start:
            buf[: end - start] = buf[start:end]
            end -= start
        yield selectors.EVENT_READ
    # at EOF, a last line without a newline is answered all the same
    line = buf[:end].decode("utf-8", "replace").strip()
    if line:
        yield from _send(sock, [handle_line(line)])


def _send(sock, replies):
    """Send `replies` one per line, yielding EVENT_WRITE until the socket has
    taken them all; empties the list first, so no reply is held three times."""
    replies.append("")
    text = "\n".join(replies)
    replies.clear()
    data = memoryview(text.encode("utf-8"))
    del text
    while data:
        with contextlib.suppress(BlockingIOError):
            data = data[sock.send(data) :]
        if data:
            yield selectors.EVENT_WRITE


def _close(conn: socket.socket) -> None:
    """Close after a FIN, so the peer reads end-of-file even if its input is unread."""
    with contextlib.suppress(OSError):
        conn.shutdown(socket.SHUT_WR)
    conn.close()


class PredictionServer:
    """Serves a PredictionService over TCP from the thread that calls
    `serve_forever`, resuming each connection's `_connection` when ready."""

    def __init__(self, address, service: PredictionService):
        self.service = service
        self.socket = socket.create_server(address)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._shutdown_request = False
        self._is_shut_down = threading.Event()

    def serve_forever(self) -> None:
        """Serve until `shutdown` or an exception, then close every connection.
        SIGINT and SIGTERM are let in only while the loop waits, so that a
        final snapshot sees each request taken whole or not at all."""
        unblocked = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        self._is_shut_down.clear()
        sel = selectors.DefaultSelector()
        sel.register(self.socket, selectors.EVENT_READ)
        try:
            while not self._shutdown_request:
                signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)
                ready = sel.select(POLL_INTERVAL_S)
                signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
                now = time.monotonic()
                for key, _ in ready:
                    if key.data is None:
                        self._accept(sel, now)
                        continue
                    try:
                        event = next(key.data[0])
                    except (StopIteration, OSError):  # done, or reset by the peer
                        event = 0
                    if event and event != key.events:
                        sel.modify(key.fileobj, event, key.data)
                    key.data[1] = now + IDLE_TIMEOUT_S if event else now  # over: close below
                for key in list(sel.get_map().values()):
                    if key.data and key.data[1] <= now:
                        sel.unregister(key.fileobj)
                        _close(key.fileobj)
        finally:
            for key in sel.get_map().values():
                if key.data:
                    _close(key.fileobj)
            sel.close()
            self._shutdown_request = False
            self._is_shut_down.set()
            signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)

    def _accept(self, sel: selectors.BaseSelector, now: float) -> None:
        try:
            conn, _ = self.socket.accept()
        except OSError:  # gone before it was accepted
            return
        if len(sel.get_map()) <= MAX_CONNECTIONS:  # the listening socket is in it too
            steps = _connection(conn, self.service.handle_line)
            sel.register(conn, selectors.EVENT_READ, [steps, now + IDLE_TIMEOUT_S])
            return
        with contextlib.suppress(OSError):
            conn.send(b'{"error": "too many connections (limit %d)"}\n' % MAX_CONNECTIONS)
        _close(conn)

    def shutdown(self) -> None:
        """Stop `serve_forever`, run by another thread, and wait for it to end."""
        self._shutdown_request = True
        self._is_shut_down.wait()

    def server_close(self) -> None:
        self.socket.close()


def _write_target(path: str) -> tuple[str, str | None]:
    """The file `write_atomic(path, ...)` writes and the one it renames that over,
    None for a device or a pipe, which cannot be renamed over and is written in place."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"{path}: is a directory")
    if os.path.exists(path) and not os.path.isfile(path):
        return path, None
    path = os.path.realpath(path)
    return f"{path}.tmp", path


def write_atomic(path: str, text: str) -> None:
    """Replace `path`'s file with `text` by `_write_target`'s rule; a failed write leaves it whole."""
    tmp, path = _write_target(path)
    if path is None:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def serve(
    model: Model,
    cfg: EngineConfig,
    host: str = "127.0.0.1",
    port: int = 8750,
    snapshot_path: str | None = None,
) -> None:
    """Run the service until SIGINT or SIGTERM; flush a final snapshot on the way out.

    Prints the bound address once ready, so `port=0` (pick a free port)
    is usable from scripts.  A snapshot path that cannot be written raises
    OSError before the server binds, not once observes are acknowledged.  Call
    it from the main thread: it takes SIGINT and SIGTERM.
    """
    if snapshot_path is not None:
        tmp, renamed_over = _write_target(snapshot_path)
        if renamed_over is not None:
            open(tmp, "w").close()
            os.remove(tmp)
    service = PredictionService(model, cfg)
    server = PredictionServer((host, port), service)
    bound_host, bound_port = server.server_address[:2]
    # Either stops the server, even when SIGINT was inherited ignored.
    previous = {sig: signal.signal(sig, signal.default_int_handler) for sig in _STOP_SIGNALS}
    try:
        print(f"listening on {bound_host}:{bound_port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
        if snapshot_path is not None:
            write_atomic(snapshot_path, service.snapshot_csv())

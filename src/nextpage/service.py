"""Line-delimited JSON service exposing predict / observe / snapshot.

One JSON object per line in both directions over a plain TCP socket:

    {"kind": "predict", "url": "/a", "window": 2}   -> {"window": ["/b", "/c"]}
    {"kind": "observe", "url": "/a", "session": "s1"} -> {"ok": true}
    {"kind": "snapshot"}                            -> {"snapshot": "<model csv>"}

Malformed requests get an {"error": ...} response and the connection stays
usable; a request line longer than MAX_LINE_BYTES gets one and its connection
is closed, and so does a connection beyond the MAX_CONNECTIONS being served.
A connection silent for IDLE_TIMEOUT_S is closed, and so, with no traceback,
is one its peer resets.  Requests may be pipelined:
replies come back in request order, and those to the lines of one read go out
in one send, with TCP_NODELAY, so none waits on the client's delayed ACK.
Observes are serialized through one lock; each advances the model's logical
clock one tick, then runs the sweeps due at that tick on the schedule replay
uses (`updates.run_sweeps`), so a given request sequence always leaves the
same model behind.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import socketserver
import threading

from .config import EngineConfig
from .errors import EngineError
from .model import Model, model_image, model_to_csv
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
        self._lock = threading.Lock()

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
        with self._lock:
            prediction = predict(self.model, url, window)
        return {"window": list(prediction.window)}

    def _observe(self, request: dict) -> dict:
        url = request.get("url")
        if not isinstance(url, str):
            return {"error": "observe needs a string 'url'"}
        session = request.get("session", "")
        with self._lock:
            tick = self.model.tick + 1
            apply_event(self.model, SessionEvent(session_id=str(session), url=url, tick=tick))
            run_sweeps(self.model, self.cfg, tick - 1, tick)
        return {"ok": True}

    def snapshot_csv(self) -> str:
        """Settle the model and copy its rows under the lock; format the copy
        outside it, so predicts and observes wait only for the copy."""
        with self._lock:
            image = model_image(self.model)
        return model_to_csv(image)


# The longest request line read, newline included.  A longer line gets an
# error reply and its connection is closed.
MAX_LINE_BYTES = 65536

# The most bytes one read takes from a connection.
READ_BYTES = 8192

# The most connections served at once, each on its own thread.  One more gets
# an error reply and is closed.
MAX_CONNECTIONS = 64

# Seconds a connection may stay silent, or leave a reply unread, before it is
# closed and its slot freed.
IDLE_TIMEOUT_S = 120.0


class _LineHandler(socketserver.BaseRequestHandler):
    """Serve one connection a read at a time: answer, in order, every line
    that the read completes, and send those replies in one send.

    A client that waits for each reply gets one line per read and one send
    per reply; one that pipelines gets replies in batches that grow with its
    backlog.  The read buffer holds one line of MAX_LINE_BYTES and the byte
    after it, which tells an over-long line from a final unterminated one.
    """

    def handle(self):
        sock = self.request
        cap = MAX_LINE_BYTES
        buf = bytearray(cap + 1)
        view = memoryview(buf)
        end = 0  # buf[:end] is the start of a line, no newline in it yet
        handle_line = self.server.service.handle_line
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(IDLE_TIMEOUT_S)
            while n := sock.recv_into(view[end:], min(READ_BYTES, cap + 1 - end)):
                replies = []
                start, scan, end = 0, end, end + n  # no newline before `scan`
                while (newline := buf.find(b"\n", scan, end)) >= 0 and newline - start < cap:
                    line = buf[start:newline].decode("utf-8", "replace").strip()
                    if line:
                        replies.append(handle_line(line))
                    start = scan = newline + 1
                if newline >= 0 or end - start > cap:
                    replies.append(json.dumps({"error": f"request line longer than {cap} bytes"}))
                    _send_replies(sock, replies)
                    return
                if replies:
                    _send_replies(sock, replies)
                if start:
                    buf[: end - start] = buf[start:end]
                    end -= start
            # at EOF, a last line without a newline is answered all the same
            line = buf[:end].decode("utf-8", "replace").strip()
            if line:
                _send_replies(sock, [handle_line(line)])
        except OSError:
            # Silent, or its replies unread, for IDLE_TIMEOUT_S (TimeoutError);
            # reset by the peer (ConnectionResetError); or shut down and closed
            # under this thread by an interrupted server (BrokenPipeError, or
            # EBADF): the connection is over, and closing it is no error.
            pass


def _send_replies(sock: socket.socket, replies: list[str]) -> None:
    """Send `replies` one per line in one send; empties the list, so that a
    lone large reply is not held beside its joined copy."""
    replies.append("")
    text = "\n".join(replies)
    replies.clear()
    sock.sendall(text.encode("utf-8"))


class PredictionServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, service: PredictionService):
        super().__init__(address, _LineHandler)
        self.service = service
        self._serving = set()  # the connections being served

    def process_request(self, request, client_address):
        # Only this thread adds connections, so none can be added between the
        # count and the add; handler threads only take theirs out.
        if len(self._serving) >= MAX_CONNECTIONS:
            error = f"too many connections (limit {MAX_CONNECTIONS})"
            try:
                request.sendall(json.dumps({"error": error}).encode("utf-8") + b"\n")
            except OSError:
                pass
            self.shutdown_request(request)
            return
        self._serving.add(request)
        try:
            super().process_request(request, client_address)
        except BaseException:
            # Maybe no thread started to take the connection out.  If one did
            # (an interrupt can land just after), taking it out twice is
            # harmless.
            self._serving.discard(request)
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._serving.discard(request)


def _write_snapshot(path: str, text: str) -> None:
    """Write beside `path`, then rename over it, so a crash mid-write leaves
    the previous snapshot whole."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def serve(
    model: Model,
    cfg: EngineConfig,
    host: str = "127.0.0.1",
    port: int = 8750,
    snapshot_path: str | None = None,
) -> None:
    """Run the service until SIGINT or SIGTERM; flush a final snapshot on the way out.

    Prints the bound address once ready, so `port=0` (pick a free port)
    is usable from scripts.  Call it from the main thread: it takes SIGTERM.
    """
    service = PredictionService(model, cfg)
    server = PredictionServer((host, port), service)
    bound_host, bound_port = server.server_address[:2]
    previous_sigterm = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        print(f"listening on {bound_host}:{bound_port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        server.server_close()
        if snapshot_path is not None:
            _write_snapshot(snapshot_path, service.snapshot_csv())

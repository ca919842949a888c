import json
import os
import signal
import socket
import struct
import threading
import time
import tracemalloc
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import settled_state
from nextpage import service as service_mod
from nextpage.config import EngineConfig
from nextpage.model import build_model, model_to_csv
from nextpage.ranking import rank_pages
from nextpage.service import PredictionServer, PredictionService, serve
from nextpage.simulate import parse_trace, replay
from nextpage.sitegraph import parse_graph
from nextpage.updates import SessionEvent, apply_event
from oracles import eager_sweeps
from strategies import site_graphs

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def model(micro_site):
    return build_model(micro_site, rank_pages(micro_site))


@pytest.fixture
def service(model):
    return PredictionService(model, EngineConfig())


class TestPredictRequests:
    def test_window_comes_back_ordered(self, service):
        response = service.handle({"kind": "predict", "url": "H", "window": 2})
        assert response == {"window": ["S", "M"]}

    def test_window_defaults_to_config(self, model):
        service = PredictionService(model, EngineConfig(window=1))
        assert service.handle({"kind": "predict", "url": "H"}) == {"window": ["S"]}

    def test_unknown_url(self, service):
        response = service.handle({"kind": "predict", "url": "zzz", "window": 1})
        assert response == {"error": "unknown page zzz"}

    @pytest.mark.parametrize(
        "request_,fragment",
        [
            ({"kind": "predict"}, "string 'url'"),
            ({"kind": "predict", "url": 7}, "string 'url'"),
            ({"kind": "predict", "url": "H", "window": -1}, "non-negative"),
            ({"kind": "predict", "url": "H", "window": "2"}, "non-negative"),
            ({"kind": "predict", "url": "H", "window": True}, "non-negative"),
        ],
    )
    def test_bad_requests(self, service, request_, fragment):
        assert fragment in service.handle(request_)["error"]


class TestObserveRequests:
    def test_advances_clock_and_counters(self, service):
        assert service.handle({"kind": "observe", "url": "H", "session": "s1"}) == {
            "ok": True
        }
        assert service.model.tick == 1
        assert service.model.records["H"].lc == 1
        assert service.model.records["H"].ts == 1

    def test_unknown_url_leaves_model_untouched(self, service):
        before = (service.model.tick, model_to_csv(service.model))
        response = service.handle({"kind": "observe", "url": "zzz"})
        assert response == {"error": "unknown page zzz"}
        assert (service.model.tick, model_to_csv(service.model)) == before

    def test_missing_url(self, service):
        assert "string 'url'" in service.handle({"kind": "observe"})["error"]

    def test_sweep_fires_on_period_multiple(self, model):
        cfg = EngineConfig(demote_threshold=2, sweep_period=3)
        service = PredictionService(model, cfg)
        for _ in range(2):
            service.handle({"kind": "observe", "url": "H", "session": "s1"})
        # no sweep yet: two observes, period 3
        assert model.settled("c").level == 3
        service.handle({"kind": "observe", "url": "H", "session": "s1"})
        # tick 3: H's third access promotes it, then the sweep demotes
        # everything idle since tick 0
        levels = {u: level for u, (level, _, _) in settled_state(model).items()}
        assert levels == {"H": 2, "M": 1, "S": 1, "a": 1, "b": 2, "c": 2}
        assert model.tick == 3


class TestReplayAgreement:
    @pytest.mark.parametrize("sweep_period", [50, 20, 1])
    def test_observes_leave_the_replayed_model(self, sweep_period):
        """The demo trace's observes, sent one by one, leave the same model
        as replaying the trace: both paths share one sweep schedule."""
        site = parse_graph((DATA / "demo_site.txt").read_text())
        trace = parse_trace((DATA / "demo_trace.csv").read_text())
        # the service clock counts observes, so the trace must tick 1, 2, ...
        assert [ev.tick for ev in trace] == list(range(1, len(trace) + 1))
        cfg = EngineConfig(sweep_period=sweep_period)

        replayed = build_model(site, rank_pages(site))
        replay(replayed, trace, 3, cfg)
        service = PredictionService(build_model(site, rank_pages(site)), cfg)
        for ev in trace:
            line = json.dumps({"kind": "observe", "url": ev.url, "session": ev.session_id})
            assert json.loads(service.handle_line(line)) == {"ok": True}

        assert service.snapshot_csv() == model_to_csv(replayed)
        assert model_to_csv(replayed) != model_to_csv(build_model(site, rank_pages(site)))


    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the service runs the sweep due at tick m straight after observe m, so the "
        "predict that follows sees it; replay runs it after that predict (tick 300 of the demo trace)",
    )
    def test_predict_replies_equal_replays_windows(self, monkeypatch):
        """The demo trace sent as an observe, then a predict, per event: each
        predict reply should equal the window replay predicted for that event."""
        import nextpage.simulate as simulate

        site = parse_graph((DATA / "demo_site.txt").read_text())
        trace = parse_trace((DATA / "demo_trace.csv").read_text())
        cfg = EngineConfig()
        windows = []

        def recorded(model, url, window, _predict=simulate.predict):
            prediction = _predict(model, url, window)
            windows.append(list(prediction.window))
            return prediction

        monkeypatch.setattr(simulate, "predict", recorded)
        replay(build_model(site, rank_pages(site)), trace, 3, cfg)
        service = PredictionService(build_model(site, rank_pages(site)), cfg)
        differing = []
        for ev, expected in zip(trace, windows, strict=True):
            service.handle({"kind": "observe", "url": ev.url, "session": ev.session_id})
            if service.handle({"kind": "predict", "url": ev.url, "window": 3}) != {"window": expected}:
                differing.append(ev.tick)
        assert differing == []


@st.composite
def observe_streams(draw):
    """A site, a sweep config and observe/predict requests, each maybe
    followed by a snapshot."""
    g = draw(site_graphs(min_pages=1, max_pages=8))
    cfg = EngineConfig(
        demote_threshold=draw(st.integers(1, 12)),
        recency_window=draw(st.integers(1, 6)),
        sweep_period=draw(st.sampled_from([1, 2, 3, 5, 7])),
    )
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(["observe", "predict"]), st.sampled_from(g.pages), st.booleans()),
            max_size=60,
        )
    )
    return g, cfg, steps


class TestSnapshotsChangeNothing:
    @given(observe_streams())
    def test_snapshots_leave_the_model_and_replies_alone(self, case):
        """Snapshots settle records as they format them.  A stream with
        snapshots taken at random points must answer and end exactly like the
        same stream without them, and each snapshot must equal the dump of a
        model kept by the eager reference sweeps."""
        g, cfg, steps = case
        with_snapshots = PredictionService(build_model(g, rank_pages(g)), cfg)
        without = PredictionService(build_model(g, rank_pages(g)), cfg)
        oracle = build_model(g, rank_pages(g))
        for kind, url, snapshot in steps:
            line = json.dumps({"kind": kind, "url": url, "session": "s1", "window": 3})
            assert with_snapshots.handle_line(line) == without.handle_line(line)
            if kind == "observe":
                tick = oracle.tick + 1
                apply_event(oracle, SessionEvent("s1", url, tick))
                eager_sweeps(oracle, cfg, tick - 1, tick)
            if snapshot:
                reply = json.loads(with_snapshots.handle_line('{"kind": "snapshot"}'))
                assert reply == {"snapshot": model_to_csv(oracle)}
        final = json.loads(with_snapshots.handle_line('{"kind": "snapshot"}'))["snapshot"]
        assert final == without.snapshot_csv() == model_to_csv(oracle)


# Lines that json.loads rejects with RecursionError and with ValueError (an
# integer literal longer than Python converts, 4300 digits by default) rather
# than JSONDecodeError.  Both fit under the line cap.
HOSTILE_LINES = {
    "deep nesting": "[" * 30000 + "]" * 30000,
    "long integer": '{"kind": "predict", "url": "H", "window": ' + "9" * 5000 + "}",
}


class TestProtocol:
    def test_snapshot_matches_dump(self, service):
        response = service.handle({"kind": "snapshot"})
        assert response == {"snapshot": model_to_csv(service.model)}

    def test_unknown_kind(self, service):
        assert "unknown kind 'flush'" in service.handle({"kind": "flush"})["error"]

    def test_non_object_request(self, service):
        assert "JSON object" in service.handle([1, 2])["error"]

    def test_handle_line_bad_json(self, service):
        response = json.loads(service.handle_line("{nope"))
        assert response["error"].startswith("bad JSON")

    def test_handle_line_round_trip(self, service):
        line = json.dumps({"kind": "predict", "url": "H", "window": 1})
        assert json.loads(service.handle_line(line)) == {"window": ["S"]}

    def test_observe_reply_line_is_the_dumped_reply(self, service):
        """An observe's reply line is a ready-made constant; it must be the
        bytes json.dumps gives, and a failed observe still gets its error."""
        line = json.dumps({"kind": "observe", "url": "H", "session": "s1"})
        assert service.handle_line(line) == json.dumps({"ok": True}) == '{"ok": true}'
        reply = service.handle({"kind": "observe", "url": "S"})
        reply["ok"] = False  # a caller's copy: changing it changes no later reply
        assert service.handle_line(line) == '{"ok": true}'
        bogus = json.loads(service.handle_line('{"kind": "observe", "url": "zz"}'))
        assert "zz" in bogus["error"]

    def test_errors_keep_the_session_usable(self, service):
        assert "error" in service.handle_line("{bad")
        assert json.loads(service.handle_line('{"kind": "snapshot"}')).keys() == {
            "snapshot"
        }

    @pytest.mark.parametrize("line", HOSTILE_LINES.values(), ids=HOSTILE_LINES.keys())
    def test_hostile_line_gets_an_error_reply(self, service, line):
        assert json.loads(service.handle_line(line))["error"].startswith("bad JSON")
        ask = '{"kind": "predict", "url": "H", "window": 1}'
        assert json.loads(service.handle_line(ask)) == {"window": ["S"]}


SCRIPT = [
    {"kind": "predict", "url": "H", "window": 2},
    {"kind": "observe", "url": "H", "session": "s1"},
    {"kind": "observe", "url": "S", "session": "s1"},
    {"kind": "predict", "url": "S", "window": 3},
    {"kind": "observe", "url": "bogus", "session": "s1"},
    {"kind": "observe", "url": "a", "session": "s2"},
    {"kind": "snapshot"},
]


def run_script_over_socket(model, cfg, script):
    service = PredictionService(model, cfg)
    server = PredictionServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    transcript = []
    try:
        with socket.create_connection(server.server_address[:2], timeout=10) as conn:
            fh = conn.makefile("rwb")
            for request in script:
                fh.write(json.dumps(request).encode() + b"\n")
                fh.flush()
                transcript.append(fh.readline().decode().rstrip("\n"))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return transcript, service.snapshot_csv()


class TestSocketTransport:
    def test_scripted_session(self, micro_site):
        model = build_model(micro_site, rank_pages(micro_site))
        cfg = EngineConfig(sweep_period=5, demote_threshold=3)
        transcript, snapshot = run_script_over_socket(model, cfg, SCRIPT)
        assert len(transcript) == len(SCRIPT)
        assert json.loads(transcript[0]) == {"window": ["S", "M"]}
        assert json.loads(transcript[1]) == {"ok": True}
        assert json.loads(transcript[4]) == {"error": "unknown page bogus"}
        assert json.loads(transcript[6])["snapshot"] == snapshot

    def test_state_spans_connections(self, micro_site):
        model = build_model(micro_site, rank_pages(micro_site))
        service = PredictionService(model, EngineConfig())
        server = PredictionServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            for expected_tick in (1, 2):
                with socket.create_connection(
                    server.server_address[:2], timeout=10
                ) as conn:
                    fh = conn.makefile("rwb")
                    fh.write(b'{"kind": "observe", "url": "H", "session": "s1"}\n')
                    fh.flush()
                    assert json.loads(fh.readline()) == {"ok": True}
                assert model.tick == expected_tick
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_replies_are_sent_with_nodelay(self, service):
        sock = ScriptedSocket([ASK])
        drive(sock, service)
        assert sock.options == [(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)]
        assert sock.sent == ASK_REPLY

    def test_blank_lines_ignored(self, micro_site):
        model = build_model(micro_site, rank_pages(micro_site))
        service = PredictionService(model, EngineConfig())
        server = PredictionServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.server_address[:2], timeout=10) as conn:
                fh = conn.makefile("rwb")
                fh.write(b'\n\n{"kind": "snapshot"}\n')
                fh.flush()
                assert "snapshot" in json.loads(fh.readline())
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


@contextmanager
def serving(service):
    """Serve `service` on a free port, on a thread; yields the address."""
    server = PredictionServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def read_to_eof(conn):
    with conn.makefile("rb") as reader:
        return reader.read()


ASK = b'{"kind": "predict", "url": "H", "window": 1}\n'
ASK_REPLY = b'{"window": ["S"]}\n'


class ScriptedSocket:
    """Stands in for a connection: each `recv_into` returns the next chunk of
    `chunks` (EOF after the last), and everything sent is kept."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.reads = 0
        self.sent = b""
        self.options = []

    def setsockopt(self, *args):
        self.options.append(args)

    def settimeout(self, timeout):
        pass

    def recv_into(self, buffer, nbytes):
        self.reads += 1
        if not self.chunks:
            return 0
        chunk = self.chunks.pop(0)
        assert len(chunk) <= nbytes
        buffer[: len(chunk)] = chunk
        return len(chunk)

    def send(self, data):
        self.sent += data
        return len(data)


def drive(sock, service):
    """Serve one connection on `sock` to its end, as if always ready."""
    for _ in service_mod._connection(sock, service.handle_line):
        pass


MIXED_PIPELINE = [
    '{"kind": "observe", "url": "H", "session": "s1"}',
    '{"kind": "predict", "url": "H", "window": 2}',
    "",
    "{nope",
    '{"kind": "observe", "url": "S", "session": "s1"}',
    '{"kind": "snapshot"}',
    '{"kind": "predict", "url": "S", "window": 3}',
]


class TestPipelining:
    def test_mixed_pipeline_answered_in_order(self, micro_site):
        cfg = EngineConfig(sweep_period=2, demote_threshold=2)
        served = PredictionService(build_model(micro_site, rank_pages(micro_site)), cfg)
        reference = PredictionService(build_model(micro_site, rank_pages(micro_site)), cfg)
        expected = [reference.handle_line(line) for line in MIXED_PIPELINE if line]
        with serving(served) as address:
            with socket.create_connection(address, timeout=10) as conn:
                conn.sendall("".join(line + "\n" for line in MIXED_PIPELINE).encode())
                conn.shutdown(socket.SHUT_WR)
                replies = read_to_eof(conn).decode().split("\n")
        assert replies == expected + [""]
        assert json.loads(replies[2])["error"].startswith("bad JSON")

    def test_request_split_across_reads(self, service):
        """One byte per read, through a multi-byte UTF-8 character."""
        line = json.dumps({"kind": "predict", "url": "Hé", "window": 1}, ensure_ascii=False)
        data = line.encode() + b"\n" + b'{"kind": "predict", "url": "H", "window": 1}\n'
        sock = ScriptedSocket(data[i : i + 1] for i in range(len(data)))
        drive(sock, service)
        assert sock.reads == len(data) + 1
        assert sock.sent.decode().split("\n") == [
            json.dumps({"error": "unknown page Hé"}),
            json.dumps({"window": ["S"]}),
            "",
        ]

    def test_undecodable_bytes_replaced(self, service):
        sock = ScriptedSocket([b'{"kind": "predict", "url": "\xff", "window": 1}\n'])
        drive(sock, service)
        assert json.loads(sock.sent) == {"error": "unknown page \ufffd"}

    def test_unterminated_last_line_answered_at_eof(self, service):
        with serving(service) as address:
            with socket.create_connection(address, timeout=10) as conn:
                conn.sendall(b'{"kind": "predict", "url": "H", "window": 1}\n'
                             b'{"kind": "predict", "url": "H", "window": 2}')
                conn.shutdown(socket.SHUT_WR)
                replies = read_to_eof(conn).split(b"\n")
        assert [json.loads(r) for r in replies[:-1]] == [{"window": ["S"]}, {"window": ["S", "M"]}]
        assert replies[-1] == b""

    @pytest.mark.parametrize("line", HOSTILE_LINES.values(), ids=HOSTILE_LINES.keys())
    def test_hostile_line_inside_a_batch(self, service, capsys, line):
        """A hostile line gets an error reply, the request pipelined after it
        gets its own, and the server prints nothing."""
        with serving(service) as address:
            with socket.create_connection(address, timeout=10) as conn:
                conn.sendall(line.encode() + b'\n{"kind": "predict", "url": "H", "window": 1}\n')
                conn.shutdown(socket.SHUT_WR)
                replies = read_to_eof(conn).split(b"\n")
        assert json.loads(replies[0])["error"].startswith("bad JSON")
        assert replies[1:] == [b'{"window": ["S"]}', b""]
        assert capsys.readouterr().err == ""

    def test_over_long_line_inside_a_batch(self, service, monkeypatch):
        monkeypatch.setattr("nextpage.service.MAX_LINE_BYTES", 48)
        ask = b'{"kind": "predict", "url": "H", "window": 1}'
        batch = ask + b"\n" + b"\n" + ask.ljust(48) + b"\n" + ask + b"\n"
        with serving(service) as address:
            with socket.create_connection(address, timeout=10) as conn:
                conn.sendall(batch)
                replies = read_to_eof(conn).split(b"\n")
        assert [json.loads(r) for r in replies[:-1]] == [
            {"window": ["S"]},
            {"error": "request line longer than 48 bytes"},
        ]
        assert replies[-1] == b""


class TestLineCap:
    def test_over_long_line_gets_an_error_and_closes(self, service, monkeypatch):
        monkeypatch.setattr("nextpage.service.MAX_LINE_BYTES", 32)
        snapshot = b'{"kind": "snapshot"}'
        server = PredictionServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.server_address[:2], timeout=10) as conn:
                fh = conn.makefile("rwb")
                # 32 bytes with the newline: the longest line read
                fh.write(snapshot.ljust(31) + b"\n")
                fh.flush()
                assert "snapshot" in json.loads(fh.readline())
                fh.write(snapshot.ljust(32) + b"\n" + snapshot + b"\n")
                fh.flush()
                assert json.loads(fh.readline()) == {
                    "error": "request line longer than 32 bytes"
                }
                assert fh.readline() == b""
            # the server keeps serving other connections
            with socket.create_connection(server.server_address[:2], timeout=10) as conn:
                fh = conn.makefile("rwb")
                fh.write(snapshot + b"\n")
                fh.flush()
                assert "snapshot" in json.loads(fh.readline())
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


    def test_unterminated_line_of_the_cap_is_answered(self, service, monkeypatch):
        monkeypatch.setattr("nextpage.service.MAX_LINE_BYTES", 32)
        snapshot = b'{"kind": "snapshot"}'
        replies = []
        with serving(service) as address:
            for line in (snapshot.ljust(32), snapshot.ljust(33)):
                with socket.create_connection(address, timeout=10) as conn:
                    conn.sendall(line)
                    conn.shutdown(socket.SHUT_WR)
                    replies.append(json.loads(read_to_eof(conn)))
        assert "snapshot" in replies[0]
        assert replies[1] == {"error": "request line longer than 32 bytes"}


class TestConnectionCap:
    def test_connection_over_the_cap_gets_an_error_and_closes(self, service, monkeypatch):
        monkeypatch.setattr("nextpage.service.MAX_CONNECTIONS", 2)
        server = PredictionServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        address = server.server_address[:2]
        ask = b'{"kind": "predict", "url": "H", "window": 1}\n'

        def served(fh):
            try:
                fh.write(ask)
                fh.flush()
                return json.loads(fh.readline()) == {"window": ["S"]}
            except OSError:  # a refused connection may be reset
                return False

        try:
            with socket.create_connection(address, timeout=10) as a, a.makefile("rwb") as fa:
                with socket.create_connection(address, timeout=10) as b, b.makefile("rwb") as fb:
                    assert served(fa) and served(fb)
                    with socket.create_connection(address, timeout=10) as c:
                        with c.makefile("rb") as fc:
                            assert json.loads(fc.readline()) == {
                                "error": "too many connections (limit 2)"
                            }
                            assert fc.readline() == b""
                    # the connections being served are undisturbed
                    assert served(fa) and served(fb)
            # both slots come back once their connections close; at most one
            # socket is open while the server notices
            for _ in range(100):
                with socket.create_connection(address, timeout=10) as d, d.makefile("rwb") as fd:
                    if served(fd):
                        break
                time.sleep(0.02)
            else:
                pytest.fail("no connection was served after the others closed")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()


def reply_line(conn):
    with conn.makefile("rb") as reader:
        return reader.readline()


def slots_come_back(address, count):
    """Whether `count` connections held open together are all served within a
    few seconds, in which the server notices the connections that closed."""
    for _ in range(250):
        with ExitStack() as stack, suppress(OSError):  # a refused connection may be reset
            conns = [stack.enter_context(socket.create_connection(address, timeout=10)) for _ in range(count)]
            for conn in conns:
                conn.sendall(ASK)
            if all(reply_line(conn) == ASK_REPLY for conn in conns):
                return True
        time.sleep(0.02)
    return False


class TestInterrupt:
    def test_interrupt_propagates_and_closes_every_connection(self, service, monkeypatch, capsys):
        """A Ctrl-C that arrives mid-request stops the server once that
        request is answered: KeyboardInterrupt propagates out of
        `serve_forever`, every connection is closed, nothing is printed."""
        handle_line = service.handle_line

        def interrupted(line):
            signal.raise_signal(signal.SIGINT)
            return handle_line(line)

        monkeypatch.setattr(service, "handle_line", interrupted)
        server = PredictionServer(("127.0.0.1", 0), service)
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        stop = threading.Timer(10, server.shutdown)  # should the interrupt be lost
        try:
            with socket.create_connection(server.server_address[:2], timeout=10) as idle:
                with socket.create_connection(server.server_address[:2], timeout=10) as busy:
                    busy.sendall(b'{"kind": "observe", "url": "H", "session": "s1"}\n')
                    stop.start()
                    with pytest.raises(KeyboardInterrupt):
                        server.serve_forever()
                    assert read_to_eof(busy) == b'{"ok": true}\n'
                    assert read_to_eof(idle) == b""
        finally:
            stop.cancel()
            signal.signal(signal.SIGINT, previous)
            server.server_close()
        assert service.model.tick == 1
        assert capsys.readouterr().err == ""


class TestSlotRelease:
    def test_slots_survive_churn(self, service, monkeypatch):
        """Many clients connecting at once, over a small cap: every slot comes
        back."""
        monkeypatch.setattr("nextpage.service.MAX_CONNECTIONS", 3)
        answered = []

        def client(address):
            for _ in range(10):
                with socket.create_connection(address, timeout=10) as conn:
                    try:
                        conn.sendall(ASK)
                        conn.shutdown(socket.SHUT_WR)
                        answered.append(read_to_eof(conn))
                    except OSError:  # a refused connection may be reset
                        answered.append(b"reset")

        with serving(service) as address:
            clients = [threading.Thread(target=client, args=(address,)) for _ in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert slots_come_back(address, 3)
        assert len(answered) == 80
        assert ASK_REPLY in answered


class TestIdleTimeout:
    def test_idle_connections_are_closed_and_free_their_slots(
        self, service, monkeypatch, capsys
    ):
        monkeypatch.setattr("nextpage.service.MAX_CONNECTIONS", 2)
        monkeypatch.setattr("nextpage.service.IDLE_TIMEOUT_S", 0.3)
        ask = b'{"kind": "predict", "url": "H", "window": 1}\n'
        with serving(service) as address:
            with socket.create_connection(address, timeout=10) as a:
                with socket.create_connection(address, timeout=10) as b:
                    a.sendall(ask)
                    with a.makefile("rb") as fa:
                        assert json.loads(fa.readline()) == {"window": ["S"]}
                    with socket.create_connection(address, timeout=10) as c:
                        assert "too many connections" in json.loads(read_to_eof(c))["error"]
                    # both idle connections are closed with nothing sent
                    assert read_to_eof(a) == b""
                    assert read_to_eof(b) == b""
                    with socket.create_connection(address, timeout=10) as d:
                        d.sendall(ask)
                        d.shutdown(socket.SHUT_WR)
                        assert json.loads(read_to_eof(d)) == {"window": ["S"]}
        assert "Traceback" not in capsys.readouterr().err


def reset_by_peer(conn):
    """Close `conn` with an RST instead of a FIN."""
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    conn.close()


class TestPeerReset:
    @pytest.mark.parametrize("pending", [None, b'{"kind": "snapshot"}\n'])
    def test_reset_connection_closes_quietly(self, service, capsys, pending):
        """A client that resets its connection, idle or with a reply still to
        come, leaves no traceback; its slot comes back and the server keeps
        serving."""
        with serving(service) as address:
            conn = socket.create_connection(address, timeout=10)
            conn.sendall(ASK)
            assert reply_line(conn) == ASK_REPLY
            if pending is not None:
                conn.sendall(pending)
            reset_by_peer(conn)
            assert slots_come_back(address, service_mod.MAX_CONNECTIONS)
        assert capsys.readouterr().err == ""


class TestLongReplies:
    def test_pipelined_snapshots_are_held_one_at_a_time(self):
        """A reply longer than READ_BYTES is sent before the next line is
        answered, so snapshots pipelined in one read are never held together."""
        n = 3000
        text = "".join(f"/p{i} -> /p{(i + 1) % n} /p{i * 7 % n}\n" for i in range(n))
        site = parse_graph(text + "@dominant /p0\n@home /p0\n")
        service = PredictionService(build_model(site, rank_pages(site)), EngineConfig())
        dump = len(service.snapshot_csv())
        assert dump > service_mod.READ_BYTES
        sock, sent = ScriptedSocket([b'{"kind": "snapshot"}\n' * 40]), []
        sock.send = lambda data: sent.append(len(data)) or len(data)  # keeps no bytes
        tracemalloc.start()
        try:
            drive(sock, service)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(sent) > 40 * dump
        assert peak < 8 * dump

    def test_slow_reader_stalls_no_one(self, monkeypatch):
        """A client that pipelines snapshots and reads no reply leaves the
        others served, and is closed once it has left its replies unread for
        IDLE_TIMEOUT_S."""
        monkeypatch.setattr("nextpage.service.IDLE_TIMEOUT_S", 0.3)
        site = parse_graph((DATA / "demo_site.txt").read_text())
        service = PredictionService(build_model(site, rank_pages(site)), EngineConfig())
        with serving(service) as address, socket.socket() as silent:
            silent.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            silent.settimeout(10)
            silent.connect(address)
            silent.sendall(b'{"kind": "snapshot"}\n' * 2000)
            time.sleep(0.1)
            with socket.create_connection(address, timeout=2) as other:  # the deadline
                other.sendall(b'{"kind": "predict", "url": "/", "window": 1}\n')
                assert "window" in json.loads(reply_line(other))
            time.sleep(service_mod.IDLE_TIMEOUT_S + 1)
            received = 0
            with suppress(ConnectionResetError):
                while chunk := silent.recv(1 << 16):
                    received += len(chunk)
        assert received < 2000 * len(service.snapshot_csv())  # closed before all was sent


class TestDeterminism:
    def test_same_script_same_transcript(self, micro_site):
        cfg = EngineConfig(sweep_period=2, demote_threshold=3)
        runs = []
        for _ in range(2):
            model = build_model(micro_site, rank_pages(micro_site))
            runs.append(run_script_over_socket(model, cfg, SCRIPT))
        assert runs[0] == runs[1]


class TestServeShutdown:
    """`serve` run in this thread, with `serve_forever` replaced by a stub
    that returns as Ctrl-C would."""

    @pytest.fixture
    def interrupted(self, monkeypatch):
        seen = {}

        def stop(server):
            seen["sigterm_handler"] = signal.getsignal(signal.SIGTERM)
            raise KeyboardInterrupt

        monkeypatch.setattr(PredictionServer, "serve_forever", stop)
        return seen

    def test_final_snapshot_written_without_leftovers(self, tmp_path, model, interrupted):
        snap = tmp_path / "snap.csv"
        snap.write_text("old snapshot\n")
        serve(model, EngineConfig(), port=0, snapshot_path=str(snap))
        assert snap.read_text() == model_to_csv(model)
        assert [p.name for p in tmp_path.iterdir()] == ["snap.csv"]

    def test_failed_snapshot_leaves_existing_file_untouched(
        self, tmp_path, model, interrupted, monkeypatch
    ):
        snap = tmp_path / "snap.csv"
        snap.write_text("old snapshot\n")

        def broken(self):
            raise RuntimeError("snapshot failed")

        monkeypatch.setattr(PredictionService, "snapshot_csv", broken)
        with pytest.raises(RuntimeError):
            serve(model, EngineConfig(), port=0, snapshot_path=str(snap))
        assert snap.read_text() == "old snapshot\n"
        assert [p.name for p in tmp_path.iterdir()] == ["snap.csv"]

    def test_failed_write_leaves_existing_file_untouched(
        self, tmp_path, model, interrupted, monkeypatch
    ):
        snap = tmp_path / "snap.csv"
        snap.write_text("old snapshot\n")

        def disk_full(fd):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError):
            serve(model, EngineConfig(), port=0, snapshot_path=str(snap))
        assert snap.read_text() == "old snapshot\n"

    def test_sigterm_handled_only_while_serving(self, model, interrupted):
        before = signal.getsignal(signal.SIGTERM)
        serve(model, EngineConfig(), port=0)
        assert interrupted["sigterm_handler"] is signal.default_int_handler
        assert signal.getsignal(signal.SIGTERM) is before

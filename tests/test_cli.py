import errno
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import nextpage
import nextpage.service as service_module
from conftest import MICRO_GRAPH_TEXT
from nextpage.cli import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from nextpage.config import EngineConfig
from nextpage.model import build_model, model_from_csv, model_to_csv
from nextpage.ranking import rank_pages
from nextpage.service import PredictionService
from nextpage.simulate import parse_trace
from nextpage.sitegraph import parse_graph

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "site.txt"
    path.write_text(MICRO_GRAPH_TEXT)
    return str(path)


@pytest.fixture
def model_file(tmp_path, graph_file):
    path = tmp_path / "model.csv"
    assert main(["build", "--graph", graph_file, "--out", str(path)]) == EXIT_OK
    return str(path)


class TestBuild:
    def test_stdout_matches_library(self, graph_file, capsys):
        assert main(["build", "--graph", graph_file]) == EXIT_OK
        g = parse_graph(MICRO_GRAPH_TEXT)
        expected = model_to_csv(build_model(g, rank_pages(g)))
        assert capsys.readouterr().out == expected

    def test_out_file(self, tmp_path, graph_file):
        out = tmp_path / "m.csv"
        assert main(["build", "--graph", graph_file, "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith(
            "nextpage-model v2,levels=3\nkey,url,lc,level,class,ts,dm,ordinal,dm_seen,links\n"
        )

    def test_modlog_applied(self, tmp_path, graph_file, capsys):
        log = tmp_path / "mods.txt"
        log.write_text("7 c\n")
        assert main(["build", "--graph", graph_file, "--modlog", str(log)]) == EXIT_OK
        row = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.split(",")[1] == "c"
        ][0]
        assert row.split(",")[6] == "7"

    def test_levels_override(self, graph_file, capsys):
        assert main(["build", "--graph", graph_file, "--levels", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "nextpage-model v2,levels=2"
        assert {line.split(",")[3] for line in lines[2:]} == {"1", "2"}


class TestRank:
    def test_csv_shape(self, graph_file, capsys):
        assert main(["rank", "--graph", graph_file]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "url,score,ordinal"
        assert len(lines) == 7
        assert lines[1].startswith("H,")
        assert lines[1].endswith(",1")

    def test_non_convergence_exit_code(self, graph_file, capsys):
        code = main(["rank", "--graph", graph_file, "--max-iter", "1"])
        assert code == EXIT_NO_CONVERGENCE

    def test_nan_tol_is_invalid(self, graph_file, capsys):
        assert main(["rank", "--graph", graph_file, "--tol", "nan"]) == EXIT_INVALID
        assert "tol must be positive" in capsys.readouterr().err


class TestPredict:
    def test_json_payload(self, model_file, capsys):
        code = main(["predict", "--model", model_file, "--url", "H", "--window", "2"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "H"
        assert payload["window"] == ["S", "M"]
        assert payload["candidates"] == [
            {"url": "S", "level": 2, "rank": 3, "class": 1, "class_match": False},
            {"url": "M", "level": 1, "rank": 2, "class": 2, "class_match": False},
        ]

    def test_window_defaults_to_two(self, model_file, capsys):
        assert main(["predict", "--model", model_file, "--url", "H"]) == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)["window"]) == 2

    def test_unknown_url_is_invalid(self, model_file, capsys):
        code = main(["predict", "--model", model_file, "--url", "zzz"])
        assert code == EXIT_INVALID
        assert "unknown page zzz" in capsys.readouterr().err


class TestGenTrace:
    def test_deterministic(self, tmp_path, graph_file):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        args = ["gen-trace", "--graph", graph_file, "--sessions", "3",
                "--length", "20", "--affinity", "0.8"]
        assert main(args + ["--seed", "1", "--out", str(a)]) == EXIT_OK
        assert main(args + ["--seed", "1", "--out", str(b)]) == EXIT_OK
        assert main(args + ["--seed", "2", "--out", str(c)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()
        assert a.read_text().splitlines()[0] == "tick,session_id,url"
        assert len(a.read_text().splitlines()) == 61


class TestReplay:
    def run_replay(self, tmp_path, model_file, trace, tag, extra=()):
        report = tmp_path / f"report-{tag}.csv"
        dump = tmp_path / f"dump-{tag}.csv"
        code = main(
            ["replay", "--model", model_file, "--trace", str(trace),
             "--out", str(report), "--dump-out", str(dump), *extra]
        )
        assert code == EXIT_OK
        return report.read_bytes(), dump.read_bytes()

    def test_byte_identical_reruns(self, tmp_path, graph_file, model_file):
        trace = tmp_path / "trace.csv"
        assert main(
            ["gen-trace", "--graph", graph_file, "--sessions", "4",
             "--length", "12", "--seed", "9", "--out", str(trace)]
        ) == EXIT_OK
        first = self.run_replay(tmp_path, model_file, trace, "a", ("--window", "2"))
        second = self.run_replay(tmp_path, model_file, trace, "b", ("--window", "2"))
        assert first == second
        header, totals = first[0].decode().splitlines()[:2]
        assert header == "window,requests,hits,hit_pct,session"
        assert totals.startswith("2,")

    def test_cache_mode_flag(self, tmp_path, graph_file, model_file):
        trace = tmp_path / "trace.csv"
        main(["gen-trace", "--graph", graph_file, "--sessions", "2",
              "--length", "8", "--seed", "3", "--out", str(trace)])
        report, _ = self.run_replay(
            tmp_path, model_file, trace, "w", ("--cache-mode", "window")
        )
        assert report.decode().splitlines()[1].split(",")[0] == "2"

    def test_modlog_flag(self, tmp_path, graph_file, model_file):
        trace = tmp_path / "trace.csv"
        main(["gen-trace", "--graph", graph_file, "--sessions", "2",
              "--length", "6", "--seed", "3", "--out", str(trace)])
        log = tmp_path / "mods.txt"
        log.write_text("4 c\n")
        plain = self.run_replay(tmp_path, model_file, trace, "p")
        logged = self.run_replay(
            tmp_path, model_file, trace, "m", ("--modlog", str(log))
        )
        # the modification shows up in the dumped model
        assert b",4," in logged[1] or logged[1] != plain[1]


class TestDump:
    def test_round_trip_bytes(self, tmp_path, model_file, capsys):
        assert main(["dump", "--model", model_file]) == EXIT_OK
        with open(model_file) as fh:
            assert capsys.readouterr().out == fh.read()

    def test_rejects_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,model\n")
        assert main(["dump", "--model", str(bad)]) == EXIT_INVALID

    def test_rejects_the_former_format(self, tmp_path, capsys):
        """A dump without the tag line (header key,url,lc,level,class,ts,dm,links)
        is not read."""
        old = tmp_path / "old.csv"
        old.write_text("key,url,lc,level,class,ts,dm,links\nA1,H,0,1,1,0,0,\n")
        assert main(["dump", "--model", str(old)]) == EXIT_INVALID
        assert "line 1: expected header" in capsys.readouterr().err


class TestAtomicOutput:
    @pytest.fixture
    def disk_full_mid_write(self, monkeypatch):
        """Every file the writer opens to write takes half of the first text
        written to it, then fails as a full disk would."""
        def open_(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            if "w" in mode:
                def write(text):
                    type(fh).write(fh, text[: len(text) // 2])
                    fh.flush()
                    raise OSError(errno.ENOSPC, "No space left on device", path)
                fh.write = write
            return fh

        monkeypatch.setattr(service_module, "open", open_, raising=False)

    @pytest.mark.parametrize("command", ["build", "dump"])
    def test_failed_write_leaves_the_previous_file_whole(
        self, tmp_path, graph_file, model_file, command, disk_full_mid_write, capsys
    ):
        out = tmp_path / "out.csv"
        out.write_text("the previous file\n")
        source = ["--graph", graph_file] if command == "build" else ["--model", model_file]
        assert main([command, *source, "--out", str(out)]) == EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_text() == "the previous file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.csv", "out.csv", "site.txt"]

    def test_replaces_the_previous_file(self, tmp_path, model_file):
        out = tmp_path / "out.csv"
        out.write_text("the previous file\n")
        assert main(["dump", "--model", model_file, "--out", str(out)]) == EXIT_OK
        with open(model_file) as fh:
            assert out.read_text() == fh.read()
        assert not (tmp_path / "out.csv.tmp").exists()

    def test_a_symlink_keeps_pointing_at_the_replaced_file(self, tmp_path, model_file):
        target = tmp_path / "target.csv"
        target.write_text("the previous file\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["dump", "--model", model_file, "--out", str(link)]) == EXIT_OK
        assert link.is_symlink()
        with open(model_file) as fh:
            assert target.read_text() == fh.read()

    def test_a_device_is_written_in_place(self, model_file):
        assert main(["dump", "--model", model_file, "--out", os.devnull]) == EXIT_OK
        assert not os.path.isfile(os.devnull)


class TestConfigPlumbing:
    def test_config_file_sets_window(self, tmp_path, graph_file, model_file, capsys):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("window=1\n")
        main(["predict", "--model", model_file, "--url", "H", "--config", str(cfg)])
        assert len(json.loads(capsys.readouterr().out)["window"]) == 1

    def test_flag_overrides_config(self, tmp_path, model_file, capsys):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("window=1\n")
        main(["predict", "--model", model_file, "--url", "H",
              "--config", str(cfg), "--window", "2"])
        assert len(json.loads(capsys.readouterr().out)["window"]) == 2

    def test_load_commands_ignore_build_keys(self, tmp_path, graph_file, model_file):
        """`levels` and `damping` shape a build; a replay of a dump, which
        stores the level cap and the ordinals, does not read them."""
        trace = tmp_path / "trace.csv"
        main(["gen-trace", "--graph", graph_file, "--sessions", "3",
              "--length", "10", "--seed", "5", "--out", str(trace)])
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("levels=2\ndamping=0.5\nwindow=1\n")
        outputs = []
        for tag, extra in (("plain", ["--window", "1"]), ("config", ["--config", str(cfg)])):
            report, dump = tmp_path / f"report-{tag}.csv", tmp_path / f"dump-{tag}.csv"
            assert main(["replay", "--model", model_file, "--trace", str(trace), *extra,
                         "--out", str(report), "--dump-out", str(dump)]) == EXIT_OK
            outputs.append((report.read_bytes(), dump.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_bad_config_is_invalid(self, tmp_path, graph_file, capsys):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("windw=1\n")
        code = main(["build", "--graph", graph_file, "--config", str(cfg)])
        assert code == EXIT_INVALID
        assert "unknown key windw" in capsys.readouterr().err


def _argv_with(tmp_path, graph_file, model_file, command, flag):
    """`command`'s arguments, with `flag` among them, each naming a valid file."""
    trace, modlog, config = tmp_path / "trace.csv", tmp_path / "mods.txt", tmp_path / "engine.cfg"
    trace.write_text("1,s1,H\n2,s1,S\n")
    modlog.write_text("1 c\n")
    config.write_text("window=1\n")
    files = {"--graph": graph_file, "--model": model_file, "--trace": str(trace),
             "--modlog": str(modlog), "--config": str(config)}
    required = {"build": ["--graph"], "rank": ["--graph"], "predict": ["--model"],
                "replay": ["--model", "--trace"], "gen-trace": ["--graph"],
                "serve": ["--model"], "dump": ["--model"]}[command]
    argv = [command]
    for name in dict.fromkeys(required + [flag]):
        argv += [name, files[name]]
    return argv + {"predict": ["--url", "H"], "serve": ["--port", "0"]}.get(command, [])


class TestExitCodes:
    def test_no_subcommand_is_usage(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_flag_is_usage(self, graph_file, capsys):
        assert main(["build", "--graph", graph_file, "--wat"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            [command, "--model", "m.csv", *extra, flag, "2"]
            for command, extra in [
                ("predict", ["--url", "H"]),
                ("replay", ["--trace", "t.csv"]),
                ("serve", []),
                ("dump", []),
            ]
            for flag in ("--levels", "--damping")
        ]
        + [["dump", "--model", "m.csv", "--config", "c.cfg"], ["rank", "--graph", "g.txt", "--levels", "2"]],
        ids=lambda argv: " ".join(argv[i] for i in (0, -2)),
    )
    def test_flags_nothing_reads_are_usage(self, argv, capsys):
        """A load command takes its level cap and ordinals from the dump, and
        rank levels nothing, so none of them takes these flags."""
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["99999", "-5"])
    def test_port_out_of_range_is_usage(self, port, capsys):
        assert main(["serve", "--model", "m.csv", "--port", port]) == EXIT_USAGE
        assert "outside 0..65535" in capsys.readouterr().err

    def test_missing_file_is_io(self, tmp_path, capsys):
        code = main(["build", "--graph", str(tmp_path / "absent.txt")])
        assert code == EXIT_IO
        assert "nextpage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("build", "--graph"), ("build", "--modlog"), ("build", "--config"),
            ("rank", "--graph"), ("rank", "--config"),
            ("predict", "--model"), ("predict", "--config"),
            ("replay", "--model"), ("replay", "--trace"), ("replay", "--modlog"),
            ("replay", "--config"),
            ("gen-trace", "--graph"),
            ("serve", "--model"), ("serve", "--config"),
            ("dump", "--model"),
        ],
    )
    def test_undecodable_file_is_invalid(self, tmp_path, graph_file, model_file, command, flag, capsys):
        """A file that is not UTF-8 text gets a message and exit 4, from
        every file argument of every subcommand, with no traceback."""
        argv = _argv_with(tmp_path, graph_file, model_file, command, flag)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe bad\n")
        argv[argv.index(flag) + 1] = str(bad)
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"nextpage: {bad}: not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,flag",
        [("build", "--graph"), ("build", "--modlog"), ("replay", "--trace"),
         ("predict", "--config"), ("dump", "--model")],
    )
    def test_leading_bom_is_ignored(self, tmp_path, graph_file, model_file, command, flag, capsys):
        """A graph, modlog, trace, config or model dump that starts with a
        UTF-8 byte order mark reads as the same file without one."""
        argv = _argv_with(tmp_path, graph_file, model_file, command, flag)
        assert main(argv) == EXIT_OK
        expected = capsys.readouterr().out
        i = argv.index(flag) + 1
        with_bom = tmp_path / "bom"
        with_bom.write_bytes(b"\xef\xbb\xbf" + Path(argv[i]).read_bytes())
        argv[i] = str(with_bom)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_malformed_graph_is_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a -> zzz\n@dominant a\n")
        assert main(["build", "--graph", str(bad)]) == EXIT_INVALID
        assert "unknown page zzz" in capsys.readouterr().err

    def test_malformed_trace_is_invalid(self, tmp_path, model_file, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("1,s1,H\n1,s1,S\n")
        code = main(["replay", "--model", model_file, "--trace", str(trace)])
        assert code == EXIT_INVALID
        capsys.readouterr()

    def test_unwritable_out_is_io(self, graph_file, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "m.csv"
        assert main(["build", "--graph", graph_file, "--out", str(out)]) == EXIT_IO
        capsys.readouterr()


def _child_env():
    """The environment with the imported `nextpage` first on PYTHONPATH."""
    src = str(Path(nextpage.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


# Runs `python -m nextpage ARGS...` with SIGINT ignored, as a shell's
# background job starts it; an ignored disposition survives the exec.
_SIGINT_IGNORED = (
    "import os, signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
    "os.execv(sys.executable, [sys.executable, '-m', 'nextpage', *sys.argv[1:]])"
)


def _serve(model_file, snap, talk, stop, ignore_sigint=False, timeout=60):
    """Run `nextpage serve` on `model_file` with `--snapshot-out snap`, call
    `talk(host, port)` once it listens, then send it `stop` and return its
    exit code and what `talk` returned.  The child is killed when `timeout`
    seconds pass, or when it outlives a failure, so a stuck server fails the
    test instead of hanging the suite."""
    launch = ["-c", _SIGINT_IGNORED] if ignore_sigint else ["-m", "nextpage"]
    proc = subprocess.Popen(
        [sys.executable, *launch, "serve", "--model", str(model_file),
         "--port", "0", "--snapshot-out", str(snap)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_child_env(),
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().strip()
        assert ready.startswith("listening on "), ready
        host, port = ready.removeprefix("listening on ").rsplit(":", 1)
        result = talk(host, int(port))
        proc.send_signal(stop)
        return proc.wait(timeout=15), result
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


class TestServeSubprocess:
    def observe(self, fh, url):
        fh.write(json.dumps({"kind": "observe", "url": url, "session": "s1"}).encode() + b"\n")
        fh.flush()
        return json.loads(fh.readline())

    def run_two_observes_then(self, sig, tmp_path, model_file, ignore_sigint=False):
        """Serve, observe H then S, stop the server with `sig`; return the
        final snapshot and the in-process service's dump after the same
        observes."""
        def talk(host, port):
            with socket.create_connection((host, port), timeout=10) as conn:
                fh = conn.makefile("rwb")
                assert self.observe(fh, "H") == {"ok": True}
                assert self.observe(fh, "S") == {"ok": True}

        snap = tmp_path / "snap.csv"
        code, _ = _serve(model_file, snap, talk, sig, ignore_sigint=ignore_sigint)
        assert code == 0

        with open(model_file) as fh:
            expected_service = PredictionService(model_from_csv(fh.read()), EngineConfig())
        expected_service.handle({"kind": "observe", "url": "H", "session": "s1"})
        expected_service.handle({"kind": "observe", "url": "S", "session": "s1"})
        return snap.read_text(), expected_service.snapshot_csv()

    def test_serve_observe_snapshot_shutdown(self, tmp_path, model_file):
        snapshot, expected = self.run_two_observes_then(signal.SIGINT, tmp_path, model_file)
        assert snapshot == expected

    def test_sigint_stops_a_server_that_inherited_it_ignored(self, tmp_path, model_file):
        snapshot, expected = self.run_two_observes_then(
            signal.SIGINT, tmp_path, model_file, ignore_sigint=True
        )
        assert snapshot == expected

    def test_sigterm_writes_a_loadable_final_snapshot(self, tmp_path, model_file):
        snapshot, expected = self.run_two_observes_then(signal.SIGTERM, tmp_path, model_file)
        assert model_to_csv(model_from_csv(snapshot)) == snapshot
        assert snapshot == expected
        assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []

    def test_unwritable_snapshot_path_is_io_before_listening(self, tmp_path, model_file):
        """A final snapshot that could not be written would lose every
        acknowledged observe, so the server refuses to start instead."""
        snap = tmp_path / "no" / "such" / "dir" / "snap.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "nextpage", "serve", "--model", model_file,
             "--port", "0", "--snapshot-out", str(snap)],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=30,
        )
        assert proc.returncode == EXIT_IO
        assert "listening on" not in proc.stdout
        assert proc.stderr.startswith("nextpage: ")
        assert not snap.parent.exists()

    def test_directory_snapshot_path_is_io_before_listening(self, tmp_path, model_file):
        """A directory cannot take the final snapshot, so the server refuses
        it at start, as it does a missing directory."""
        proc = subprocess.run(
            [sys.executable, "-m", "nextpage", "serve", "--model", model_file,
             "--port", "0", "--snapshot-out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=30,
        )
        assert proc.returncode == EXIT_IO
        assert "listening on" not in proc.stdout
        assert proc.stderr.startswith("nextpage: ")
        assert not tmp_path.with_name(tmp_path.name + ".tmp").exists()

    def test_snapshot_to_a_device_is_written_in_place(self, tmp_path, model_file):
        def talk(host, port):
            with socket.create_connection((host, port), timeout=10) as conn, conn.makefile("rwb") as fh:
                assert self.observe(fh, "H") == {"ok": True}

        code, _ = _serve(model_file, os.devnull, talk, signal.SIGTERM)
        assert code == 0
        assert not os.path.isfile(os.devnull)

    def test_pipelined_demo_trace_then_sigterm(self, tmp_path):
        """The demo trace's observe/predict stream, sent in one go, is
        answered as an in-process service answers it, and SIGTERM leaves
        that service's model as the final snapshot."""
        model_file = tmp_path / "demo.csv"
        graph_file = str(DATA / "demo_site.txt")
        assert main(["build", "--graph", graph_file, "--out", str(model_file)]) == EXIT_OK
        stream = []
        for ev in parse_trace((DATA / "demo_trace.csv").read_text()):
            stream.append(json.dumps({"kind": "observe", "url": ev.url, "session": ev.session_id}))
            stream.append(json.dumps({"kind": "predict", "url": ev.url, "window": 3}))
        reference = PredictionService(model_from_csv(model_file.read_text()), EngineConfig())
        expected = [reference.handle_line(line) for line in stream]

        def talk(host, port):
            with socket.create_connection((host, port), timeout=30) as conn:
                payload = "".join(line + "\n" for line in stream).encode()
                # sent from a thread, so that replies are read while it sends
                sender = threading.Thread(target=conn.sendall, args=(payload,))
                sender.start()
                with conn.makefile("rb") as reader:
                    replies = [reader.readline().decode().rstrip("\n") for _ in stream]
                sender.join(timeout=30)
            return replies

        snap = tmp_path / "snap.csv"
        code, replies = _serve(model_file, snap, talk, signal.SIGTERM)
        assert code == 0
        assert replies == expected
        assert snap.read_text() == reference.snapshot_csv()

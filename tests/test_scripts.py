import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_window_experiment_is_deterministic(tmp_path, capsys):
    """The script behind README's window table: two runs print the same
    table, window 0 prefetches nothing, and the CSV has one row per window."""
    experiment = _load("run_window_experiment")
    out = tmp_path / "windows.csv"
    argv = ["--seeds", "2", "--sessions", "3", "--length", "5", "--windows", "0", "2",
            "--out", str(out)]
    runs = []
    for _ in range(2):
        experiment.main(argv)
        runs.append((capsys.readouterr().out, out.read_text()))
    assert runs[0] == runs[1]
    table, csv = runs[0]
    assert ["0", "0.00", "0.00", "0.00", "0.00"] in [line.split() for line in table.splitlines()]
    lines = csv.splitlines()
    assert lines[0] == "window,mean_hit_pct,min_hit_pct,max_hit_pct,stdev"
    assert lines[1] == "0,0.0000,0.0000,0.0000,0.0000"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "2"]

#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (a few hundred pages and events).

    python3 perfbench/selftest.py

Checks that
  * the site generator reproduces data/demo_site.txt byte for byte;
  * every workload's result has exactly the contract's keys, and its metric
    names and units are BENCHMARK.json's end_to_end list (untraced) or
    per_layer list (traced), each a finite number;
  * a traced run leaves the same trace, report and post-replay digests as an
    untraced one;
  * a deliberately corrupted golden file is reported as a failure;
  * outside a checkout the command exits non-zero and prints no result.
Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {
    "large-site": dict(site=(4, 50, 0.12), sessions=20, length=15),
    "demo-site": dict(sessions=20, length=15, setups=3, gen_reps=2),
}
SEED = 3
SECONDS = 1

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny_plan(name: str) -> run.Plan:
    return replace(run.PLANS[name], ladder=(1000, 2000), min_step_s=0.3, launches=2, snapshot_every=0.2,
                   **TINY[name])


def check_result(name: str, out: run.Outcome, expected: list[dict]) -> None:
    result = json.loads(json.dumps(out.result()))
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{name}: correct, {result['failed']} of {result['attempted']} failed")
    units = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == units, f"{name}: metric names and units match BENCHMARK.json")
    values = [v["value"] for v in result["metrics"].values()]
    check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values), f"{name}: values finite")


def main() -> int:
    run.load_engine()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    import sites

    demo = (run.DATA / "demo_site.txt").read_text(encoding="utf-8")
    check(sites.site_text(8, 12, 0.12, 95) == demo, "site generator reproduces data/demo_site.txt")

    for name in run.PLANS:
        plain = run.run_workload(name, SEED, SECONDS, traced=False, plan=tiny_plan(name))
        check_result(f"{name} untraced", plain, spec["end_to_end"])
        check(all(v > 0 for v, _ in plain.metrics.values()), f"{name}: end-to-end metrics are never 0")
        traced = run.run_workload(name, SEED, SECONDS, traced=True, plan=tiny_plan(name))
        check_result(f"{name} traced", traced, spec["per_layer"])
        check(traced.digests == plain.digests, f"{name}: traced and untraced digests agree")

    goldens = run.read_goldens()
    report = goldens["demo_report_w2.csv"]
    goldens["demo_report_w2.csv"] = report.replace(",", ";", 1)
    corrupted = run.run_workload("demo-site", SEED, SECONDS, traced=False, plan=tiny_plan("demo-site"),
                                 goldens=goldens)
    check(not corrupted.result()["correct"] and corrupted.failed >= 1
          and any("demo_report_w2.csv" in p for p in corrupted.problems),
          "a corrupted golden is reported as a failure")

    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "demo-site", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"outside a checkout: exit {proc.returncode}, no result printed")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

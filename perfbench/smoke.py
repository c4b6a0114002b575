"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and asserts that
the result line names every metric of BENCHMARK.json with its unit and
passes its correctness gates.  Then checks that a directory holding only
the benchmark (no biexp source, made under the system's temporary
directory, see TMPDIR) makes it fail without printing a result.  Run from
the root of a checkout; takes about half a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, "--workload", wl["name"], "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, (wl["name"], trace, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, (wl["name"], trace, proc.stdout)
            assert result["attempted"] >= 1 and result["failed"] == 0
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            assert set(got) == set(want), set(got) ^ set(want)
            for name, unit in want.items():
                assert got[name]["unit"] == unit, (name, got[name])
                assert math.isfinite(got[name]["value"]), (name, got[name])
            print(f"ok  {wl['name']:<15} trace={trace}  {len(got)} metrics")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  bare benchmark directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark on tiny inputs.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload it checks that a plain and a traced run print every
metric named in BENCHMARK.json, with its unit, and no other; that a run
whose outputs are corrupted (one flipped assignment, one weak factor too
many, one failed replication) counts every operation as failed; and that
the benchmark refuses to run without the package source.  It uses seed 10,
which maps onto the recorded tiny input 0, and seed 12, which maps onto
tiny input 2, where ``realdata_cli`` misses the truth: that miss passes
only as the recorded output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 10        # maps onto recorded tiny input 0
MISS_SEED = 12   # maps onto tiny input 2, a recorded realdata_cli truth miss


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def input_seed_of(done: subprocess.CompletedProcess) -> int:
    return json.loads(done.stdout.strip().splitlines()[-2])["env"]["input_seed"]


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--size", "tiny"]
        for trace in (0, 1):
            done = run(root, *base, "--trace", str(trace))
            result = result_of(done)
            assert input_seed_of(done) == SEED % 10, done.stdout[-500:]
            assert result["correct"] and result["failed"] == 0, (workload, result)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected[trace], (workload, trace, units)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, metric)
        result = result_of(run(root, *base, "--trace", "0", "--corrupt"))
        assert not result["correct"], (workload, result)
        assert result["failed"] == result["attempted"], (workload, result)
        print(f"{workload}: metrics and units complete, corruption counted "
              f"({result['failed']}/{result['attempted']} failed)")

    miss = ["--workload", "realdata_cli", "--seed", str(MISS_SEED),
            "--seconds", "1", "--size", "tiny", "--trace", "0"]
    done = run(root, *miss)
    result = result_of(done)
    assert result["correct"] and "recorded truth miss reproduced" in done.stderr, done
    result = result_of(run(root, *miss, "--corrupt"))
    assert result["failed"] == result["attempted"], result
    print("recorded truth miss: passes as recorded, fails when corrupted")

    bare = root / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run(bare, "--workload", "wide_factors", "--seed", str(SEED),
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and '"metrics"' not in done.stdout, done
    print("without the package source: exit", done.returncode, "and no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

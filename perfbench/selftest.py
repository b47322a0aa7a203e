"""Self-test of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

A very short run of every workload, traced and untraced, must print exactly
the metrics BENCHMARK.json names, each with its unit.  A run whose outputs
are deliberately truncated must count the failures, still print its result
and exit 1.  In a directory without the package sources the benchmark must
exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]
failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in bench["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json workloads match the benchmark's")
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name in WORKLOADS:
        for trace in (0, 1):
            code, result = run(["--workload", name, "--seed", "7", "--seconds", "1",
                                "--trace", str(trace)])
            label = f"{name} --trace {trace}"
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0, f"{label}: exit 0, all outputs correct")
            if result is not None:
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                check(units == expected[trace], f"{label}: metric names and units")

    code, result = run(["--workload", "render", "--seed", "7", "--seconds", "1",
                        "--corrupt-every", "2"])
    check(code == 1, "truncated outputs: exit 1")
    check(result is not None and not result["correct"]
          and 0 < result["failed"] < result["attempted"]
          and result["metrics"]["success_rate"]["value"] < 1.0,
          "truncated outputs: failures counted, run completed")

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, result = run(["--workload", "render", "--seed", "7", "--seconds", "1"], bare)
        check(code != 0 and result is None, "without sources: nonzero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

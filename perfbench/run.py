"""Benchmark of the rit CLI: render, export-relax and compare-deep workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload render --seed 1 --seconds 30 --trace 0

The inputs are generated from --seed and written to files under
.perfbench_work/ before any timing.  A fresh worker process then drives
``rit_layout.cli.main`` in a closed loop (one client) on those files for
--seconds, checking every op's outputs and timing fresh-interpreter imports
between ops.  --trace 0 reports the end-to-end
metrics; --trace 1 reports per-stage self times, counters and memory peaks
from a traced run.  The last line of standard output is one JSON object;
the exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS, tree_properties

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Worker time beyond --seconds: imports, the visits check, warm-up ops and
# the memory-traced op.
WORKER_GRACE_S = 120


E2E_UNITS = {
    "setup_s": "s",
    "op_ref_p50": "ref",
    "op_ref_p90": "ref",
    "nodes_per_ref": "nodes/ref",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_peak_kb"):
        return "KiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def write_inputs(workload, seed: int, tmp: Path) -> tuple[list[dict], list[dict]]:
    inputs, report = [], []
    for i, (kind, tree) in enumerate(workload.trees(seed)):
        tree_path = tmp / f"tree{i}.json"
        tree_path.write_text(json.dumps(tree), encoding="utf-8")
        out_dir = tmp / f"out{i}"
        out_dir.mkdir()
        props = tree_properties(tree)
        inputs.append({"tree": str(tree_path), "argv": workload.argv(tree_path, out_dir),
                       "outputs": [str(out_dir / name) for name in workload.outputs],
                       "nodes": props["nodes"]})
        report.append({"kind": kind, **props})
    return inputs, report


def run_worker(manifest: dict, tmp: Path, env: dict, seconds: int) -> dict:
    manifest_path = tmp / "manifest.json"
    result_path = tmp / "result.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           str(manifest_path), str(result_path)]
    subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                   timeout=seconds + WORKER_GRACE_S)
    return json.loads(result_path.read_text())


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def op_refs(result: dict) -> list[float]:
    """Each op's wall time in units of the reference work timed around it.

    The divisor is the mean of the reference times just before and just
    after the op: the host's speed changes within seconds, and the nearest
    samples follow it best.
    """
    refs = result["ref_s"]
    return [t / (0.5 * (refs[i] + refs[i + 1])) for i, t in enumerate(result["op_s"])]


def end_to_end(result: dict) -> dict[str, float]:
    rel = op_refs(result)
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "op_ref_p50": statistics.median(rel),
        "op_ref_p90": _p90(rel),
        "nodes_per_ref": sum(result["op_nodes"]) / sum(rel),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "success_rate": 1.0 - result["failed"] / result["attempted"],
    }


def wall_times(result: dict) -> dict[str, float]:
    """The same op figures in seconds, for the notes line."""
    times = result["op_s"]
    return {
        "op_s_p50": statistics.median(times),
        "op_s_p90": _p90(times),
        "nodes_per_s": sum(result["op_nodes"]) / sum(times),
        "ref_s_p50": statistics.median(result["ref_s"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-every", type=int, default=0,
                        help="self-test hook: truncate every Nth op's output")
    args = parser.parse_args(argv)

    if not (SRC / "rit_layout" / "cli.py").is_file():
        print(f"perfbench: no rit_layout sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    # Bytecode is cached inside the run's own directory whatever the caller's
    # settings, as an installed package would have it.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(tmp / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        inputs, report = write_inputs(workload, args.seed, tmp)
        manifest = {"workload": workload.name, "inputs": inputs, "seconds": args.seconds,
                    "trace": args.trace, "corrupt_every": args.corrupt_every}
        result = run_worker(manifest, tmp, env, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    notes = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "env": result["env"], "visits_ok": result["visits_ok"],
             "inputs": report}
    if args.trace:
        values = result["per_layer"]
    else:
        values = end_to_end(result)
        notes["samples"] = {"op": len(result["op_s"]), "setup": len(result["setup_s"])}
        notes["wall"] = wall_times(result)
    correct = result["failed"] == 0 and result["visits_ok"]
    print("perfbench " + json.dumps(notes))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop client: one fresh process driving ``rit_layout.cli.main``.

Usage: python3 perfbench/worker.py MANIFEST RESULT

MANIFEST (written by run.py) names the workload and lists the input files,
the CLI argv for each and the output files each op writes.  The worker runs one
op per input as warm-up, then ops round-robin over the inputs until the time
is up, and writes its raw samples to RESULT as JSON.  Between ops, at even
intervals through the run, it times fresh interpreters importing the CLI.  With tracing on,
untraced and traced ops alternate, and one op under tracemalloc then gives
the per-stage memory peaks.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import spans
from workloads import WORKLOADS, digest

# Fresh-interpreter imports timed per untraced run, spread evenly over it.
SETUP_SAMPLES = 15


class Client:
    def __init__(self, inputs: list[dict], check, corrupt_every: int):
        import rit_layout.cli

        self.cli = rit_layout.cli
        self.inputs = inputs
        self.check = check
        self.corrupt_every = corrupt_every
        self.attempted = 0
        self.failed = 0
        self._reference: dict[int, str] = {}
        self._verdicts: dict[int, bool] = {}

    def run(self, index: int, tracer: spans.Tracer | None = None) -> float:
        """One CLI op on input ``index``; returns its wall time, counts failures."""
        inp = self.inputs[index]
        outputs = [Path(p) for p in inp["outputs"]]
        for p in outputs:
            p.unlink(missing_ok=True)
        if tracer is not None:
            tracer.op = self.attempted
        t0 = time.perf_counter()
        try:
            # Looked up per call so an installed trace wrapper is used.
            code = self.cli.main(inp["argv"])
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if self.corrupt_every and self.attempted % self.corrupt_every == 0:
            _truncate(outputs[0])
        if not (code == 0 and self._outputs_ok(index, outputs)):
            self.failed += 1
        return elapsed

    def _outputs_ok(self, index: int, outputs: list[Path]) -> bool:
        try:
            data = [p.read_bytes() for p in outputs]
        except OSError:
            return False
        d = digest(data)
        if d != self._reference.setdefault(index, d):
            return False
        # Bytes equal to the first op's get its verdict: check each input once.
        if index not in self._verdicts:
            self._verdicts[index] = self.check(data, self.inputs[index]["nodes"])
        return self._verdicts[index]

    def loop(self, seconds: float) -> dict:
        """Round-robin ops until ``seconds`` have passed (at least one op).

        The reference work is timed before the first op and after every op,
        so op i lies between ``ref_s[i]`` and ``ref_s[i + 1]``.  After the
        first op and then every ``seconds / SETUP_SAMPLES``, one import is
        timed, so the set-up figure samples the whole run rather than one
        moment of the host's drift.
        """
        times: list[float] = []
        refs = [reference_seconds()]
        nodes: list[int] = []
        setup: list[float] = []
        start = time.perf_counter()
        end = start + seconds
        next_setup = start
        while not times or time.perf_counter() < end:
            index = len(times) % len(self.inputs)
            times.append(self.run(index))
            refs.append(reference_seconds())
            nodes.append(self.inputs[index]["nodes"])
            if time.perf_counter() >= next_setup:
                setup.append(import_seconds())
                next_setup += seconds / SETUP_SAMPLES
        return {"op_s": times, "ref_s": refs, "op_nodes": nodes, "setup_s": setup}


def import_seconds() -> float:
    """Wall time of a fresh interpreter running ``import rit_layout.cli``.

    Every CLI invocation pays this.  The child inherits the run's
    environment, so bytecode is cached in the run's own directory.
    """
    t0 = time.perf_counter()
    # No timeout: with one, subprocess polls the child at up to 50 ms
    # intervals, which would round every sample up to the next poll.
    subprocess.run([sys.executable, "-c", "import rit_layout.cli"], check=True)
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Wall time of a fixed piece of pure-Python work (about 12 ms).

    The host's speed drifts by tens of percent over minutes; this work is
    timed beside every op so op times can be expressed in its units.  It
    mixes float arithmetic and string formatting, as the ops do, but
    allocates no container, so a garbage collection of the ops' heap never
    lands inside it.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(16000):
        x = (i * 0.37) % 1.0
        acc += len(f"{x:.6f}") * x
    return time.perf_counter() - t0


def _truncate(path: Path) -> None:
    """Self-test hook: cut an output file to half its length."""
    if path.exists():
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])


def visits_ok(inputs: list[dict]) -> bool:
    """The rit solve visits every node 3 times but the root once: 3(N-1)+1."""
    from rit_layout.layout import layout_rit
    from rit_layout.tree import normalize, parse_tree

    for inp in inputs:
        try:
            tree = normalize(parse_tree(Path(inp["tree"]).read_bytes(), "json-tree"))
            visits = layout_rit(tree).visits
        except Exception:
            traceback.print_exc()
            return False
        if visits != 3 * (inp["nodes"] - 1) + 1:
            print(f"visits {visits} != 3(N-1)+1 for {inp['tree']}", file=sys.stderr)
            return False
    return True


def environment() -> dict:
    import numpy

    import rit_layout.measure

    kernel_name = getattr(rit_layout.measure, "kernel_name", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": kernel_name() if kernel_name is not None else "n/a",
    }


def traced_metrics(client: Client, seconds: float) -> dict:
    """Per-stage metrics from traced ops, then memory peaks from one more op.

    Each input gets an untraced op and then a traced one, so the host's
    drift weighs on both sides of the tracing overhead alike.
    """
    tracer = spans.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    ops: list[int] = []
    end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < end:
        index = len(traced) % len(client.inputs)
        untraced.append(client.run(index))
        patches = spans.install(tracer)
        try:
            ops.append(client.attempted)
            traced.append(client.run(index, tracer))
        finally:
            spans.uninstall(patches)
    metrics = spans.derive(tracer, ops)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    memory = spans.Tracer(memory=True)
    patches = spans.install(memory)
    tracemalloc.start()
    try:
        client.run(0, memory)
    finally:
        tracemalloc.stop()
        spans.uninstall(patches)
    for stage in spans.STAGES:
        metrics[spans.peak_metric(stage)] = memory.peaks.get(stage, 0) / 1024
    return metrics


def main(argv: list[str]) -> int:
    manifest_path, result_path = argv
    manifest = json.loads(Path(manifest_path).read_text())
    inputs = manifest["inputs"]
    check = WORKLOADS[manifest["workload"]].check
    client = Client(inputs, check, manifest["corrupt_every"])
    result = {"visits_ok": visits_ok(inputs), "env": environment()}
    for index in range(len(inputs)):
        client.run(index)
    if manifest["trace"]:
        result["per_layer"] = traced_metrics(client, manifest["seconds"])
    else:
        import_seconds()  # untimed: writes the bytecode cache
        result.update(client.loop(manifest["seconds"]))
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["attempted"] = client.attempted
    result["failed"] = client.failed
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

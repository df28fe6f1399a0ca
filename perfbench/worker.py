"""Benchmark worker: runs one workload's operations, one at a time.

``run.py`` starts this script with the package's ``src`` on PYTHONPATH and
drives it over stdin/stdout with one JSON message per line:

    -> {"cmd": "op", "index": i}      <- the operation, its exit code, wall time
                                         and host-speed references on each side
    -> {"cmd": "rerun", "index": i}   <- the same operation run again
    -> {"cmd": "finish"}              <- peak RSS and, when tracing, layer figures

It prints {"ready": true} once the package is imported and the warm-up
operations have run; set-up time ends there.  Sweep and oracle operations
call ``uwbcap.cli.main`` in this process.  Cold-CLI operations start a
fresh ``python -m uwbcap.cli`` each.  Output checks run in ``run.py``, so
this process's peak RSS belongs to the program alone.
"""

import argparse
import contextlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

perf_counter = time.perf_counter
HERE = Path(__file__).resolve().parent


def _spawn(cmd, stdout, stderr, cwd) -> tuple:
    """Run a child to completion: (exit code, its own resource usage).

    A blocking wait4 returns the moment the child ends; a wait with a
    timeout would poll and round every time up to its polling step.
    run.py's deadline kills this process group if a child hangs.
    """
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr, cwd=cwd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _read(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class Runner:
    def __init__(self, options):
        from uwbcap import cli

        from workloads import Workload

        self.cli = cli
        self.tmp = Path(options.tmp)
        self.trace = options.trace
        self.workload = Workload(options.workload, options.seed, tiny=options.tiny)
        if self.trace:
            from layers import LayerSamples

            self.samples = LayerSamples()
        self.spans = []
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.child_maxrss_kb = 0

    # --------------------------------------------------------------- ops

    def execute(self, op: dict, out: Path, err: Path) -> tuple:
        """Run one operation untraced; returns (exit code, wall s, error)."""
        if op["kind"] == "cli":
            with open(out, "wb") as stdout, open(err, "wb") as stderr:
                start = perf_counter()
                rc, usage = _spawn([sys.executable, "-m", "uwbcap.cli", *op["argv"]],
                                   stdout, stderr, self.tmp)
                wall = perf_counter() - start
            self.child_maxrss_kb = max(self.child_maxrss_kb, usage.ru_maxrss)
            return rc, wall, None
        argv = [*op["argv"], "--output", str(out)]
        with open(err, "w", encoding="utf-8") as stderr, contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the op fails; the run goes on and counts it
                return 1, perf_counter() - start, traceback.format_exc(limit=5)
            return rc, perf_counter() - start, None

    def run(self, index: int, suffix: str = "") -> dict:
        op = self.workload.op(index)
        out = self.tmp / f"op-{index}{suffix}.{op['format']}"
        err = self.tmp / f"op-{index}{suffix}.err"
        before = hostspeed.reference()
        rc, wall, error = self.execute(op, out, err)
        after = hostspeed.reference()
        reply = {"index": index, "op": op, "rc": rc, "wall_s": wall,
                 "reference_s": [before, after],
                 "out": str(out), "err": str(err), "error": error}
        if self.trace and not suffix and error is None:
            try:
                reply["replay_identical"] = self.traced(op, index, out, rc, wall)
            except Exception:  # a replay that breaks fails the op, not the run
                reply["error"] = "traced replay failed: " + traceback.format_exc(limit=5)
        return reply

    def warm_up(self) -> None:
        for k, op in enumerate(self.workload.warmup_ops()):
            out = self.tmp / f"warmup-{k}.{op['format']}"
            err = self.tmp / f"warmup-{k}.err"
            rc, _, error = self.execute(op, out, err)
            if rc != 0 or error:
                raise RuntimeError(f"warm-up op {op['argv']} failed ({rc}): {error or _read(err)}")
            out.unlink()
            err.unlink()

    # ------------------------------------------------------------- trace

    def traced(self, op: dict, index: int, out: Path, rc: int, wall: float) -> bool:
        """Traced decomposed replay of the op, then per-layer timings.

        Returns whether the replay wrote the same bytes and exit code as
        the untraced operation.
        """
        from replay import Tracer, replay

        replay_out = out.with_name(out.name + ".replay")
        if op["kind"] == "cli":
            spans_file = out.with_name(out.name + ".spans")
            start = perf_counter()
            replay_exit, _ = _spawn(
                [sys.executable, str(HERE / "replay.py"), "--argv", json.dumps(op["argv"]),
                 "--stdout", str(replay_out), "--spans", str(spans_file)],
                subprocess.DEVNULL, None, self.tmp,
            )
            replay_wall = perf_counter() - start
            if replay_exit != 0:
                raise RuntimeError(f"replay of {op['argv']} exited with {replay_exit}")
            recorded = json.loads(_read(spans_file))
            spans_file.unlink()
            replay_rc = recorded["rc"]
            spans = [tuple(span) for span in recorded["spans"]]
        else:
            tracer = Tracer()
            start = perf_counter()
            replay_rc = replay([*op["argv"], "--output", str(replay_out)], tracer, None)
            replay_wall = perf_counter() - start
            spans = tracer.spans
        identical = replay_rc == rc and _read(replay_out) == _read(out)
        replay_out.unlink()

        base = len(self.spans)
        self.spans.extend(
            (name, s, e, None if parent is None else parent + base, index)
            for name, s, e, parent in spans
        )
        self.untraced_s += wall
        self.traced_s += replay_wall
        self.samples.add_spans(spans)
        self.samples.add_op(op, out.stat().st_size)
        self.samples.run_probe(self.workload.probe_rng(index), self.workload.surveys)
        return identical

    def finish(self, env: dict, spans_path) -> dict:
        summary = {
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "child_maxrss_kb": self.child_maxrss_kb,
        }
        if not self.trace:
            return summary
        from layers import import_times

        layers = self.samples.report(import_times(env))
        overhead = (self.traced_s - self.untraced_s) / self.untraced_s
        layers["trace.overhead_frac"] = {"value": overhead, "unit": "fraction", "source": "op path"}
        ops = max(self.samples.ops, 1)
        summary["layers"] = layers
        summary["self_ms_per_op"] = {
            layer: 1e3 * seconds / ops for layer, seconds in sorted(self.samples.self_s.items())
        }
        with open(spans_path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}) + "\n")
        return summary


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark worker (started by run.py)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    options = parser.parse_args()

    # protocol on the original stdout; anything else the program prints
    # goes to stderr, which run.py keeps in a log
    proto = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def send(message) -> None:
        proto.write(json.dumps(message) + "\n")

    runner = Runner(options)
    runner.warm_up()
    send({"ready": True})
    if options.setup_only:
        return 0
    for line in sys.stdin:
        message = json.loads(line)
        if message["cmd"] == "op":
            send(runner.run(message["index"]))
        elif message["cmd"] == "rerun":
            send(runner.run(message["index"], suffix="-rerun"))
        elif message["cmd"] == "finish":
            send(runner.finish(dict(os.environ), options.spans))
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())

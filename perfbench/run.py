"""End-to-end and per-layer benchmark of the uwbcap CLI.

    python3 perfbench/run.py --workload sweep-60k --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one caller, one operation in flight):

  sweep-60k   in-process ``uwbcap.cli.main(["sweep", ...])`` of 60k rows
  isi-oracle  in-process ``validate-isi`` with 2000 faded trials
  cli-cold    a fresh ``python -m uwbcap.cli`` per command

Operations are made from ``--seed``.  The run measures operations for
``--seconds`` seconds of operation time (whole cycles, see workloads.py),
checks every output against references computed in checks.py, and prints
a provenance line and then one JSON result line.  With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, whose decomposed replay of each
operation must write the same bytes as the untraced operation.

Set-up (a fresh worker interpreter, the package import and the warm-up
operations, or for cli-cold a fresh ``import uwbcap.cli``) is timed five
times and reported as its median.  Every set-up and operation time is
rescaled to a nominal host speed by a reference kernel timed on each side
of it (hostspeed.py); the raw figures are in the provenance line as
``raw_metrics``.  The program is taken from ``src/`` next to this
directory; without it the run exits with code 2.
"""

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
from workloads import CLI, CYCLE_LEN, ISI, WORKLOADS

perf_counter = time.perf_counter
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the driver allows 180 s per run; stop well before that
DEADLINE_S = 170
TAIL_SAMPLES_ABOVE = 10
# enough operations that the tail percentile lies above the median
MIN_OPS = 2 * TAIL_SAMPLES_ABOVE + 1


class BenchError(Exception):
    """The benchmark itself could not run (not an output check failure)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Worker:
    """A worker process driven one JSON line at a time."""

    def __init__(self, options, env, tmp: Path, setup_only: bool = False):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", options.workload,
               "--seed", str(options.seed), "--trace", str(options.trace),
               "--tmp", str(tmp), "--spans", str(spans_path(options))]
        if options.tiny:
            cmd.append("--tiny")
        if setup_only:
            cmd.append("--setup-only")
        self.log_path = tmp / f"worker-{time.monotonic_ns()}.log"
        self.log = open(self.log_path, "w", encoding="utf-8")
        # its own process group, so closing it also ends a CLI child in flight
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log, env=env, text=True, bufsize=1,
                                     start_new_session=True)

    def send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            with open(self.log_path, encoding="utf-8") as log:
                raise BenchError(f"worker exited: {log.read()[-2000:]}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        self.log.close()


def spans_path(options) -> Path:
    return OUT / f"spans-{options.workload}-seed{options.seed}.jsonl"


def _read(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _remove(*paths) -> None:
    for path in paths:
        Path(path).unlink(missing_ok=True)


def ready_worker(options, env, tmp: Path, setup_only: bool = False) -> Worker:
    """A worker that has imported the package and run its warm-up ops."""
    worker = Worker(options, env, tmp, setup_only)
    try:
        if not worker.receive().get("ready"):
            raise BenchError("worker did not report ready")
    except BaseException:
        worker.close()
        raise
    return worker


def time_setups(options, env, tmp: Path) -> tuple:
    """Set-up times, the host-speed references taken on each side of each
    set-up, and the worker from the last set-up, ready for ops."""
    times, references = [], []
    worker = None
    for k in range(SETUPS):
        last = k == SETUPS - 1
        before = hostspeed.reference()
        start = perf_counter()
        if options.workload == CLI:
            # no timeout: a wait with one polls, rounding the time up
            subprocess.run([sys.executable, "-c", "import uwbcap.cli"], env=env, check=True,
                           stdin=subprocess.DEVNULL)
        else:
            worker = ready_worker(options, env, tmp, setup_only=not last)
        times.append(perf_counter() - start)
        if not last and worker is not None:
            # ended first, so that nothing runs beside the reference
            worker.close()
        references.append([before, hostspeed.reference()])
    if options.workload == CLI:
        worker = ready_worker(options, env, tmp)
    return times, references, worker


def run_ops(options, worker: Worker) -> dict:
    """The measured loop; returns op walls, items and failures."""
    cycle = CYCLE_LEN[options.workload]
    walls, references, classes, items, failures = [], [], [], 0, {}
    start = perf_counter()
    index = 0
    keep = options.workload == ISI  # op 0 is re-run to check reproducibility
    while True:
        for _ in range(cycle):
            worker.send({"cmd": "op", "index": index})
            reply = worker.receive()
            if reply["error"]:
                problems = [reply["error"]]
            else:
                problems = checks.check(reply["op"], reply["rc"], _read(reply["out"]),
                                        _read(reply["err"]))
            if options.trace and not reply.get("replay_identical", False):
                problems.append("traced replay differs from the untraced op")
            if problems:
                failures[index] = problems
            walls.append(reply["wall_s"])
            references.append(reply["reference_s"])
            classes.append(reply["op"]["format"])
            items += reply["op"]["items"]
            if keep and index == 0:
                kept = reply
            else:
                _remove(reply["out"], reply["err"])
            index += 1
        clock = perf_counter() - start if options.trace else sum(walls)
        if clock >= options.seconds and (options.trace or len(walls) >= MIN_OPS):
            break
    if keep:
        worker.send({"cmd": "rerun", "index": 0})
        rerun = worker.receive()
        if rerun["error"] or _read(kept["out"]) != _read(rerun["out"]):
            failures.setdefault(0, []).append("re-run with the same seed differs")
        _remove(kept["out"], kept["err"], rerun["out"], rerun["err"])
    return {"walls": walls, "references": references, "classes": classes, "items": items,
            "failures": failures}


def class_balanced(walls: list, classes: list) -> list:
    """Op times with each class's median divided out and the mean class
    median multiplied back in.

    A sweep to JSON costs about 1.6 times one to CSV, and the formats
    alternate, so the plain median of a run falls in the gap between the two
    classes and swings with their extremes.  On the rescaled times the
    median and the tail sit inside one common distribution.
    """
    medians = {c: statistics.median(w for w, k in zip(walls, classes) if k == c)
               for c in set(classes)}
    scale = statistics.mean(medians.values())
    return [w / medians[c] * scale for w, c in zip(walls, classes)]


def tail(walls: list) -> tuple:
    """The highest percentile leaving >= 10 samples above it: (value, pct)."""
    xs = sorted(walls)
    n = len(xs)
    if n <= TAIL_SAMPLES_ABOVE:
        return xs[-1], 100.0
    return xs[n - TAIL_SAMPLES_ABOVE - 1], 100.0 * (n - TAIL_SAMPLES_ABOVE) / n


def _version(package: str):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(options, setups, ops, rank_pct) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(_read(path))
    return {
        "workload": options.workload,
        "seed": options.seed,
        "seconds": options.seconds,
        "trace": options.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: worker_env()[var] for var in THREAD_VARS},
        "ops": len(ops["walls"]),
        "op_tail_percentile": rank_pct,
        "setup_s": setups,
        "failures": {str(k): v[:3] for k, v in list(ops["failures"].items())[:5]},
    }


def timing_metrics(setups: list, walls: list, classes: list, items: int) -> tuple:
    """setup_s, op_p50_s, op_tail_s and items_per_s, and the tail percentile."""
    balanced = class_balanced(walls, classes)
    tail_s, tail_pct = tail(balanced)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_p50_s": {"value": statistics.median(balanced), "unit": "s"},
        "op_tail_s": {"value": tail_s, "unit": "s"},
        "items_per_s": {"value": items / sum(walls), "unit": "1/s"},
    }
    return metrics, tail_pct


def measure(options, tmp: Path) -> tuple:
    env = worker_env()
    setups, setup_refs, worker = time_setups(options, env, tmp)
    try:
        ops = run_ops(options, worker)
        worker.send({"cmd": "finish"})
        summary = worker.receive()
    finally:
        worker.close()
    walls = ops["walls"]
    # every time at nominal host speed (hostspeed.py); the raw figures go
    # to the provenance line
    scaled_setups = [hostspeed.rescale(t, *refs) for t, refs in zip(setups, setup_refs)]
    scaled_walls = [hostspeed.rescale(w, *refs) for w, refs in zip(walls, ops["references"])]
    timings, tail_pct = timing_metrics(scaled_setups, scaled_walls, ops["classes"], ops["items"])
    raw, _ = timing_metrics(setups, walls, ops["classes"], ops["items"])
    attempted = len(walls)
    failed = len(ops["failures"])
    info = provenance(options, setups, ops, tail_pct)
    references = [r for refs in setup_refs + ops["references"] for r in refs]
    info["host_speed"] = hostspeed.NOMINAL_S / statistics.median(references)
    info["raw_metrics"] = {k: v["value"] for k, v in raw.items()}
    if options.trace:
        info["layer_source"] = {k: v["source"] for k, v in summary["layers"].items()}
        info["self_ms_per_op"] = summary["self_ms_per_op"]
        info["spans"] = str(spans_path(options).relative_to(ROOT))
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in summary["layers"].items()}
    else:
        rss_kb = summary["child_maxrss_kb" if options.workload == CLI else "maxrss_kb"]
        metrics = {
            **timings,
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "fraction"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info, {"op_walls_s": walls, "op_references_s": ops["references"],
                          "setup_references_s": setup_refs}


def _deadline(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small operations, for the benchmark's own smoke test")
    options = parser.parse_args(argv)
    if options.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "uwbcap" / "cli.py").is_file():
        print(f"error: no uwbcap sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    # build: byte-compile the package in place, outside every timed region
    compileall.compile_dir(str(SRC), quiet=1)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"run-{os.getpid()}"
    tmp.mkdir()
    try:
        result, info, series = measure(options, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(tmp, ignore_errors=True)
    record = OUT / f"result-{options.workload}-seed{options.seed}-trace{options.trace}.json"
    record.write_text(json.dumps({"provenance": info, "result": result, **series},
                                 indent=2) + "\n")
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""riskscale benchmark: CLI workloads with end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every run of the program is a fresh ``python3 perfbench/child.py`` process,
started one at a time, so set-up includes the import and the peak RSS
belongs to that run alone. Children import riskscale from ``src/`` of this
checkout; nothing is installed.

One invocation:

1. writes the workload's config (the seed goes into it), starts one untimed
   warm-up child (byte-code cache, page cache) and ``SETUP_PROBES`` set-up
   only children;
2. for a multi-threaded workload, makes one untimed run at
   ``RISKSCALE_THREADS=1``, which must give the same bytes as the timed
   runs; it also warms the page cache for the output file;
3. for ``--seconds`` seconds, runs the workload again and again, untraced,
   starting no run that would end past the window (at least one runs);
4. with ``--trace 1``, makes two traced runs (wrappers from ``tracer.py``);
   their output must match too, and their exact counts must repeat.

Each run's output is checked outside the timed region, once per distinct
SHA-256 digest (equal bytes get an equal verdict). A run with an unexpected
exit status, a traceback on stderr, an output that fails its check or a
digest that differs from the set's counts as failed. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0`` and its ``per_layer`` metrics with ``--trace 1``. The
full record (every run, the digests, the machine) goes to
``.perfbench/results/``.

The workloads and why they were chosen:

* ``sample_lp_1e6`` -- ``sample`` of 1e6 L_2-Dirichlet rows with the
  Gamma-power radius at nproc workers. Most of its time is CSV formatting
  in ``cli``; it has the highest peak RSS; both Gamma branches run
  (shape < 1 and >= 1); tails and KS code never run.
* ``verify_seed42_1w`` -- the 14-check suite at one worker. Mostly the
  1e7-row MGB2 kernel work of ``check_breiman_limit`` (the Gamma kernel,
  two n-row matrices), so a kernel change shows here and a threading
  change does not; the only workload where ``tails``, ``gof``, ``cdfs``,
  ``credibility`` and ``linalg`` run.
  The suite runs at its documented seed 42 whatever ``--seed`` says: on
  other seeds it false-alarms on about a quarter of them (an open defect of
  the suite), which would fail runs for reasons no code change under test
  caused. ``--seed`` changes the inputs of the other two workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracer import SpanSummary, layer_metric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: Set-up only children per invocation, beside the timed ones; setup_s is
#: the median over all of them.
SETUP_PROBES = 3
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: Exact counts that two traced runs of the same workload must repeat.
EXACT_COUNTS = ("rng.map_blocks.blocks", "rng.map_blocks.bytes_out",
                "rng.generator.calls", "samplers.gamma.draws",
                "cli.output_bytes")

NPROC = len(os.sched_getaffinity(0))


# -- workloads -----------------------------------------------------------------

SAMPLE_ALPHAS = (0.5, 1.0, 2.5)
SAMPLE_N = 1_000_000
VERIFY_CHECKS = 14


def check_sample(path: Path) -> str | None:
    """Header, row count, positivity, and E[X_i^2] = 2 alpha_i.

    With radius G^(1/2), G ~ Gamma(sum alpha, 1/2), the Gamma-Dirichlet
    factorization makes X_i^2 ~ Gamma(alpha_i, rate 1/2).
    """
    import numpy as np

    with open(path, "rb") as fh:
        header = fh.readline()
    if header != b"x1,x2,x3\n":
        return f"header {header!r}"
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (SAMPLE_N, len(SAMPLE_ALPHAS)):
        return f"shape {data.shape}"
    if not (np.isfinite(data).all() and (data > 0.0).all()):
        return "non-finite or non-positive values"
    squares = data ** 2
    mean = squares.mean(axis=0)
    se = squares.std(axis=0, ddof=1) / math.sqrt(SAMPLE_N)
    for i, alpha in enumerate(SAMPLE_ALPHAS):
        if abs(mean[i] - 2.0 * alpha) > 5.0 * se[i]:
            return f"mean of x{i + 1}^2 is {mean[i]:.6g}, expected {2 * alpha:g}"
    return None


def check_verify(path: Path) -> str | None:
    """14 lines ``name,statistic,threshold,true``."""
    lines = path.read_text(encoding="ascii").splitlines()
    if len(lines) != VERIFY_CHECKS:
        return f"{len(lines)} report lines"
    for line in lines:
        parts = line.split(",")
        if len(parts) != 4 or not parts[0] or parts[3] != "true":
            return f"line {line!r}"
        try:
            float(parts[1]), float(parts[2])
        except ValueError:
            return f"line {line!r}"
    return None


@dataclass(frozen=True)
class Workload:
    command: str
    config: str          # formatted with the seed
    default_seed: int
    threads: int         # RISKSCALE_THREADS of the timed runs
    check: Callable[[Path], str | None]
    rows: int | None     # config n, for rows_per_s
    blocks: int | None   # map_blocks blocks a traced run must make in total
    fixed_seed: bool = False


WORKLOADS = {
    "sample_lp_1e6": Workload(
        command="sample",
        config=("command = sample\nseed = {seed}\nn = 1000000\n"
                "model.kind = lp_dirichlet\nmodel.alphas = 0.5,1,2.5\n"
                "model.p = 2\nmodel.radial = gamma_power:4,0.5,0.5\n"),
        default_seed=7, threads=NPROC, check=check_sample, rows=SAMPLE_N,
        blocks=31),
    "verify_seed42_1w": Workload(
        command="verify", config="command = verify\nseed = {seed}\n",
        default_seed=42, threads=1, check=check_verify, rows=None, blocks=None,
        fixed_seed=True),
}


# -- children ------------------------------------------------------------------

@dataclass
class Run:
    kind: str                      # warmup, setup, timed, one_worker, traced
    status: int | None = None
    peak_rss_mb: float | None = None
    result: dict = field(default_factory=dict)
    output_bytes: int | None = None
    digest: str | None = None
    failure: str | None = None

    @property
    def setup_s(self) -> float:
        return self.result["import_s"] + self.result["parse_config_s"]

    def record(self) -> dict:
        keys = ("import_s", "parse_config_s", "wall_s", "cpu_s")
        return {"kind": self.kind, "status": self.status,
                "peak_rss_mb": self.peak_rss_mb, "output_bytes": self.output_bytes,
                "digest": self.digest, "failure": self.failure,
                **{k: self.result[k] for k in keys if k in self.result}}


def spawn(argv, env, work: Path, tag: str):
    """Run a child to completion; (exit status, peak RSS in MB, stderr text)."""
    stdout_path, stderr_path = work / f"{tag}.stdout", work / f"{tag}.stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, wait_status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    stderr = stderr_path.read_text(errors="replace")
    return proc.returncode, usage.ru_maxrss / 1024.0, stderr


class Session:
    """The children of one invocation, sharing a config and a work dir."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.config = work / "run.cfg"
        self.config.write_text(workload.config.format(seed=seed), encoding="ascii")
        self.runs: list[Run] = []
        self.verdicts: dict[str, str | None] = {}   # digest -> check failure

    def env(self, threads: int) -> dict:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
            if env.get("PYTHONPATH") else src
        env["RISKSCALE_THREADS"] = str(threads)
        return env

    def child(self, kind: str, threads: int | None = None) -> Run:
        index = len(self.runs)
        run = Run(kind)
        self.runs.append(run)
        out = self.work / f"{index}.out"
        result_path = self.work / f"{index}.json"
        mode = {"warmup": "setup", "setup": "setup", "traced": "trace"}.get(kind, "run")
        argv = [sys.executable, str(CHILD), str(ROOT), self.workload.command,
                str(self.config), str(out), str(result_path), mode]
        status, run.peak_rss_mb, stderr = spawn(
            argv, self.env(threads or self.workload.threads), self.work, str(index))
        run.status = status
        if result_path.exists():
            run.result = json.loads(result_path.read_text())
            result_path.unlink()
        if status != 0:
            run.failure = f"exit status {status}"
        elif "Traceback (most recent call last)" in stderr:
            run.failure = "traceback on stderr"
        elif "status" not in run.result:
            run.failure = "no result from child"
        elif mode != "setup":
            run.output_bytes = out.stat().st_size
            run.digest = hashlib.sha256(out.read_bytes()).hexdigest()
            if run.digest not in self.verdicts:   # equal bytes, equal verdict
                self.verdicts[run.digest] = self.workload.check(out)
            run.failure = self.verdicts[run.digest]
        if out.exists():
            out.unlink()
        return run

    def of(self, kind: str) -> list[Run]:
        return [r for r in self.runs if r.kind == kind and "status" in r.result]


# -- per-layer checks ------------------------------------------------------------

def block_failures(summary, block_rows: int, expected_total: int | None) -> list[str]:
    """Each map_blocks call makes ceil(rows / BLOCK_ROWS) blocks."""
    problems = []
    counts = summary.block_counts()
    for rows, blocks in counts:
        if blocks != -(-rows // block_rows):
            problems.append(f"map_blocks of {rows} rows made {blocks} blocks")
    total = sum(blocks for _, blocks in counts)
    if expected_total is not None and total != expected_total:
        problems.append(f"{total} blocks in total, expected {expected_total}")
    return problems


# -- environment -------------------------------------------------------------------

def environment(workload: Workload) -> dict:
    cpu_model = None
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "riskscale").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "RISKSCALE_THREADS": workload.threads,
        "cpu_model": cpu_model,
        "cpu0_caches": caches,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
    }


# -- main ------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else None


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path, spec: dict) -> dict:
    session = Session(workload, seed, work)
    session.child("warmup")
    for _ in range(SETUP_PROBES):
        session.child("setup")
    if workload.threads != 1:
        session.child("one_worker", threads=1)
    start = time.monotonic()
    while True:
        session.child("timed")
        timed = session.of("timed")
        if not timed:
            break   # the child crashed before timing; retrying will not help
        elapsed = time.monotonic() - start
        if elapsed * (len(timed) + 1) / len(timed) > seconds:
            break   # the next run would likely end past the window
    traced = []
    if trace:
        traced = [session.child("traced"), session.child("traced")]

    timed = session.of("timed")
    reference = next((r.digest for r in timed if r.failure is None), None)
    for run in session.runs:
        if run.digest is not None and run.failure is None and run.digest != reference:
            run.failure = f"output digest {run.digest[:16]} differs from {str(reference)[:16]}"

    walls = [r.result["wall_s"] for r in timed]
    setups = [r.setup_s for r in session.runs
              if r.kind in ("setup", "timed") and "status" in r.result]
    values = {
        "wall_s": _median(walls),
        "cpu_s": _median([r.result["cpu_s"] for r in timed]),
        "peak_rss_mb": _median([r.peak_rss_mb for r in timed]),
        "setup_s": _median(setups),
    }
    if workload.rows is not None and values["wall_s"]:
        values["rows_per_s"] = workload.rows / values["wall_s"]
    names = [m["name"] for m in spec["end_to_end"]]
    report = {"end_to_end": values, "timed_runs": len(timed),
              "setup_samples": len(setups)}

    if trace:
        report.update(layer_report(workload, session, traced, walls, spec))
        names = [m["name"] for m in spec["per_layer"]]
        values = report["per_layer"]

    attempted = len(session.runs)
    failed = sum(1 for r in session.runs if r.failure is not None)
    report["runs"] = [r.record() for r in session.runs]
    report["digest"] = reference
    if any(values.get(name) is None for name in names):
        return {"report": report, "metrics": None, "attempted": attempted,
                "failed": failed}
    return {"report": report, "metrics": {n: values[n] for n in names},
            "attempted": attempted, "failed": failed}


def layer_report(workload: Workload, session: Session, traced: list[Run],
                 untraced_walls: list[float], spec: dict) -> dict:
    done = [r for r in traced if "spans" in r.result]
    if not done or not untraced_walls:
        return {"per_layer": {}}
    summaries = [SpanSummary(r.result["spans"]) for r in done]
    children = [r for r in session.runs if "status" in r.result and r.kind != "warmup"]
    traced_wall = _median([r.result["wall_s"] for r in done])
    extra = {
        "setup.import_s": _median([r.result["import_s"] for r in children]),
        "config.parse_config_s": _median([r.result["parse_config_s"] for r in children]),
        "trace.overhead_s": traced_wall - _median(untraced_walls),
    }

    def metrics(summary, run):
        return {m["name"]: layer_metric(summary, m["name"],
                                        {**extra, "cli.output_bytes": run.output_bytes})
                for m in spec["per_layer"]}

    per_run = [metrics(s, r) for s, r in zip(summaries, done)]
    for summary, run in zip(summaries, done):
        problems = block_failures(summary, run.result["block_rows"], workload.blocks)
        if problems and run.failure is None:
            run.failure = "; ".join(problems)
    if len(per_run) == 2 and done[1].failure is None:
        changed = [n for n in EXACT_COUNTS if per_run[0][n] != per_run[1][n]]
        if changed:
            done[1].failure = f"exact counts differ between traced runs: {changed}"
    largest = summaries[0].largest_self()
    return {"per_layer": per_run[0], "per_layer_repeat": per_run[1:],
            "largest_self_time": {"span": largest[0], "s": largest[1]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the workload's inputs (default: the "
                             "workload's documented seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to repeat the timed runs "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "riskscale" / "__init__.py").is_file():
        print(f"run.py: no riskscale sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if workload.fixed_seed or args.seed is None \
        else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    base = ROOT / ".perfbench"
    work = base / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = measure(workload, seed, seconds, bool(args.trace), work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = outcome["report"]
    report.update({"workload": args.workload, "seed": seed, "trace": args.trace,
                   "seconds": seconds, "attempted": outcome["attempted"],
                   "failed": outcome["failed"],
                   "environment": environment(workload)})
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    result_path = results / f"{args.workload}-seed{seed}-trace{args.trace}-{stamp}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for run in report["runs"]:
        if run["failure"]:
            print(f"run {run['kind']} failed: {run['failure']}")
    print(f"workload {args.workload}, seed {seed}, RISKSCALE_THREADS "
          f"{workload.threads}, {report['timed_runs']} timed runs, "
          f"digest {str(report['digest'])[:16]}; record in {result_path.relative_to(ROOT)}")
    print("environment: " + json.dumps(report["environment"]))
    if args.trace:
        largest = report.get("largest_self_time")
        if largest:
            print(f"largest self time: span {largest['span']}, {largest['s']:.3f} s")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units["rows_per_s"] = "1/s (config n / wall_s; not in BENCHMARK.json)"
        for name, value in report["end_to_end"].items():
            print(f"{name}: {value} {units[name]} (median of the run)")
    if outcome["metrics"] is None:
        print("run.py: no successful run to measure", file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    correct = outcome["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())

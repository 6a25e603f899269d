"""Benchmark of the ``eqspace`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
``src/eqspace`` of that checkout.  One client drives the CLI in a closed
loop: one ``python3 -m eqspace`` process at a time, each under a per-job
timeout and address-space limit, and each output is checked.

``--trace 0`` repeats the workload's job list while whole rounds fit in
``--seconds`` and reports the end-to-end metrics.  Their times are scaled
to one reference speed of the machine, measured by a probe around each job
(see ``probe``).  ``--trace 1`` runs the list once as child processes, once
in-process untraced and once in-process with every public function of the
package wrapped by ``spans.py``, checks that all three give the same bytes,
and reports the per-layer metrics.
``--workload all`` does both for every workload and prints one table.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, Result  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
JOB_TIMEOUT_S = 60.0
# Jobs still running this long after the start are killed and counted as
# timeouts, so a run always ends inside the 180 s a run may take.
RUN_LIMIT_S = 150.0
MEMORY_LIMIT_BYTES = 2 << 30
# Set-up jobs timed before each round, so that the set-up samples spread
# over the whole run.
SETUP_PER_ROUND = 3
KILLED = ("timeout", "oom")
# The speed probe.  On a shared host the speed of a core moves by up to
# 1.7x within seconds, most likely with the clock the host gives it, and
# every job's time moves with it.  A probe runs before every timed job, and
# each job's time is scaled to the speed at which one probe takes
# REF_PROBE_S, using the median m of the PROBE_SPAN probes before and the
# PROBE_SPAN probes after it: by (REF_PROBE_S / m) ** PROBE_EXPONENT.  Jobs
# gain less than the probe from a fast core, as they also wait on memory
# and the kernel: over runs on a 2-vCPU VM their times went as the probe's
# to the power 0.7 to 0.9.
PROBE_STEPS = 4000
PROBE_SPAN = 3
PROBE_EXPONENT = 0.8
REF_PROBE_S = 0.030


@dataclass
class Outcome:
    job: str
    wall_s: float
    error: str | None  # None, or why the job failed: timeout, oom, exit, wrong output
    result: Result
    maxrss_kb: int = 0
    cpu_s: float = 0.0
    ref_s: float = 0.0  # wall_s scaled to the reference speed


class Runner:
    """Runs jobs as child processes of ``spawn.py``, with a timeout and a memory limit."""

    def __init__(self, started: float):
        self.started = started
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        # Its own session, so that the spawner and a job it runs can be
        # killed together.
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.spawner.stdin.close()
        else:
            os.killpg(self.spawner.pid, signal.SIGKILL)
        self.spawner.wait()
        self.spawner.stdout.close()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def run(self, job: Job, cwd: Path) -> Outcome:
        timeout = min(JOB_TIMEOUT_S, self.remaining())
        if timeout <= 0:
            return Outcome(job.name, 0.0, "timeout", Result(-1, b""))
        _remove_outputs(job, cwd)
        request = {
            "argv": [sys.executable, "-m", "eqspace", *job.argv],
            "cwd": str(cwd),
            "stdout": str(cwd / ".stdout"),
            "stderr": str(cwd / ".stderr"),
            "timeout": timeout,
            "memory": MEMORY_LIMIT_BYTES,
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        stderr = (cwd / ".stderr").read_bytes()
        result = Result(reply["rc"], (cwd / ".stdout").read_bytes(), _read_outputs(job, cwd))
        if reply["timed_out"]:
            error = "timeout"
        elif b"MemoryError" in stderr or reply["rc"] == -signal.SIGKILL:
            error = "oom"
        else:
            error = job.check(result, cwd)
        return Outcome(job.name, reply["wall_s"], error, result, reply["maxrss_kb"], reply["cpu_s"])


def _remove_outputs(job: Job, cwd: Path) -> None:
    for name in job.outputs:
        (cwd / name).unlink(missing_ok=True)


def _read_outputs(job: Job, cwd: Path) -> dict[str, bytes]:
    return {n: (cwd / n).read_bytes() for n in job.outputs if (cwd / n).exists()}


def run_inprocess(main, job: Job, cwd: Path) -> Outcome:
    """Call ``eqspace.cli.main`` for one job inside this process."""
    _remove_outputs(job, cwd)
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(list(job.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except MemoryError:
                rc = -9
            except Exception as exc:  # a crash of the program under test is a failed job
                err.write(f"{type(exc).__name__}: {exc}\n")
                rc = 1
        wall = time.perf_counter() - t0
    finally:
        os.chdir(here)
    result = Result(rc, out.getvalue().encode("utf-8"), _read_outputs(job, cwd))
    error = "oom" if rc == -9 else job.check(result, cwd)
    return Outcome(job.name, wall, error, result)


def run_round(run_one, jobs: list[Job], cwd: Path) -> list[Outcome]:
    cwd.mkdir(exist_ok=True)
    return [run_one(job, cwd) for job in jobs]


def probe() -> float:
    """Seconds that a fixed loop of stdlib ``Fraction`` arithmetic takes now.

    It runs in the benchmark process, which never imports the program under
    test, so no change to the program can change it.
    """
    t0 = time.perf_counter()
    x = Fraction(0)
    for i in range(1, PROBE_STEPS):
        x += Fraction(i % 17, 1 + i % 13) * Fraction(3, 7)
    return time.perf_counter() - t0


def scale_to_reference(sequence: list[Outcome], probes: list[float]) -> None:
    """Fill in ``ref_s`` of each timed job.

    ``probes[i]`` was taken just before ``sequence[i]`` ran, and one more
    after the last job.  The median of the probes around a job is the speed
    of the machine while it ran, with the jitter of single probes damped.
    """
    for i, o in enumerate(sequence):
        near = probes[max(0, i - PROBE_SPAN + 1):i + PROBE_SPAN + 1]
        o.ref_s = o.wall_s * (REF_PROBE_S / statistics.median(near)) ** PROBE_EXPONENT


def hd_median(values) -> float:
    """The Harrell-Davis estimate of the median: a Beta-weighted mean of the order statistics.

    Job times form clusters, one per job, and the plain median of a pool of
    them jumps between clusters from run to run; this estimate moves smoothly.
    The Beta((n+1)/2, (n+1)/2) weight of each order statistic is integrated
    by the midpoint rule, relative to the density's peak at 1/2.
    """
    x = sorted(values)
    n = len(x)
    a = (n + 1) / 2
    steps = 20
    weights = [
        sum(math.exp((a - 1) * (math.log(4 * t) + math.log1p(-t)))
            for t in ((i + (k + 0.5) / steps) / n for k in range(steps)))
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def setup_job(indir: Path) -> Job:
    """The minimal CLI job behind ``setup_s``: start, import, read one small file, write one."""
    cells = gen.qcomm_matrix(gen.q_draw(random.Random(0)), 2)
    src = workloads.write_input(indir, "setup.json", gen.space_json(2, {2: cells}))
    expected = workloads.dual_structure({2: workloads.sparse(cells)})
    return Job("setup", ["dual", src, "--out", "setup_dual.json"],
               workloads.check_space("setup_dual.json", 2, lambda: expected),
               ("setup_dual.json",))


def measure(runner: Runner, workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, list[Outcome]]:
    """End-to-end metrics, tracing off; times at the reference speed."""
    indir = work / "in"
    jobs = workloads.build(workload, seed, indir)
    plain = work / "plain"
    setup = setup_job(indir)
    outcomes = run_round(runner.run, [setup], plain)  # warms up, not timed
    sequence: list[Outcome] = []  # every timed job, in the order they ran
    probes: list[float] = []

    def timed(job: Job) -> Outcome:
        probes.append(probe())
        sequence.append(runner.run(job, plain))
        return sequence[-1]

    setups: list[Outcome] = []
    rounds: list[list[Outcome]] = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        setups += [timed(setup) for _ in range(SETUP_PER_ROUND)]
        rounds.append([timed(job) for job in jobs])
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    probes.append(probe())
    scale_to_reference(sequence, probes)
    done = [o for r in rounds for o in r]
    outcomes += setups + done
    # Each job's median over rounds: one slow round on a shared machine moves
    # their sum less than it moves the round totals.
    job_medians = [statistics.median(o.ref_s for o in per_job) for per_job in zip(*rounds)]
    metrics = {
        "setup_s": hd_median(o.ref_s for o in setups),
        "wall_s": sum(job_medians),
        "job_p50_s": hd_median(o.ref_s for o in done),
        "peak_rss_mb": max(o.maxrss_kb for o in done) / 1024,
        "job_ok_ratio": sum(o.error is None for o in done) / len(done),
    }
    unscaled = sum(statistics.median(o.wall_s for o in per_job) for per_job in zip(*rounds))
    print(f"# {len(jobs)} jobs x {len(rounds)} rounds; probe median {statistics.median(probes):.6f} s "
          f"(reference {REF_PROBE_S} s); unscaled wall_s {unscaled:.6f} s, "
          f"setup_s {statistics.median(o.wall_s for o in setups):.6f} s")
    return metrics, outcomes


def _import_eqspace():
    sys.path.insert(0, str(SRC))
    import eqspace.cli

    if Path(eqspace.cli.__file__).resolve().parent != (SRC / "eqspace").resolve():
        raise SystemExit(f"error: imported eqspace from {eqspace.cli.__file__}, not from {SRC}")
    return eqspace.cli


def traced(runner: Runner, workload: str, seed: int, work: Path) -> tuple[dict, list[Outcome]]:
    """Per-layer metrics from one in-process traced round of the job list."""
    jobs = workloads.build(workload, seed, work / "in")
    plain = run_round(runner.run, jobs, work / "plain")
    cli = _import_eqspace()
    rec = spans.Recorder()

    def in_process(cwd: Path, recorder: spans.Recorder | None = None) -> list[Outcome]:
        # In-process jobs cannot be killed, so a job that was killed as a
        # child, or that may not finish inside the run limit, is not started.
        cwd.mkdir()
        out = []
        for job, ref in zip(jobs, plain):
            if ref.error in KILLED or runner.remaining() < 2 * ref.wall_s:
                out.append(Outcome(job.name, 0.0, ref.error if ref.error in KILLED else "timeout",
                                   Result(-1, b"")))
                continue
            if recorder:
                recorder.start_job(job.name)
            o = run_inprocess(cli.main, job, cwd)
            if o.error is None and (o.result.stdout, o.result.files) != (ref.result.stdout, ref.result.files):
                o.error = "output bytes differ from the child-process run"
            out.append(o)
        return out

    untraced = in_process(work / "inproc")
    spans.install(rec)
    with_trace = in_process(work / "traced", rec)
    traced_wall = sum(o.wall_s for o in with_trace)
    metrics = spans.per_layer(rec.spans, traced_wall)
    metrics["cli.cpu_s"] = sum(o.cpu_s for o in plain)
    metrics["trace.overhead_ratio"] = traced_wall / sum(o.wall_s for o in untraced)
    return metrics, plain + untraced + with_trace


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith("bytes_out"):
        return "B"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, with_trace: bool) -> tuple[dict, list[Outcome]]:
    work = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        with Runner(time.perf_counter()) as runner:
            if with_trace:
                return traced(runner, workload, seed, work)
            return measure(runner, workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report_lines(title: str, metrics: dict, outcomes: list[Outcome]) -> list[str]:
    failed = [o for o in outcomes if o.error is not None]
    lines = [f"# {title}: {len(outcomes)} jobs attempted, {len(failed)} failed, "
             f"fail_ratio {len(failed) / len(outcomes):.4f}"]
    lines += [f"  FAILED {o.job}: {o.error}" for o in failed[:20]]
    lines += [f"  {name:45s} {value:>16.6f} {unit_of(name)}" for name, value in metrics.items()]
    return lines


def summary(metrics: dict, outcomes: list[Outcome]) -> dict:
    failed = sum(o.error is not None for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eqspace" / "cli.py").is_file():
        sys.stderr.write(f"error: no eqspace source at {SRC}; run from a source checkout\n")
        return 2
    if args.workload != "all":
        metrics, outcomes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        title = f"{args.workload} ({'per-layer, traced' if args.trace else 'end-to-end'})"
        print("\n".join(report_lines(title, metrics, outcomes)))
        print(json.dumps(summary(metrics, outcomes)), flush=True)
        return 0
    # Each part runs in a fresh process: tracing patches the package in place.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for flag in ("0", "1"):
            part = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", flag],
                capture_output=True, text=True, check=True,
            )
            *table, last = part.stdout.splitlines()
            print("\n".join(table), flush=True)
            result = json.loads(last)
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())

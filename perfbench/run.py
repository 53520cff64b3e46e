#!/usr/bin/env python3
"""Benchmark for lmmt: exact answers, timed end to end through the CLI and checked.

    python3 perfbench/run.py --workload betti-ladder --seed 1 --seconds 25 --trace 0

One run is one process and one workload.  Set-up (import ``lmmt``, then make
and validate the workload's inputs) is repeated SETUP_REPS times and reported
as a median.  Then the workload's job list is run through ``lmmt.cli.main``
in-process, one job after another, pass after pass, until the next pass would
end after ``--seconds``; each job's exit code and JSON output is checked.
Times are scaled to a reference machine speed sampled before and during
each timed interval (``SpeedProbe``); the unscaled times are kept in the
result file.  Memory is the peak number of live interpreter blocks a job adds
(``BlockPeak``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced passes and half on passes with the span wrappers of
``spans.py`` installed, and prints the per-layer metrics.  The last line of
stdout is the JSON result; every run also writes it, with an environment
stamp and every pass's job times, under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
RESULTS = BENCH / "results"

WORKLOADS = ("betti-ladder", "verify-paper", "quadratic-field", "diag-ext")
FIXED = WORKLOADS[:3]  # job lists and reference outputs in expected/

SETUP_REPS = 9
MIN_PASSES = 2

# Per-layer metrics that must be nonzero in a traced run of each workload: an
# entry point that is moved or no longer called fails the run instead of
# reading as a silent zero.
TRACE_EXPECT = {
    "betti-ladder": ("linalg.elim_calls", "cohomology.build_calls",
                     "liealg.lie_L_calls", "exterior.wedge_calls"),
    "verify-paper": ("linalg.span_calls", "liealg.structural_report_calls",
                     "exterior.contract_calls", "spectral.invariant_cohomology_calls",
                     "spectral.split_s", "multimoment.solve_s", "forms.stabilizer_s",
                     *(f"claims.{c}_s" for c in spans.CLAIM_IDS)),
    "quadratic-field": ("linalg.elim_calls", "cohomology.build_calls", "forms.stabilizer_s"),
    "diag-ext": ("linalg.elim_calls", "cohomology.build_calls",
                 "liealg.lie_L_calls", "exterior.wedge_calls"),
}

# diag-ext: DIAG_BATCH algebras R x_lambda R^DIAG_M per pass.  Eigenvalues
# come from a small set so that many subsets sum to zero (rich Betti tables)
# and every algebra costs about the same to build.
DIAG_M = 10
DIAG_BATCH = 6
DIAG_EIGENVALUES = ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2")


@dataclass
class Job:
    label: str
    argv: List[str]
    check: Callable[[int, Optional[dict]], bool]


# -- inputs -------------------------------------------------------------------


def load_reference(workload: str) -> dict:
    with open(EXPECTED / f"{workload}.json") as fh:
        ref = json.load(fh)
    if workload == "verify-paper":
        ids = [c["id"] for job in ref["jobs"] for c in job["payload"]["claims"]]
        if len(set(ids)) != 12 or not all(job["payload"]["passed"] for job in ref["jobs"]):
            raise ValueError("verify-paper reference must pass all 12 claims")
    return ref


def diag_eigenvalues(seed: int) -> List[List[str]]:
    rng = random.Random(seed)
    return [[rng.choice(DIAG_EIGENVALUES) for _ in range(DIAG_M)] for _ in range(DIAG_BATCH)]


def diag_salamon(lams: List[str]) -> str:
    """R x_lambda R^m, generator e_1 first: de^i = lambda_i e^1 ^ e^i."""
    return "0," + ",".join(f"{lam}.[1,{i}]" for i, lam in enumerate(lams, start=2))


def diag_betti(lams: List[str]) -> List[int]:
    """Closed form b_k = N_k + N_{k-1}, N_j = #{J : |J| = j, sum_J lambda = 0}.

    d(e^J) = -(sum_J lambda) e^1 ^ e^J and d(e^1 ^ e^J) = 0, so e^J is a
    cocycle iff its sum vanishes and e^1 ^ e^J is exact iff it does not.
    Plain fractions only; this oracle does not use lmmt."""
    vals = [Fraction(x) for x in lams]
    m = len(vals)
    n_zero = [0] * (m + 2)
    for mask in range(1 << m):
        if sum(v for i, v in enumerate(vals) if mask >> i & 1) == 0:
            n_zero[bin(mask).count("1")] += 1
    return [n_zero[k] + (n_zero[k - 1] if k else 0) for k in range(m + 2)]


def job_inputs(workload: str, seed: int, refs: Optional[dict]) -> List[Tuple[str, List[str]]]:
    if workload == "diag-ext":
        return [(f"diag-{i}", ["--json", "betti", diag_salamon(lams)])
                for i, lams in enumerate(diag_eigenvalues(seed))]
    return [(job["label"], job["argv"]) for job in refs["jobs"]]


def validate_input(argv: List[str]) -> None:
    """Load a job's algebra or form with lmmt, as the CLI will (Salamon
    parsing with its Jacobi check, JSON algebra loading, builtin forms)."""
    liealg = importlib.import_module("lmmt.liealg")
    cmd = argv[1]
    if cmd == "betti":
        src = argv[2]
        if src.startswith("builtin:"):
            liealg.builtin(src.split(":", 1)[1])
        elif src.lstrip().startswith("{"):
            liealg.LieAlgebra.from_json(json.loads(src))
        else:
            liealg.parse_salamon(src)
    elif cmd == "stable":
        importlib.import_module("lmmt.forms").builtin_form(argv[argv.index("--form") + 1])
    elif cmd == "verify-paper":
        wanted = argv[argv.index("--filter") + 1]
        if wanted not in {c.id for c in importlib.import_module("lmmt.claims").CLAIMS}:
            raise ValueError(f"no claim {wanted!r}")
    else:
        raise ValueError(f"no input validation for command {cmd!r}")


def setup_once(workload: str, seed: int, refs: Optional[dict]):
    """Fresh import of lmmt plus input generation and validation."""
    for name in [m for m in sys.modules if m == "lmmt" or m.startswith("lmmt.")]:
        del sys.modules[name]
    cli = importlib.import_module("lmmt.cli")
    inputs = job_inputs(workload, seed, refs)
    for _, argv in inputs:
        validate_input(argv)
    return cli, inputs


def make_jobs(workload: str, seed: int, inputs, refs: Optional[dict]) -> List[Job]:
    if workload == "diag-ext":
        jobs = []
        for (label, argv), lams in zip(inputs, diag_eigenvalues(seed)):
            want = diag_betti(lams)
            jobs.append(Job(label, argv, lambda rc, out, want=want: (
                rc == 0 and isinstance(out, dict) and out.get("dim") == DIAG_M + 1
                and out.get("betti") == want)))
        return jobs
    return [Job(job["label"], job["argv"],
                lambda rc, out, job=job: rc == job["exit_code"] and out == job["payload"])
            for job in refs["jobs"]]


# -- machine speed ------------------------------------------------------------

PROBE_PERIOD = 0.25  # seconds between speed samples
PROBE_REF = 0.010  # probe_kernel seconds at the reference speed

_PROBE_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 4 + 1) for j in range(14)]
                 for i in range(12)]


def probe_kernel() -> None:
    """Exact Gauss-Jordan elimination of a fixed 12 x 14 rational matrix,
    twice, in plain Python: the kind of work lmmt's core does, without lmmt."""
    for _ in range(2):
        rows = [{j: v for j, v in enumerate(r) if v} for r in _PROBE_MATRIX]
        done: List[dict] = []
        for col in range(14):
            candidates = [r for r in rows if col in r]
            if not candidates:
                continue
            piv = min(candidates, key=len)
            rows.remove(piv)
            inv = 1 / piv[col]
            piv = {j: v * inv for j, v in piv.items()}
            for r in rows + done:
                x = r.get(col)
                if x is not None:
                    for j, v in piv.items():
                        nv = r.get(j, Fraction(0)) - x * v
                        if nv:
                            r[j] = nv
                        else:
                            r.pop(j, None)
            rows = [r for r in rows if r]
            done.append(piv)


@dataclass
class Timing:
    elapsed: float  # wall seconds, probe samples included
    probe: float  # seconds of probe samples taken inside
    scaled: float  # (elapsed - probe) at the reference speed

    @property
    def raw(self) -> float:
        return self.elapsed - self.probe


class SpeedProbe:
    """Samples the machine's speed while intervals are timed.

    The shared host these runs were tuned on changes speed by up to 2x from
    one 10-second stretch to the next, with CPU time tracking wall time, so
    raw medians of 10 runs spread by 20-40%.  ``timed`` times probe_kernel
    just before the call and, while ``periodic`` is set, every PROBE_PERIOD
    seconds during it from a SIGALRM handler; the interval is scaled by
    PROBE_REF over the mean kernel time of those samples, with the samples'
    own time excluded.  The timer is armed only inside ``timed``, and the
    garbage collector is off while a sample runs, so no collection of lmmt's
    heap is charged to the probe.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self.periodic = True

    def _sample(self, *_signal) -> None:
        collecting = gc.isenabled()
        gc.disable()
        # BlockPeak must not count the kernel's own objects
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            t0 = time.perf_counter()
            probe_kernel()
            dt = time.perf_counter() - t0
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})
            if collecting:
                gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn: Callable, *args):
        """(fn(*args), Timing of the call), scaled by the samples taken just
        before and during the call."""
        self._sample()
        n0, spent0 = len(self.samples) - 1, self.spent
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        probe = self.spent - spent0
        scale = PROBE_REF / statistics.fmean(self.samples[n0:])
        return result, Timing(elapsed, probe, (elapsed - probe) * scale)


# -- memory -------------------------------------------------------------------

BLOCK_PERIOD = 0.001  # CPU seconds between samples of the live block count


class BlockPeak:
    """Peak number of live interpreter blocks during a call, over the number
    at its start.

    A block holds one object of up to 512 bytes: the Fractions, ints, small
    dicts and tuples that exact linear algebra is made of.  The process's
    peak RSS is the wrong figure here: the interpreter and the harness hold
    about 28 MB of it, lmmt's jobs add under 1 MB, and it grows in 128 KB
    steps.  tracemalloc gives bytes but makes the jobs 3x slower.  So a
    SIGPROF handler reads ``sys.getallocatedblocks()`` every BLOCK_PERIOD
    seconds of CPU time, and once more when the call returns.  The kernel
    delivers SIGPROF no faster than its tick (250 per CPU second on the
    host this was tuned on), so a job's figure can fall short of its true
    peak by a few percent; the run reports the largest figure of any pass.
    """

    def __init__(self) -> None:
        self.peak = 0

    def _sample(self, *_signal) -> None:
        blocks = sys.getallocatedblocks()
        if blocks > self.peak:
            self.peak = blocks

    def __enter__(self) -> "BlockPeak":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def measure(self, fn: Callable, *args):
        """(fn(*args), peak blocks over the count at the call's start)."""
        start = self.peak = sys.getallocatedblocks()
        signal.setitimer(signal.ITIMER_PROF, BLOCK_PERIOD, BLOCK_PERIOD)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self._sample()
        return result, self.peak - start


# -- running ------------------------------------------------------------------


def run_job(cli, argv: List[str]) -> Tuple[Optional[int], str, str]:
    """(exit code or None if it raised, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # one broken job must not stop the run; it counts as failed
        traceback.print_exc()
        rc = None
    return rc, out.getvalue(), err.getvalue()


def parse_payload(text: str) -> Optional[dict]:
    try:
        return json.loads(text)
    except ValueError:
        return None


@dataclass
class PassResult:
    timings: List[Timing]
    blocks: List[int]  # per job, from BlockPeak
    failed: int
    layer: Optional[Dict[str, float]] = None

    @property
    def wall(self) -> float:
        return sum(t.scaled for t in self.timings)


def run_pass(cli, jobs: List[Job], probe: SpeedProbe, memory: BlockPeak) -> PassResult:
    timings, blocks, failed = [], [], 0
    for job in jobs:
        # every job starts from a collected heap, as in a fresh process, so
        # garbage left by the previous job neither costs it time nor hides
        # part of its peak when it is collected mid-job
        gc.collect()
        ((rc, out, err), added), timing = probe.timed(memory.measure, run_job, cli, job.argv)
        timings.append(timing)
        blocks.append(added)
        if rc is None or not job.check(rc, parse_payload(out)):
            failed += 1
            print(f"FAIL {job.label}: exit {rc}\n{err}{out[:2000]}", file=sys.stderr)
    return PassResult(timings, blocks, failed)


def run_passes(cli, jobs: List[Job], probe: SpeedProbe, memory: BlockPeak, seconds: float,
               min_passes: int, tracer=None) -> List[PassResult]:
    """Passes until the next one would end after `seconds` (at least min_passes)."""
    passes: List[PassResult] = []
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        probe.periodic = tracer is None  # no probe samples inside traced spans
        result = run_pass(cli, jobs, probe, memory)
        probe.periodic = True
        if tracer is not None:
            elapsed = sum(t.elapsed for t in result.timings)
            result.layer = tracer.layer_metrics(int(elapsed * 1e9))
        passes.append(result)
        now = time.perf_counter()
        if len(passes) >= min_passes and (now - t0) + (now - start) > seconds:
            return passes


# -- environment --------------------------------------------------------------


def git_sha() -> Optional[str]:
    """HEAD of the repository whose root is ROOT, or None (e.g. an export)."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    """sha256 over src/lmmt/*.py, identifying the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lmmt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def declared_metrics(trace: bool) -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# -- main ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lmmt" / "__init__.py").is_file():
        print(f"error: no lmmt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    units = declared_metrics(bool(args.trace))
    refs = load_reference(args.workload) if args.workload in FIXED else None

    with SpeedProbe() as probe, BlockPeak() as memory:
        setups = [probe.timed(setup_once, args.workload, args.seed, refs)
                  for _ in range(1 if args.trace else SETUP_REPS)]
        (cli, inputs), _ = setups[-1]
        if Path(cli.__file__).resolve().parent != SRC / "lmmt":
            print(f"error: imported lmmt from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        jobs = make_jobs(args.workload, args.seed, inputs, refs)
        if args.trace:
            plain = run_passes(cli, jobs, probe, memory, args.seconds / 2, 1)
            tracer = spans.Tracer()
            originals = spans.install(tracer)
            traced = run_passes(cli, jobs, probe, memory, args.seconds / 2, 1, tracer)
            spans.check_bindings(originals)
            passes = plain + traced
        else:
            passes = run_passes(cli, jobs, probe, memory, args.seconds, MIN_PASSES)

    if args.trace:
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        values = spans.median_metrics([p.layer for p in traced])
        values["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced)
            / statistics.median(p.wall for p in plain) - 1)
        silent = [m for m in TRACE_EXPECT[args.workload] if not values[m]]
        if silent:
            print(f"error: traced entry points never ran: {silent}", file=sys.stderr)
            return 1
    else:
        values = {
            "wall_s": statistics.median(p.wall for p in passes),
            "max_job_s": max(statistics.median(p.timings[j].scaled for p in passes)
                             for j in range(len(jobs))),
            # sampling can miss a job's peak but not overshoot it
            "peak_blocks": max(max(p.blocks) for p in passes),
            "setup_s": statistics.median(t.scaled for _, t in setups),
        }
    raw_wall = statistics.median(sum(t.raw for t in p.timings)
                                 for p in (plain if args.trace else passes))
    detail = {
        "passes_scaled": [[t.scaled for t in p.timings] for p in passes],
        "passes_raw": [[t.raw for t in p.timings] for p in passes],
        "passes_blocks": [p.blocks for p in passes],
        "traced_passes": len(traced) if args.trace else 0,
        "setup_reps_scaled": [t.scaled for _, t in setups],
        "setup_reps_raw": [t.raw for _, t in setups],
        "probe_samples": {"count": len(probe.samples), "median_s": statistics.median(probe.samples),
                          "min_s": min(probe.samples), "max_s": max(probe.samples)},
    }

    if set(values) != set(units):
        print(f"error: metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    attempted = sum(len(p.timings) for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "jobs": [j.label for j in jobs], "fail_frac": failed / attempted,
              **detail, **result}
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} x {len(jobs)} jobs")
    print("env " + json.dumps(env))
    print(f"{'fail_frac':<36} {failed / attempted:.4f} ({failed}/{attempted})")
    print(f"{'unscaled wall (median pass)':<36} {raw_wall:.6g} s; probe kernel median "
          f"{detail['probe_samples']['median_s']:.6g} s (reference {PROBE_REF} s)")
    for name, unit in units.items():
        print(f"{name:<36} {values[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

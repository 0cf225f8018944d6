"""nlie benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload complex --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the harness works from the repo root
and imports the package from ``src/``.  One process, one client, closed
loop: each job is one in-process call of ``nlie.cli.main(argv)`` (stdout
captured) or one library call, and the next job starts when it returns.

``--trace 0`` runs the workload's job list once, then spends the rest of
``--seconds`` timing fresh-interpreter set-up, and prints the end-to-end
metrics.  ``--trace 1`` runs the job list untraced, then traced in a fresh
interpreter (``traced_pass.py``), checks that every job printed the same
stdout and exit code both times and that every wrapped function was
restored, and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from reference import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = "perfbench/work"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = (15, 60)  # fewest and most timed set-up runs

# The host this was tuned on changes speed by 20-50% over seconds to
# minutes (README.md, "Noise"), and a run cannot average that out.  So the
# reference (reference.py) is timed every SAMPLE_S seconds of the pass, and
# every job time is reported at reference speed: the time measured, times
# REF_S, times the mean of 1 / reference time over the samples within
# WINDOW_S of the job.  A set-up probe runs the reference itself, right
# after its work; its first PROBE_WARMUP runs warm the fresh interpreter
# and are not used for the scale.
REF_S = 0.0013  # reference time at the speed reported, in seconds
SAMPLE_S = 0.1
WINDOW_S = 1.0
PROBE_WARMUP = 3


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu}


class Speed:
    """Reference samples (when, seconds) taken during one phase of a run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0  # seconds spent sampling, taken out of job times

    def sample(self, *_signal) -> None:
        t0 = perf_counter()
        self.samples.append((t0, reference()))
        self.spent += perf_counter() - t0

    @contextlib.contextmanager
    def periodic(self):
        """Sample every SAMPLE_S seconds, from a SIGALRM handler, which runs
        between bytecodes of whatever job is running."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured between ``start`` and ``end``, at reference
        speed."""
        near = [ref for t, ref in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S]
        return seconds * REF_S * statistics.mean(1 / ref for ref in near)


def run_job(cli, job, outcome_cls, speed):
    out, err = io.StringIO(), io.StringIO()
    code, value, error = None, None, None
    spent = speed.spent
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv is not None:
                code = cli.main(job.argv)
            else:
                value = job.call()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaped exception fails the job
        error = f"uncaught {type(exc).__name__}: {str(exc)[:100]}"
    end = perf_counter()
    seconds = end - t0 - (speed.spent - spent)
    return outcome_cls(code, out.getvalue(), value, error, seconds, t0, end)


def run_pass(jobs, outcome_cls, speed, tracer=None):
    """Run the job list once, sampling the reference throughout into
    ``speed``; return the outcomes by job name, each with its time as
    measured and at reference speed.

    Every job starts on a collected heap, as a fresh CLI process would, so
    that no job pays for the garbage of the one before it."""
    import nlie.cli as cli

    outcomes = {}
    with speed.periodic():
        for job in jobs:
            gc.collect()
            if tracer is not None:
                tracer.start_job(job.name)
            outcome = run_job(cli, job, outcome_cls, speed)
            outcomes[job.name] = outcome
            if job.pipe_to is not None:
                with open(job.pipe_to, "w") as fh:
                    fh.write(outcome.out)
        speed.sample()
    for o in outcomes.values():
        o.scaled = speed.scale(o.seconds, o.start, o.end)
    return outcomes


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def judge(workload, jobs, outcomes, digests):
    """Outcome check of every job: (job, reason) for each failure."""
    recorded = digests.get(workload, {})
    failures = []
    for job in jobs:
        outcome = outcomes[job.name]
        reason = job.check(outcome, outcomes)
        if reason is None and job.catalog:
            if recorded.get(job.name) != digest(outcome.out):
                reason = "stdout differs from the recorded digest"
        if reason is not None:
            failures.append((job, reason))
    return failures


def time_setup(manifest: str, deadline: float):
    """Fresh-interpreter set-up times, one untimed warm-up first: for each
    timed sample (seconds at reference speed, seconds as measured), and the
    set of exit codes the probe returned.  The probe's own reference runs
    are taken out of its time.  A probe that fails prints no reference
    times, and its time is used as measured.

    The wait for the probe blocks: a wait with a timeout polls, which would
    round every time up to a 50 ms step.  A timer kills a probe that
    hangs."""
    argv = [sys.executable, "perfbench/setup_probe.py", manifest]
    samples: list[tuple[float, float]] = []
    codes: set = set()
    for i in range(SETUP_SAMPLES[1] + 1):
        if i > SETUP_SAMPLES[0] and perf_counter() >= deadline:
            break
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        guard = threading.Timer(120, proc.kill)
        guard.start()
        out, _ = proc.communicate()
        seconds = perf_counter() - t0
        guard.cancel()
        codes.add(proc.returncode)
        refs = json.loads(out) if proc.returncode == 0 else []
        if i > 0:
            clock = seconds - sum(refs)
            steady = refs[PROBE_WARMUP:]
            samples.append((clock * REF_S * statistics.mean(
                1 / ref for ref in steady) if steady else clock, clock))
    return samples, codes


def traced_pass(workload: str, seed: int, workdir: str) -> dict:
    """Run ``traced_pass.py`` in a fresh interpreter; return its result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/traced_pass.py", workload, str(seed),
         workdir], capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"traced pass exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def emit(rows, result) -> None:
    for name, val, unit, note in rows:
        print(f"  {name:<52} {val:>14.6g} {unit:<6} {note}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="write the catalog jobs' stdout digests of this "
                             "workload to digests.json instead of checking "
                             "them; only after an intended output change")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nlie" / "cli.py").is_file():
        print(f"error: no nlie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not DIGESTS.is_file():
        print(f"error: missing {DIGESTS}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import jobs as jobmod

    if args.workload not in jobmod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(jobmod.WORKLOADS)}", file=sys.stderr)
        return 2

    run_started = perf_counter()
    workdir = f"{WORK}/{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    built = jobmod.build(args.workload, args.seed, workdir)
    jobs = built.jobs
    env = environment(args.seed)
    print(f"nlie bench: workload {args.workload}, seed {env['seed']}, "
          f"python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"{len(jobs)} jobs, trace {args.trace}")

    outcomes = run_pass(jobs, jobmod.Outcome, Speed())
    wall = sum(o.scaled for o in outcomes.values())
    clock = sum(o.seconds for o in outcomes.values())
    digests = json.loads(DIGESTS.read_text())
    if args.record_digests:
        digests[args.workload] = {job.name: digest(outcomes[job.name].out)
                                  for job in jobs if job.catalog}
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True)
                           + "\n")
    failures = judge(args.workload, jobs, outcomes, digests)
    record = {"environment": env, "workload": args.workload,
              "trace": args.trace, "jobs": {
                  name: {"exit": o.code, "seconds": o.seconds,
                         "scaled_s": o.scaled, "error": o.error,
                         "stdout_sha256": digest(o.out)}
                  for name, o in outcomes.items()}}

    problems: list[str] = []  # harness self-test and set-up failures
    if args.trace:
        traced = traced_pass(args.workload, args.seed, workdir)
        problems = traced["not_restored"]
        problems += [f"{job.name}: traced stdout or exit differs"
                     for job in jobs
                     if traced["jobs"][job.name]
                     != [outcomes[job.name].code,
                         record["jobs"][job.name]["stdout_sha256"]]]
        layer = {name: tuple(pair) for name, pair in traced["layer"].items()}
        layer["trace.overhead_ratio"] = (traced["wall"] / wall, "ratio")
        wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": layer[m["name"]][0],
                               "unit": layer[m["name"]][1]} for m in wanted}
        rows = [(name, val, unit, "") for name, (val, unit) in layer.items()]
    else:
        # A document piped by a failed producer may not parse; leave it
        # out, so that the probe times only documents a CLI call would read.
        broken = {job.pipe_to for job, _ in failures}
        manifest = f"{workdir}/manifest.json"
        with open(manifest, "w") as fh:
            json.dump([d for d in built.docs if d[1] not in broken], fh)
        samples, codes = time_setup(manifest, run_started + args.seconds)
        problems += [f"set-up probe exited {code}" for code in codes if code]
        kinds: dict[str, list] = {}
        for job in jobs:
            kinds.setdefault(job.kind, []).append(outcomes[job.name].scaled)

        median = statistics.median
        slowest = max(kinds, key=lambda k: median(kinds[k]))
        heavy, typical = kinds[slowest], kinds["typical"]
        everything = [o.scaled for o in outcomes.values()]
        setup = median(scaled for scaled, _ in samples)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "job_p50_s": {"value": median(typical), "unit": "s"},
            "job_max_s": {"value": median(heavy), "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        rows = [
            ("wall_s", wall, "s", f"one pass of {len(jobs)} jobs"),
            ("job_p50_s", median(typical), "s",
             f"median of {len(typical)} typical jobs"),
            ("all_jobs_p50_s", median(everything), "s",
             f"median of all {len(jobs)} jobs"),
            ("job_max_s", median(heavy), "s",
             f"{slowest}, median of {len(heavy)}"),
            ("setup_s", setup, "s",
             f"median of {len(samples)} fresh interpreters"),
            ("peak_rss_mb", rss_mb, "MB", "harness process"),
            ("error_rate", len(failures) / len(jobs), "ratio",
             f"{len(failures)} of {len(jobs)} jobs failed"),
            ("clock.wall_s", clock, "s", "as measured"),
            ("clock.setup_s", median(raw for _, raw in samples), "s",
             "as measured"),
        ]

    unexpected = [(job, why) for job, why in failures
                  if not job.known_defect(why)]
    for job, why in failures:
        tag = f"known defect {job.defect}" if job.known_defect(why) \
            else "FAILED"
        print(f"  {tag}: {job.name}: {why}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    record["failures"] = [[job.name, why, job.known_defect(why)]
                          for job, why in failures] + problems
    record["metrics"] = {name: [val, unit] for name, val, unit, _ in rows}
    with open(f"{workdir}/result.json", "w") as fh:
        json.dump(record, fh, indent=1)
    correct = not unexpected and not problems
    emit(rows, {"correct": correct, "attempted": len(jobs),
                "failed": len(failures), "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())

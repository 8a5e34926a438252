"""Benchmark of the levelflow command line, one workload per run.

    python3 bench/run.py --workload segment --seed 1 --seconds 30 --trace 0

One client runs jobs back to back in this process, each a fixed list of
``levelflow.cli.main`` calls (see ``bench/workloads.py``), for ``--seconds``
seconds and at least ``MIN_JOBS`` jobs.  Every job's outputs are checked
(``bench/checks.py``).  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` each job
runs once untraced and once traced, and the line holds the per-layer
metrics instead (``bench/spans.py``).  ``bench/README.md`` defines every
metric; ``BENCHMARK.json`` lists their names, units and bounds.
"""

import time

# Set-up time is counted from here, before numpy and levelflow are imported.
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import levelflow  # noqa: E402
from levelflow import cli  # noqa: E402
from levelflow.diffusion import GuidanceFallbackWarning  # noqa: E402
from levelflow.errors import LevelflowError  # noqa: E402
from levelflow.field import load_field  # noqa: E402

from bench import checks, spans, workloads  # noqa: E402

T_IMPORTED = time.perf_counter()

SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
# Every run makes at least this many jobs (pairs when traced); dice_mean and
# the per-layer counts are taken over these first jobs, so they are a
# function of the seed alone.
MIN_JOBS = 4


@dataclass
class Job:
    seconds: float
    cpu_s: float
    digests: dict
    dice: float
    error: str | None


def run_job(workload, inputs: str, job_dir: str, seed: int, rec=None, tracer=None, key=None) -> Job:
    """Run one job, timed; then check its outputs, untimed, and delete them."""
    calls = workload.calls(inputs, job_dir, seed)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", GuidanceFallbackWarning)
        if tracer:
            tracer.install()
            root = rec.begin_job(key)
        c0 = os.times()
        t0 = time.perf_counter()
        try:
            for argv in calls:
                code = cli.main(argv)
                if code != 0:
                    error = f"exit code {code} from levelflow {' '.join(argv)}"
                    break
        except Exception:  # any crash of the program is a failed job, not a failed run
            error = traceback.format_exc()
        finally:
            seconds = time.perf_counter() - t0
            c1 = os.times()
            if tracer:
                fallbacks = sum(issubclass(w.category, GuidanceFallbackWarning) for w in caught)
                rec.add("diffusion.guidance_fallbacks", fallbacks)
                rec.end_job(root)
                tracer.uninstall()
    cpu_s = (c1.user - c0.user) + (c1.system - c0.system)
    digests: dict = {}
    dice = float("nan")
    if error is None:
        try:
            for argv in calls:
                out = argv[argv.index("--out") + 1]
                name = os.path.relpath(out, job_dir)
                digests.update({f"{name}/{rel}": d for rel, d in checks.check_run_dir(out).items()})
            final, references = workload.final_and_references(inputs, job_dir)
            mask = load_field(final)
            dice = max(checks.dice(mask, load_field(ref)) for ref in references)
            report = workload.reported_dice(job_dir)
            if report is not None and abs(checks.strict_json(report)["dice"] - dice) > 1e-12:
                raise checks.CheckError(f"{report}: dice differs from the mask's Dice {dice}")
        except (checks.CheckError, LevelflowError, OSError, KeyError, TypeError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(job_dir, ignore_errors=True)
    return Job(seconds, cpu_s, digests, dice, error)


def _require_same(job: Job, reference: dict | None, what: str) -> None:
    if job.error is None and reference is not None and job.digests != reference:
        job.error = f"artifact digests differ from {what}"


def measure(workload, work: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0):
    """Set up, run the timed loop and return ``(metrics, untraced jobs, all jobs)``."""
    inputs = os.path.join(work, "inputs")
    all_jobs: list[Job] = []
    setups = []
    reference = None
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        shutil.rmtree(inputs, ignore_errors=True)
        os.makedirs(inputs)
        workload.build(inputs)
        build_s = time.perf_counter() - t0
        warm = run_job(workload, inputs, os.path.join(work, f"setup{rep}"), seed)
        _require_same(warm, reference, "the first warm-up job")
        reference = reference or (warm.digests if warm.error is None else None)
        setups.append(build_s + warm.seconds)
        all_jobs.append(warm)

    rec = spans.Recorder() if trace else None
    tracer = spans.Tracer(rec) if trace else None
    plain: list[Job] = []
    traced: dict = {}
    begin = time.perf_counter()
    i = 0
    while i < MIN_JOBS or time.perf_counter() - begin < seconds:
        job_dir = os.path.join(work, f"job{i}")
        if trace:
            # Alternate which of the pair runs first, so drift cancels.
            pair = {}
            for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
                t = tracer if traced_run else None
                pair[traced_run] = run_job(workload, inputs, job_dir, seed + i, rec, t, key=i)
            _require_same(pair[True], pair[False].digests if pair[False].error is None else None,
                          "the untraced run of the same job")
            traced[i] = pair[True]
            job = pair[False]
            all_jobs.append(pair[True])
        else:
            job = run_job(workload, inputs, job_dir, seed + i)
        if i == 0:
            _require_same(job, reference, "the warm-up job")
        plain.append(job)
        all_jobs.append(job)
        i += 1

    done = [j for j in plain if j.error is None] or plain
    if trace:
        times = {k: j for k, j in traced.items() if j.error is None}
        jobs = spans.per_job(rec.spans)
        gap = spans.accounting_gap(jobs)
        if gap > 1e-6:
            raise RuntimeError(f"span self times miss a traced job's wall time by {gap} s")
        metrics = spans.layer_metrics(jobs, rec.counts, list(range(MIN_JOBS)), list(times) or list(traced))
        metrics["bench.trace_overhead"] = (
            statistics.median(j.seconds for j in times.values() or traced.values())
            / statistics.median(j.seconds for j in done)
            - 1.0
        )
    else:
        metrics = {
            "jobs_per_s": sum(j.error is None for j in plain) / sum(j.seconds for j in plain),
            "job_p50_s": statistics.median(j.seconds for j in done),
            "cpu_s_per_job": sum(j.cpu_s for j in plain) / len(plain),
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "dice_mean": float(np.mean([j.dice for j in plain[:MIN_JOBS] if j.error is None] or [0.0])),
        }
    return metrics, plain, all_jobs


def machine_facts() -> dict:
    def first_line(path, prefix=""):
        try:
            with open(path, encoding="ascii", errors="replace") as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            return None
        return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name") or platform.processor(),
        "l3_size": first_line("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "loadavg_at_start": os.getloadavg(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def result_line(metrics: dict, wanted: list, all_jobs: list) -> dict:
    """The last line of output: the ``wanted`` metrics, an idle layer's as 0."""
    failed = sum(j.error is not None for j in all_jobs)
    return {
        "correct": failed == 0,
        "attempted": len(all_jobs),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    facts = machine_facts()
    if not Path(levelflow.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"levelflow was imported from {levelflow.__file__}, not from {ROOT / 'src'}")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        metrics, plain, all_jobs = measure(
            workloads.FULL[args.workload], str(work), args.seed, args.seconds, bool(args.trace),
            T_IMPORTED - T_START,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failures = [j.error for j in all_jobs if j.error is not None]
    times = [j.seconds for j in plain]
    print(f"levelflow benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for m in wanted:
        print(f"  {m['name']:<40} {metrics.get(m['name'], 0.0):>14.6g} {m['unit']:<6} ({m['better']} is better)")
    print(f"  {'fail_rate':<40} {len(failures) / len(all_jobs):>14.6g} ratio  "
          f"({len(failures)} of {len(all_jobs)} jobs failed)")
    detail = {
        "jobs_timed": len(plain),
        "job_s_quartiles": statistics.quantiles(times, n=4),
        "fail_rate": len(failures) / len(all_jobs),
        "failures": failures[:5],
        "machine": facts,
    }
    print(json.dumps({"detail": detail}))
    for failure in failures[:5]:
        print(failure, file=sys.stderr)
    result = result_line(metrics, wanted, all_jobs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

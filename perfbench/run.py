"""shearmix benchmark: run one workload's fixed job list and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 20 --trace 0

Jobs run one at a time in a closed loop from this single process; the only
parallelism is the program's own: two mcsim workers, never more than the
CPUs this process may use.  BLAS is pinned to one thread, because on a small
shared host two OpenBLAS threads made the dense jobs about twice as slow and
several times noisier (see BLAS_THREADS).  A run repeats the workload's
fixed job list ``round(seconds / nominal pass time)`` times, and at least
MIN_PASSES times, so two commits always do the same work; ``wall_s`` is the
time of one pass, summed from each job's median latency, and ``job_p50_s``
is the median over passes of each pass's median job latency, so that it does
not fall between the slowest run of one job and the fastest of the next.

Times are given at the reference host's speed.  The shared host this was
built on runs the same code up to 40% slower for minutes at a time, so a
fixed kernel that does not touch shearmix (``probe``) runs before every job,
after the last job of each pass and before every set-up step.  A job's time
is multiplied by ``PROBE_REF_S`` over the mean of the probes just before and
just after it, a set-up step's by ``PROBE_REF_S`` over the median of the
probes before it.  A change to shearmix moves the jobs but not the probe.
The unscaled times and the factors are kept in the record.

``--trace 0`` installs no wrapper and reports the end-to-end metrics.
``--trace 1`` runs half the passes untraced, then wraps the layers' public
calls (see tracing.py) and runs the other half, and reports the per-layer
metrics with ``trace.overhead_frac`` = traced / untraced ``wall_s`` - 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, tail percentile, per-job output digests) goes to
``.perfbench_out/<workload>-trace<k>.json`` and the spans of a traced run to
``.perfbench_out/<workload>-spans.csv``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("bounds", "spectrum", "evolve", "montecarlo")
# seconds one pass of the full job list takes on the reference machine
# (2 cores, OpenBLAS 0.3.31); sets how many passes fill --seconds
NOMINAL_PASS_S = {"bounds": 3.6, "spectrum": 7.5, "evolve": 1.55, "montecarlo": 7.0}
# every job is timed at least this often, so that a run has at least 28 jobs
# and job_tail_s is a higher percentile than job_p50_s
MIN_PASSES = 4
SETUP_REPS = 3
SETUP_PROBES = 3  # probes before each set-up step
# one BLAS thread: measured on the 2-vCPU reference host, two threads made the
# spectrum and evolve passes 1.8x and 2.5x slower with up to 10x job jitter
BLAS_THREADS = 1
# median probe() time on the reference host (2-vCPU Xeon KVM guest)
PROBE_REF_S = 0.0175
IMPORT_TIMER = ("import time; t = time.perf_counter(); import numpy, scipy, shearmix; "
                "print(time.perf_counter() - t)")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [  # (name, unit)
    ("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"), ("cpu_s", "s"),
    ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("job_ok_frac", "fraction"),
]


def limit_threads():
    """Pin BLAS to BLAS_THREADS threads; must run before numpy loads."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def import_seconds():
    """Import time of numpy, scipy and shearmix in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return float(proc.stdout)


_PROBE_DATA = {}


def probe():
    """Seconds a fixed kernel that does not use shearmix takes now.

    Interpreter loop, numpy vector operations and a small LAPACK SVD, the
    three kinds of work the jobs do; the ratio of its time to PROBE_REF_S is
    the host's current slowdown.
    """
    import numpy as np

    if not _PROBE_DATA:
        rng = np.random.default_rng(0)
        _PROBE_DATA.update(a=rng.standard_normal((96, 96)), x=rng.standard_normal(20000))
    a, x = _PROBE_DATA["a"], _PROBE_DATA["x"]
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    for _ in range(20):
        np.sort(np.sin(x) * x)
    for _ in range(4):
        np.linalg.svd(a)
    return time.perf_counter() - t0


def host_scale(probes):
    """Factor that brings times measured beside these probes to reference speed."""
    return PROBE_REF_S / statistics.median(probes)  # the mean, for two probes


def setup_scale():
    """Host-speed factor for the set-up step that runs next."""
    return host_scale([probe() for _ in range(SETUP_PROBES)])


def environment(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    from workloads import MC_WORKERS

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "mcsim_workers": [1, MC_WORKERS],
        "machine": platform.machine(),
    }


def execute(job, instance, tracer=None):
    """Run one job; returns its record (latency, CPU, probe, digest, failure)."""
    from workloads import CheckFailed

    rec = {"name": job.name, "instance": instance, "digest": None, "failure": None,
           "probe": probe()}
    gc.collect()  # garbage left by earlier jobs and checks is not this job's cost
    if tracer is not None:
        tracer.job = instance
        tracer.begin(f"job.{job.kind}")
    cpu0, t0 = os.times(), time.perf_counter()
    try:
        result = job.call()
    except Exception as err:  # a job that raises is a failed job, not a crash
        result, rec["failure"] = None, f"raised {err!r}"
    t1, cpu1 = time.perf_counter(), os.times()
    if tracer is not None:
        tracer.end()
        tracer.job = None
    rec["latency"] = t1 - t0
    rec["cpu"] = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    if rec["failure"] is None:
        try:
            blob, payload = job.output(result)
            rec["digest"] = hashlib.sha256(blob).hexdigest()
            job.check(payload)
        except CheckFailed as err:
            rec["failure"] = f"check: {err}"
        except Exception as err:
            rec["failure"] = f"check raised {err!r}"
    return rec


def run_passes(jobs, passes, records, tracer=None):
    """Run the job list `passes` times; scales each job by the probes around it."""
    for _ in range(passes):
        t0 = time.perf_counter()
        done = [execute(job, len(records) + i, tracer) for i, job in enumerate(jobs)]
        after = [rec["probe"] for rec in done[1:]] + [probe()]
        for rec, next_probe in zip(done, after):
            rec["pass_s"] = time.perf_counter() - t0
            rec["scale"] = host_scale([rec["probe"], next_probe])
            rec["time"] = rec["latency"] * rec["scale"]
            rec["cpu_time"] = rec["cpu"] * rec["scale"]
        records.extend(done)


def mark_mismatches(records):
    """A job whose output bytes differ from its first run has failed."""
    first = {}
    for rec in records:
        if rec["failure"] is not None:
            continue
        want = first.setdefault(rec["name"], rec["digest"])
        if rec["digest"] != want:
            rec["failure"] = "output differs from the job's first run"


def list_time(records, key):
    """Time of one pass of the job list: the sum of each job's median."""
    by_job = {}
    for rec in records:
        by_job.setdefault(rec["name"], []).append(rec[key])
    return sum(statistics.median(v) for v in by_job.values())


def pass_median(records, per_pass, key="time"):
    """Median over passes of each pass's median job time."""
    return statistics.median(statistics.median(r[key] for r in records[i:i + per_pass])
                             for i in range(0, len(records), per_pass))


def tail(latencies):
    """Latency at the highest percentile with at least ten jobs beyond it."""
    ordered = sorted(latencies)
    idx = max(0, len(ordered) - 11)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def setup(workload, seed, workdir, tiny):
    """Input generation plus one warm-up job per job kind; returns the jobs."""
    import workloads

    jobs = workloads.build(workload, seed, workdir / "inputs", tiny=tiny)
    warm = workloads.build(workload, seed, workdir / "warm", tiny=True)
    seen = set()
    for job in warm:
        if job.kind in seen:
            continue
        seen.add(job.kind)
        try:
            job.output(job.call())
        except Exception:  # noqa: BLE001 -- the timed runs count the failure
            pass
    return jobs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny job sizes (smoke test); references cover both sizes")
    args = parser.parse_args(argv)

    nproc = limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import scipy  # noqa: F401
        import shearmix
    except ImportError as err:
        print(f"cannot import shearmix from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if Path(shearmix.__file__).resolve().parent != (ROOT / "src" / "shearmix").resolve():
        print(f"imported shearmix from {shearmix.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    # setup is measured SETUP_REPS times: this process's own import plus
    # fresh-interpreter imports, and input generation with the warm-ups; each
    # step is scaled by the probes run just before it (just after it, for
    # the import this process has already done)
    imports = [time.perf_counter() - T_START]
    setup_scales = [setup_scale()]
    for _ in range(SETUP_REPS - 1):
        setup_scales.append(setup_scale())
        imports.append(import_seconds())

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        reps = []
        for rep in range(SETUP_REPS):
            setup_scales.append(setup_scale())
            t0 = time.perf_counter()
            jobs = setup(args.workload, args.seed, workdir / f"setup{rep}", args.tiny)
            reps.append(time.perf_counter() - t0)
        setup_raw = statistics.median(imports) + statistics.median(reps)
        steps = [t * scale for t, scale in zip(imports + reps, setup_scales)]
        setup_s = statistics.median(steps[:SETUP_REPS]) + statistics.median(steps[SETUP_REPS:])

        passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        records, traced = [], []
        tracer = None
        if args.trace:
            import tracing

            half = max(1, passes // 2)
            run_passes(jobs, half, records)
            tracer = tracing.Tracer()
            uninstall = tracer.install()
            try:
                run_passes(jobs, half, traced, tracer)
            finally:
                uninstall()
        else:
            run_passes(jobs, passes, records)
        everything = records + traced
        mark_mismatches(everything)
        failures = [(r["name"], r["failure"]) for r in everything if r["failure"]]
        attempted = len(everything)
        tail_s, tail_pct, beyond = tail([r["time"] for r in records])
        summary = {
            "wall_s": list_time(records, "time"),
            "job_p50_s": pass_median(records, len(jobs)),
            "job_tail_s": tail_s,
            "cpu_s": list_time(records, "cpu_time"),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "job_ok_frac": 1.0 - len(failures) / attempted,
        }
        if args.trace:
            # job outputs are read here, before the work directory goes
            layer = tracing.layer_metrics(tracing.SpanTable(tracer.spans), jobs, traced,
                                          passes=len(traced) // len(jobs))
            overhead = list_time(traced, "time") / summary["wall_s"] - 1.0
            layer["trace.overhead_frac"] = (overhead, "fraction")
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
            tracer.write_csv(OUT / f"{args.workload}-spans.csv")
        else:
            units = dict(END_TO_END)
            metrics = {name: {"value": summary[name], "unit": units[name]} for name in units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "passes": passes,
        "wrappers_loaded": "tracing" in sys.modules,
        "jobs_per_pass": len(jobs), "environment": environment(nproc),
        "job_fail_frac": len(failures) / attempted,
        "job_tail_percentile": tail_pct, "job_tail_jobs_beyond": beyond,
        "jobs_timed": len(records), "import_s": imports, "setup_reps_s": reps,
        "end_to_end": summary, "metrics": metrics, "failures": failures,
        "unscaled": {"wall_s": list_time(records, "latency"),
                     "job_p50_s": pass_median(records, len(jobs), "latency"),
                     "cpu_s": list_time(records, "cpu"), "setup_s": setup_raw},
        "probe_ref_s": PROBE_REF_S, "setup_scales": setup_scales,
        "job_scales": [r["scale"] for r in records],
        "pass_s": [r["pass_s"] for r in records[::len(jobs)]],
        "job_latencies_s": {job.name: [r["latency"] for r in records if r["name"] == job.name]
                            for job in jobs},
        "timed_jobs": [[r["name"], r["latency"], r["cpu"], r["probe"]] for r in records],
        "digests": {r["name"]: r["digest"] for r in records},
        "traced_digests": {r["name"]: r["digest"] for r in traced},
    }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"workload {args.workload}: {passes} passes of {len(jobs)} jobs, "
          f"{attempted} attempted, {len(failures)} failed")
    for name, reason in failures:
        print(f"FAILED {name}: {reason}")
    print(f"job_fail_frac {record['job_fail_frac']:.6g} fraction")
    print(f"times at reference speed: job scale factors "
          f"{min(record['job_scales']):.3f} to {max(record['job_scales']):.3f}, "
          f"unscaled wall_s {record['unscaled']['wall_s']:.4f} s")
    print(f"job_tail_s is the p{tail_pct:.1f} latency of {len(records)} timed jobs "
          f"({beyond} beyond it)")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

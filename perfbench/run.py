"""End-to-end and per-layer benchmark of the tracehom CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/``.  Workloads (see BENCHMARK.json for why each exists):

  sd2rp2_homology  ``homology --coeff delta`` on sd2(RP2) under a fan
                   action with two elements
  sd2rp2_verify    ``verify`` (all four identities) on sd2(RP2) under
                   the two-point reference action
  corpus_sweep     every subcommand over a relabeled copy of the bundled
                   corpus, 56 invocations

Each sample runs in its own worker process, one at a time, on inputs
relabeled by (seed, sample index), and every output is checked against
hand-derived values (``oracle.py``).  Samples repeat until ``--seconds``
of measuring have passed.  Times are in reference seconds: scaled by
machine-speed probes taken in each child process while it measures
(``calibrate.py``); the record keeps the raw times too.  With
``--trace 0`` the result holds

  wall_s       median seconds for one pass of the workload's invocations
  setup_s      median seconds to import tracehom.cli in a fresh
               interpreter, over several imports
  peak_rss_mb  median peak resident set of a worker
  ok_rate      share of invocations whose exit code and output match the
               oracle, 1 - error_rate (a metric must never read 0)

and with ``--trace 1`` the per-layer metrics of ``spans.py``, from traced
workers alternating with untraced ones, plus trace.overhead_frac.  Counts
must repeat exactly: a count that differs between the traced samples of
a run is a failure.  The last line of standard output is the result; the
line before it, ``{"record": ...}``, is the full record: every sample,
quartiles and provenance (git rev or source hash, kernel, Python version,
nproc).  ``compare.py`` reads saved standard outputs.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402

#: fresh imports of tracehom.cli timed for setup_s, after one warm-up
#: import that writes the bytecode cache
SETUP_IMPORTS = 10
#: a single worker that runs longer than this is counted as failed
WORKER_TIMEOUT_S = 150
#: start no new sample after this many seconds of the whole run
RUN_BUDGET_S = 150

IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import tracehom.cli; "
                "t = time.perf_counter() - t; "
                "sys.path.insert(0, sys.argv[2]); "
                "import calibrate, statistics; "
                "print(t, statistics.median(calibrate.probe() "
                "for _ in range(40)))")


def _python(args, timeout):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT)


def measure_setup():
    """(raw seconds, median probe seconds right after) of each timed
    import."""
    times = []
    for k in range(SETUP_IMPORTS + 1):
        proc = _python(["-c", IMPORT_TIMER, str(SRC), str(HERE)], 60)
        if proc.returncode:
            raise RuntimeError(f"timing the import failed: {proc.stderr}")
        if k:
            times.append(tuple(map(float, proc.stdout.split())))
    return times


def run_worker(job_path):
    """The worker's report, or None when it failed or timed out."""
    try:
        proc = _python([str(HERE / "worker.py"), str(job_path)],
                       WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def run_sample(workload, seed, sample, directory, modes):
    """Build one sample's inputs and run them in one worker per entry of
    ``modes`` (False untraced, True traced).

    Returns (reports, attempted, failures): the workers' reports, the
    invocations run, and one reason per invocation that did not match
    the oracle."""
    invocations = inputs.build(workload, seed, sample, directory)
    job = Path(directory) / "job.json"
    reports, attempted, failures = [], 0, []
    for trace in modes:
        job.write_text(json.dumps({"argv": [i["argv"] for i in invocations],
                                   "trace": trace}))
        report = run_worker(job)
        attempted += len(invocations)
        if report is None:
            failures += [f"sample {sample}: worker failed"] * len(invocations)
            continue
        for inv, (code, stdout) in zip(invocations, report.pop("outputs")):
            reason = oracle.mismatch(inv["expect"], code, stdout)
            if reason:
                failures.append(f"sample {sample}: {inv['argv'][0]} "
                                f"{Path(inv['argv'][1]).name}: {reason}")
        report["trace"] = trace
        report["speed"] = _speed(report)
        reports.append(report)
    return reports, attempted, failures


def summary(values):
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def count_summary(values):
    """The median of a count is a count."""
    return {"median": statistics.median_low(values), "samples": values}


def count_drift(reports):
    """One failure per per-layer count that differs between the traced
    samples of a run.  Relabeling the inputs changes no count, so a
    drift means the measurement, not the input, moved."""
    traced = [r["layers"] for r in reports if r["trace"]]
    return [f"count {name} differs between samples: "
            f"{sorted({t[name] for t in traced})}"
            for name in (traced[0] if traced else ())
            if not name.endswith("_s") and len({t[name] for t in traced}) > 1]


def provenance(kernels):
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tracehom").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest(),
            "kernel_name": kernels[0] if len(kernels) == 1 else kernels,
            "python": platform.python_version(),
            "nproc": os.cpu_count()}


def measure(workload, seed, seconds, trace, directory):
    setup = [] if trace else measure_setup()
    started = time.perf_counter()
    reports, attempted, failures = [], 0, []
    longest = 0.0
    sample = 0
    # a traced worker always follows an untraced one on the same inputs,
    # so the overhead ratio compares like with like
    modes = (False, True) if trace else (False,)
    while True:
        t = time.perf_counter()
        got, n, bad = run_sample(workload, seed, sample, directory, modes)
        longest = max(longest, time.perf_counter() - t)
        reports.extend(got)
        attempted += n
        failures.extend(bad)
        sample += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds or elapsed + longest > RUN_BUDGET_S:
            break
    return setup, reports, attempted, failures


def _speed(report):
    """Factor that turns a worker's times into reference seconds: the
    probes' share of the pass comes off, and the rest is scaled by the
    median probe time."""
    probes = report["probe_s"]
    share = sum(probes) / report["wall_s"]
    return (1 - share) * calibrate.REFERENCE_S / statistics.median(probes)


def timings(reports, setup):
    """Summaries of the run's measurements, times in reference seconds.

    Each worker's times are scaled by its own probes, each import by the
    probes run right after it in the same interpreter; the raw times stay
    in the record next to the scaled ones."""
    plain = [r for r in reports if not r["trace"]]
    traced = [r for r in reports if r["trace"]]
    out = {
        "wall_s": summary([r["wall_s"] * r["speed"] for r in plain]),
        "raw_wall_s": summary([r["wall_s"] for r in plain]),
        "probe_s": summary([statistics.median(r["probe_s"])
                            for r in reports]),
        "worker_import_s": summary([r["import_s"] for r in plain]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain]),
    }
    if setup:
        out["setup_s"] = summary([t * calibrate.REFERENCE_S / p
                                  for t, p in setup])
        out["raw_setup_s"] = summary([t for t, _ in setup])
    if traced:
        out["traced_wall_s"] = summary([r["wall_s"] * r["speed"]
                                        for r in traced])
        out["layers"] = {
            name: summary([r["layers"][name] * r["speed"] for r in traced])
            if name.endswith("_s") else
            count_summary([r["layers"][name] for r in traced])
            for name in traced[0]["layers"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tracehom" / "cli.py").is_file():
        sys.exit(f"no tracehom sources under {SRC}: run from a checkout")

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(dir=work_root)
    try:
        setup, reports, attempted, failures = measure(
            args.workload, args.seed, args.seconds, args.trace, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass

    if {r["trace"] for r in reports} != {False, bool(args.trace)}:
        sys.exit("every worker of a kind failed:\n"
                 + "\n".join(sorted(set(failures))))
    failures += count_drift(reports)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": sorted(set(failures))[:20],
        "provenance": provenance(sorted({r["kernel_name"]
                                         for r in reports})),
        "reference_s": calibrate.REFERENCE_S,
        **timings(reports, setup),
    }
    if args.trace:
        metrics = {name: {"value": row["median"],
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name, row in record["layers"].items()}
        metrics["trace.overhead_frac"] = {
            "value": record["traced_wall_s"]["median"]
            / record["wall_s"]["median"] - 1,
            "unit": "frac"}
    else:
        metrics = {
            "wall_s": {"value": record["wall_s"]["median"], "unit": "s"},
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"]["median"],
                            "unit": "MB"},
            "ok_rate": {"value": 1 - record["error_rate"], "unit": "frac"},
        }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()

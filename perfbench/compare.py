"""Compare benchmark records of two commits.

    python3 perfbench/compare.py --base A1.txt A2.txt ... \\
                                 --new B1.txt B2.txt ...

Each file is a saved standard output of ``run.py``; its
``{"record": ...}`` line is read.  For every metric it prints each
side's median across records with its quartile spread, and the change
of the medians as a share of the base median.
It refuses records of different workloads or trace modes, and records
whose ``kernel_name`` differs: a result of the compiled kernel says
nothing about the Python one.  It claims no gain: a gain needs paired
runs that beat the base's own spread, not one change of medians.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as fh:
        for line in fh:
            if line.startswith('{"record"'):
                return json.loads(line)["record"]
    raise ValueError(f"{path}: no benchmark record")


def metrics(record):
    """metric name -> the run's reported value."""
    if record["trace"]:
        out = {name: row["median"] for name, row in record["layers"].items()}
        out["traced_wall_s"] = record["traced_wall_s"]["median"]
    else:
        out = {"setup_s": record["setup_s"]["median"]}
    for name in ("wall_s", "peak_rss_mb"):
        out[name] = record[name]["median"]
    out["error_rate"] = record["error_rate"]
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base = [load(p) for p in args.base]
    new = [load(p) for p in args.new]
    for key in ("workload", "trace"):
        seen = {r[key] for r in base + new}
        if len(seen) > 1:
            sys.exit(f"refusing to compare: {key} differs: {sorted(seen)}")
    kernels = {json.dumps(r["provenance"]["kernel_name"]) for r in base + new}
    if len(kernels) > 1:
        sys.exit(f"refusing to compare: kernel_name differs: "
                 f"{sorted(kernels)}")
    rows = [metrics(r) for r in base], [metrics(r) for r in new]
    print(f"{'metric':32} {'base':>12} {'spread':>7} {'new':>12} "
          f"{'spread':>7} {'change':>8}")
    for name in rows[0][0]:
        b, b_spread = spread([m[name] for m in rows[0]])
        n, n_spread = spread([m[name] for m in rows[1]])
        change = f"{n / b - 1:+.3f}" if b else "n/a"
        print(f"{name:32} {b:12.6g} {b_spread:7.3f} {n:12.6g} "
              f"{n_spread:7.3f} {change:>8}")


if __name__ == "__main__":
    main()

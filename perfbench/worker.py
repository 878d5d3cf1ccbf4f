"""One benchmark sample in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

Imports ``tracehom.cli`` from the checkout's ``src/`` (timing the
import), runs every invocation of the job in process with
``tracehom.cli.main(argv, standalone_mode=False)`` and prints one JSON
object: import and wall seconds, the machine-speed probes timed during
the pass (``calibrate.py``), peak RSS, each invocation's exit code and
standard output, and with ``"trace": true`` the per-layer metrics.
A fresh process per sample means no cache in the program survives from
one sample to the next, as for a user running the CLI.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

_start = time.perf_counter()
import tracehom.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from calibrate import Probing  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def invoke(main, argv):
    """Exit code and standard output of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def main():
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    if not tracehom.__file__.startswith(SRC + os.sep):
        sys.exit(f"tracehom imported from {tracehom.__file__}, not {SRC}")
    cli_main = tracehom.cli.main
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install("tracehom")
        cli_main = tracer.wrap("cli", cli_main)
    outputs = []
    with Probing() as probes:
        start = time.perf_counter()
        for argv in job["argv"]:
            outputs.append(invoke(cli_main, argv))
        wall_s = time.perf_counter() - start
    result = {
        "import_s": IMPORT_S,
        "wall_s": wall_s,
        "probe_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "kernel_name": tracehom.KERNEL_NAME,
        "outputs": outputs,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Run one artloc CLI command in this fresh interpreter and record what it cost.

    python3 perfbench/job.py STATS_JSON JOB_INDEX MODE -- CLI_ARGS...

Run from the root of a checkout: artloc is imported from its `src/`, never
from an installed copy. STATS_JSON receives the import and load_ring times.
MODE is `run`; `trace`, which also writes the job's spans (in STATS_JSON +
".spans.npy"); or `setup`, which stops the command when its `load_ring`
returns, to time set-up alone. The exit code is the CLI's, 0 when `setup`
stopped the command, or 70 when the command raised.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

RAISED = 70


class SetupDone(Exception):
    """Raised in `setup` mode once the ring is loaded, to skip the command."""


def main() -> int:
    stats_path, job_index, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    if mode not in ("run", "trace", "setup") or sys.argv[4] != "--":
        raise SystemExit("usage: job.py STATS_JSON JOB_INDEX run|trace|setup -- CLI_ARGS...")
    cli_args = sys.argv[5:]
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)

    start = time.perf_counter()
    from artloc import cli

    import_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"artloc was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return RAISED

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer(job_index)
        tracer.install()

    load_s = 0.0
    load_ring = cli.load_ring

    def timed_load_ring(*args, **kwargs):
        nonlocal load_s
        t0 = time.perf_counter()
        try:
            ring = load_ring(*args, **kwargs)
        finally:
            load_s += time.perf_counter() - t0
        if mode == "setup":
            raise SetupDone
        return ring

    cli.load_ring = timed_load_ring

    raised = None
    try:
        code = cli.main(cli_args)
    except SetupDone:
        code = 0
    except Exception:
        raised = traceback.format_exc()
        code = RAISED
    stats = {"import_s": import_s, "load_ring_s": load_s, "raised": raised}
    if tracer is not None:
        import numpy as np

        np.save(stats_path + ".spans.npy", tracer.spans())
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    if raised:
        print(raised, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

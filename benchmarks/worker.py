"""One pass of one workload, in a fresh interpreter.

Started by ``bench.py``; prints one JSON object on its last stdout line.
``--t0-ns`` is the ``time.monotonic_ns()`` reading the parent took just
before starting this process, so ``setup_s`` covers interpreter start,
the import of kacscope and the diagram builds.

``--mode traced`` installs the layer wrappers of ``tracing.py`` before
the set-up, and the pass reports per-layer figures as well.  ``--mode
setup`` stops at the first timed call and reports ``setup_s`` only.

Every time is reported as measured (``*_raw_s``) and corrected to the
reference host speed by the samples of ``hostspeed.py``, which run from
the start of this script to the end of the check.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
# Sampling intervals: short during the set-up, which lasts only tens of
# milliseconds, longer during the pass.  A sample costs about 0.1 ms.
SETUP_INTERVAL_S = 0.005
PASS_INTERVAL_S = 0.025


def main() -> int:
    host = HostSpeed()
    host.start(SETUP_INTERVAL_S)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import kacscope
    import tracing
    import workloads

    if not Path(kacscope.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"kacscope imported from {kacscope.__file__}, not from {ROOT / 'src'}")
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.mode == "traced" else None
    if tracer:
        tracer.install()

    state = workload.setup(args.seed)
    setup_raw_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    setup_s, _speed = host.take(setup_raw_s)
    if args.mode == "setup":
        host.stop()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0
    host.start(PASS_INTERVAL_S)
    start = time.perf_counter()
    try:
        result = workload.run(state)
    except Exception:
        # The program under test crashed: report it, and let the check
        # count every item of the pass as failed.
        traceback.print_exc()
        result = []
    run_raw_s = time.perf_counter() - start
    run_s, speed = host.take(run_raw_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = workload.load_reference()
    host.reset()
    start = time.perf_counter()
    attempted, failed, problems = workload.check(state, result, reference)
    check_raw_s = time.perf_counter() - start
    check_s, _speed = host.take(check_raw_s)
    host.stop()

    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    record = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": run_s + check_s,
        "wall_raw_s": run_raw_s + check_raw_s,
        "check_s": check_s,
        "speed": speed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer:
        record["layers"] = tracer.layer_metrics(
            state.diagrams(), state.output_bytes(result), speed
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

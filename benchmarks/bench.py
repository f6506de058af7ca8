"""kacscope benchmark: time to a checked certificate, end to end and per layer.

Run from the repository root:

    python3 benchmarks/bench.py --workload verify-default --seed 1 --seconds 30 --trace 0

Each pass of a workload runs in a fresh, single-threaded interpreter
(``worker.py``) with ``KACSCOPE_THREADS`` removed from its environment and
only the repository's ``src/`` on its path.  Passes repeat for about
``--seconds``; an untraced run makes at least ``MIN_PASSES``.  Times are
corrected to a reference host speed (``hostspeed.py``).

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, plus the
tracing overhead against the untraced ones.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give the same figures for people, the environment and the seed.
``--record FILE`` also appends the whole run, every pass included, to a
JSON-lines file (``spread.py`` summarises such files).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-default", "reduce-sweep", "enumerate-check")
MIN_PASSES = 3
# Extra start-ups after each untraced pass, so setup_s is a median over
# more samples; a probe stops at the first timed call.
SETUP_PROBES = 2
# Every pass must finish, and the run print its result, within 180 s.
RUN_LIMIT_S = 170.0


class PassError(RuntimeError):
    pass


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)`` metric units, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    """SHA-256 over the package sources, to identify a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    uname = os.uname()
    return {
        "machine": uname.machine,
        "platform": f"{uname.sysname} {uname.release}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def run_pass(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run ``worker.py`` in mode plain, traced or setup; return its record."""
    drop = ("KACSCOPE_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONHASHSEED"] = "0"
    # Compiled modules are cached outside the source tree, so only the
    # first pass in a checkout pays for compiling kacscope.
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    t0_ns = time.monotonic_ns()
    cmd = [
        sys.executable, "-S", str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--t0-ns", str(t0_ns),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"{workload} pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list, list]:
    """Run passes for about ``seconds``; return untraced, traced and set-up records.

    Once the minimum is met, a pass starts only if a pass of its kind, at
    the median duration so far, would end within ``seconds``, so a run
    does not overshoot by a whole pass.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    probes: list[dict] = []
    durations: dict[bool, list[float]] = {False: [], True: []}
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        want_traced = trace and len(traced) < len(plain)
        enough = (plain and traced) if trace else len(plain) >= MIN_PASSES
        if enough:
            expected = statistics.median(durations[want_traced])
            if elapsed + expected > min(seconds, RUN_LIMIT_S / 2):
                return plain, traced, probes
        began = time.monotonic()
        mode = "traced" if want_traced else "plain"
        record = run_pass(workload, seed, mode, max(1.0, RUN_LIMIT_S - elapsed))
        durations[want_traced].append(time.monotonic() - began)
        (traced if want_traced else plain).append(record)
        if not trace:
            for _ in range(SETUP_PROBES):
                elapsed = time.monotonic() - start
                probes.append(run_pass(workload, seed, "setup", max(1.0, RUN_LIMIT_S - elapsed)))


def end_to_end(plain: list[dict], probes: list[dict]) -> dict[str, float]:
    """The end-to-end figures of an untraced run: medians over its passes
    (and, for ``setup_s``, its start-up probes).

    Times are at the reference host speed (``hostspeed.py``); the measured
    times are kept in the records and printed as comments.
    """
    wall_s = statistics.median(p["wall_s"] for p in plain)
    attempted = statistics.median(p["attempted"] for p in plain)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in plain + probes),
        "wall_s": wall_s,
        "items_per_s": attempted / wall_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians of the traced passes' layer figures, and the tracing overhead
    as the median traced pass against the median untraced one."""
    layers = {
        name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]
    }
    layers["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain)
        - 1
    )
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the whole run as one JSON line to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kacscope" / "__init__.py").is_file():
        print(f"no kacscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units_e2e, units_layer = declared_metrics()
    env = environment(args.seed)
    try:
        plain, traced, probes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = per_layer(plain, traced) if args.trace else end_to_end(plain, probes)
    units = units_layer if args.trace else units_e2e
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)} untraced + {len(traced)} traced")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for key in ("wall_s", "wall_raw_s", "speed"):
        values = [p[key] for p in plain]
        print(f"# {key} over {len(values)} untraced passes: min {min(values):.6g} "
              f"median {statistics.median(values):.6g} max {max(values):.6g}")
    print(f"fail_frac {failed / attempted if attempted else 1.0:.6g} ({failed}/{attempted})")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            record = dict(result, env=env, workload=args.workload, trace=args.trace,
                          seconds=args.seconds, passes=passes, setup_probes=probes)
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

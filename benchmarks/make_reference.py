"""Record the reference results the benchmark checks against.

The files under ``reference/`` were written by this script at the commit
that introduced the benchmark, and must only be rewritten when a change is
meant to alter these results.  Run from the repository root:

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    code, text = workloads.call_cli(["verify", "--format", "json"])
    if code != 0:
        raise SystemExit(f"verify exited with {code}")
    keep = ("spec", "classes_checked", "min_f", "equality_classes")
    doc = {"diagrams": [{k: d[k] for k in keep} for d in json.loads(text)["diagrams"]]}
    workloads.VERIFY_REFERENCE.parent.mkdir(exist_ok=True)
    with open(workloads.VERIFY_REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")

    lines = []
    for spec, order, _count in workloads.enumerate_setup(0).runs:
        code, text = workloads.call_cli(["enumerate", spec, "--order", str(order), "--format", "json"])
        if code != 0:
            raise SystemExit(f"enumerate {spec} exited with {code}")
        for c in json.loads(text)["classes"]:
            lines.append(
                f"{spec}\t{order}\t{c['kac']}\t{c['fixed_type']}\t{c['fixed_dim']}\t{int(c['is_equality'])}\n"
            )
    # mtime=0 keeps the file byte-identical across re-recordings.
    with open(workloads.ENUMERATE_REFERENCE, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write("".join(sorted(lines)).encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

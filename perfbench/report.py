"""One report over every workload.

Usage, from the root of the repository::

    python3 perfbench/report.py --seed 1 [--seconds 10] [--trace 1]

Runs ``run.py`` once per workload, each in its own interpreter, then
prints every end-to-end metric by name with its unit and sample count for
each workload and, with ``--trace 1``, each workload's per-layer table.
The combined report is written to ``perfbench/out/report.txt`` and
``perfbench/out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = {}
    for workload in WORKLOADS:
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, check=True, stdout=subprocess.DEVNULL,
        )
        stem = OUT / f"{workload}-trace{args.trace}"
        runs[workload] = {
            "data": json.loads(stem.with_suffix(".json").read_text()),
            "text": stem.with_suffix(".txt").read_text(),
        }

    lines = [
        f"perfbench report  seed {args.seed}  seconds {args.seconds:g}",
        "",
    ]
    header = f"{'metric':22s} {'unit':5s}" + "".join(
        f" {w:>24s}" for w in runs
    )
    lines.append(header)
    first = next(iter(runs.values()))["data"]
    for table in ("end_to_end", "raw"):
        for name, head in first[table].items():
            cells = []
            for run in runs.values():
                entry = run["data"][table][name]
                value, samples = entry["value"], entry["samples"]
                cells.append(f" {value:>16.6g} (n={samples:>4d})")
            lines.append(f"{name:22s} {head['unit']:5s}" + "".join(cells))
    failed = []
    for run in runs.values():
        result = run["data"]["result"]
        share = result["failed"] / max(1, result["attempted"])
        failed.append(f" {share:>16.4f} (n={result['attempted']:>4d})")
    lines.append(f"{'failed_share':22s} {'ratio':5s}" + "".join(failed))
    lines.append("")
    for workload, run in runs.items():
        lines += [f"== {workload}", run["text"].rstrip(), ""]
    report = "\n".join(lines)
    (OUT / "report.txt").write_text(report + "\n")
    (OUT / "report.json").write_text(
        json.dumps({w: run["data"] for w, run in runs.items()}, indent=1)
    )
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper_campaign --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` first runs
the same untraced phase (for ``trace.overhead``), then sets the workload
up again with every layer boundary wrapped and runs a traced phase, and
reports the per-layer metrics.  The human-readable report goes to
standard output and to ``perfbench/out/``; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

from refs import load_refs
from workloads import WORKLOADS, Tally, limit_address_space, spin

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The reference host's ``host.spin_s`` (one ``SPIN_ITERATIONS`` spin):
#: the median over the 40 untraced development runs described in
#: ``perfbench/README.md``.  On it ``norm_cases_per_s`` equals
#: ``cases_per_s``.
REFERENCE_SPIN_S = 0.0455

HASH_SEED = "0"

#: Extra set-up samples, each in a fresh interpreter, after measuring.
SETUP_SAMPLES = 2

#: The bounded end-to-end metrics (see ``BENCHMARK.json``).  Raw
#: ``cases_per_s``, ``job_latency_*`` and set-up wall time follow the
#: host's speed: over ten runs on the development host their quartile
#: spreads reached 37% and 43%, the yardstick's 24%.  They are reported
#: unbounded; their host-normalised forms (``setup_s`` is normalised) are
#: the gated ones.
END_TO_END_UNITS = {
    "setup_s": "s",
    "norm_cases_per_s": "1/s",
    "peak_rss_mb": "MB",
    "norm_job_latency_p50_s": "s",
    "norm_job_latency_p75_s": "s",
}
RAW_UNITS = {
    "setup_wall_s": "s",
    "cases_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p75_s": "s",
}


def prepare_environment() -> None:
    """Pin the program's inputs to the command line: drop every
    ``BALLISTA_*`` variable (cap, shards, chaos, fault injection,
    deadlines, retries, timeouts) and keep temporary files inside the
    checkout."""
    for name in [n for n in os.environ if n.startswith("BALLISTA_")]:
        del os.environ[name]
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    # Spawned service workers receive this path from their parent.
    sys.path.insert(0, str(ROOT / "src"))


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Linearly interpolated percentile, and the number of samples above
    it.  Interpolation keeps two ops of similar latency that swap places
    from one run to the next from moving the value by their gap."""
    ordered = sorted(values)
    position = pct / 100 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low]
    if position > low and ordered[high] != value:
        value += (ordered[high] - value) * (position - low)
    return value, sum(1 for v in ordered if v > value)


def peak_rss_mb(children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        # The largest worker child's peak (Linux reports KiB).
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def timed_setup(cls, seed: int, refs: dict):
    """Build and set up a workload, with a yardstick spin just before
    and just after: ``(workload, seconds, (spin before, spin after))``."""
    before = spin()
    started = perf_counter()
    workload = cls(seed, refs)
    workload.setup()
    took = perf_counter() - started
    return workload, took, (before, spin())


def setup_sample(workload: str, seed: int) -> tuple[float, list[float]]:
    """Time one set-up in a fresh interpreter (same code path)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["spins"]


def reference_setup_s(took: float, spins) -> float:
    """A set-up time on the reference host: scaled by the reference
    spin over the mean of the spins taken around it."""
    return took * REFERENCE_SPIN_S * 2 / sum(spins)


def raw_metrics(tally) -> dict[str, tuple[float, int]]:
    """Throughput and op latency as measured: ``(value, samples)``.
    The latency samples are the distinct jobs (see ``Tally.per_key``)."""
    ops = len(tally.latencies)
    latencies = tally.per_key(tally.latencies)
    return {
        "cases_per_s": (
            tally.cases / tally.wall_s if tally.wall_s > 0 else 0.0, ops
        ),
        "job_latency_p50_s": (percentile(latencies, 50)[0], len(latencies)),
        "job_latency_p75_s": (percentile(latencies, 75)[0], len(latencies)),
    }


def end_to_end(tally, setups: list, rss_mb: float) -> tuple[dict, dict, dict]:
    """The bounded end-to-end metrics and the raw ones, each with its
    sample count, and report notes.  ``setups`` holds ``(seconds,
    spins)`` per set-up sample."""
    raw = {
        "setup_wall_s": (
            statistics.median(took for took, _ in setups), len(setups)
        ),
    } | raw_metrics(tally)
    spin_s = tally.host_spin_s()
    latencies = tally.per_key(tally.reference_latencies(REFERENCE_SPIN_S))
    p50, beyond50 = percentile(latencies, 50)
    p75, beyond75 = percentile(latencies, 75)
    values = {
        "setup_s": (
            statistics.median(reference_setup_s(*s) for s in setups),
            len(setups),
        ),
        "norm_cases_per_s": (
            raw["cases_per_s"][0] * spin_s / REFERENCE_SPIN_S,
            len(tally.spins),
        ),
        "peak_rss_mb": (rss_mb, 1),
        "norm_job_latency_p50_s": (p50, len(latencies)),
        "norm_job_latency_p75_s": (p75, len(latencies)),
    }
    notes = {
        "host.spin_s": spin_s,
        "spin_samples": len(tally.spins),
        "latency_beyond_p50": beyond50,
        "latency_beyond_p75": beyond75,
    }

    def entries(table, units):
        return {
            name: {"value": value, "unit": units[name], "samples": n}
            for name, (value, n) in table.items()
        }

    return entries(values, END_TO_END_UNITS), entries(raw, RAW_UNITS), notes


def per_layer(tracer, tally, untraced) -> dict:
    """Per-layer metrics of the traced phase ``tally``, plus the raw
    end-to-end metrics of the ``untraced`` phase."""
    totals = tracer.totals()

    def layer(name: str, key: str = "self_s") -> float:
        return totals.get(name, {}).get(key, 0)

    cases = layer("core.executor", "calls")
    sequences = layer("core.sequences.plan", "calls")
    jobs = tally.jobs
    first_rows = tracer.marks.get("first_row", [])
    traced_cps = tally.cases / tally.wall_s if tally.wall_s > 0 else 0.0
    op_self = sum(
        row["op_self_s"] for name, row in totals.items() if name != "host.spin"
    )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "core.generator.plan_s": (layer("core.generator.plan"), "s"),
        "core.generator.resolve_s": (layer("core.generator.resolve"), "s"),
        "core.campaign.self_s": (layer("core.campaign"), "s"),
        "core.executor.cases": (cases, "count"),
        "core.executor.self_s": (layer("core.executor"), "s"),
        "core.values.self_s": (layer("core.values"), "s"),
        "sim.machine.spawn_s": (layer("sim.machine.spawn"), "s"),
        "sim.process.self_s": (layer("sim.process"), "s"),
        "sim.machine.reverts": (layer("sim.machine.revert", "calls"), "count"),
        "sim.machine.revert_s": (layer("sim.machine.revert"), "s"),
        "sim.machine.reboots": (layer("sim.machine.reboot", "calls"), "count"),
        "sim.machine.reboot_s": (layer("sim.machine.reboot"), "s"),
        "sim.machine.residue_s": (layer("sim.machine.residue"), "s"),
        "sim.machine.wear_s": (layer("sim.machine.wear"), "s"),
        "sim.filesystem.lookups": (
            layer("sim.filesystem.lookup", "calls"), "count"),
        "sim.filesystem.lookup_s": (layer("sim.filesystem.lookup"), "s"),
        "sim.filesystem.self_s": (layer("sim.filesystem"), "s"),
        "sim.filesystem.lookups_per_case": (
            ratio(layer("sim.filesystem.lookup", "calls"), cases), "ratio"),
        "sim.memory.scan_s": (layer("sim.memory.scan"), "s"),
        "sim.guarded.copies": (layer("sim.guarded.copy", "calls"), "count"),
        "sim.guarded.copy_s": (layer("sim.guarded.copy"), "s"),
        "sim.guarded.copies_per_case": (
            ratio(layer("sim.guarded.copy", "calls"), cases), "ratio"),
        "api.win32.self_s": (layer("api.win32"), "s"),
        "api.posix.self_s": (layer("api.posix"), "s"),
        "api.libc.self_s": (layer("api.libc"), "s"),
        "core.classify.s": (layer("core.classify"), "s"),
        "core.results.record_s": (layer("core.results.record"), "s"),
        "core.results_io.checkpoints": (
            layer("core.results_io.checkpoint", "calls"), "count"),
        "core.results_io.checkpoint_s": (
            layer("core.results_io.checkpoint"), "s"),
        "obs.recorder.events": (tally.events, "count"),
        "obs.recorder.bytes": (tally.event_bytes, "B"),
        "obs.recorder.s": (layer("obs.recorder"), "s"),
        "core.sequences.plan_s": (layer("core.sequences.plan"), "s"),
        "core.sequences.steps_per_sequence": (
            ratio(layer("core.executor", "calls"), sequences), "ratio"),
        "service.queue.submit_s": (layer("service.queue.submit"), "s"),
        "service.leases.grants": (
            layer("service.leases.grant", "calls"), "count"),
        "service.leases.grants_per_shard": (
            ratio(layer("service.leases.grant", "calls"), jobs), "ratio"),
        "service.job.first_row_s": (
            statistics.median(first_rows) if first_rows else 0.0, "s"),
        "service.client.fetch_s": (layer("service.client.fetch"), "s"),
        "service.client.wait_s": (layer("service.client.wait"), "s"),
        "service.client.polls_per_job": (
            ratio(layer("service.client.poll", "calls"), jobs), "ratio"),
        "service.finalize_s": (layer("service.finalize"), "s"),
        "host.spin_s": (tally.host_spin_s(), "s"),
        "trace.overhead": (
            ratio(traced_cps, raw_metrics(untraced)["cases_per_s"][0]),
            "ratio",
        ),
        "trace.attributed_share": (ratio(op_self, tally.busy_s), "ratio"),
        "failed_share": (ratio(tally.failed, tally.attempted), "ratio"),
    }
    for name, (value, _) in raw_metrics(untraced).items():
        metrics[name] = (value, RAW_UNITS[name])
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def layer_table(tracer, tally) -> list[str]:
    totals = tracer.totals()
    busy = tally.busy_s or 1.0
    lines = [
        f"  traced ops: {tally.attempted}, op wall time {tally.busy_s:.3f} s, "
        f"{tracer.span_count()} spans",
        f"  {'layer':28s} {'calls':>10s} {'in ops':>10s} {'self s':>9s} "
        f"{'share':>7s}",
    ]
    rows = sorted(totals.items(), key=lambda item: -item[1]["op_self_s"])
    for name, row in rows:
        lines.append(
            f"  {name:28s} {row['calls']:10d} {row['op_calls']:10d} "
            f"{row['self_s']:9.3f} {row['op_self_s'] / busy:7.1%}"
        )
    return lines


def format_metrics(title: str, metrics: dict) -> list[str]:
    lines = [title]
    for name, entry in metrics.items():
        samples = f"  n={entry['samples']}" if "samples" in entry else ""
        lines.append(
            f"  {name:36s} {entry['value']:>14.6g} {entry['unit']:6s}{samples}"
        )
    return lines


def failures(tally) -> list[str]:
    lines = [
        f"  ops attempted {tally.attempted}, failed {tally.failed} "
        f"(failed_share {tally.failed / max(1, tally.attempted):.4f}); "
        f"output checks: {tally.checked} matched, "
        f"{tally.mismatched} mismatched, "
        f"{tally.unchecked} without a reference"
    ]
    for error, count in sorted(tally.errors.items()):
        lines.append(f"    {error}: {count}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing changes set and dict layouts, and with them
        # allocation and GC patterns: run every process of a run with
        # one fixed hash seed (spawned service workers inherit it).
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        script = str(Path(__file__).resolve())
        os.execv(sys.executable, [sys.executable, script] + sys.argv[1:])
    prepare_environment()
    limit_address_space()
    refs = load_refs()
    cls = WORKLOADS[args.workload]

    workload, took, spins = timed_setup(cls, args.seed, refs)
    setups = [(took, spins)]
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": took, "spins": spins}))
        return 0

    tally = Tally(concurrent=cls.concurrent)
    try:
        workload.run(args.seconds, tally)
    finally:
        workload.close()
    rss_mb = peak_rss_mb(cls.concurrent)
    lines = [
        f"workload {args.workload}  seed {args.seed}  "
        f"seconds {args.seconds:g}"
    ]
    lines += failures(tally)

    traced_tally = None
    if args.trace:
        from tracing import Tracer

        traced_tally = Tally(concurrent=cls.concurrent)
        tracer = Tracer()
        seen_ops: set[int] = set()

        def first_row(buf, page) -> None:
            if page["rows"] and buf.op >= 0 and buf.op not in seen_ops:
                seen_ops.add(buf.op)
                waited = perf_counter_ns() - buf.op_started
                tracer.mark("first_row", waited / 1e9)

        traced = cls(args.seed, refs)
        tracer.install(
            traced.registry(),
            traced.types(),
            extra_layers=("host.spin", "service.job"),
            hooks={"service.client.fetch": first_row},
        )
        try:
            traced.setup()
            traced.run(args.seconds, traced_tally, tracer)
        finally:
            traced.close()
            tracer.uninstall()
        span_dir = tracer.write(OUT / f"spans-{args.workload}")
        layers = per_layer(tracer, traced_tally, tally)
        lines += ["traced phase:"] + failures(traced_tally)
        lines += layer_table(tracer, traced_tally)
        lines += [f"  spans written to {span_dir.relative_to(ROOT)}"]

    setups += [
        setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES)
    ]
    untraced, raw, notes = end_to_end(tally, setups, rss_mb)
    lines += format_metrics("end-to-end (untraced):", untraced)
    lines += format_metrics("as measured, unbounded (untraced):", raw)
    lines.append(
        f"  host.spin_s {notes['host.spin_s']:.6f} over "
        f"{notes['spin_samples']} spins; {notes['latency_beyond_p50']} / "
        f"{notes['latency_beyond_p75']} latency samples beyond p50 / p75"
    )
    tallies = [tally] + ([traced_tally] if traced_tally else [])
    if args.trace:
        lines += format_metrics("per-layer (traced):", layers)
        metrics = layers
    else:
        metrics = untraced
    result = {
        "correct": all(t.mismatched == 0 for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }
    report = "\n".join(lines)
    stem = OUT / f"{args.workload}-trace{args.trace}"
    stem.with_suffix(".txt").write_text(report + "\n")
    stem.with_suffix(".json").write_text(
        json.dumps(
            {
                "args": vars(args),
                "end_to_end": untraced,
                "raw": raw,
                "notes": notes,
                "result": result,
            },
            indent=1,
        )
    )
    print(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads and their op accounting.

Each workload is built from a seed, set up once (timed by the caller as
``setup_s``) and then run for a number of seconds.  The program package is
imported inside :meth:`setup`, so set-up time includes importing it.

* ``paper_campaign`` -- the paper's serial campaign: all seven variants in
  paper order at cap 300, with a JSONL event recorder and a checkpoint
  every 25 MuTs (what ``repro run --events ... --checkpoint ...`` does).
  One op is one MuT.
* ``file_churn`` -- WinNT at the paper's cap 5000, restricted to the 60
  MuTs of the three file groups; no recorder, no checkpoint.  One op is
  one MuT.
* ``sequence_faults`` -- sequence mode with the default fault families.
  One op is one (variant, sequence seed) job of 300 sequences.
* ``service_jobs`` -- an in-process ``CampaignService(max_workers=2)``
  with two closed-loop tenant connections.  One op is one job.

Every workload runs whole units -- a campaign, a pass over the sequence
jobs, a round of service jobs -- until the run's seconds are used up, so
every run measures the same mix of ops.  The case plans of the campaign
workloads are fixed by the paper's sampling (seeded by MuT name), and the
sequence jobs by their fixed seeds; the workload seed picks where
``service_jobs`` starts its variant rotation.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import random
import resource
import shutil
import statistics
import tempfile
import threading
import zlib
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter

from refs import ERROR_PREFIX, digest, mismatched_rows

CAP = 300
CHURN_CAP = 5000
CHURN_GROUPS = (
    "File/Directory Access",
    "C file I/O management",
    "I/O Primitives",
)
CHECKPOINT_EVERY = 25
SEQUENCES_PER_JOB = 300
#: The sequence seeds of ``sequence_faults``: one job per (variant, seed)
#: in every unit.  ``refs.json`` holds a reference for each job.
SEQUENCE_SEEDS = tuple(
    zlib.crc32(f"perfbench-sequence-{index}".encode()) for index in range(8)
)
SERVICE_WORKERS = 2
SERVICE_TENANTS = 2
#: Jobs per tenant in one round (one per service-load variant, so every
#: round runs the same job mix), and rounds per unit.  The yardstick
#: spins before each round, while no job runs.
JOBS_PER_ROUND = 5
ROUNDS_PER_UNIT = 5
JOB_TIMEOUT_S = 120.0

#: Address-space cap for the benchmark process and its workers.  Some
#: generated sequences (e.g. ``fseek(stdout, LONG_MAX)`` then ``putc``)
#: make the simulated file system materialise a 2 GiB file.  Without the
#: cap the program completes such a job in about 4 GB and 5 s; under it
#: the job fails with ``MemoryError`` -- a failure the cap causes, not the
#: program alone -- and counts as a failed op, so ``peak_rss_mb`` and the
#: latencies leave out that job's real cost.
ADDRESS_SPACE_LIMIT = 2 << 30

#: Integer-spin yardstick size, and the op time between two spins.
SPIN_ITERATIONS = 500_000
SPIN_INTERVAL_S = 1.0
#: Yardstick samples before and after a run's units.
SPINS_AROUND = 3


def limit_address_space() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    if soft == resource.RLIM_INFINITY or soft > limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def spin() -> float:
    """Seconds for a fixed integer spin: the host-speed yardstick."""
    started = perf_counter()
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc = (acc + i) % 1_000_003
    if acc < 0:  # keeps the loop's result live
        raise AssertionError(acc)
    return perf_counter() - started


@dataclass
class Tally:
    """What one measured phase did."""

    #: Ops overlap: wall time comes from :meth:`window`, not from ops.
    concurrent: bool = False
    latencies: list[float] = field(default_factory=list)
    #: Per latency, the window (see :attr:`windows`) its op ended in.
    op_windows: list[int] = field(default_factory=list)
    #: Per latency, what the op ran: ops with equal keys repeat one job.
    op_keys: list = field(default_factory=list)
    #: Sum of op durations (spins excluded).
    busy_s: float = 0.0
    #: Wall time the throughput is divided by: ``busy_s`` for serial
    #: workloads, the rounds' windows for concurrent tenants.
    wall_s: float = 0.0
    cases: int = 0
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    checked: int = 0
    mismatched: int = 0
    unchecked: int = 0
    #: Yardstick samples, and the wall time between each two of them.
    spins: list[float] = field(default_factory=list)
    windows: list[float] = field(default_factory=list)
    open_window: float = 0.0
    events: int = 0
    event_bytes: int = 0
    jobs: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def op(
        self, seconds: float, error: str | None = None, key=None
    ) -> None:
        with self.lock:
            self.op_keys.append(len(self.op_keys) if key is None else key)
            self.attempted += 1
            self.busy_s += seconds
            if not self.concurrent:
                self.wall_s += seconds
                self.open_window += seconds
            self.op_windows.append(len(self.spins) - 1)
            if error is None:
                self.latencies.append(seconds)
            else:
                # A failed op misses every latency limit.
                self.latencies.append(float("inf"))
                self.fail(error)

    def window(self, seconds: float) -> None:
        """Count the wall time of a round of concurrent ops."""
        self.wall_s += seconds
        self.open_window += seconds

    def spin(self, tracer=None) -> None:
        """Take one yardstick sample, outside any op."""
        if tracer is not None:
            tracer.set_op(-1)
        took = spin() if tracer is None else tracer.call("host.spin", spin)
        if self.spins:
            self.windows.append(self.open_window)
        self.open_window = 0.0
        self.spins.append(took)

    def host_spin_s(self) -> float:
        """The run's yardstick: each window between two spins timed by the
        mean of those spins and weighted by its wall time (harmonic, so
        ``wall_s / host_spin_s`` sums the windows' time on the reference
        host).  The median spin if no window holds any time."""
        if not sum(self.windows):
            return statistics.median(self.spins)
        weighted = sum(
            busy * 2 / (before + after)
            for busy, before, after in zip(
                self.windows, self.spins, self.spins[1:]
            )
        )
        return sum(self.windows) / weighted

    def reference_latencies(self, reference_spin_s: float) -> list[float]:
        """Op latencies on the reference host: each scaled by the ratio
        of the reference spin to the mean of the spins around its
        window."""
        spins = self.spins
        return [
            latency * reference_spin_s * 2 / (spins[w] + spins[w + 1])
            for latency, w in zip(self.latencies, self.op_windows)
        ]

    def per_key(self, latencies: list[float]) -> list[float]:
        """The median latency of each distinct op key: a job that every
        unit repeats is one sample, and a one-off slow run of it moves
        its median less than it would move a percentile over ops."""
        groups: dict = {}
        for key, latency in zip(self.op_keys, latencies):
            groups.setdefault(key, []).append(latency)
        return [statistics.median(group) for group in groups.values()]

    def fail(self, error: str, count: int = 1) -> None:
        self.failed += count
        self.errors[error] += count

    def check(self, ok: bool) -> None:
        """Record one op's output check (a mismatch is a failed op)."""
        with self.lock:
            if ok:
                self.checked += 1
            else:
                self.mismatched += 1
                self.fail("OutputMismatch")


class MutClock:
    """``Campaign.run`` progress callback that makes each MuT one op.

    The first op opens at :meth:`start`, just before ``Campaign.run`` is
    called, so it also carries the run's preamble and the first
    variant's machine boot.  Every later op opens at its MuT's progress
    call and closes at the next one (or when the campaign returns), so
    it also carries the work between two MuTs: a checkpoint, the end of
    a variant and the next variant's boot.  Every moment of
    ``Campaign.run`` thus lies in an op, except the yardstick spins,
    taken between two ops at variant boundaries and after every
    :data:`SPIN_INTERVAL_S` of ops.
    """

    def __init__(self, tally: Tally, tracer, first_op: int) -> None:
        self.tally = tally
        self.tracer = tracer
        self.op_id = first_op
        self.variant: str | None = None
        #: The open op's MuT, by plan position: a name can repeat in a
        #: variant (Linux has both libc and POSIX ``rename``).
        self.position = -1
        self.started: float | None = None
        self.since_spin = 0.0

    def start(self) -> None:
        """Open op :attr:`op_id`."""
        if self.tracer is not None:
            self.tracer.set_op(self.op_id)
        self.started = perf_counter()

    def __call__(
        self, variant: str, name: str, position: int, total: int
    ) -> None:
        if self.variant is None:  # the first MuT: its op is open
            self.variant, self.position = variant, position
            return
        now = perf_counter()
        self.tally.op(now - self.started, key=(self.variant, self.position))
        self.since_spin += now - self.started
        if variant != self.variant or self.since_spin >= SPIN_INTERVAL_S:
            self.tally.spin(self.tracer)
            self.since_spin = 0.0
        self.variant, self.position = variant, position
        self.op_id += 1
        self.start()

    def finish(self, error: str | None = None) -> None:
        if self.started is not None:
            self.tally.op(
                perf_counter() - self.started,
                error,
                (self.variant, self.position),
            )
            self.started = None
        if self.tracer is not None:
            self.tracer.set_op(-1)


class Workload:
    """A workload: set up once, then run whole units of ops."""

    name = ""
    #: Ops run concurrently in worker processes: throughput is divided by
    #: the window, not by the sum of op durations, and peak RSS includes
    #: the largest worker.
    concurrent = False
    min_units = 1

    def __init__(self, seed: int, refs: dict) -> None:
        self.seed = seed
        self.refs = refs[self.name]
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{self.name}-"))

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, tally: Tally, tracer) -> bool:
        """Run one unit of ops; False when another unit would only
        repeat a deterministic failure."""
        raise NotImplementedError

    def renew(self) -> None:
        """Rebuild the program objects before a further unit, so that it
        starts as cold as the first: reused objects keep lazily filled
        caches (the generator's resolved cases) and would run faster than
        any real campaign does.  The old objects are freed first, so
        that peak RSS does not count two sets of them."""
        self.discard()
        gc.collect()
        self.setup()

    def discard(self) -> None:
        """Drop the references :meth:`setup` made."""

    def run(self, seconds: float, tally: Tally, tracer=None) -> None:
        """Run whole units, at least :attr:`min_units`, until ``seconds``
        have passed, so every run measures the same mix of ops.  A traced
        run needs no repeats: its layer shares are not medians."""
        started = perf_counter()
        least = self.min_units if tracer is None else 1
        for _ in range(SPINS_AROUND):
            tally.spin(tracer)
        units = 1
        while self.unit(tally, tracer) and (
            units < least or perf_counter() - started < seconds
        ):
            self.renew()
            units += 1
        for _ in range(SPINS_AROUND):
            tally.spin(tracer)

    def registry(self):
        from repro import default_registry

        return default_registry()

    def types(self):
        from repro import default_types

        return default_types()

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


class _CampaignWorkload(Workload):
    """One whole serial case-mode campaign per unit, one op per MuT."""

    telemetry = False

    def campaign(self):
        raise NotImplementedError

    def setup(self) -> None:
        self._campaign = self.campaign()

    def discard(self) -> None:
        self._campaign = None

    def unit(self, tally: Tally, tracer) -> bool:
        from repro.core.results_io import results_to_dict

        clock = MutClock(tally, tracer, tally.attempted)
        kwargs = {"progress": clock}
        recorder = None
        if self.telemetry:
            from repro.obs.recorder import JsonlRecorder

            events = self.tmp / "events.jsonl"
            recorder = JsonlRecorder(events)
            kwargs.update(
                recorder=recorder,
                checkpoint_path=self.tmp / "run.ckpt",
                checkpoint_every=CHECKPOINT_EVERY,
            )
        clock.start()
        try:
            try:
                results = self._campaign.run(**kwargs)
            finally:
                if recorder is not None:
                    recorder.close()
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            clock.finish(type(exc).__name__)
            return False
        clock.finish()
        tally.cases += results.total_cases()
        if recorder is not None:
            tally.events += recorder.count
            tally.event_bytes += events.stat().st_size
        bad = mismatched_rows(results_to_dict(results), self.refs)
        tally.checked += len(results) - len(bad)
        tally.mismatched += len(bad)
        if bad:
            tally.fail("OutputMismatch", len(bad))
        return True


class PaperCampaign(_CampaignWorkload):
    name = "paper_campaign"
    telemetry = True

    def campaign(self):
        from repro import ALL_VARIANTS, Campaign, CampaignConfig

        return Campaign(
            list(ALL_VARIANTS),
            self.registry(),
            self.types(),
            CampaignConfig(cap=CAP),
        )


class FileChurn(_CampaignWorkload):
    name = "file_churn"
    #: One campaign has only 60 MuTs, and the few around the median
    #: differ by 5-15% from each other, so a one-off slow run of one of
    #: them moves p50 by as much.  Each MuT's latency is the median of
    #: its runs in three campaigns, which drops one slow run (two
    #: campaigns left p50 with a 13% spread over ten runs).
    min_units = 3

    def campaign(self):
        from repro import WINNT, Campaign, CampaignConfig

        registry = self.registry()
        names = [
            mut.name
            for mut in registry.for_variant(WINNT)
            if mut.group in CHURN_GROUPS
        ]
        return Campaign(
            [WINNT],
            registry,
            self.types(),
            CampaignConfig(cap=CHURN_CAP),
            muts=names,
        )


class SequenceFaults(Workload):
    """One unit: every (variant, sequence seed) job once, variants in
    paper order.  The order is fixed: peak RSS depends on which jobs ran
    before the ones that allocate most."""

    name = "sequence_faults"
    #: A pass takes about as long as a run's seconds.  Runs that made one
    #: pass and runs that made two differed in p50 by a third (later
    #: passes reuse process-wide caches), so always make two.
    min_units = 2

    def setup(self) -> None:
        from repro import ALL_VARIANTS, Campaign, CampaignConfig

        registry, types = self.registry(), self.types()
        # One campaign per variant: its case plans are materialised
        # here, once; each job only changes the sequence seed.
        self._campaigns = [
            Campaign(
                [variant],
                registry,
                types,
                CampaignConfig(
                    cap=CAP, mode="sequence", sequences=SEQUENCES_PER_JOB
                ),
            )
            for variant in ALL_VARIANTS
        ]

    def discard(self) -> None:
        self._campaigns = []

    def unit(self, tally: Tally, tracer) -> bool:
        from repro.core.results_io import results_to_dict

        since_spin = 0.0
        jobs = [(c, seed) for c in self._campaigns for seed in SEQUENCE_SEEDS]
        for campaign, sequence_seed in jobs:
            campaign.config.sequence_seed = sequence_seed
            if tracer is not None:
                tracer.set_op(tally.attempted)
            started = perf_counter()
            try:
                results = campaign.run()
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                results, error = None, type(exc).__name__
            else:
                error = None
            took = perf_counter() - started
            if tracer is not None:
                tracer.set_op(-1)
            key = f"{campaign.variants[0].key}/{sequence_seed}"
            tally.op(took, error, key)
            if results is not None:
                tally.cases += results.total_cases()
                expected = self.refs[key]
                if expected.startswith(ERROR_PREFIX):
                    # Raised when the references were made: nothing to
                    # compare against.
                    tally.unchecked += 1
                else:
                    tally.check(digest(results_to_dict(results)) == expected)
            since_spin += took
            if since_spin >= SPIN_INTERVAL_S:
                tally.spin(tracer)
                since_spin = 0.0
        return True


class ServiceJobs(Workload):
    """One unit: :data:`ROUNDS_PER_UNIT` rounds in which each tenant runs
    :data:`JOBS_PER_ROUND` jobs back to back, rotating over the
    service-load variants from an offset drawn from the workload seed."""

    name = "service_jobs"
    concurrent = True
    #: One unit (50 jobs) left the normalised latencies and throughput
    #: with a 10-24% spread over runs; two units, 9-11%.
    min_units = 2

    def setup(self) -> None:
        from repro.service import CampaignService, ServiceClient
        from repro.triage.load_test import (
            SERVICE_LOAD_MUTS,
            SERVICE_LOAD_VARIANTS,
        )

        self.registry()
        self._variants = SERVICE_LOAD_VARIANTS
        self._muts = list(SERVICE_LOAD_MUTS)
        self._rng = random.Random(self.seed)
        self._service = CampaignService(
            self.tmp / "service", max_workers=SERVICE_WORKERS
        )
        host, port = self._service.listen()
        self._clients = [
            ServiceClient.connect(host, port) for _ in range(SERVICE_TENANTS)
        ]
        self._op_ids = itertools.count()

    def _tenant(self, index: int, offset: int, tally: Tally, tracer) -> None:
        from repro.core.results_io import results_to_dict

        client = self._clients[index]
        for k in range(JOBS_PER_ROUND):
            variant = self._variants[
                (offset + index + SERVICE_TENANTS * k) % len(self._variants)
            ]
            op = next(self._op_ids)

            def job():
                job_id, _ = client.submit(
                    [variant],
                    cap=CAP,
                    muts=self._muts,
                    tenant=f"tenant-{index}",
                    job_key=f"perfbench-{self.seed}-{op}",
                )
                return client.stream(job_id, timeout=JOB_TIMEOUT_S)

            if tracer is not None:
                tracer.set_op(op)
            started = perf_counter()
            try:
                if tracer is None:
                    results = job()
                else:
                    results = tracer.call("service.job", job)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                results, error = None, type(exc).__name__
            else:
                error = None
            took = perf_counter() - started
            if tracer is not None:
                tracer.set_op(-1)
            tally.op(took, error)
            if results is not None:
                with tally.lock:
                    tally.cases += results.total_cases()
                    tally.jobs += 1
                got = digest(results_to_dict(results))
                tally.check(got == self.refs[variant])

    def renew(self) -> None:
        """Every job already runs in a freshly spawned worker."""

    def unit(self, tally: Tally, tracer) -> bool:
        offset = self._rng.randrange(len(self._variants))
        for _ in range(ROUNDS_PER_UNIT):
            tally.spin(tracer)
            threads = [
                threading.Thread(
                    target=self._tenant, args=(index, offset, tally, tracer)
                )
                for index in range(SERVICE_TENANTS)
            ]
            started = perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            tally.window(perf_counter() - started)
        return True

    def close(self) -> None:
        for client in getattr(self, "_clients", ()):
            client.close()
        service = getattr(self, "_service", None)
        if service is not None:
            service.close()
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        # The service's queues started multiprocessing's resource
        # tracker.  Free them, then stop the tracker and wait for it, so
        # that no process of the run outlives it.
        self._clients, self._service = [], None
        del service
        gc.collect()
        resource_tracker._resource_tracker._stop()
        super().close()


WORKLOADS = {
    cls.name: cls
    for cls in (PaperCampaign, FileChurn, SequenceFaults, ServiceJobs)
}

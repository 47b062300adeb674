"""Regenerate ``refs.json``: the reference digests the output checks use.

Run from the root of the repository, at the commit whose outputs are the
reference::

    python3 perfbench/make_refs.py

Every reference campaign is built fresh and run serially, with no
recorder, checkpoint or benchmark code in the loop.  A sequence job that
raises is stored as ``error:<exception type>``.
"""

from __future__ import annotations

import json
import sys

from refs import ERROR_PREFIX, REFS_PATH, digest, row_digests
from run import prepare_environment
from workloads import (
    CAP,
    CHURN_CAP,
    CHURN_GROUPS,
    SEQUENCE_SEEDS,
    SEQUENCES_PER_JOB,
    limit_address_space,
)


def main() -> int:
    prepare_environment()
    limit_address_space()
    from repro import (
        ALL_VARIANTS,
        WINNT,
        Campaign,
        CampaignConfig,
        default_registry,
    )
    from repro.core.results_io import results_to_dict
    from repro.triage.load_test import SERVICE_LOAD_MUTS, SERVICE_LOAD_VARIANTS

    refs: dict = {"format": "perfbench-refs", "version": 1}
    paper = Campaign(list(ALL_VARIANTS), config=CampaignConfig(cap=CAP)).run()
    refs["paper_campaign"] = row_digests(results_to_dict(paper))
    print(f"paper_campaign: {len(paper)} rows", file=sys.stderr)

    churn_muts = [
        mut.name
        for mut in default_registry().for_variant(WINNT)
        if mut.group in CHURN_GROUPS
    ]
    churn = Campaign(
        [WINNT], config=CampaignConfig(cap=CHURN_CAP), muts=churn_muts
    ).run()
    refs["file_churn"] = row_digests(results_to_dict(churn))
    print(f"file_churn: {len(churn)} rows", file=sys.stderr)

    jobs: dict[str, str] = {}
    for variant in ALL_VARIANTS:
        for seed in SEQUENCE_SEEDS:
            config = CampaignConfig(
                cap=CAP,
                mode="sequence",
                sequences=SEQUENCES_PER_JOB,
                sequence_seed=seed,
            )
            try:
                results = Campaign([variant], config=config).run()
            except Exception as exc:  # noqa: BLE001 - the reference
                ref = ERROR_PREFIX + type(exc).__name__
            else:
                ref = digest(results_to_dict(results))
            jobs[f"{variant.key}/{seed}"] = ref
    refs["sequence_faults"] = jobs
    errors = sum(value.startswith(ERROR_PREFIX) for value in jobs.values())
    print(
        f"sequence_faults: {len(jobs)} jobs, {errors} raise", file=sys.stderr
    )

    by_key = {variant.key: variant for variant in ALL_VARIANTS}
    refs["service_jobs"] = {
        key: digest(
            results_to_dict(
                Campaign(
                    [by_key[key]],
                    config=CampaignConfig(cap=CAP),
                    muts=list(SERVICE_LOAD_MUTS),
                ).run()
            )
        )
        for key in SERVICE_LOAD_VARIANTS
    }
    REFS_PATH.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"wrote {REFS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

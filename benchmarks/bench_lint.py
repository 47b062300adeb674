"""Benchmark the full static-analysis pass and its summary cache.

``repro lint`` gates every CI run and the pre-commit loop, so it must
stay interactive: the complete pass -- every checker over the whole
``src/repro`` tree, the live-registry introspection, *and* the
interprocedural call-graph build -- is pinned under :data:`BUDGET_S`
seconds.  The budget is generous (a warm run is well under a second)
precisely so the pin only trips on algorithmic regressions such as
re-parsing files per checker or rebuilding the MuT registry per rule,
not on machine noise.

The second benchmark proves the content-hash summary cache
(:mod:`repro.lint.graph`) is live: a cold graph build extracts a
summary per file, a warm build loads them all from disk, and the warm
build must both (a) hit the cache for every file and (b) beat the cold
build's wall time.  Timings land in ``benchmarks/out/lint.txt``.
"""

from __future__ import annotations

import time

from repro.lint import Project, all_checkers, run_lint

BUDGET_S = 5.0
ROUNDS = 3


def test_full_lint_pass_under_budget(artifact_dir):
    checkers = all_checkers()

    timings = []
    for _ in range(ROUNDS):
        project = Project()  # fresh: re-parse sources, rebuild registries
        started = time.perf_counter()
        result = run_lint(project, checkers=checkers)
        timings.append(time.perf_counter() - started)

    assert result.findings == [], "benchmark expects a clean tree"
    best = min(timings)
    worst = max(timings)
    assert worst < BUDGET_S, (
        f"full lint pass took {worst:.2f}s; budget is {BUDGET_S:.1f}s"
    )

    files = len(project.source_files())
    lines = [
        f"Full `repro lint` pass, {len(checkers)} checkers, "
        f"{files} source files, {ROUNDS} rounds",
        "",
        f"best:   {best:8.3f}s",
        f"worst:  {worst:8.3f}s",
        f"budget: {BUDGET_S:8.1f}s",
        f"findings: {len(result.findings)}",
    ]
    (artifact_dir / "lint.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_graph_cache_warm_beats_cold(artifact_dir, tmp_path):
    cache = tmp_path / "lint-cache.json"

    cold_project = Project(cache_path=cache)
    started = time.perf_counter()
    cold_graph = cold_project.graph()
    cold_s = time.perf_counter() - started
    files = len(cold_project.source_files())
    assert cold_graph.cache_stats == {"hits": 0, "misses": files}

    warm_timings = []
    warm_graph = None
    for _ in range(ROUNDS):
        project = Project(cache_path=cache)
        started = time.perf_counter()
        warm_graph = project.graph()
        warm_timings.append(time.perf_counter() - started)
        assert warm_graph.cache_stats == {"hits": files, "misses": 0}, (
            "warm build must hit the summary cache for every file"
        )
    warm_s = min(warm_timings)
    assert warm_s < cold_s, (
        f"warm graph build ({warm_s:.3f}s) must beat the cold build "
        f"({cold_s:.3f}s); the content-hash cache is not paying for itself"
    )

    # Same graph either way: the cache changes cost, never results.
    assert len(warm_graph.functions) == len(cold_graph.functions)
    assert sum(len(v) for v in warm_graph.edges.values()) == sum(
        len(v) for v in cold_graph.edges.values()
    )

    with (artifact_dir / "lint.txt").open("a", encoding="utf-8") as fh:
        fh.write(
            "\n"
            f"Interprocedural graph build, {files} files "
            f"({len(cold_graph.functions)} functions, "
            f"{sum(len(v) for v in cold_graph.edges.values())} edges)\n"
            "\n"
            f"cold (extract all summaries): {cold_s:8.3f}s\n"
            f"warm (content-hash cache):    {warm_s:8.3f}s "
            f"(best of {ROUNDS})\n"
            f"speedup: {cold_s / warm_s:6.1f}x\n"
        )

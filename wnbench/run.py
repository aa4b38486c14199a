"""Benchmark entry point.

Usage, from the repository root::

    python3 wnbench/run.py --workload warm-2d --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice from fresh set-ups — with every
layer wrapped (:mod:`wnbench.layers`) and the engine's own counters on,
then untraced replaying the same operations — and reports the per-layer
metrics, the tracing overhead, the trace-consistency checks and (for the
single-caller workloads) the determinism check.

Every answer is checked after the timed phase (:mod:`wnbench.correctness`).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with sample counts, provenance and host load.  The exit code is 0
only when everything was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = {"warm-2d": 3, "cold-3d": 3, "serve-mixed": 5}
#: Exact questions a ``--trace 0`` run asks at least, past the deadline
#: if need be: p90 needs 100 for ten samples beyond it.
MIN_QUESTIONS = 120


def _import_library() -> None:
    """Put the checkout's ``src`` and root first on the import path."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: the library source is missing ({ROOT / 'src' / 'repro'}); "
            "run from a full checkout of the repository"
        )
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name == "plan.cost_log10_err_median":
        return "log10"
    return "count"


def _ratio(num, den):
    return num / den if den else None


# ----------------------------------------------------------------------
# End-to-end mode
# ----------------------------------------------------------------------
def end_to_end(phase, setup_s, wrong: int) -> dict:
    from wnbench.measure import peak_rss_mb, percentile

    questions = phase.latencies.get("question", [])
    approx = phase.latencies.get("approx", [])
    region_s = phase.latencies.get("safe_region", [])
    attempted = phase.attempted
    answered = attempted - phase.failed - wrong
    correct_questions = len(questions) + len(approx) - wrong
    return {
        "setup_s": _metric(statistics.median(setup_s), "s", len(setup_s)),
        "question_p50_ms": _metric(
            percentile(questions, 50) * 1e3, "ms", len(questions)
        ),
        "question_p90_ms": _metric(
            percentile(questions, 90) * 1e3, "ms", len(questions)
        ),
        "questions_per_s": _metric(
            correct_questions / phase.wall_s, "1/s", len(questions) + len(approx)
        ),
        "safe_region_p50_ms": _metric(
            percentile(region_s, 50) * 1e3, "ms", len(region_s)
        ),
        "approx_question_p50_ms": _metric(
            percentile(approx, 50) * 1e3, "ms", len(approx)
        ),
        "mutation_p50_ms": _metric(
            percentile(phase.latencies.get("mutation", []), 50) * 1e3,
            "ms", phase.count("mutation"),
        ),
        "answered_frac": _metric(answered / attempted, "ratio", attempted),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB", 1),
    }


# ----------------------------------------------------------------------
# Traced mode
# ----------------------------------------------------------------------
def plan_cost_error(engine, sample) -> "float | None":
    """Median |log10(estimated / actual)| over the executed plan nodes of
    ``engine.explain_plan`` for a sample of the workload's questions."""
    errors = []
    for surface, why_not, query in sample:
        report = engine.explain_plan(surface, why_not, query)
        for node in report.executed_nodes():
            est, act = node.estimate.seconds, node.actual_seconds
            if est and act and est > 0 and act > 0:
                errors.append(abs(math.log10(est / act)))
    return statistics.median(errors) if errors else None


def per_layer(tracer, delta, phase, after, plan_err, overhead) -> dict:
    """Every per-layer metric; ``None`` where it does not apply."""
    questions = phase.count("question", "approx")
    mutations = phase.count("mutation")

    def per_q(seconds):
        return _ratio(seconds * 1e3, questions)

    def per_m(seconds):
        return _ratio(seconds * 1e3, mutations)

    def d(name):
        return delta.get(name, 0)

    st = tracer.get
    client = phase.latencies.get("question", []) + phase.latencies.get("approx", [])
    served = st("serve.why_not")
    # Each request waits for the whole batch (or single answer) serving it.
    engine_work = st("core.batch").unit_weighted_s + st("core.answer").unit_weighted_s
    http_self = wait = None
    if served.calls:
        http_self = (statistics.fmean(client) - served.total_s / served.calls) * 1e3
        wait = (served.total_s - engine_work) / served.calls * 1e3
    return {
        "index.range_ms": per_q(st("index.range").self_s),
        "index.queries_per_question": _ratio(d("index.queries"), questions),
        "index.node_accesses_per_question": _ratio(
            d("index.node_accesses"), questions
        ),
        "kernels.membership_ms": per_q(tracer.layer_self_s("kernels.")),
        "kernels.calls_per_question": _ratio(
            tracer.layer_outer_calls("kernels."), questions
        ),
        "skyline.sfs_ms": per_q(st("skyline.sfs").self_s),
        "skyline.bbrs_ms": per_q(st("skyline.bbrs").self_s),
        "geometry.fold_ms": per_q(tracer.layer_self_s("geometry.fold")),
        "geometry.peak_boxes": after.get("safe_region.peak_boxes"),
        "core.rsl_ms": per_q(st("core.rsl").self_s),
        "core.explain_ms": per_q(st("core.explain").self_s),
        "core.mwp_ms": per_q(st("core.mwp").self_s),
        "core.mqp_ms": per_q(st("core.mqp").self_s),
        "core.mwq_ms": per_q(st("core.mwq").self_s),
        "core.safe_region_ms": per_q(st("core.safe_region").self_s),
        "core.batch_ms": per_q(st("core.batch").self_s),
        "core.sr_cache_hit_ratio": _ratio(
            d("safe_region.cache_hits"),
            d("safe_region.cache_hits") + d("safe_region.cache_misses"),
        ),
        "core.dsl_cache_hit_ratio": _ratio(
            d("dsl_cache.region_hits"),
            d("dsl_cache.region_hits") + d("dsl_cache.region_misses"),
        ),
        "core.gate_wait_ms": per_q(st("core.gate_wait").self_s),
        "core.invalidate_ms": per_m(st("core.invalidate").self_s),
        "core.scoped_retained_ratio": _ratio(
            d("cache.retained_scoped"), d("cache.scoped_considered")
        ),
        "plan.cache_hit_ratio": _ratio(
            d("plan.cache_hits"), d("plan.cache_considered")
        ),
        "plan.pool_hit_ratio": _ratio(
            d("plan.pool_hits"), d("plan.pool_hits") + d("plan.pool_misses")
        ),
        "plan.cost_log10_err_median": plan_err,
        "store.drain_wait_ms": per_m(st("store.drain_wait").self_s),
        "store.mutation_apply_ms": per_m(st("store.mutation_apply").self_s),
        "serve.http_self_ms": http_self,
        "serve.wait_ms": wait,
        "serve.coalesce_fanin": _ratio(
            d("serve.batches") + d("serve.coalesced"), d("serve.batches")
        ),
        "serve.shed_frac": _ratio(
            d("serve.shed_queue") + d("serve.shed_deadline"), d("serve.requests")
        ),
        "serve.stale_retries": d("serve.stale_retries") if served.calls else None,
        "prune.refine_ratio": _ratio(d("prune.pairs_refined"), d("prune.pairs_total")),
        "shard.fanouts": d("shard.fanouts"),
        "obs.trace_overhead_frac": overhead,
    }


def consistency(tracer, delta, phase) -> list:
    """Wrapped call counts against the program's own counters."""
    problems = []
    calls = tracer.get("index.range").calls
    if calls != delta.get("index.queries", 0):
        problems.append(
            f"range_indices calls {calls} != index.queries {delta.get('index.queries', 0)}"
        )
    if "read_200" in phase.extra:
        completed = delta.get("serve.completed", 0)
        if phase.extra["read_200"] != completed:
            problems.append(
                f"client 200s {phase.extra['read_200']} != serve.completed {completed}"
            )
    rows = sum(s.units for n, s in tracer.stats.items()
               if n.startswith("kernels.batch_"))
    pruned_rows = sum(s.units for n, s in tracer.stats.items()
                      if n.startswith("kernels.pruned."))
    evaluated = delta.get("kernels.customers_evaluated", 0)
    if not rows <= evaluated <= rows + pruned_rows:
        problems.append(
            f"kernel customer rows {rows} (+{pruned_rows} pruned) do not "
            f"account for kernels.customers_evaluated {evaluated}"
        )
    return problems


def _check(workload, dep, phase, stages) -> tuple:
    """Run the correctness gate: ``(wrong operations, problem messages)``."""
    start = time.perf_counter()
    checked = workload.check(dep, phase)
    stages["check_s"] = time.perf_counter() - start
    return len({key for key, _ in checked}), [msg for _, msg in checked]


def run_end_to_end(workload, args, stages) -> tuple:
    """Set up several times, measure the last set-up, check the answers."""
    setup_s = []
    dep = None
    for _ in range(SETUPS[args.workload]):
        if dep is not None:
            workload.close(dep)
        start = time.perf_counter()
        dep = workload.setup(traced=False)
        setup_s.append(time.perf_counter() - start)
    phase = workload.run(dep, seconds=args.seconds, min_questions=MIN_QUESTIONS)
    wrong, problems = _check(workload, dep, phase, stages)
    workload.close(dep)
    return phase, end_to_end(phase, setup_s, wrong), wrong, problems


def run_traced(workload, args, stages, report) -> tuple:
    """Traced pass, untraced replay, consistency/determinism checks."""
    from wnbench.layers import LayerTracer, install_layer_wrappers
    from wnbench.workloads import DETERMINISTIC_COUNTERS

    # The traced pass runs first, so that the untraced replay cannot be
    # the one paying first-touch costs: order can only overstate the
    # overhead.
    dep = workload.setup(traced=True)
    before = workload.counters(dep)
    with LayerTracer() as tracer:
        install_layer_wrappers(tracer, dep["engine"])
        phase = workload.run(dep, seconds=args.seconds / 2)
    after = workload.counters(dep)
    delta = {k: v - before.get(k, 0) for k, v in after.items()}
    replay_dep = workload.setup(traced=False)
    replay = workload.run(replay_dep, ops=phase.ops)
    replay_counters = workload.counters(replay_dep)
    workload.close(replay_dep)

    problems = consistency(tracer, delta, phase)
    if args.workload != "serve-mixed":
        for name in DETERMINISTIC_COUNTERS:
            if replay_counters.get(name) != after.get(name):
                problems.append(
                    f"nondeterministic {name}: {after.get(name)} then "
                    f"{replay_counters.get(name)} for the same seed"
                )
    plan_err = plan_cost_error(dep["engine"], workload.explain_sample(dep, phase))
    wrong, checked = _check(workload, dep, phase, stages)
    problems += checked
    workload.close(dep)

    overhead = phase.wall_s / replay.wall_s - 1.0
    layer = per_layer(tracer, delta, phase, after, plan_err, overhead)
    report["per_layer"] = layer
    report["call_stats"] = {
        name: {"calls": s.calls, "self_ms": round(s.self_s * 1e3, 3)}
        for name, s in sorted(tracer.stats.items())
    }
    questions = phase.count("question", "approx")
    metrics = {
        name: _metric(0.0 if value is None else value, layer_unit(name), questions)
        for name, value in layer.items()
    }
    return phase, metrics, wrong, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("warm-2d", "cold-3d", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()

    from repro.obs import environment_provenance
    from wnbench import measure
    from wnbench.workloads import WORKLOADS

    spec = json.loads(BENCHMARK_FILE.read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    stages = {"inputs_s": time.perf_counter() - start}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": environment_provenance(),
        "load_before": measure.load_average(),
    }
    cpu_before = measure.cpu_times()
    try:
        if args.trace:
            phase, metrics, wrong, problems = run_traced(workload, args, stages, report)
        else:
            phase, metrics, wrong, problems = run_end_to_end(workload, args, stages)
    except measure.InsufficientSamples as exc:
        print(f"error: {exc}; lengthen --seconds", file=sys.stderr)
        return 2
    finally:
        workload.shutdown()

    report["load_after"] = measure.load_average()
    report["steal_frac"] = measure.steal_fraction(cpu_before, measure.cpu_times())
    report["stages"] = stages
    report["ops"] = {
        kind: {"count": len(values), "p50_ms": statistics.median(values) * 1e3}
        for kind, values in phase.latencies.items()
    }
    report["problems"] = problems[:20]
    report["problem_count"] = len(problems)
    for name, m in metrics.items():
        print(f"{name:>34} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    correct = not problems and phase.failed == 0
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed + wrong,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

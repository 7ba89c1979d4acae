"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``search`` — find the best mapping of a conv/GEMM on a preset
  architecture and print it as a loopnest (optionally save it as JSON).
* ``evaluate`` — re-evaluate a saved mapping JSON against saved (or
  preset) architecture and workload specs.
* ``experiment`` — run one of the paper-reproduction harnesses
  (fig7a..fig7d, table1, fig8, fig9, fig10, fig11, fig12, fig13) and
  print its report; ``--journal`` makes fig8–fig13 fault-tolerant
  (checkpointed, resumable, per-search timeouts).
* ``campaign`` — run/resume/inspect a fault-tolerant search campaign
  over a whole workload suite (``campaign run``, ``campaign resume``,
  ``campaign status``; ``status --follow`` polls a live journal).
* ``obs`` — inspect a span-trace JSONL written via ``--trace``
  (``obs dump``, ``obs summarize``).
* ``bench`` — benchmark regression ledger: ``bench record`` normalizes
  BENCH_*.json payloads into a machine-tagged JSONL history,
  ``bench compare`` diffs the latest record against its baseline and
  exits nonzero on a thresholded regression.
* ``serve`` — run the mapper-as-a-service HTTP server: JSON search
  requests over ``POST /v1/search`` with job polling, request
  coalescing, admission control, a warm evaluator cache, and journaled
  crash recovery (``--journal`` + ``--resume``); see ``docs/service.md``.
* ``verify`` — differential verification: cross-check the scalar, cached,
  batch, and reference-simulator evaluation paths on generated mappings
  and run the metamorphic invariant suite (``--quick`` / ``--deep``
  profiles, ``--seed N``, ``--replay COUNTEREXAMPLE.json``); see
  ``docs/verification.md``.

``search``, ``experiment``, and the ``campaign`` run/resume commands
accept ``--trace PATH`` (stream span records as JSONL),
``--metrics-out PATH`` (write the metrics-registry snapshot as JSON on
exit), ``--serve-metrics PORT`` (serve live ``/metrics`` + ``/progress``
HTTP endpoints for the run's duration; 0 picks an ephemeral port), and
``--progress`` (live search-progress/ETA line on stderr); see
``docs/observability.md``.

Failures exit with per-error-class status codes (SpecError=2,
InvalidMappingError=3, MapspaceError=4, SearchError=5,
EvaluationError=6, JobTimeoutError=7, CampaignError=8,
VerificationError=9, BenchLedgerError=10) and a one-line stderr
message; pass ``--debug`` for the full traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.arch import eyeriss_like, simba_like, toy_linear_architecture
from repro.core.mapper import find_best_mapping
from repro.exceptions import ReproError
from repro.io import (
    architecture_from_dict,
    load_json,
    mapping_from_dict,
    mapping_to_dict,
    save_json,
    workload_from_dict,
    workload_to_dict,
)
from repro.mapping.render import render_mapping
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.model.evaluator import Evaluator
from repro.problem.conv import ConvLayer
from repro.problem.gemm import GemmLayer

ARCH_PRESETS = {
    "eyeriss": lambda: eyeriss_like(),
    "simba": lambda: simba_like(),
    "toy16": lambda: toy_linear_architecture(16),
    "toy9": lambda: toy_linear_architecture(9),
}


def _parse_shape(text: str) -> Dict[str, int]:
    """Parse ``C=512,M=128,P=28`` into a dict."""
    shape: Dict[str, int] = {}
    for chunk in text.split(","):
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        if not value:
            raise argparse.ArgumentTypeError(
                f"bad shape fragment {chunk!r}; expected DIM=SIZE"
            )
        shape[key.strip().upper()] = int(value)
    return shape


def _build_workload(args: argparse.Namespace):
    if args.workload_json:
        return workload_from_dict(load_json(args.workload_json))
    if args.conv:
        shape = _parse_shape(args.conv)
        return ConvLayer(
            name=args.name,
            n=shape.get("N", 1),
            c=shape.get("C", 1),
            m=shape.get("M", 1),
            p=shape.get("P", 1),
            q=shape.get("Q", 1),
            r=shape.get("R", 1),
            s=shape.get("S", 1),
        ).workload()
    if args.gemm:
        shape = _parse_shape(args.gemm)
        return GemmLayer(
            name=args.name,
            m=shape.get("M", 1),
            n=shape.get("N", 1),
            k=shape.get("K", 1),
        ).workload()
    raise SystemExit("specify one of --conv, --gemm, or --workload-json")


def _build_arch(args: argparse.Namespace):
    if args.arch_json:
        return architecture_from_dict(load_json(args.arch_json))
    return ARCH_PRESETS[args.arch]()


def _format_search_stats(stats: Dict) -> List[str]:
    """Render SearchResult.stats (throughput, pool mode, cache) for the CLI."""
    if not stats:
        return []
    lines: List[str] = []
    summary = []
    if stats.get("evals_per_sec"):
        summary.append(f"throughput={stats['evals_per_sec']:,.0f} evals/s")
    if stats.get("elapsed_s") is not None:
        summary.append(f"elapsed={stats['elapsed_s']:.2f}s")
    if stats.get("pool_mode"):
        summary.append(f"pool={stats['pool_mode']}")
    cache = stats.get("cache")
    if cache is not None:
        rate = cache.get("hit_rate")
        # hit_rate is None when the cache saw no lookups during the run.
        summary.append(
            f"cache-hit-rate={rate:.1%}" if rate is not None
            else "cache-hit-rate=n/a"
        )
    if summary:
        lines.append("  ".join(summary))
    # The batch sub-dict is schema-uniform across searchers (present with
    # zero counters on runs that priced nothing) — gate the footer on
    # activity, never on key existence.
    batch = stats.get("batch")
    if batch and batch.get("candidates"):
        lines.append(
            f"  batch: {batch['batches']:,} batches  "
            f"{batch['candidates']:,} candidates  "
            f"pruned={batch['pruned']:,} ({batch['prune_rate']:.1%})  "
            f"scalar-fallback={batch['fallback']:,}"
        )
    bnb = stats.get("bnb")
    # Gate on either counter: a parallel (or shallow) run can defer every
    # top-level subtree straight to leaf pricing without expanding a node.
    if bnb and (bnb.get("nodes_expanded") or bnb.get("leaves_deferred")):
        tightness = bnb.get("bound_tightness")
        tightness_part = (
            f"  bound-tightness={tightness:.1%}" if tightness is not None else ""
        )
        lines.append(
            f"  bnb: {bnb['nodes_expanded']:,} nodes expanded  "
            f"leaves-deferred={bnb.get('leaves_deferred', 0):,}  "
            f"subtrees-pruned={bnb['subtrees_pruned']:,}  "
            f"infeasible={bnb['infeasible_subtrees']:,}{tightness_part}"
        )
    pool = stats.get("pool")
    if pool:
        lines.append(
            f"  pool: {pool['workers']} workers  "
            f"depth={pool['partition_depth']}  units={pool['num_units']:,}  "
            f"transport={pool.get('transport') or 'n/a'}"
        )
    for row in stats.get("workers", ()):
        hit_rate = row.get("cache_hit_rate")
        cache_part = f"  cache-hit={hit_rate:.1%}" if hit_rate is not None else ""
        rate = row.get("evals_per_sec") or 0.0
        lines.append(
            f"  worker {row['worker']}: seed={row['seed']}  "
            f"evaluated={row['num_evaluated']:,}  valid={row['num_valid']:,}  "
            f"{rate:,.0f} evals/s{cache_part}  ({row['terminated_by']})"
        )
    return lines


@contextmanager
def _obs_session(args: argparse.Namespace) -> Iterator[None]:
    """Route a command through ``obs_scope`` when any observability flag
    (``--trace``, ``--metrics-out``, ``--serve-metrics``, ``--progress``)
    was given; a no-op otherwise.

    The registry snapshot is written (and the tracer closed, the HTTP
    server and progress printer stopped) after the command body
    finishes, so the JSON artifacts reflect the whole run.
    """
    trace = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    serve = getattr(args, "serve_metrics", None)
    progress = getattr(args, "progress", False)
    if not trace and not metrics_out and serve is None and not progress:
        yield
        return
    from repro.obs import (
        MetricsRegistry,
        ObsServer,
        ProgressPrinter,
        Tracer,
        obs_scope,
    )

    registry = MetricsRegistry()
    # An explicit tracer feeds live spans to the server's /flame even
    # when no --trace file was asked for; with --trace it streams the
    # JSONL too. obs_scope adopts (and does not close) a caller-owned
    # tracer, so close it in the finally below.
    tracer = Tracer(trace or None, registry=registry)
    server = (
        ObsServer(registry, tracer=tracer, port=int(serve))
        if serve is not None
        else None
    )
    printer = ProgressPrinter() if progress else None
    try:
        with obs_scope(registry=registry, tracer=tracer):
            if server is not None:
                server.start()
                # Parsed by tooling (obs_smoke) — keep the format stable.
                print(f"serving live telemetry at {server.url}", flush=True)
            if printer is not None:
                printer.start()
            yield
    finally:
        if printer is not None:
            printer.stop()
        if server is not None:
            server.stop()
        tracer.close()
    if metrics_out:
        save_json(registry.to_json(), metrics_out)
        print(f"metrics saved to {metrics_out}")
    if trace:
        print(f"trace saved to {trace}")


def _cmd_search(args: argparse.Namespace) -> int:
    arch = _build_arch(args)
    workload = _build_workload(args)
    constraints = (
        eyeriss_row_stationary()
        if args.arch == "eyeriss" and args.row_stationary
        else None
    )
    if args.workers > 1 and args.searcher not in ("random", "branch-bound"):
        raise SystemExit(
            "--workers > 1 drives the parallel random or branch-bound "
            "search; combine it with --searcher random or branch-bound"
        )
    if args.workers > 1 and args.searcher == "random":
        from repro.model.eval_cache import DEFAULT_CACHE_SIZE
        from repro.search.parallel import parallel_random_search

        result = parallel_random_search(
            arch,
            workload,
            kind=args.kind,
            constraints=constraints,
            objective=args.objective,
            max_evaluations=args.budget,
            patience=args.patience,
            workers=args.workers,
            seed=args.seed,
            cache_size=0 if args.no_cache else DEFAULT_CACHE_SIZE,
            start_method=args.start_method,
            batch_size=args.batch_size,
        )
    else:
        result = find_best_mapping(
            arch,
            workload,
            kind=args.kind,
            objective=args.objective,
            strategy=args.searcher,
            seed=args.seed,
            max_evaluations=args.budget,
            patience=args.patience,
            constraints=constraints,
            batch_size=args.batch_size,
            workers=args.workers,
            start_method=args.start_method,
        )
    if result.best is None:
        print("no valid mapping found", file=sys.stderr)
        return 1
    best = result.best
    print(arch.describe())
    print()
    print(workload.describe())
    print()
    print(render_mapping(best.mapping))
    print()
    print(
        f"objective={args.objective}  EDP={best.edp:.4e}  "
        f"energy={best.energy_pj:.4e} pJ  cycles={best.cycles:,}  "
        f"utilization={best.utilization:.1%}  "
        f"({result.num_valid}/{result.num_evaluated} valid mappings, "
        f"stopped by {result.terminated_by})"
    )
    for line in _format_search_stats(result.stats):
        print(line)
    if args.save_mapping:
        save_json(mapping_to_dict(best.mapping), args.save_mapping)
        print(f"mapping saved to {args.save_mapping}")
    if args.save_workload:
        save_json(workload_to_dict(workload), args.save_workload)
        print(f"workload saved to {args.save_workload}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    arch = _build_arch(args)
    workload = _build_workload(args)
    mapping = mapping_from_dict(load_json(args.mapping))
    evaluation = Evaluator(arch, workload).evaluate(mapping)
    if not evaluation.valid:
        print("INVALID mapping:", file=sys.stderr)
        for violation in evaluation.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    print(render_mapping(mapping))
    print()
    print(
        f"EDP={evaluation.edp:.4e}  energy={evaluation.energy_pj:.4e} pJ  "
        f"cycles={evaluation.cycles:,}  "
        f"utilization={evaluation.utilization:.1%}"
    )
    for component, energy in sorted(evaluation.energy_breakdown_pj.items()):
        print(f"  {component:<16} {energy:.4e} pJ")
    return 0


def _experiment_campaign(args: argparse.Namespace):
    """Build the fault-tolerance config for fig8–fig13 runs (or None)."""
    if not getattr(args, "journal", None):
        return None
    from repro.search.campaign import CampaignConfig

    return CampaignConfig(
        journal=args.journal,
        timeout_s=args.timeout,
        retries=args.retries,
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro import experiments as ex

    name = args.name
    campaign = _experiment_campaign(args)
    if name.startswith("fig7"):
        from repro.experiments.fig07 import SCENARIOS

        key = name[-1]
        if key not in SCENARIOS:
            raise SystemExit(f"unknown fig7 scenario {name!r}")
        result = ex.run_fig7_scenario(
            SCENARIOS[key](), evaluations=args.budget, runs=args.runs
        )
        print(ex.format_fig7(result))
    elif name == "table1":
        print(ex.format_table1(ex.run_table1()))
    elif name == "fig8":
        print(
            ex.format_fig8(
                ex.run_fig8(max_evaluations=args.budget, campaign=campaign)
            )
        )
    elif name == "fig9":
        print(
            ex.format_fig9(
                ex.run_fig9(max_evaluations=args.budget, campaign=campaign)
            )
        )
    elif name == "fig10":
        print(
            ex.format_fig10(
                ex.run_fig10(max_evaluations=args.budget, campaign=campaign)
            )
        )
    elif name == "fig11":
        print(
            ex.format_fig11(
                ex.run_fig11(max_evaluations=args.budget, campaign=campaign)
            )
        )
    elif name == "fig12":
        print(
            ex.format_fig12(
                ex.run_fig12(max_evaluations=args.budget, campaign=campaign)
            )
        )
    elif name in ("fig13", "fig14"):
        print(
            ex.format_fig13(
                ex.run_fig13(
                    suite=args.suite,
                    max_evaluations=args.budget,
                    campaign=campaign,
                )
            )
        )
    else:
        raise SystemExit(f"unknown experiment {name!r}")
    return 0


# ----------------------------------------------------------------- campaign


def _parse_kinds(text: str) -> List[str]:
    kinds = [kind.strip() for kind in text.split(",") if kind.strip()]
    if not kinds:
        raise SystemExit("--kinds must name at least one mapspace kind")
    return kinds


def _parse_seeds(text: str) -> List[int]:
    return [int(chunk) for chunk in text.split(",") if chunk.strip()]


def _load_fault_plan(path: Optional[str]):
    if not path:
        return None
    from repro.utils.faults import FaultPlan

    return FaultPlan.from_dict(load_json(path))


def _print_campaign_result(result) -> None:
    print(
        f"campaign: {result.num_ok} ok, {result.num_quarantined} quarantined, "
        f"{result.num_resumed} resumed from journal "
        f"(pool={result.pool_mode}, "
        f"{'complete' if result.complete else 'partial'})"
    )
    for outcome in result.outcomes:
        if outcome.ok:
            marker = "journal" if outcome.from_journal else f"{outcome.attempts} attempt(s)"
            print(
                f"  ok          {outcome.job_id}  "
                f"EDP={outcome.metrics['edp']:.4e}  [{marker}]"
            )
        else:
            error = outcome.error or {}
            print(
                f"  QUARANTINED {outcome.job_id}  "
                f"{error.get('type')}: {error.get('message')}"
            )


def _campaign_settings(args: argparse.Namespace) -> Dict:
    from repro.search.campaign import DEFAULT_RETRIES

    return {
        "workers": args.workers or 1,
        "timeout_s": args.timeout,
        "retries": args.retries if args.retries is not None else DEFAULT_RETRIES,
        "backoff_s": args.backoff,
        "start_method": args.start_method,
    }


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.experiments.campaigns import (
        build_campaign_jobs,
        campaign_header_config,
    )
    from repro.search.campaign import run_campaign

    arch = _build_arch(args)
    kinds = _parse_kinds(args.kinds)
    seeds = _parse_seeds(args.seeds)
    jobs = build_campaign_jobs(
        args.suite,
        arch,
        kinds=kinds,
        objective=args.objective,
        max_evaluations=args.budget,
        patience=args.patience,
        seeds=seeds,
        row_stationary=args.row_stationary,
    )
    settings = _campaign_settings(args)
    header = campaign_header_config(
        suite=args.suite,
        arch_name=args.arch,
        arch_json=args.arch_json,
        kinds=kinds,
        objective=args.objective,
        max_evaluations=args.budget,
        patience=args.patience,
        seeds=seeds,
        row_stationary=args.row_stationary,
        timeout_s=settings["timeout_s"],
        retries=settings["retries"],
        workers=settings["workers"],
    )
    result = run_campaign(
        jobs,
        journal_path=args.journal,
        fault_plan=_load_fault_plan(args.fault_plan),
        resume=not args.fresh,
        retry_quarantined=args.retry_quarantined,
        header_config=header,
        **settings,
    )
    _print_campaign_result(result)
    return 0


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    from repro.exceptions import CampaignError
    from repro.experiments.campaigns import build_campaign_jobs
    from repro.io.journal import Journal
    from repro.search.campaign import run_campaign

    header = Journal(args.journal).header()
    config = header.get("config") or {}
    if not config.get("suite"):
        raise CampaignError(
            f"journal {args.journal}: header carries no suite config; "
            "only journals written by 'campaign run' can be resumed here"
        )
    if config.get("arch_json"):
        arch = architecture_from_dict(load_json(config["arch_json"]))
    else:
        arch = ARCH_PRESETS[config["arch"]]()
    jobs = build_campaign_jobs(
        config["suite"],
        arch,
        kinds=config["kinds"],
        objective=config["objective"],
        max_evaluations=config["max_evaluations"],
        patience=config["patience"],
        seeds=config["seeds"],
        row_stationary=config.get("row_stationary", False),
    )
    retries = args.retries
    if retries is None:
        retries = config.get("retries")
    if retries is None:
        from repro.search.campaign import DEFAULT_RETRIES

        retries = DEFAULT_RETRIES
    result = run_campaign(
        jobs,
        journal_path=args.journal,
        workers=args.workers or config.get("workers") or 1,
        timeout_s=(
            args.timeout if args.timeout is not None else config.get("timeout_s")
        ),
        retries=retries,
        backoff_s=args.backoff,
        resume=True,
        retry_quarantined=args.retry_quarantined,
        start_method=args.start_method,
        header_config=config,
    )
    _print_campaign_result(result)
    return 0


def _print_campaign_status(status: Dict) -> None:
    print(f"journal: {status['journal']}")
    if status["config"].get("suite"):
        config = status["config"]
        print(
            f"config: suite={config['suite']} arch={config.get('arch')} "
            f"kinds={','.join(config.get('kinds', ()))} "
            f"budget={config.get('max_evaluations')}"
        )
    running = status.get("running", [])
    print(
        f"jobs: {status['total']} total, {len(status['ok'])} ok, "
        f"{len(status['quarantined'])} quarantined, "
        f"{len(status['pending'])} pending, {len(running)} running"
    )
    counters = status.get("counters", {})
    for job_id in status["quarantined"]:
        print(f"  QUARANTINED {job_id}{_heartbeat_part(counters, job_id)}")
    for job_id in status["pending"]:
        marker = "running    " if job_id in running else "pending    "
        print(f"  {marker} {job_id}{_heartbeat_part(counters, job_id)}")
    if status["failed_attempts"]:
        total_failures = sum(status["failed_attempts"].values())
        print(f"failed attempts: {total_failures}")
    print("complete" if status["complete"] else "incomplete")


def _heartbeat_part(counters: Dict, job_id: str) -> str:
    """Render one job's heartbeat counters, e.g. `` [start=2 retry=1]``."""
    per_job = counters.get(job_id)
    if not per_job:
        return ""
    body = " ".join(f"{k}={v}" for k, v in sorted(per_job.items()))
    return f"  [{body}]"


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.exceptions import CampaignError
    from repro.search.campaign import CampaignStatusTracker

    follow = getattr(args, "follow", False)
    interval = getattr(args, "interval", 2.0)
    # One tracker for the whole follow loop: each poll reads only the
    # journal bytes appended since the last one (torn tails wait for
    # their newline), instead of re-parsing the file every tick.
    tracker = CampaignStatusTracker(args.journal)
    first = True
    while True:
        try:
            status = tracker.poll()
        except CampaignError:
            # Following a campaign whose journal has not appeared yet (or
            # is still empty) should wait, not die.
            if not follow:
                raise
            if first:
                print(f"waiting for journal {args.journal} ...")
                first = False
            time.sleep(interval)
            continue
        if not first:
            print()
        first = False
        _print_campaign_status(status)
        if not follow or status["complete"]:
            return 0
        time.sleep(interval)


# ---------------------------------------------------------------------- obs


def _cmd_obs(args: argparse.Namespace) -> int:
    """Inspect a span-trace JSONL file (``obs dump`` / ``obs summarize``)."""
    from repro.obs import flame_summary, read_trace, validate_span

    records = read_trace(args.trace_file)
    problems: List[str] = []
    for index, record in enumerate(records):
        for problem in validate_span(record):
            problems.append(f"record {index}: {problem}")
    if args.obs_command == "dump":
        for record in records:
            print(json.dumps(record, sort_keys=True))
    else:
        if not records:
            print("no span records", file=sys.stderr)
            return 1
        print(flame_summary(records))
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    return 0


# -------------------------------------------------------------------- bench


def _cmd_bench_record(args: argparse.Namespace) -> int:
    from repro.obs.bench import record_benchmarks

    record = record_benchmarks(args.files, args.ledger, note=args.note)
    print(
        f"recorded {len(record['entries'])} metric(s) from "
        f"{', '.join(record['sources'])} into {args.ledger}"
    )
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.obs.bench import compare_ledger, format_comparison

    comparison = compare_ledger(
        args.ledger,
        threshold=args.threshold,
        prefer_same_machine=not args.any_machine,
    )
    print(format_comparison(comparison))
    if not comparison.ok:
        print(
            f"bench compare: {len(comparison.regressions)} regression(s) "
            f"beyond {args.threshold:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


# ------------------------------------------------------------------- verify

#: Differential-verification profiles: (cases, min_ref_sim, decoys).
VERIFY_PROFILES = {
    "quick": (500, 50, 6),
    "deep": (5000, 500, 10),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    """Cross-check every evaluation path and the metamorphic invariants."""
    from repro.exceptions import VerificationError
    from repro.verify.differential import (
        DifferentialConfig,
        replay_counterexample,
        run_differential,
    )
    from repro.verify.invariants import run_invariants

    if args.replay:
        report = replay_counterexample(args.replay)
        for divergence in report.divergences:
            print(divergence.describe())
        if report.divergences:
            raise VerificationError(
                f"counterexample {args.replay} still diverges "
                f"({len(report.divergences)} quantities)"
            )
        print(f"counterexample {args.replay}: all paths agree now")
        return 0

    profile = "deep" if args.deep else "quick"
    cases, min_ref_sim, decoys = VERIFY_PROFILES[profile]
    if args.cases is not None:
        cases = args.cases
    config = DifferentialConfig(
        cases=cases,
        seed=args.seed,
        min_ref_sim=min_ref_sim,
        decoys=decoys,
        dump_dir=args.dump_dir,
    )
    differential = run_differential(config)
    print(differential.summary())
    invariants = run_invariants(
        seed=args.seed, include_parallel=not args.no_parallel
    )
    print(invariants.summary())
    if not differential.ok or not invariants.ok:
        hint = (
            f"; replay with: repro verify --replay "
            f"{differential.counterexample_paths[0]}"
            if differential.counterexample_paths
            else ""
        )
        raise VerificationError(
            f"{len(differential.divergent)} divergent case(s), "
            f"{len(invariants.violations)} invariant violation(s){hint}"
        )
    print(f"verify [{profile}]: all evaluation paths agree (seed {args.seed})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.exceptions import SpecError
    from repro.obs import MetricsRegistry, Tracer, obs_scope
    from repro.service import MappingService

    if args.resume and not args.journal:
        raise SpecError("--resume needs --journal (nothing to recover from)")
    registry = MetricsRegistry()
    # Live tracer (no output file) feeds the listener's /flame view.
    tracer = Tracer(None, registry=registry)
    service = MappingService(
        registry,
        tracer=tracer,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        journal_path=args.journal,
        resume=args.resume,
        pool_size=args.pool_size,
        cache_entries=args.cache_entries,
    )
    try:
        # The scope stays installed for the server's lifetime so worker
        # threads record into the registry the listener exposes.
        with obs_scope(registry=registry, tracer=tracer), service:
            if service.recovered:
                print(
                    f"recovered {service.recovered} unfinished job(s) "
                    f"from {args.journal}"
                )
            # Parsed by tooling (service_smoke) — keep the format stable.
            print(f"serving mapper API at {service.url}", flush=True)
            try:
                while True:
                    time.sleep(1.0)
            except KeyboardInterrupt:
                print("shutting down", file=sys.stderr)
    finally:
        tracer.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse CLI (search / evaluate / experiment)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ruby imperfect-factorization mapper (ISPASS'22 reproduction)",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="print full tracebacks instead of one-line error summaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            help="stream span-trace JSONL here (inspect with 'repro obs')",
        )
        p.add_argument(
            "--metrics-out",
            help="write the metrics-registry snapshot JSON here on exit",
        )
        p.add_argument(
            "--serve-metrics", type=int, default=None, metavar="PORT",
            help="serve live /metrics, /progress, and /flame HTTP "
            "endpoints on 127.0.0.1:PORT for the run's duration "
            "(0 picks an ephemeral port; the resolved URL is printed)",
        )
        p.add_argument(
            "--progress", action="store_true",
            help="render a live progress/ETA line on stderr while the "
            "search runs",
        )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--arch", choices=sorted(ARCH_PRESETS), default="eyeriss",
            help="architecture preset",
        )
        p.add_argument("--arch-json", help="architecture spec JSON (overrides --arch)")
        p.add_argument("--conv", help="conv shape, e.g. C=512,M=128,P=28,Q=28,R=1,S=1")
        p.add_argument("--gemm", help="GEMM shape, e.g. M=1024,N=16,K=1024")
        p.add_argument("--workload-json", help="workload spec JSON")
        p.add_argument("--name", default="workload", help="workload name")

    search = sub.add_parser("search", help="find the best mapping")
    add_common(search)
    search.add_argument(
        "--kind", choices=["pfm", "ruby", "ruby-s", "ruby-t"], default="ruby-s"
    )
    search.add_argument(
        "--objective", choices=["edp", "energy", "delay"], default="edp"
    )
    search.add_argument(
        "--searcher",
        choices=["random", "exhaustive", "branch-bound", "genetic", "annealing"],
        default="random",
        help="search strategy; branch-bound is exact with subtree pruning "
        "(enumerable mapspaces only)",
    )
    search.add_argument("--budget", type=int, default=5000)
    search.add_argument("--patience", type=int, default=1500)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument(
        "--workers", type=int, default=1,
        help="parallel search processes: independent seeded runs for "
        "random (paper: 24 threads), shared-incumbent subtree "
        "work-sharing for branch-bound (bit-identical to serial)",
    )
    search.add_argument(
        "--start-method", choices=["fork", "spawn"], default=None,
        help="force a multiprocessing start method (default: try fork, "
        "then spawn, then run sequentially)",
    )
    search.add_argument(
        "--no-cache", action="store_true",
        help="disable the per-worker evaluation cache (parity debugging)",
    )
    search.add_argument(
        "--batch-size", type=int, default=512,
        help="candidates per vectorized evaluation batch",
    )
    search.add_argument(
        "--row-stationary", action="store_true",
        help="apply the Eyeriss row-stationary constraint set",
    )
    search.add_argument("--save-mapping", help="write best mapping JSON here")
    search.add_argument("--save-workload", help="write workload JSON here")
    add_obs_flags(search)
    search.set_defaults(func=_cmd_search)

    evaluate = sub.add_parser("evaluate", help="evaluate a saved mapping")
    add_common(evaluate)
    evaluate.add_argument("--mapping", required=True, help="mapping JSON")
    evaluate.set_defaults(func=_cmd_evaluate)

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument(
        "name",
        help="fig7a|fig7b|fig7c|fig7d|table1|fig8|fig9|fig10|fig11|fig12|fig13",
    )
    experiment.add_argument("--budget", type=int, default=2500)
    experiment.add_argument("--runs", type=int, default=3)
    experiment.add_argument(
        "--suite", choices=["resnet50", "deepbench"], default="resnet50"
    )
    experiment.add_argument(
        "--journal",
        help="run fig8-fig13 searches as a fault-tolerant campaign "
        "journaled here (checkpointed + resumable)",
    )
    experiment.add_argument(
        "--timeout", type=float, default=None,
        help="per-search wall-clock timeout in seconds (with --journal)",
    )
    experiment.add_argument(
        "--retries", type=int, default=2,
        help="retry budget per search before quarantine (with --journal)",
    )
    add_obs_flags(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    campaign = sub.add_parser(
        "campaign", help="fault-tolerant search campaigns over a suite"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def add_campaign_fault_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--journal", required=True,
            help="append-only JSONL checkpoint journal for this campaign",
        )
        p.add_argument(
            "--timeout", type=float, default=None,
            help="per-job wall-clock timeout in seconds",
        )
        p.add_argument(
            "--retries", type=int, default=None,
            help="retry budget per job before quarantine (default 2)",
        )
        p.add_argument(
            "--backoff", type=float, default=0.5,
            help="base retry backoff in seconds (doubles per attempt)",
        )
        p.add_argument(
            "--workers", type=int, default=None,
            help="concurrent campaign jobs",
        )
        p.add_argument(
            "--start-method", choices=["fork", "spawn"], default=None,
            help="force a multiprocessing start method (default: try fork, "
            "then spawn, then run jobs inline without timeout enforcement)",
        )
        p.add_argument(
            "--retry-quarantined", action="store_true",
            help="re-attempt jobs the journal marked quarantined",
        )

    campaign_run = campaign_sub.add_parser(
        "run", help="run a suite campaign (resumes an existing journal)"
    )
    campaign_run.add_argument(
        "--suite", choices=["toy", "resnet50", "deepbench", "mobilenet"],
        default="toy",
    )
    campaign_run.add_argument(
        "--arch", choices=sorted(ARCH_PRESETS), default="eyeriss",
        help="architecture preset",
    )
    campaign_run.add_argument(
        "--arch-json", help="architecture spec JSON (overrides --arch)"
    )
    campaign_run.add_argument(
        "--kinds", default="pfm,ruby-s",
        help="comma-separated mapspace kinds (default pfm,ruby-s)",
    )
    campaign_run.add_argument(
        "--objective", choices=["edp", "energy", "delay"], default="edp"
    )
    campaign_run.add_argument("--budget", type=int, default=1000)
    campaign_run.add_argument("--patience", type=int, default=None)
    campaign_run.add_argument(
        "--seeds", default="1,2", help="comma-separated search seeds"
    )
    campaign_run.add_argument(
        "--row-stationary", action="store_true",
        help="apply the Eyeriss constraint set to conv workloads",
    )
    campaign_run.add_argument(
        "--fault-plan",
        help="JSON fault-injection plan (repro.utils.faults schema) "
        "for robustness testing",
    )
    campaign_run.add_argument(
        "--fresh", action="store_true",
        help="ignore journaled results and re-run every job",
    )
    add_campaign_fault_flags(campaign_run)
    add_obs_flags(campaign_run)
    campaign_run.set_defaults(func=_cmd_campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="resume an interrupted campaign from its journal"
    )
    add_campaign_fault_flags(campaign_resume)
    add_obs_flags(campaign_resume)
    campaign_resume.set_defaults(func=_cmd_campaign_resume)

    campaign_status = campaign_sub.add_parser(
        "status", help="summarize a campaign journal without running jobs"
    )
    campaign_status.add_argument("--journal", required=True)
    campaign_status.add_argument(
        "--follow", action="store_true",
        help="poll the journal and re-print the summary until the "
        "campaign completes (live per-job heartbeat counters)",
    )
    campaign_status.add_argument(
        "--interval", type=float, default=2.0,
        help="poll interval in seconds for --follow (default 2)",
    )
    campaign_status.set_defaults(func=_cmd_campaign_status)

    obs_cmd = sub.add_parser(
        "obs", help="inspect a span-trace JSONL written via --trace"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_dump = obs_sub.add_parser(
        "dump", help="print every span record (validated) as JSON lines"
    )
    obs_dump.add_argument("trace_file", help="span-trace JSONL path")
    obs_dump.set_defaults(func=_cmd_obs)
    obs_summarize = obs_sub.add_parser(
        "summarize", help="print a flame-style duration summary of a trace"
    )
    obs_summarize.add_argument("trace_file", help="span-trace JSONL path")
    obs_summarize.set_defaults(func=_cmd_obs)

    bench = sub.add_parser(
        "bench", help="benchmark regression ledger (record / compare)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_record = bench_sub.add_parser(
        "record",
        help="normalize BENCH_*.json payloads and append one ledger record",
    )
    bench_record.add_argument(
        "files", nargs="+", help="benchmark JSON payloads (BENCH_*.json)"
    )
    bench_record.add_argument(
        "--ledger", default="BENCH_HISTORY.jsonl",
        help="ledger path (append-only JSONL; default BENCH_HISTORY.jsonl)",
    )
    bench_record.add_argument(
        "--note", default=None,
        help="freeform annotation stored with the record (e.g. a commit)",
    )
    bench_record.set_defaults(func=_cmd_bench_record)
    bench_compare = bench_sub.add_parser(
        "compare",
        help="diff the newest ledger record against its baseline; exits 1 "
        "on a thresholded regression",
    )
    bench_compare.add_argument(
        "--ledger", default="BENCH_HISTORY.jsonl",
        help="ledger path (default BENCH_HISTORY.jsonl)",
    )
    bench_compare.add_argument(
        "--threshold", type=float, default=0.2,
        help="relative worsening that counts as a regression (default 0.2)",
    )
    bench_compare.add_argument(
        "--any-machine", action="store_true",
        help="allow a baseline from a different host (timings across "
        "machines are noisy; same-host baselines are preferred by default)",
    )
    bench_compare.set_defaults(func=_cmd_bench_compare)

    verify = sub.add_parser(
        "verify",
        help="differentially cross-check every evaluation path "
        "(scalar / cache / batch / reference sim) plus invariants",
    )
    verify_profile = verify.add_mutually_exclusive_group()
    verify_profile.add_argument(
        "--quick", action="store_true",
        help="quick profile: 500 cases, >=50 reference-sim cross-checks "
        "(the default)",
    )
    verify_profile.add_argument(
        "--deep", action="store_true",
        help="deep profile: 5000 cases, >=500 reference-sim cross-checks",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--cases", type=int, default=None,
        help="override the profile's case count",
    )
    verify.add_argument(
        "--dump-dir", default=".",
        help="directory for shrunk counterexample dumps (default: cwd)",
    )
    verify.add_argument(
        "--no-parallel", action="store_true",
        help="skip the fork/spawn start-method determinism invariant "
        "(the only one that spawns worker processes)",
    )
    verify.add_argument(
        "--replay", metavar="COUNTEREXAMPLE",
        help="re-run a dumped counterexample JSON instead of sweeping",
    )
    verify.set_defaults(func=_cmd_verify)

    serve = sub.add_parser(
        "serve",
        help="run the mapper-as-a-service HTTP server "
        "(POST /v1/search; see docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 picks an ephemeral port (printed at startup)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="search worker threads (default 2)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=32,
        help="queued-job bound; submissions beyond it get HTTP 429 "
        "with a Retry-After hint (default 32)",
    )
    serve.add_argument(
        "--journal", default=None,
        help="service journal JSONL; accepted requests and outcomes are "
        "fsynced here so --resume survives a crash",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="re-enqueue journaled jobs that never finished",
    )
    serve.add_argument(
        "--pool-size", type=int, default=None,
        help="warm (arch, workload) evaluator entries kept across "
        "requests (default 8)",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=None,
        help="evaluation-cache bound per pool entry (default 20000)",
    )
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    ``ReproError`` subclasses map to distinct exit codes (see module
    docstring) with a one-line stderr summary; ``--debug`` re-raises for
    the full traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _obs_session(args):
            return args.func(args)
    except ReproError as error:
        if args.debug:
            raise
        print(f"error ({type(error).__name__}): {error}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    raise SystemExit(main())

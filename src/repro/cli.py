"""Command-line interfaces: ``repro-assess``, ``repro-batch``,
``repro-serve``, ``repro-loadgen``, ``repro-chaos``, ``repro-crack``.

``repro-assess`` runs the Assess-Risk recipe (Figure 8) on a calibrated
benchmark or a FIMI ``.dat`` file, optionally followed by the
Similarity-by-Sampling curve (Figure 13).  ``repro-batch`` answers a
manifest of datasets through the service engine and writes JSON-lines
results; ``repro-serve`` exposes the engine over HTTP.
``repro-crack`` is the streaming attacker workbench: it loads a
consistency-graph instance, reads JSONL observations (stdin, a file, or
a file tailed with ``--watch``), and prints forced/forbidden events the
moment each identification locks on (see docs/attack.md).

Examples::

    repro-assess --benchmark retail --tolerance 0.1
    repro-assess --fimi my_data.dat --tolerance 0.05 --similarity
    repro-assess --benchmark chess --stats --report risk.md
    repro-assess --benchmark connect --protect quantile
    repro-assess --benchmark mushroom --save-assessment decision.json
    repro-batch manifest.json --output results.jsonl
    repro-serve --port 8080 --cache-dir /var/cache/repro
    repro-serve --cache-dir /var/cache/repro --shared-cache
    repro-loadgen --connections 8,64
    repro-loadgen --smoke
    repro-chaos --seed 7 --duration 12
    repro-chaos --smoke
    repro-crack --instance staircase.json < observations.jsonl
    repro-crack --instance release.json --observations feed.jsonl --watch
    repro-crack --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from importlib import metadata

import numpy as np

import repro
from repro.analysis.profile import RiskProfile
from repro.beliefs.builders import uniform_width_belief
from repro.data.fimi import read_fimi
from repro.data.stats import describe
from repro.datasets.registry import BENCHMARK_NAMES, load_benchmark
from repro.errors import FormatError, ReproError
from repro.graph.bipartite import space_from_frequencies
from repro.io import assessment_to_json, load_json, save_json_atomic
from repro.protect.planner import protect_to_tolerance
from repro.recipe.assess import assess_risk
from repro.recipe.report import full_report
from repro.recipe.similarity import similarity_by_sampling

__all__ = [
    "main",
    "build_parser",
    "batch_main",
    "build_batch_parser",
    "serve_main",
    "build_serve_parser",
    "loadgen_main",
    "build_loadgen_parser",
    "chaos_main",
    "build_chaos_parser",
    "crack_main",
    "build_crack_parser",
]


def package_version() -> str:
    """The installed package version (source-tree fallback included)."""
    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:
        return repro.__version__


def _add_version_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
        help="print the package version and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-assess`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-assess",
        description="Assess the disclosure risk of releasing anonymized data "
        "(Lakshmanan, Ng, Ramesh; SIGMOD 2005).",
    )
    _add_version_flag(parser)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--benchmark",
        choices=BENCHMARK_NAMES,
        help="analyze a calibrated Figure 9 benchmark",
    )
    source.add_argument("--fimi", metavar="PATH", help="analyze a FIMI .dat file")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.1,
        help="degree of tolerance tau: fraction of items the owner can "
        "afford to see cracked (default 0.1)",
    )
    parser.add_argument(
        "--delta",
        type=float,
        default=None,
        help="interval half-width override (default: median frequency gap)",
    )
    parser.add_argument(
        "--runs", type=int, default=5, help="averaging runs for the alpha stage"
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--similarity",
        action="store_true",
        help="also print the Similarity-by-Sampling curve (Figure 13)",
    )
    parser.add_argument(
        "--sample-fractions",
        type=float,
        nargs="+",
        default=[0.1, 0.3, 0.5, 0.7, 0.9],
        metavar="P",
        help="sample sizes for --similarity",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print database statistics before assessing",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write a per-item markdown risk profile to PATH",
    )
    parser.add_argument(
        "--protect",
        choices=["bin", "quantile", "suppress"],
        default=None,
        help="when the recipe does not disclose, search the smallest "
        "intervention of this kind that brings the release within tolerance",
    )
    parser.add_argument(
        "--full-report",
        metavar="PATH",
        default=None,
        help="write the complete markdown disclosure report to PATH",
    )
    parser.add_argument(
        "--save-assessment",
        metavar="PATH",
        default=None,
        help="persist the assessment as JSON to PATH",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    rng = np.random.default_rng(args.seed)
    try:
        if args.benchmark:
            dataset = load_benchmark(args.benchmark)
            source = dataset.profile
            print(f"dataset: calibrated {dataset.name!r} "
                  f"({len(source.domain)} items, {source.n_transactions} transactions)")
        else:
            source = read_fimi(args.fimi)
            print(f"dataset: {args.fimi} "
                  f"({len(source.domain)} items, {source.n_transactions} transactions)")

        if args.stats:
            print(describe(source).to_text())
            print()

        report = assess_risk(
            source, args.tolerance, delta=args.delta, runs=args.runs, rng=rng
        )
        print(report.summary())

        if args.report is not None:
            frequencies = source.frequencies()
            delta = report.delta
            if delta is None:
                from repro.data.frequency import FrequencyGroups

                delta = FrequencyGroups(frequencies).median_gap()
            belief = uniform_width_belief(frequencies, delta)
            space = space_from_frequencies(belief, frequencies)
            profile = RiskProfile.from_space(space)
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(profile.to_markdown())
                handle.write("\n")
            print(f"risk profile written to {args.report}")

        if args.full_report is not None:
            document = full_report(source, args.tolerance, rng=rng)
            with open(args.full_report, "w", encoding="utf-8") as handle:
                handle.write(document)
            print(f"full report written to {args.full_report}")

        if args.save_assessment is not None:
            save_json_atomic(assessment_to_json(report), args.save_assessment)
            print(f"assessment written to {args.save_assessment}")

        if args.protect is not None:
            if report.disclose:
                print(
                    "\nprotection skipped: the recipe already discloses, "
                    "no intervention is needed"
                )
            else:
                plan = protect_to_tolerance(
                    source, args.tolerance, strategy=args.protect, delta=report.delta
                )
                print(f"\nprotection plan: {plan.summary()}")

        if args.similarity:
            print("\nSimilarity-by-Sampling (Figure 13):")
            header_delta = "delta'"
            print(f"{'sample':>8}  {'alpha':>7}  {'std':>7}  {header_delta:>10}")
            for point in similarity_by_sampling(
                source, args.sample_fractions, rng=rng
            ):
                print(
                    f"{point.fraction:>7.0%}  {point.alpha_mean:>7.3f}  "
                    f"{point.alpha_std:>7.3f}  {point.delta_mean:>10.3g}"
                )
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


# -- repro-batch ------------------------------------------------------------


def build_batch_parser() -> argparse.ArgumentParser:
    """The ``repro-batch`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-batch",
        description="Assess a manifest of datasets through the service "
        "layer, writing one JSON result line per dataset.",
    )
    _add_version_flag(parser)
    parser.add_argument(
        "manifest",
        help="JSON manifest: {\"defaults\": {params...}, \"datasets\": "
        "[{\"benchmark\"|\"fimi\": ..., \"name\": ..., params...}]} "
        "(see docs/service.md)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write JSON-lines results to PATH instead of stdout",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist assessment results under DIR (warm-starts later runs)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retry transient per-job failures this many times (default 2)",
    )
    parser.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="inject faults from a JSON schedule ({\"rules\": [...]}, see "
        "docs/service.md) — for failure-semantics testing",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help="write one atomic per-job result file under DIR as jobs "
        "finish, so an interrupted batch can be resumed",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint: skip jobs whose result file already "
        "exists in DIR (their records are emitted with \"resumed\": true)",
    )
    return parser


_PARAM_KEYS = ("tolerance", "delta", "runs", "seed", "interest")


def _manifest_jobs(manifest: dict) -> list:
    """Expand a manifest into named ``(name, profile, params, error)`` jobs.

    A bad *entry* (missing file, invalid parameters) becomes a job whose
    ``error`` is set instead of killing the batch; only a structurally
    malformed manifest raises.
    """
    from repro.service import AssessmentParams

    if not isinstance(manifest, dict) or not isinstance(manifest.get("datasets"), list):
        raise FormatError("manifest must be a JSON object with a 'datasets' list")
    defaults = manifest.get("defaults", {})
    if not isinstance(defaults, dict):
        raise FormatError("manifest 'defaults' must be a JSON object")
    jobs = []
    for position, entry in enumerate(manifest["datasets"]):
        if not isinstance(entry, dict):
            raise FormatError(f"dataset #{position} must be a JSON object")
        name = entry.get(
            "name", entry.get("benchmark", entry.get("fimi", f"dataset-{position}"))
        )
        try:
            if ("benchmark" in entry) == ("fimi" in entry):
                raise FormatError(
                    "needs exactly one of 'benchmark' or 'fimi'"
                )
            if "benchmark" in entry:
                source = load_benchmark(entry["benchmark"]).profile
            else:
                source = read_fimi(entry["fimi"]).to_profile()
            merged = {
                key: entry.get(key, defaults.get(key))
                for key in _PARAM_KEYS
                if entry.get(key, defaults.get(key)) is not None
            }
            if "tolerance" not in merged:
                raise FormatError(
                    "no tolerance (set it on the entry or in 'defaults')"
                )
            if "interest" in merged:
                merged["interest"] = frozenset(merged["interest"])
            jobs.append((name, source, AssessmentParams(**merged), None))
        except (ReproError, OSError, TypeError, ValueError) as error:
            jobs.append((name, None, None, f"{type(error).__name__}: {error}"))
    return jobs


def _result_record(name: str, result) -> dict:
    """The JSON-lines record for one finished (ok or failed) batch slot."""
    record = {
        "name": name,
        "fingerprint": result.fingerprint,
        "cached": result.cached,
        "elapsed_seconds": result.elapsed_seconds,
    }
    if result.ok:
        record["assessment"] = assessment_to_json(result.assessment)
    else:
        record["error"] = result.error
    return record


def _load_resumed_record(path, fingerprint: str) -> dict | None:
    """A previously checkpointed record, or ``None`` when it is unusable.

    A torn, corrupt or mismatched checkpoint file silently falls back to
    recomputation — resuming must never be less safe than starting over.
    """
    try:
        record = load_json(path)
    except (FormatError, OSError):
        return None
    if (
        not isinstance(record, dict)
        or record.get("fingerprint") != fingerprint
        or "assessment" not in record
    ):
        return None
    return record


def batch_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-batch``; returns a process exit code."""
    from contextlib import nullcontext
    from pathlib import Path

    from repro.service import AssessmentCache, AssessmentEngine
    from repro.service.faults import fault_point, injected_faults, load_schedule
    from repro.service.fingerprint import request_fingerprint

    args = build_batch_parser().parse_args(argv)
    if args.resume and args.checkpoint is None:
        print("error: --resume requires --checkpoint DIR", file=sys.stderr)
        return 1
    try:
        schedule = None if args.faults is None else load_schedule(args.faults)
        jobs = _manifest_jobs(load_json(args.manifest))
        engine = AssessmentEngine(
            cache=AssessmentCache(directory=args.cache_dir)
            if args.cache_dir
            else None
        )
        runnable = [
            (position, profile, params)
            for position, (_, profile, params, error) in enumerate(jobs)
            if error is None
        ]

        checkpoint_dir = None if args.checkpoint is None else Path(args.checkpoint)
        resumed: dict[int, dict] = {}
        if checkpoint_dir is not None:
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
            if args.resume:
                for position, profile, params in runnable:
                    fingerprint = request_fingerprint(profile, params)
                    record = _load_resumed_record(
                        checkpoint_dir / f"{fingerprint}.json", fingerprint
                    )
                    if record is not None:
                        resumed[position] = record
        pending = [job for job in runnable if job[0] not in resumed]

        by_position: dict[int, object] = {}
        with injected_faults(schedule) if schedule is not None else nullcontext():
            # One slot at a time, each atomically checkpointed (when asked)
            # before the next starts, so an interrupt loses at most one.
            for position, profile, params in pending:
                [result] = engine.assess_many(
                    [(profile, params)], retries=args.retries
                )
                by_position[position] = result
                if checkpoint_dir is not None and result.ok:
                    fault_point("checkpoint.write")
                    save_json_atomic(
                        _result_record(jobs[position][0], result),
                        checkpoint_dir / f"{result.fingerprint}.json",
                    )
        if resumed:
            print(
                f"resumed {len(resumed)} job(s) from {checkpoint_dir}",
                file=sys.stderr,
            )
        if schedule is not None:
            print(
                f"fault injection: {len(schedule.events)} event(s) fired",
                file=sys.stderr,
            )
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    lines = []
    failures = 0
    for position, (name, _, _, load_error) in enumerate(jobs):
        if load_error is not None:
            record = {"name": name, "error": load_error}
            failures += 1
        elif position in resumed:
            record = dict(resumed[position])
            record["name"] = name
            record["resumed"] = True
        else:
            result = by_position.get(position)
            record = _result_record(name, result)
            if not result.ok:
                failures += 1
        lines.append(json.dumps(record, sort_keys=True))

    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{len(lines)} result(s) written to {args.output}"
              + (f" ({failures} failed)" if failures else ""))
    return 1 if failures == len(lines) and lines else 0


# -- repro-serve ------------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the Assess-Risk engine over HTTP "
        "(POST /assess, GET /healthz, GET /metrics).",
    )
    _add_version_flag(parser)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 picks a free one)"
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist assessment results under DIR",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=256,
        help="in-memory result-cache capacity (default 256)",
    )
    parser.add_argument(
        "--grace",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="graceful-shutdown drain window for in-flight requests "
        "on SIGTERM/SIGINT (default 5.0)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="concurrent assessments admitted to compute (default 8)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="assessments allowed to wait for an admission slot before "
        "requests are shed with HTTP 429 (default 32)",
    )
    parser.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="inject faults from a JSON schedule ({\"rules\": [...]}, see "
        "docs/service.md) — for robustness testing only",
    )
    parser.add_argument(
        "--shared-cache",
        action="store_true",
        help="treat --cache-dir as a tier shared by several replica "
        "processes: cold computes are single-flighted across processes "
        "through lease files",
    )
    parser.add_argument(
        "--lease-stale",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds without a heartbeat before a shared-cache lease is "
        "considered abandoned and taken over (default 5.0; chaos runs "
        "shrink this so crashed owners recover within the run)",
    )
    return parser


def serve_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-serve``; returns a process exit code.

    Runs until ``SIGTERM`` or ``SIGINT``, then stops accepting, drains
    in-flight requests for up to ``--grace`` seconds, and exits 0.
    """
    from contextlib import nullcontext

    from repro.service import AssessmentCache, AssessmentEngine
    from repro.service.aio import serve_async
    from repro.service.faults import injected_faults, load_schedule
    from repro.service.lease import DEFAULT_STALE_AFTER

    args = build_serve_parser().parse_args(argv)
    try:
        schedule = None if args.faults is None else load_schedule(args.faults)
        engine = AssessmentEngine(
            cache=AssessmentCache(
                capacity=args.capacity,
                directory=args.cache_dir,
                shared=args.shared_cache,
                lease_stale_seconds=(
                    DEFAULT_STALE_AFTER
                    if args.lease_stale is None
                    else args.lease_stale
                ),
            )
        )
        banner = (
            f"repro-serve {package_version()} listening on "
            f"http://{args.host}:{{port}}"
        )
        with injected_faults(schedule) if schedule is not None else nullcontext():
            serve_async(
                host=args.host,
                port=args.port,
                engine=engine,
                grace_seconds=args.grace,
                max_inflight=args.max_inflight,
                max_queue=args.max_queue,
                banner=banner,
            )
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if schedule is not None:
        print(
            f"fault injection: {len(schedule.events)} event(s) fired",
            file=sys.stderr,
        )
    print("shutting down")
    return 0


# -- repro-loadgen ----------------------------------------------------------


def build_loadgen_parser() -> argparse.ArgumentParser:
    """The ``repro-loadgen`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-loadgen",
        description="Replayable load harness for the serving stack: drives "
        "real repro-serve subprocesses (1..N replicas) "
        "with seeded Zipf-skewed traffic and appends the measured cells to "
        "the BENCH_service.json trajectory.",
    )
    _add_version_flag(parser)
    parser.add_argument(
        "--connections",
        default="8,64",
        help="comma-separated concurrency levels per cell (default 8,64)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=4.0,
        metavar="SECONDS",
        help="measured window per cell (default 4.0)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="server processes per throughput cell (default 1)",
    )
    parser.add_argument(
        "--profiles",
        type=int,
        default=50,
        help="distinct request fingerprints in the workload (default 50)",
    )
    parser.add_argument(
        "--zipf",
        type=float,
        default=1.1,
        help="Zipf skew exponent of the fingerprint popularity (default 1.1)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--requests",
        type=int,
        default=1_000_000,
        help="cap on requests per connection (default: duration-bounded)",
    )
    parser.add_argument(
        "--no-shared-trial",
        action="store_true",
        help="skip the 2-replica shared-cache cold-race trial",
    )
    parser.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="forward a fault schedule to every server replica",
    )
    parser.add_argument(
        "--label",
        default="full",
        help="label recorded with this run in the trajectory",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="BENCH_service.json path (default: repo root next to src/)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny real-socket run + a shared-cache race; asserts the "
        "committed BENCH_service.json has a trajectory, writes nothing",
    )
    return parser


def _default_bench_path():
    from pathlib import Path

    return Path(repro.__file__).resolve().parent.parent.parent / "BENCH_service.json"


#: The full run that regenerates each section of ``BENCH_service.json``.
_BENCH_SECTION_SOURCES = {"trajectory": "repro-loadgen", "chaos": "repro-chaos"}


def _committed_bench_report(output, sections: Sequence[str]) -> dict | None:
    """The committed service benchmark at *output*, or ``None`` (after
    printing why) when it is missing or lacks one of *sections*."""
    if not output.exists():
        print(f"error: {output} is not committed", file=sys.stderr)
        return None
    report = json.loads(output.read_text())
    for section in sections:
        if not report.get(section):
            print(
                f"error: {output} lacks a {section} section — regenerate "
                f"with a full {_BENCH_SECTION_SOURCES[section]} run",
                file=sys.stderr,
            )
            return None
    return report


def loadgen_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-loadgen``; returns a process exit code."""
    import tempfile
    from pathlib import Path

    from repro.service.loadgen import (
        ReplicaPool,
        WorkloadSpec,
        append_trajectory,
        run_cell,
        run_shared_cache_trial,
    )

    args = build_loadgen_parser().parse_args(argv)
    connections = [int(c) for c in args.connections.split(",") if c.strip()]
    if args.smoke:
        connections = [2]
        spec = WorkloadSpec(profiles=6, zipf_s=args.zipf, seed=args.seed)
        duration = 1.0
    else:
        spec = WorkloadSpec(
            profiles=args.profiles, zipf_s=args.zipf, seed=args.seed
        )
        duration = args.duration

    cells = []
    try:
        with ReplicaPool(count=args.replicas, faults=args.faults) as pool:
            for concurrency in connections:
                cell = run_cell(
                    pool,
                    spec,
                    connections=concurrency,
                    duration_seconds=duration,
                    max_requests_per_connection=args.requests,
                )
                cells.append(cell)
                print(
                    f"x{cell.replicas} c={cell.connections}: "
                    f"{cell.rps:.0f} rps, p50 {cell.p50_ms:.2f} ms, "
                    f"p99 {cell.p99_ms:.2f} ms, shed {cell.shed_rate:.1%}, "
                    f"hit {cell.cache_hit_ratio:.1%}",
                    flush=True,
                )
            fleet = pool.supervisor.status()
            print(
                f"supervisor: {len(fleet['replicas'])} replica(s), "
                f"restarts={fleet['restarts']}, "
                f"crash_loops={fleet['crash_loops']}",
                flush=True,
            )

        shared_trial = None
        if not args.no_shared_trial:
            with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
                shared_trial = run_shared_cache_trial(
                    Path(tmp) / "cache",
                    WorkloadSpec(
                        profiles=spec.profiles, zipf_s=0.2, seed=spec.seed
                    ),
                    replicas=2,
                    connections=4 if args.smoke else 8,
                    duration_seconds=2.0 if args.smoke else duration,
                )
            print(
                f"shared-cache x{shared_trial['replicas']}: "
                f"{shared_trial['computed_total']} computes for "
                f"{shared_trial['fingerprints']} fingerprints "
                f"(per replica {shared_trial['computed_per_replica']}), "
                f"coalesced {shared_trial['lease_coalesced']}",
                flush=True,
            )
            if shared_trial["computed_total"] > shared_trial["fingerprints"]:
                print(
                    "error: shared-cache trial recomputed a fingerprint "
                    f"({shared_trial['computed_total']} computes > "
                    f"{shared_trial['fingerprints']} fingerprints)",
                    file=sys.stderr,
                )
                return 1
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    for cell in cells:
        if cell.client_errors or any(
            code >= 400 for code in cell.statuses if code != 429
        ):
            print(
                f"error: cell c={cell.connections} saw "
                f"client_errors={cell.client_errors} statuses={cell.statuses}",
                file=sys.stderr,
            )
            return 1

    output = _default_bench_path() if args.output is None else Path(args.output)
    if args.smoke:
        report = _committed_bench_report(output, ("trajectory", "chaos"))
        if report is None:
            return 1
        print(
            f"smoke OK: served over real sockets; committed {output.name} has "
            f"{len(report['trajectory'])} trajectory record(s) and "
            f"{len(report['chaos'])} chaos record(s)"
        )
        return 0

    append_trajectory(output, cells, shared_trial, label=args.label)
    print(f"appended {len(cells)} cell(s) to {output}")
    return 0


# -- repro-chaos ------------------------------------------------------------


def build_chaos_parser() -> argparse.ArgumentParser:
    """The ``repro-chaos`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Chaos harness for the serving stack: generates a "
        "replayable randomized event schedule (kill -9, SIGTERM, fault "
        "bursts, overload spikes) from a seed, fires it at a supervised "
        "replica pool under live load, then verifies that nothing broke "
        "(see docs/robustness.md).",
    )
    _add_version_flag(parser)
    parser.add_argument("--seed", type=int, default=0, help="schedule seed")
    parser.add_argument(
        "--duration",
        type=float,
        default=12.0,
        metavar="SECONDS",
        help="length of the chaos window (default 12.0, minimum 6.0)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="supervised server processes sharing one cache (default 2)",
    )
    parser.add_argument(
        "--connections",
        type=int,
        default=6,
        help="persistent client connections driving load (default 6)",
    )
    parser.add_argument(
        "--profiles",
        type=int,
        default=18,
        help="distinct request fingerprints in the workload (default 18)",
    )
    parser.add_argument(
        "--lease-stale",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="lease staleness window forwarded to every replica "
        "(default 1.0 — short, so killed owners are taken over quickly)",
    )
    parser.add_argument(
        "--min-kills",
        type=int,
        default=3,
        help="SIGKILLs the schedule must deliver (default 3)",
    )
    parser.add_argument(
        "--run-dir",
        metavar="PATH",
        default=None,
        help="keep the shared cache and burst schedules here for "
        "post-mortem debugging (default: a temporary directory)",
    )
    parser.add_argument(
        "--label",
        default="chaos",
        help="label recorded with this run in the chaos section",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="BENCH_service.json path (default: repo root next to src/)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seeded bounded run: asserts >= --min-kills kills delivered, "
        "zero verifier violations, a reproducible schedule digest, and a "
        "chaos section in the committed BENCH_service.json; writes nothing",
    )
    return parser


def _print_chaos_record(record: dict[str, object]) -> None:
    client = record["client"]
    delivered = record["events_delivered"]
    fleet = record["supervisor"]
    verifier = record["verifier"]
    assert isinstance(client, dict)
    assert isinstance(delivered, dict)
    assert isinstance(fleet, dict)
    assert isinstance(verifier, dict)
    print(
        f"schedule {record['schedule_digest']} (seed {record['seed']}): "
        f"delivered kills={delivered['kills']} terms={delivered['terms']} "
        f"bursts={delivered['bursts']} spikes={delivered['spikes']}",
        flush=True,
    )
    print(
        f"client: {client['requests']} requests, {client['errors']} "
        f"connection errors, {client['reconnects']} reconnects, "
        f"{client['fingerprints_answered']} fingerprints answered",
        flush=True,
    )
    print(
        f"supervisor: restarts={fleet['restarts']}, "
        f"crash_loops={fleet['crash_loops']}, "
        f"sigkill_escalations={fleet['sigkill_escalations']}",
        flush=True,
    )
    checks = verifier["checks"]
    assert isinstance(checks, dict)
    print(
        f"verifier: {'PASS' if verifier['ok'] else 'FAIL'} — "
        f"{checks.get('artifacts', 0)} artifacts, "
        f"{checks.get('commits_logged', 0)} commits, "
        f"compute excess {checks.get('compute_excess', 0)} "
        f"(allowance {checks.get('compute_excess_allowance', 0)})",
        flush=True,
    )
    violations = verifier["violations"]
    assert isinstance(violations, list)
    for violation in violations:
        assert isinstance(violation, dict)
        print(
            f"violation [{violation['kind']}]: {violation['message']}",
            file=sys.stderr,
            flush=True,
        )


def chaos_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-chaos``; returns a process exit code."""
    import tempfile
    from contextlib import ExitStack
    from pathlib import Path

    from repro.service.chaos import (
        append_chaos,
        generate_schedule,
        run_chaos,
        schedule_digest,
    )

    args = build_chaos_parser().parse_args(argv)
    if args.smoke:
        # Bounded, seeded gate for CI: the same parameters every time, so
        # a red run always replays with ``repro-chaos --seed 7 --run-dir d``.
        args.seed, args.duration = 7, 10.0
        args.replicas, args.connections = 2, 6
        args.profiles = 18
        args.lease_stale, args.min_kills = 1.0, 3

    with ExitStack() as stack:
        if args.run_dir is None:
            run_dir = Path(
                stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-chaos-")
                )
            )
        else:
            run_dir = Path(args.run_dir)
        try:
            result = run_chaos(
                run_dir,
                seed=args.seed,
                duration_seconds=args.duration,
                replicas=args.replicas,
                connections=args.connections,
                profiles=args.profiles,
                lease_stale_seconds=args.lease_stale,
                min_kills=args.min_kills,
                label=args.label,
            )
        except (ReproError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        _print_chaos_record(result.record)
        if not result.report.ok and args.run_dir is None:
            print(
                "hint: rerun with --run-dir PATH to keep the cache "
                "directory and burst schedules for post-mortem",
                file=sys.stderr,
            )

    delivered_kills = result.delivered.kills
    if delivered_kills < args.min_kills:
        print(
            f"error: schedule promised {args.min_kills} kills but only "
            f"{delivered_kills} landed",
            file=sys.stderr,
        )
        return 1

    output = _default_bench_path() if args.output is None else Path(args.output)
    if args.smoke:
        if not result.report.ok:
            print("error: verifier found violations", file=sys.stderr)
            return 1
        replayed = schedule_digest(
            generate_schedule(
                args.seed,
                args.duration,
                args.replicas,
                min_kills=args.min_kills,
                lease_stale_seconds=args.lease_stale,
            )
        )
        if replayed != result.record["schedule_digest"]:
            print(
                f"error: schedule digest is not reproducible "
                f"({replayed} != {result.record['schedule_digest']})",
                file=sys.stderr,
            )
            return 1
        report = _committed_bench_report(output, ("chaos",))
        if report is None:
            return 1
        print(
            f"smoke OK: {delivered_kills} kills survived; committed "
            f"{output.name} has {len(report['chaos'])} chaos record(s)"
        )
        return 0

    append_chaos(output, result.record)
    print(f"appended chaos record to {output}")
    return 0 if result.report.ok else 1


# -- repro-crack ------------------------------------------------------------


def build_crack_parser() -> argparse.ArgumentParser:
    """The ``repro-crack`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-crack",
        description="Streaming attacker workbench: maintain the exact "
        "forced/forbidden/undecided edge partition of a consistency graph "
        "as JSONL observations arrive (see docs/attack.md).",
    )
    _add_version_flag(parser)
    parser.add_argument(
        "--instance",
        metavar="PATH",
        default=None,
        help="instance JSON: {\"adjacency\": [[...], ...]} with optional "
        "\"observed\" and \"truth\", or "
        "{\"profile\": <profile_to_json payload>, \"delta\": 0.01}",
    )
    parser.add_argument(
        "--observations",
        metavar="PATH",
        default=None,
        help="JSONL observation stream (default: stdin)",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="tail --observations for appended lines until a "
        "{\"kind\": \"close\"} arrives",
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="polling interval for --watch (default 0.5)",
    )
    parser.add_argument(
        "--no-summary",
        action="store_true",
        help="suppress the per-step summary events",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the CI self-check (staircase forces everything without "
        "touching Ryser or the interval DP) and exit",
    )
    return parser


#: Where the modules that run the exact counting engines (Ryser, interval
#: DP) look them up.  Callers bind the engines at import time, so a guard
#: replaces these names, not the defining modules' attributes.
#: ``repro-crack --smoke`` and its test both patch every entry.
EXACT_ENGINE_LOOKUPS: tuple[tuple[str, str], ...] = (
    ("repro.graph.permanent", "permanent"),
    ("repro.graph.permanent", "permanent_batch"),
    ("repro.graph.permanent", "_ryser_float"),
    ("repro.graph.exact", "permanent_batch"),
    ("repro.graph.exact", "assignment_count"),
    ("repro.graph.exact", "class_placement_totals"),
    ("repro.graph.exact", "crack_law"),
)


def _crack_smoke() -> int:
    """The ``--smoke`` gate: edge classification alone must crack the staircase.

    Figure 6(a)'s staircase graph has exactly one consistent mapping, so
    the solver's one filter (matching plus residual-graph components)
    must stream every forced identification from the initial
    classification — with the exact counting engines patched to fail on
    touch at every :data:`EXACT_ENGINE_LOOKUPS` site, proving the
    workbench never leans on them.
    """
    # import_module, not ``import repro.graph.permanent``: the package
    # re-exports the ``permanent`` *function* under the same attribute.
    from importlib import import_module

    from repro.attack.solver import ConsistencySolver, Observation

    n = 6
    adjacency = [list(range(i + 1)) for i in range(n)]

    def _forbidden_engine(*args: object, **kwargs: object) -> object:
        raise AssertionError("the exact counting engines must not run")

    sites = [(import_module(module), name) for module, name in EXACT_ENGINE_LOOKUPS]
    saved = [getattr(module, name) for module, name in sites]
    for module, name in sites:
        setattr(module, name, _forbidden_engine)
    try:
        solver = ConsistencySolver(adjacency, true_partner_of=list(range(n)))
        events = solver.bootstrap()
        forced = {(e.item, e.anon) for e in events if e.kind == "forced"}
        if forced != {(i, i) for i in range(n)}:
            print(f"smoke FAILED: forced pairs {sorted(forced)}", file=sys.stderr)
            return 1
        if any(e.crack is not True for e in events if e.kind == "forced"):
            print("smoke FAILED: a forced pair was not a certified crack", file=sys.stderr)
            return 1
        summary = solver.summary()
        if summary["undecided"] != 0 or summary.get("certified_cracks") != n:
            print(f"smoke FAILED: summary {summary}", file=sys.stderr)
            return 1
        # A redundant confirm must change nothing; a contradicting one
        # must flip the instance to infeasible — still engine-free.
        if solver.ingest(Observation(kind="confirm", item=0, anon=0)):
            print("smoke FAILED: a redundant confirm emitted events", file=sys.stderr)
            return 1
        contradiction = solver.ingest(Observation(kind="confirm", item=1, anon=0))
        if [e.kind for e in contradiction] != ["infeasible"]:
            print("smoke FAILED: contradiction not detected", file=sys.stderr)
            return 1
    except AssertionError as exc:
        print(f"smoke FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        for (module, name), engine in zip(sites, saved):
            setattr(module, name, engine)
    print(
        f"repro-crack smoke ok: staircase n={n} streamed {n} certified "
        "identifications, exact engines untouched"
    )
    return 0


def crack_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-crack``; returns a process exit code."""
    import time

    from repro.attack.solver import SolverEvent, decode_observation, read_observations
    from repro.service.crack import solver_from_instance

    args = build_crack_parser().parse_args(argv)
    if args.smoke:
        return _crack_smoke()
    if args.instance is None:
        print("error: --instance is required (or --smoke)", file=sys.stderr)
        return 2
    if args.watch and args.observations is None:
        print("error: --watch needs --observations PATH to tail", file=sys.stderr)
        return 2

    def emit(event: SolverEvent) -> None:
        print(event.encode(), flush=True)

    try:
        solver = solver_from_instance(load_json(args.instance))

        def ingest(observation) -> None:
            for event in solver.ingest(observation):
                emit(event)
            if not args.no_summary and observation.kind != "close":
                counts = {
                    key: int(value)
                    for key, value in solver.summary().items()
                    if key not in ("n", "step")
                }
                emit(SolverEvent(kind="summary", step=solver.step, counts=counts))

        for event in solver.bootstrap():
            emit(event)
        if args.watch:
            with open(args.observations, "r", encoding="utf-8") as handle:
                while not solver.closed:
                    line = handle.readline()
                    if not line:
                        time.sleep(args.poll)
                        continue
                    if line.strip():
                        ingest(decode_observation(line))
        else:
            if args.observations is None:
                for observation in read_observations(sys.stdin):
                    ingest(observation)
                    if solver.closed:
                        break
            else:
                with open(args.observations, "r", encoding="utf-8") as handle:
                    for observation in read_observations(handle):
                        ingest(observation)
                        if solver.closed:
                            break
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

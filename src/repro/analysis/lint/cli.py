"""``repro-lint``: run the invariant analyzer over source trees.

Exit status (stable, scripts may rely on it): **0** when clean, **1**
when violations or parse errors were found, **2** on usage errors (a
missing path, ``--changed-only`` outside a git checkout).  ``--format
json`` emits a machine-readable report (per-rule counts, the
suppression audit trail, flow statistics and per-violation witnesses) —
the schema ``BENCH_lint.json`` snapshots; ``--dot FILE`` writes the
measured package import graph in Graphviz syntax.

``--changed-only`` lints only the files ``git`` reports as modified or
untracked — the fast local loop.  Changed-only runs apply the per-file
rules only: the whole-program families (CC/FS005/DT004) need the full
call graph, which CI's full-tree run builds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.lint.engine import (
    REGISTRY,
    LintResult,
    Project,
    iter_python_files,
)
from repro.analysis.lint.rules_layering import layering_dot

__all__ = ["main", "build_parser", "result_to_json", "changed_files"]

DEFAULT_PATHS = ("src", "benchmarks", "tests")

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static analyzer for the repro invariants "
        "(exactness, determinism, fault-safety, layering).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: src benchmarks tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--dot",
        metavar="FILE",
        default=None,
        help="also write the package import graph as Graphviz DOT",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="lint only files git reports changed/untracked under the "
        "given paths (per-file rules only; the whole-program flow "
        "families CC/FS005/DT004 need the full tree)",
    )
    return parser


def result_to_json(result: LintResult) -> dict:
    """The ``--format json`` payload (the BENCH_lint.json schema)."""
    counts: dict[str, int] = {}
    for violation in result.violations + result.parse_errors:
        counts[violation.rule] = counts.get(violation.rule, 0) + 1
    suppressed_counts: dict[str, int] = {}
    for suppression in result.suppressed:
        rule = suppression.violation.rule
        suppressed_counts[rule] = suppressed_counts.get(rule, 0) + 1
    families: dict[str, int] = {}
    for rule in REGISTRY.values():
        families[rule.family] = families.get(rule.family, 0) + 1
    return {
        "schema_version": 2,
        "files_scanned": result.files_scanned,
        "clean": result.clean,
        "rules_registered": sorted(REGISTRY),
        "rule_families": dict(sorted(families.items())),
        "flow": result.flow_stats,
        "violation_counts": dict(sorted(counts.items())),
        "suppressed_counts": dict(sorted(suppressed_counts.items())),
        "violations": [
            {
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "rule": v.rule,
                "message": v.message,
                **({"witness": v.witness} if v.witness is not None else {}),
            }
            for v in result.violations + result.parse_errors
        ],
        "suppressed": [
            {
                "path": s.violation.path,
                "line": s.violation.line,
                "rule": s.violation.rule,
                "justification": s.justification,
            }
            for s in result.suppressed
        ],
    }


def changed_files(paths: Sequence[str]) -> list[Path] | None:
    """Python files git reports modified or untracked under *paths*.

    Returns ``None`` when git is unavailable (not a repository) — the
    caller maps that to exit code 2.
    """
    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", "HEAD", "--"],
            capture_output=True,
            text=True,
            check=True,
        )
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    candidates = {
        line.strip()
        for out in (diff.stdout, untracked.stdout)
        for line in out.splitlines()
        if line.strip().endswith(".py")
    }
    scoped = {file.resolve() for file in iter_python_files(paths)}
    return sorted(
        path for raw in candidates if (path := Path(raw)).resolve() in scoped
    )


def _render_text(result: LintResult, stream) -> None:
    for violation in result.parse_errors + result.violations:
        print(violation.render(), file=stream)
    if result.clean:
        print(
            f"repro-lint: {result.files_scanned} files clean "
            f"({len(result.suppressed)} audited suppressions)",
            file=stream,
        )
    else:
        total = len(result.violations) + len(result.parse_errors)
        print(
            f"repro-lint: {total} violations in {result.files_scanned} files",
            file=stream,
        )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        options = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage error, 0 on --help; keep callable.
        return 0 if not exc.code else 2
    if options.list_rules:
        project = Project()  # forces rule registration
        del project
        for rule_id in sorted(REGISTRY):
            rule = REGISTRY[rule_id]
            print(f"{rule_id}  [{rule.family}]  {rule.summary}")
        return 0
    missing = [path for path in options.paths if not Path(path).exists()]
    if missing:
        print(
            f"repro-lint: path does not exist: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    project = Project(flow=not options.changed_only)
    if options.changed_only:
        files = changed_files(options.paths)
        if files is None:
            print(
                "repro-lint: --changed-only requires a git checkout",
                file=sys.stderr,
            )
            return 2
        for file_path in files:
            project.add_file(file_path)
    else:
        for file_path in iter_python_files(options.paths):
            project.add_file(file_path)
    result = project.run()
    if options.dot is not None:
        Path(options.dot).write_text(
            layering_dot(project.contexts), encoding="utf-8"
        )
    if options.format == "json":
        json.dump(result_to_json(result), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        _render_text(result, sys.stdout)
    return 0 if result.clean else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

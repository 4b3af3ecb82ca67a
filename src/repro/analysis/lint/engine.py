"""Rule engine of ``repro-lint``: files, suppressions, and the run loop.

The linter enforces the code-level invariants the reproduction's
guarantees rest on (see ``docs/analysis.md``):

* **exactness** — the exact-counting modules compute in Python integers;
  every float is a documented boundary;
* **determinism** — fingerprints, cache artifacts and serialized JSON
  never depend on wall-clock time, process entropy or set iteration
  order;
* **fault-safety** — nothing swallows
  :class:`~repro.service.faults.InjectedCrash`, and service-layer
  persistence routes through ``save_json_atomic``;
* **layering** — packages import strictly downward along the
  ``data → mining/anonymize/beliefs → graph → … → service`` order.

Rules are :class:`Rule` subclasses registered in :data:`REGISTRY`
(populated by the ``rules_*`` modules).  Violations can be suppressed in
source with an audited comment::

    x = 1.0  # repro-lint: disable=EX001 -- documented float boundary

Directives (``IDS`` is a comma-separated rule list or ``all``):

``# repro-lint: disable=IDS``
    Suppress on the comment's own line.
``# repro-lint: disable-next-line=IDS``
    Suppress on the following line.
``# repro-lint: disable-file=IDS``
    Suppress everywhere in the file.
``# repro-lint: disable-function=IDS``
    On a ``def`` line: suppress throughout that function's body.

Everything after ``--`` in a directive is a free-form justification;
write one — suppressions are the audit trail of deliberate exceptions.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "Violation",
    "Suppression",
    "FileContext",
    "Project",
    "Rule",
    "ProjectRule",
    "FlowRule",
    "REGISTRY",
    "register",
    "analyze_source",
    "lint_paths",
    "iter_python_files",
    "EXACT_MODULES",
    "DETERMINISM_MODULES",
    "LAYERS",
]

PathLike = Union[str, Path]

#: Modules whose counting core must stay in exact Python integers
#: (the paper's Section 4-5 guarantees: permanents and crack laws are
#: exact, not float approximations).
EXACT_MODULES = frozenset(
    {
        "repro.graph.permanent",
        "repro.graph.kernels",
        "repro.graph.intervaldp",
        "repro.graph.blocks",
        "repro.graph.exact",
        "repro.graph.refine",
    }
)

#: Modules feeding content-addressed fingerprints, cache artifacts or
#: serialized JSON — anything nondeterministic here silently poisons the
#: service cache and breaks byte-identical batch replay.
DETERMINISM_MODULES = frozenset(
    {
        "repro.service.fingerprint",
        "repro.service.cache",
        "repro.service.engine",
        "repro.service.crack",
        "repro.io",
        "repro.attack.solver.events",
    }
)

#: Layer of each top-level package of ``repro`` (and of the root package
#: itself, keyed ``"repro"``).  Imports must point at a strictly lower
#: layer; same-layer packages are independent siblings.
LAYERS: dict[str, int] = {
    "errors": 0,
    "budget": 1,
    "memo": 1,
    "data": 1,
    "mining": 2,
    "anonymize": 2,
    "beliefs": 2,
    "datasets": 2,
    "graph": 3,
    "core": 4,
    "simulation": 5,
    "analysis": 6,
    "protect": 6,
    "attack": 7,
    "recipe": 7,
    "repro": 8,  # the root package re-exports up through recipe/attack
    "io": 8,
    "service": 9,
    "cli": 10,
    "extensions": 10,
}


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit, pinned to a file position.

    ``witness`` carries the flow families' structured evidence (the two
    conflicting call chains of a CC race, a taint path) and is excluded
    from ordering/equality — it is a payload, not an identity.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    witness: dict | None = field(default=None, compare=False)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One suppressed hit, kept for the audit trail (``--format json``)."""

    violation: Violation
    justification: str | None


_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*"
    r"(?P<kind>disable(?:-next-line|-file|-function)?)\s*=\s*"
    r"(?P<ids>[A-Za-z0-9_*]+(?:\s*,\s*[A-Za-z0-9_*]+)*)"
    r"(?:\s+--\s*(?P<why>.*\S))?\s*$"
)


class FileContext:
    """One parsed file plus its suppression tables and parent links."""

    def __init__(self, path: str, source: str, module: str | None = None):
        self.path = path
        self.source = source
        self.module = module
        self.tree = ast.parse(source, filename=path)
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self._line_rules: dict[int, set[str]] = {}
        self._file_rules: set[str] = set()
        self._function_rules: list[tuple[int, int, set[str]]] = []
        self._justifications: dict[tuple[int, str], str] = {}
        self._collect_directives()

    # -- suppression plumbing ---------------------------------------------

    def _collect_directives(self) -> None:
        function_lines: dict[int, set[str]] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [
                (token.start[0], token.string)
                for token in tokens
                if token.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            comments = []
        for line, text in comments:
            match = _DIRECTIVE.search(text)
            if match is None:
                continue
            ids = {part.strip() for part in match.group("ids").split(",")}
            ids = {"all" if part == "*" else part for part in ids if part}
            kind = match.group("kind")
            why = match.group("why")
            if kind == "disable":
                target_line = line
                self._line_rules.setdefault(target_line, set()).update(ids)
            elif kind == "disable-next-line":
                target_line = line + 1
                self._line_rules.setdefault(target_line, set()).update(ids)
            elif kind == "disable-file":
                target_line = 0
                self._file_rules.update(ids)
            else:  # disable-function
                target_line = line
                function_lines.setdefault(line, set()).update(ids)
            if why:
                for rule_id in ids:
                    self._justifications[(target_line, rule_id)] = why
        if function_lines:
            for node in ast.walk(self.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    ids = function_lines.get(node.lineno)
                    if ids:
                        self._function_rules.append(
                            (node.lineno, node.end_lineno or node.lineno, ids)
                        )

    def _matches(self, rules: set[str], rule_id: str) -> bool:
        return "all" in rules or rule_id in rules

    def suppression_for(self, rule_id: str, line: int) -> tuple[bool, str | None]:
        """Whether ``rule_id`` is suppressed at ``line`` (+ justification)."""
        if self._matches(self._file_rules, rule_id):
            return True, self._justifications.get((0, rule_id))
        on_line = self._line_rules.get(line)
        if on_line is not None and self._matches(on_line, rule_id):
            return True, self._justifications.get((line, rule_id))
        for start, end, rules in self._function_rules:
            if start <= line <= end and self._matches(rules, rule_id):
                return True, self._justifications.get((start, rule_id))
        return False, None

    # -- convenience for rules --------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def violation(self, rule: "Rule", node: ast.AST, message: str) -> Violation:
        return Violation(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule.id,
            message=message,
        )


class Rule:
    """A per-file check.  Subclasses yield raw (unfiltered) violations."""

    id: str = ""
    family: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A whole-tree check run after every file has been parsed."""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())

    def check_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[tuple[FileContext, Violation]]:
        raise NotImplementedError


class FlowRule(ProjectRule):
    """A rule over the whole-program dataflow pass (``repro.analysis.flow``).

    Flow rules share one :class:`~repro.analysis.flow.FlowProgram` —
    call graph, lockset, budget-coverage and taint results — built once
    per :meth:`Project.run` when flow is enabled (the default for
    ``repro-lint``; ``--changed-only`` runs skip it).
    """

    def check_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[tuple[FileContext, Violation]]:
        return iter(())

    def check_flow(
        self, program: "object"
    ) -> Iterator[tuple[FileContext, Violation]]:
        raise NotImplementedError


#: All registered rules, id -> instance.  The ``rules_*`` modules
#: populate this at import time via :func:`register`.
REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to :data:`REGISTRY`."""
    rule = rule_cls()
    if not rule.id or not rule.family:
        raise ValueError(f"rule {rule_cls.__name__} needs an id and a family")
    if rule.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    REGISTRY[rule.id] = rule
    return rule_cls


def _ensure_rules_loaded() -> None:
    # Deferred so engine <-> rules_* imports stay acyclic.
    from repro.analysis.lint import (  # noqa: F401
        rules_concurrency,
        rules_determinism,
        rules_exactness,
        rules_faults,
        rules_flow,
        rules_layering,
    )


@dataclass
class LintResult:
    """Everything one run produced."""

    violations: list[Violation] = field(default_factory=list)
    suppressed: list[Suppression] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: list[Violation] = field(default_factory=list)
    #: Call-graph / coverage / taint statistics of the flow pass (the
    #: ``flow`` block of ``BENCH_lint.json``); ``None`` when the flow pass is off.
    flow_stats: dict | None = None

    @property
    def clean(self) -> bool:
        return not self.violations and not self.parse_errors


class Project:
    """A set of files linted together (needed for layering rules).

    *flow* controls the whole-program pass: the flow rule families
    (CC/FS005/DT004) only make sense when the project holds the whole
    tree, so single-file helpers (:func:`analyze_source`) and
    ``--changed-only`` runs disable it.
    """

    def __init__(self, flow: bool = True) -> None:
        _ensure_rules_loaded()
        self.flow = flow
        self.contexts: list[FileContext] = []
        self.result = LintResult()

    def add_source(self, source: str, path: str, module: str | None = None) -> None:
        """Add an in-memory file (the test hook; also used by the CLI)."""
        try:
            self.contexts.append(FileContext(path, source, module))
        except SyntaxError as exc:
            self.result.parse_errors.append(
                Violation(
                    path=path,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    rule="PARSE",
                    message=f"syntax error: {exc.msg}",
                )
            )
        self.result.files_scanned += 1

    def add_file(self, path: PathLike) -> None:
        file_path = Path(path)
        self.add_source(
            file_path.read_text(encoding="utf-8"),
            str(file_path),
            module_name_for(file_path),
        )

    def run(self) -> LintResult:
        """Run every registered rule; returns the accumulated result."""
        for ctx in self.contexts:
            for rule in REGISTRY.values():
                if isinstance(rule, ProjectRule):
                    continue
                for violation in rule.check(ctx):
                    self._record(ctx, violation)
        for rule in REGISTRY.values():
            if isinstance(rule, ProjectRule) and not isinstance(rule, FlowRule):
                for ctx, violation in rule.check_project(self.contexts):
                    self._record(ctx, violation)
        if self.flow and self.contexts:
            # Deferred import: the flow package sits on top of this one.
            from repro.analysis.flow import FlowProgram

            program = FlowProgram(self.contexts)
            for rule in REGISTRY.values():
                if isinstance(rule, FlowRule):
                    for ctx, violation in rule.check_flow(program):
                        self._record(ctx, violation)
            self.result.flow_stats = program.stats()
        self.result.violations.sort()
        self.result.suppressed.sort(key=lambda s: s.violation)
        return self.result

    def _record(self, ctx: FileContext, violation: Violation) -> None:
        suppressed, why = ctx.suppression_for(violation.rule, violation.line)
        if suppressed:
            self.result.suppressed.append(Suppression(violation, why))
        else:
            self.result.violations.append(violation)


def module_name_for(path: Path) -> str | None:
    """Dotted module name when *path* lies in a ``src/repro`` tree."""
    parts = path.resolve().parts
    for anchor in range(len(parts) - 1, -1, -1):
        if parts[anchor] == "repro" and anchor > 0 and parts[anchor - 1] == "src":
            dotted = list(parts[anchor:-1]) + [path.stem]
            if dotted[-1] == "__init__":
                dotted = dotted[:-1]
            return ".".join(dotted)
    return None


def iter_python_files(paths: Iterable[PathLike]) -> Iterator[Path]:
    """Yield every ``*.py`` file under *paths*, skipping caches."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            for file_path in sorted(path.rglob("*.py")):
                if "__pycache__" in file_path.parts:
                    continue
                if any(part.startswith(".") for part in file_path.parts):
                    continue
                yield file_path


def lint_paths(paths: Iterable[PathLike], flow: bool = True) -> LintResult:
    """Lint every Python file under *paths* with all registered rules."""
    project = Project(flow=flow)
    for file_path in iter_python_files(paths):
        project.add_file(file_path)
    return project.run()


def analyze_source(
    source: str, module: str | None = None, path: str = "<memory>"
) -> LintResult:
    """Lint one in-memory file (per-file rules plus single-file layering).

    Single-file runs are per-file by construction, so the whole-program
    flow pass is off.
    """
    project = Project(flow=False)
    project.add_source(source, path, module)
    return project.run()

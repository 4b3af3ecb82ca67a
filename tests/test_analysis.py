"""Unit tests for risk profiles and decision-support curves."""

import numpy as np
import pytest

from repro.analysis import RiskProfile, delta_sensitivity, tolerance_curve
from repro.beliefs import uniform_width_belief
from repro.core import o_estimate
from repro.errors import RecipeError
from repro.graph import space_from_frequencies


class TestRiskProfile:
    def test_bigmart_attribution(self, bigmart_space_h):
        profile = RiskProfile.from_space(bigmart_space_h)
        assert profile.expected_cracks == pytest.approx(
            o_estimate(bigmart_space_h).value
        )
        assert len(profile) == 6
        assert profile.n_noncompliant == 0

    def test_most_exposed_first(self, bigmart_space_h):
        profile = RiskProfile.from_space(bigmart_space_h)
        probabilities = [risk.crack_probability for risk in profile.items]
        assert probabilities == sorted(probabilities, reverse=True)
        # Item 5 has outdegree 2 - the most exposed in BigMart under h.
        assert profile.items[0].item == 5

    def test_surely_cracked(self, staircase_space):
        profile = RiskProfile.from_space(staircase_space)
        assert profile.n_surely_cracked == 1  # only item "a" has O_x = 1

    def test_noncompliant_attribution(self, bigmart_frequencies):
        belief = uniform_width_belief(bigmart_frequencies, 0.02).replace(
            {5: (0.8, 0.9)}
        )
        space = space_from_frequencies(belief, bigmart_frequencies)
        profile = RiskProfile.from_space(space)
        assert profile.n_noncompliant == 1
        risk5 = next(risk for risk in profile.items if risk.item == 5)
        assert risk5.crack_probability == 0.0
        assert not risk5.compliant

    def test_frequency_recorded(self, bigmart_space_h):
        profile = RiskProfile.from_space(bigmart_space_h)
        risk5 = next(risk for risk in profile.items if risk.item == 5)
        assert risk5.frequency == pytest.approx(0.3)

    def test_top_exposed(self, bigmart_space_h):
        profile = RiskProfile.from_space(bigmart_space_h)
        top = profile.top_exposed(2)
        assert len(top) == 2
        assert top[0].crack_probability >= top[1].crack_probability

    def test_histogram_covers_domain(self, bigmart_space_h):
        profile = RiskProfile.from_space(bigmart_space_h)
        histogram = profile.probability_histogram()
        assert sum(histogram.values()) == 6

    def test_markdown_rendering(self, bigmart_space_h):
        text = RiskProfile.from_space(bigmart_space_h).to_markdown(top_k=3)
        assert "# Disclosure risk profile" in text
        assert "expected cracks" in text
        assert text.count("\n| ") >= 4  # header + separator + 3 rows


class TestToleranceCurve:
    @pytest.fixture
    def space(self, rng):
        freqs = {i: round(float(f), 2) for i, f in enumerate(rng.random(30), start=1)}
        return space_from_frequencies(uniform_width_belief(freqs, 0.03), freqs)

    def test_monotone(self, space, rng):
        points = tolerance_curve(space, [0.01, 0.1, 0.3, 0.6, 1.0], rng=rng)
        alphas = [point.alpha_max for point in points]
        assert alphas == sorted(alphas)

    def test_extremes(self, space, rng):
        points = tolerance_curve(space, [0.0, 1.0], rng=rng)
        assert points[0].alpha_max == pytest.approx(0.0)
        assert points[1].alpha_max == pytest.approx(1.0)

    def test_agrees_with_alpha_max(self, space):
        from repro.core import alpha_max

        (point,) = tolerance_curve(space, [0.2], rng=np.random.default_rng(4))
        direct = alpha_max(space, 0.2, rng=np.random.default_rng(4))
        assert point.alpha_max == pytest.approx(direct)

    def test_invalid_tolerance(self, space, rng):
        with pytest.raises(RecipeError):
            tolerance_curve(space, [1.2], rng=rng)


class TestDeltaSensitivity:
    def test_monotone_nonincreasing(self, bigmart_frequencies):
        points = delta_sensitivity(bigmart_frequencies, [0.0, 0.05, 0.1, 0.3, 1.0])
        estimates = [point.estimate for point in points]
        assert all(a >= b - 1e-12 for a, b in zip(estimates, estimates[1:]))

    def test_endpoints(self, bigmart_frequencies):
        points = delta_sensitivity(bigmart_frequencies, [0.0, 1.0])
        # delta = 0: point-valued, OE = g = 3; delta = 1: ignorant, OE = 1.
        assert points[0].estimate == pytest.approx(3.0)
        assert points[-1].estimate == pytest.approx(1.0)

    def test_fraction_field(self, bigmart_frequencies):
        (point,) = delta_sensitivity(bigmart_frequencies, [0.05])
        assert point.fraction == pytest.approx(point.estimate / 6)


# ---------------------------------------------------------------------------
# repro-lint: the invariant analyzer
# ---------------------------------------------------------------------------
#
# Fixtures are in-memory source strings fed to analyze_source (with the
# module name that puts them in scope for each rule family), so this
# test file itself never trips the linter's directory walk.

from pathlib import Path

from repro.analysis.lint import REGISTRY, analyze_source, lint_paths
from repro.analysis.lint.cli import main as lint_main, result_to_json
from repro.analysis.lint.engine import Project

EXACT_MOD = "repro.graph.permanent"
DET_MOD = "repro.service.fingerprint"


def rules_hit(result):
    return {violation.rule for violation in result.violations}


class TestExactnessRules:
    def test_float_literal_flagged(self):
        result = analyze_source("x = 0.5\n", module=EXACT_MOD)
        assert "EX001" in rules_hit(result)

    def test_true_division_flagged(self):
        result = analyze_source("def f(a, b):\n    return a / b\n", module=EXACT_MOD)
        assert "EX002" in rules_hit(result)

    def test_augmented_division_flagged(self):
        result = analyze_source("def f(a, b):\n    a /= b\n    return a\n", module=EXACT_MOD)
        assert "EX002" in rules_hit(result)

    def test_inexact_math_flagged_allowlist_passes(self):
        bad = analyze_source("import math\ny = math.sqrt(2)\n", module=EXACT_MOD)
        assert "EX003" in rules_hit(bad)
        good = analyze_source("import math\ny = math.comb(5, 2)\n", module=EXACT_MOD)
        assert "EX003" not in rules_hit(good)

    def test_numpy_float_and_cast_flagged(self):
        source = "import numpy as np\na = np.zeros(3, dtype=np.float64)\nb = float(a.sum())\n"
        hits = rules_hit(analyze_source(source, module=EXACT_MOD))
        assert "EX004" in hits

    def test_other_modules_exempt(self):
        result = analyze_source("x = 0.5\ny = x / 2\n", module="repro.recipe.assess")
        assert not rules_hit(result) & {"EX001", "EX002"}


class TestDeterminismRules:
    def test_unseeded_random_flagged(self):
        result = analyze_source(
            "import random\nx = random.random()\n", module=DET_MOD
        )
        assert "DT001" in rules_hit(result)

    def test_unseeded_default_rng_flagged_seeded_passes(self):
        bad = analyze_source(
            "import numpy as np\nrng = np.random.default_rng()\n", module=DET_MOD
        )
        assert "DT001" in rules_hit(bad)
        good = analyze_source(
            "import numpy as np\nrng = np.random.default_rng(7)\n", module=DET_MOD
        )
        assert "DT001" not in rules_hit(good)

    def test_wall_clock_flagged_perf_counter_passes(self):
        bad = analyze_source("import time\nt = time.time()\n", module=DET_MOD)
        assert "DT002" in rules_hit(bad)
        good = analyze_source("import time\nt = time.perf_counter()\n", module=DET_MOD)
        assert "DT002" not in rules_hit(good)

    def test_urandom_flagged(self):
        result = analyze_source("import os\nx = os.urandom(8)\n", module=DET_MOD)
        assert "DT002" in rules_hit(result)

    def test_set_iteration_flagged_sorted_passes(self):
        bad = analyze_source(
            "out = [i for i in {3, 1, 2}]\n", module=DET_MOD
        )
        assert "DT003" in rules_hit(bad)
        good = analyze_source(
            "out = [i for i in sorted({3, 1, 2})]\n", module=DET_MOD
        )
        assert "DT003" not in rules_hit(good)

    def test_set_to_list_flagged(self):
        bad = analyze_source(
            "keys = list({'b', 'a'})\n", module=DET_MOD
        )
        assert "DT003" in rules_hit(bad)

    def test_out_of_zone_module_exempt(self):
        result = analyze_source(
            "import time\nt = time.time()\n", module="repro.recipe.report"
        )
        assert "DT002" not in rules_hit(result)


class TestFaultSafetyRules:
    def test_bare_except_flagged(self):
        source = "try:\n    pass\nexcept:\n    pass\n"
        assert "FS001" in rules_hit(analyze_source(source, module="repro.core.alpha"))

    def test_swallowed_base_exception_flagged(self):
        source = "try:\n    pass\nexcept BaseException:\n    pass\n"
        assert "FS002" in rules_hit(analyze_source(source, module="repro.core.alpha"))

    def test_reraising_base_exception_passes(self):
        source = (
            "try:\n    pass\nexcept BaseException as exc:\n"
            "    cleanup = True\n    raise\n"
        )
        assert "FS002" not in rules_hit(analyze_source(source, module="repro.core.alpha"))

    def test_raising_different_exception_still_flagged(self):
        source = (
            "try:\n    pass\nexcept BaseException as exc:\n"
            "    raise RuntimeError('swallowed')\n"
        )
        assert "FS002" in rules_hit(analyze_source(source, module="repro.core.alpha"))

    def test_service_json_dump_flagged(self):
        source = (
            "import json\n"
            "def save(payload, handle):\n    json.dump(payload, handle)\n"
        )
        assert "FS003" in rules_hit(
            analyze_source(source, module="repro.service.cache")
        )

    def test_service_write_open_flagged_read_passes(self):
        bad = "h = open('x.json', 'w')\n"
        assert "FS003" in rules_hit(analyze_source(bad, module="repro.service.cache"))
        good = "h = open('x.json')\n"
        assert "FS003" not in rules_hit(analyze_source(good, module="repro.service.cache"))

    def test_non_service_write_passes(self):
        source = "h = open('x.json', 'w')\n"
        assert "FS003" not in rules_hit(analyze_source(source, module="repro.io"))


class TestUnbudgetedHotLoopRule:
    """The per-loop budget criterion, enforced by FS005 on a whole program.

    Each loop sits in a kernel module that the engine's deadline-bearing
    entry point (``AssessmentEngine.assess_many``) calls without a budget,
    so only the loop's own body can cover it.
    """

    ENTRY = (
        "from {module} import run\n"
        "class AssessmentEngine:\n"
        "    def assess_many(self, jobs):\n"
        "        run(jobs)\n"
    )

    def lint(self, source, module="repro.graph.fake", reached=True):
        project = Project()
        if reached:
            project.add_source(
                self.ENTRY.format(module=module),
                path="src/repro/service/engine.py",
                module="repro.service.engine",
            )
        path = "<memory>" if module is None else f"src/{module.replace('.', '/')}.py"
        project.add_source(source, path=path, module=module)
        return project.run()

    def test_unbudgeted_while_in_simulation_flagged(self):
        source = "def run(x):\n    while x > 0:\n        x -= 1\n"
        assert "FS005" in rules_hit(self.lint(source, module="repro.simulation.fake"))

    def test_unbudgeted_while_in_graph_flagged(self):
        source = "def run(x):\n    while x > 0:\n        x -= 1\n"
        assert "FS005" in rules_hit(self.lint(source))

    def test_budget_name_in_loop_passes(self):
        source = (
            "def run(x, budget):\n"
            "    while x > 0:\n"
            "        budget.checkpoint()\n"
            "        x -= 1\n"
        )
        assert "FS005" not in rules_hit(
            self.lint(source, module="repro.simulation.fake")
        )

    def test_poll_call_in_loop_passes(self):
        source = (
            "def run(x, quota):\n"
            "    while x > 0:\n"
            "        quota.tick(1)\n"
            "        x -= 1\n"
        )
        assert "FS005" not in rules_hit(self.lint(source))

    def test_shifted_range_for_loop_flagged(self):
        source = "def run(n):\n    for s in range(1 << n):\n        pass\n"
        assert "FS005" in rules_hit(self.lint(source))

    def test_plain_range_for_loop_passes(self):
        source = "def run(n):\n    for s in range(n):\n        pass\n"
        assert "FS005" not in rules_hit(self.lint(source))

    def test_outside_hot_modules_passes(self):
        """A loop no deadline-bearing entry reaches passes, in any module."""
        source = "def run(x):\n    while x > 0:\n        x -= 1\n"
        for module in ("repro.graph.fake", "repro.data.database", None):
            assert "FS005" not in rules_hit(
                self.lint(source, module=module, reached=False)
            )

    def test_audited_suppression_is_recorded(self):
        source = (
            "def run(x):\n"
            "    while x > 0:  # repro-lint: disable=FS005 -- bounded by x\n"
            "        x -= 1\n"
        )
        result = self.lint(source)
        assert "FS005" not in rules_hit(result)
        assert any(
            s.violation.rule == "FS005" and s.justification == "bounded by x"
            for s in result.suppressed
        )


class TestLayeringRules:
    def test_upward_module_level_import_flagged(self):
        project = Project()
        project.add_source(
            "from repro.service.engine import AssessmentEngine\n",
            path="src/repro/graph/fake.py",
            module="repro.graph.fake",
        )
        result = project.run()
        assert "LY001" in {v.rule for v in result.violations}

    def test_lazy_upward_import_reported_as_ly002(self):
        project = Project()
        project.add_source(
            "def f():\n    from repro.core.chain import chain_from_space\n",
            path="src/repro/graph/fake.py",
            module="repro.graph.fake",
        )
        result = project.run()
        hits = {v.rule for v in result.violations}
        assert "LY002" in hits and "LY001" not in hits

    def test_downward_import_passes(self):
        project = Project()
        project.add_source(
            "from repro.data.database import FrequencyProfile\n",
            path="src/repro/graph/fake.py",
            module="repro.graph.fake",
        )
        result = project.run()
        assert not {v.rule for v in result.violations} & {"LY001", "LY002"}

    def test_cycle_detected(self):
        project = Project()
        project.add_source(
            "import repro.beliefs.order\n",
            path="src/repro/mining/fake_a.py",
            module="repro.mining.fake_a",
        )
        project.add_source(
            "import repro.mining.fake_a\n",
            path="src/repro/beliefs/fake_b.py",
            module="repro.beliefs.order",
        )
        result = project.run()
        assert "LY003" in {v.rule for v in result.violations}

    def test_dot_output(self):
        from repro.analysis.lint.rules_layering import layering_dot

        project = Project()
        project.add_source(
            "from repro.data.database import FrequencyProfile\n",
            path="src/repro/graph/fake.py",
            module="repro.graph.fake",
        )
        dot = layering_dot(project.contexts)
        assert dot.startswith("digraph layering {")
        assert '"graph" -> "data"' in dot


class TestSuppressions:
    def test_line_suppression_with_justification(self):
        source = "x = 0.5  # repro-lint: disable=EX001 -- documented boundary\n"
        result = analyze_source(source, module=EXACT_MOD)
        assert "EX001" not in rules_hit(result)
        assert any(
            s.violation.rule == "EX001" and s.justification == "documented boundary"
            for s in result.suppressed
        )

    def test_next_line_suppression(self):
        source = "# repro-lint: disable-next-line=EX001\nx = 0.5\n"
        result = analyze_source(source, module=EXACT_MOD)
        assert "EX001" not in rules_hit(result)

    def test_file_suppression(self):
        source = "# repro-lint: disable-file=EX001\nx = 0.5\ny = 1.5\n"
        result = analyze_source(source, module=EXACT_MOD)
        assert "EX001" not in rules_hit(result)
        assert len(result.suppressed) == 2

    def test_function_suppression_scoped_to_body(self):
        source = (
            "def f():  # repro-lint: disable-function=EX001\n"
            "    return 0.5\n"
            "x = 1.5\n"
        )
        result = analyze_source(source, module=EXACT_MOD)
        lines = [v.line for v in result.violations if v.rule == "EX001"]
        assert lines == [3]

    def test_suppression_of_other_rule_does_not_mask(self):
        source = "x = 0.5  # repro-lint: disable=EX002\n"
        result = analyze_source(source, module=EXACT_MOD)
        assert "EX001" in rules_hit(result)

    def test_disable_all(self):
        source = "x = 0.5  # repro-lint: disable=all\n"
        result = analyze_source(source, module=EXACT_MOD)
        assert not result.violations


class TestAnalyzerCli:
    def test_registry_has_all_families(self):
        Project()  # force registration
        families = {rule.family for rule in REGISTRY.values()}
        assert families >= {"exactness", "determinism", "fault-safety", "layering"}

    def test_shipped_tree_is_clean(self):
        root = Path(__file__).resolve().parent.parent
        result = lint_paths(
            [root / "src", root / "benchmarks", root / "tests"]
        )
        assert result.clean, "\n".join(v.render() for v in result.violations)

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert lint_main([str(dirty)]) == 1
        assert lint_main([str(tmp_path / "missing.py")]) == 2
        capsys.readouterr()

    def test_json_report_schema_matches_snapshot(self, tmp_path, capsys):
        import json

        target = tmp_path / "f.py"
        target.write_text("x = 1\n")
        assert lint_main(["--format", "json", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        root = Path(__file__).resolve().parent.parent
        snapshot = json.loads((root / "BENCH_lint.json").read_text())
        assert set(payload) == set(snapshot["report"])
        assert snapshot["report"]["clean"] is True

    def test_json_counts(self):
        result = analyze_source("x = 0.5\ny = 1 / 2\n", module=EXACT_MOD)
        payload = result_to_json(result)
        assert payload["violation_counts"]["EX001"] == 1
        assert payload["violation_counts"]["EX002"] == 1
        assert payload["clean"] is False


# ---------------------------------------------------------------------------
# Whole-program flow layer (call graph, CFG, dataflow, CC/FS005/DT004)
# ---------------------------------------------------------------------------

import ast as _ast

from repro.analysis.flow import FlowProgram
from repro.analysis.flow.cfg import build_cfg
from repro.analysis.flow.dataflow import ForwardAnalysis, solve


def _flow_result(*files):
    """Run the full linter over in-memory (source, path, module) files."""
    project = Project()
    for source, path, module in files:
        project.add_source(source, path=path, module=module)
    return project.run()


def _flow_program(*files):
    project = Project()
    for source, path, module in files:
        project.add_source(source, path=path, module=module)
    return FlowProgram(project.contexts)


class TestCallGraph:
    SOURCE = """
import threading
from repro.service.other import helper

class Store:
    def __init__(self):
        self.rows = []

    def lookup(self):
        return self.rows

class Engine:
    def __init__(self):
        self.store = Store()

    def run_once(self):
        self.store.lookup()
        helper()
        self._local()
        threading.Thread(target=self._beat).start()

    def _local(self):
        pass

    def _beat(self):
        pass
"""
    OTHER = "def helper():\n    pass\n"

    def _graph(self):
        return _flow_program(
            (self.SOURCE, "src/repro/service/fake_cg.py", "repro.service.fake_cg"),
            (self.OTHER, "src/repro/service/other.py", "repro.service.other"),
        ).graph

    def test_self_import_and_typed_attr_resolution(self):
        graph = self._graph()
        callees = graph.callees("repro.service.fake_cg.Engine.run_once")
        assert "repro.service.fake_cg.Store.lookup" in callees  # self.store typed
        assert "repro.service.other.helper" in callees  # from-import
        assert "repro.service.fake_cg.Engine._local" in callees  # self method

    def test_constructor_resolves_to_init(self):
        graph = self._graph()
        callees = graph.callees("repro.service.fake_cg.Engine.__init__")
        assert "repro.service.fake_cg.Store.__init__" in callees

    def test_thread_target_recorded(self):
        graph = self._graph()
        assert "repro.service.fake_cg.Engine._beat" in graph.thread_targets

    def test_dunder_never_matches_by_name(self):
        source = (
            "class Base:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "class Child:\n"
            "    def __init__(self):\n"
            "        super().__init__()\n"
        )
        graph = _flow_program(
            (source, "src/repro/service/fake_sup.py", "repro.service.fake_sup")
        ).graph
        callees = graph.callees("repro.service.fake_sup.Child.__init__")
        assert "repro.service.fake_sup.Base.__init__" not in callees

    def test_ubiquitous_names_skip_by_name_fallback(self):
        source = (
            "class Cache:\n"
            "    def get(self, key):\n"
            "        return key\n"
            "def f(headers):\n"
            "    return headers.get('x')\n"
        )
        graph = _flow_program(
            (source, "src/repro/service/fake_ub.py", "repro.service.fake_ub")
        ).graph
        assert "repro.service.fake_ub.Cache.get" not in graph.callees(
            "repro.service.fake_ub.f"
        )

    def test_local_constructor_types_resolve(self):
        source = (
            "class Probe:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "    def fire(self):\n"
            "        pass\n"
            "def f():\n"
            "    probe = Probe()\n"
            "    probe.fire()\n"
        )
        graph = _flow_program(
            (source, "src/repro/service/fake_loc.py", "repro.service.fake_loc")
        ).graph
        assert "repro.service.fake_loc.Probe.fire" in graph.callees(
            "repro.service.fake_loc.f"
        )


class TestControlFlowGraph:
    @staticmethod
    def _fn(source):
        return _ast.parse(source).body[0]

    def test_if_branches_and_join(self):
        cfg = build_cfg(
            self._fn("def f(x):\n    if x:\n        a = 1\n    else:\n        a = 2\n    return a\n")
        )
        branch = next(
            b for b in cfg.blocks
            if any(isinstance(s, _ast.If) for s in b.statements)
        )
        assert len(branch.successors) == 2

    def test_while_loops_back(self):
        cfg = build_cfg(self._fn("def f(x):\n    while x:\n        x -= 1\n    return x\n"))
        head = next(
            b for b in cfg.blocks
            if any(isinstance(s, _ast.While) for s in b.statements)
        )
        assert len(head.successors) == 2  # body + fall-through
        body = next(
            b for b in cfg.blocks
            if any(isinstance(s, _ast.AugAssign) for s in b.statements)
        )
        assert head.index in body.successors  # back edge

    def test_return_edges_to_exit(self):
        cfg = build_cfg(self._fn("def f(x):\n    if x:\n        return 1\n    return 2\n"))
        returners = [
            b for b in cfg.blocks
            if any(isinstance(s, _ast.Return) for s in b.statements)
        ]
        assert returners and all(cfg.exit in b.successors for b in returners)


class _DefinedNames(ForwardAnalysis):
    """Must-analysis: names assigned on every path (intersection join)."""

    def initial(self):
        return frozenset()

    def join(self, left, right):
        return left & right

    def transfer(self, statement, state):
        if isinstance(statement, _ast.Assign):
            names = {
                t.id for t in statement.targets if isinstance(t, _ast.Name)
            }
            return state | names
        return state


class TestDataflow:
    def test_intersection_join_drops_one_sided_definitions(self):
        fn = _ast.parse(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "        b = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n"
        ).body[0]
        cfg = build_cfg(fn)
        states = solve(cfg, _DefinedNames())
        returner = next(
            b for b in cfg.blocks
            if any(isinstance(s, _ast.Return) for s in b.statements)
        )
        assert "a" in states[returner.index]
        assert "b" not in states[returner.index]

    def test_loop_reaches_fixpoint(self):
        fn = _ast.parse(
            "def f(x):\n"
            "    while x:\n"
            "        a = 1\n"
            "    return x\n"
        ).body[0]
        cfg = build_cfg(fn)
        states = solve(cfg, _DefinedNames())  # must terminate
        assert cfg.exit in states


RACY_WORKER = """
import threading

class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def spawn(self):
        threading.Thread(target=self._bump).start()
        threading.Thread(target=self._read).start()

    def _bump(self):
        self._count += 1

    def _read(self):
        value = self._count
        return value
"""

GUARDED_WORKER = """
import threading

class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def spawn(self):
        threading.Thread(target=self._bump).start()
        threading.Thread(target=self._read).start()

    def _bump(self):
        with self._lock:
            self._count += 1

    def _read(self):
        with self._lock:
            value = self._count
        return value
"""


class TestLocksetRaces:
    def test_unguarded_shared_field_flagged(self):
        result = _flow_result(
            (RACY_WORKER, "src/repro/service/fake_w.py", "repro.service.fake_w")
        )
        cc = [v for v in result.violations if v.rule == "CC001"]
        assert cc, [v.render() for v in result.violations]
        assert "_count" in cc[0].message

    def test_consistent_lock_passes(self):
        result = _flow_result(
            (GUARDED_WORKER, "src/repro/service/fake_w.py", "repro.service.fake_w")
        )
        assert "CC001" not in {v.rule for v in result.violations}

    def test_witness_carries_two_chains(self):
        result = _flow_result(
            (RACY_WORKER, "src/repro/service/fake_w.py", "repro.service.fake_w")
        )
        witness = next(
            v.witness for v in result.violations if v.rule == "CC001"
        )
        assert witness["field"].endswith("Worker._count")
        chains = [a["call_chain"] for a in witness["accesses"]]
        assert len(chains) == 2 and all(chains)

    def test_caller_held_lock_propagates_into_callee(self):
        source = """
import threading

class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def spawn(self):
        threading.Thread(target=self._locked_bump).start()
        threading.Thread(target=self._locked_read).start()

    def _locked_bump(self):
        with self._lock:
            self._store()

    def _store(self):
        self._count += 1

    def _locked_read(self):
        with self._lock:
            return self._count
"""
        result = _flow_result(
            (source, "src/repro/service/fake_w.py", "repro.service.fake_w")
        )
        assert "CC001" not in {v.rule for v in result.violations}

    def test_out_of_scope_module_ignored(self):
        result = _flow_result(
            (RACY_WORKER, "src/repro/graph/fake_w.py", "repro.graph.fake_w")
        )
        assert "CC001" not in {v.rule for v in result.violations}

    @pytest.mark.parametrize(
        "factory, racy", [("BoundedLRU(8)", False), ("dict()", True)]
    )
    def test_self_locking_memo_field_is_not_shared(self, factory, racy):
        source = f"""
import threading
from repro.memo import BoundedLRU

class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self._table = {factory}

    def spawn(self):
        threading.Thread(target=self._retire).start()
        threading.Thread(target=self._size).start()

    def _retire(self):
        self._table.pop("a")

    def _size(self):
        return len(self._table)
"""
        result = _flow_result(
            (source, "src/repro/service/fake_s.py", "repro.service.fake_s")
        )
        assert ("CC001" in {v.rule for v in result.violations}) is racy


RACY_GLOBAL = """
import threading

_LOCK = threading.Lock()
_STATE = None

def spawn():
    threading.Thread(target=_set).start()
    threading.Thread(target=_get).start()

def _set():
    global _STATE
    _STATE = 1

def _get():
    return _STATE
"""

GUARDED_GLOBAL = """
import threading

_LOCK = threading.Lock()
_STATE = None

def spawn():
    threading.Thread(target=_set).start()
    threading.Thread(target=_get).start()

def _set():
    global _STATE
    with _LOCK:
        _STATE = 1

def _get():
    with _LOCK:
        return _STATE
"""


class TestGlobalRaces:
    def test_unguarded_global_flagged(self):
        result = _flow_result(
            (RACY_GLOBAL, "src/repro/service/fake_g.py", "repro.service.fake_g")
        )
        assert "CC002" in {v.rule for v in result.violations}

    def test_guarded_global_passes(self):
        result = _flow_result(
            (GUARDED_GLOBAL, "src/repro/service/fake_g.py", "repro.service.fake_g")
        )
        assert "CC002" not in {v.rule for v in result.violations}


class TestBudgetCoverage:
    PATH = "src/repro/service/engine.py"
    MODULE = "repro.service.engine"
    ENTRY = "repro.service.engine.AssessmentEngine.assess_many"

    def test_unbudgeted_chain_flagged(self):
        source = (
            "class AssessmentEngine:\n"
            "    def assess_many(self, jobs):\n"
            "        self._drain(jobs)\n"
            "    def _drain(self, jobs):\n"
            "        while jobs:\n"
            "            jobs.pop()\n"
        )
        result = _flow_result((source, self.PATH, self.MODULE))
        fs = [v for v in result.violations if v.rule == "FS005"]
        assert fs and "_drain" in fs[0].message
        assert fs[0].witness["entry_chain"][0] == self.ENTRY

    def test_direct_poll_covers(self):
        source = (
            "class AssessmentEngine:\n"
            "    def assess_many(self, jobs, budget):\n"
            "        while jobs:\n"
            "            budget.checkpoint()\n"
            "            jobs.pop()\n"
        )
        result = _flow_result((source, self.PATH, self.MODULE))
        assert "FS005" not in {v.rule for v in result.violations}

    def test_transitively_polling_callee_covers(self):
        source = (
            "class AssessmentEngine:\n"
            "    def assess_many(self, jobs):\n"
            "        while jobs:\n"
            "            self._step(jobs)\n"
            "    def _step(self, jobs):\n"
            "        budget = self._grab()\n"
            "        budget.checkpoint()\n"
            "    def _grab(self):\n"
            "        return None\n"
        )
        result = _flow_result((source, self.PATH, self.MODULE))
        assert "FS005" not in {v.rule for v in result.violations}
        program = _flow_program((source, self.PATH, self.MODULE))
        kinds = {f.function: f.coverage for f in program.budget.findings()}
        assert kinds[self.ENTRY] == "callee"

    def test_budget_aware_caller_amortizes(self):
        source = (
            "class AssessmentEngine:\n"
            "    def assess_many(self, jobs, budget):\n"
            "        budget.checkpoint()\n"
            "        self._drain(jobs)\n"
            "    def _drain(self, jobs):\n"
            "        while jobs:\n"
            "            jobs.pop()\n"
        )
        result = _flow_result((source, self.PATH, self.MODULE))
        assert "FS005" not in {v.rule for v in result.violations}
        program = _flow_program((source, self.PATH, self.MODULE))
        kinds = {f.function: f.coverage for f in program.budget.findings()}
        assert kinds["repro.service.engine.AssessmentEngine._drain"] == "amortized"

    def test_unreachable_loop_not_flagged(self):
        source = (
            "def helper(jobs):\n"
            "    while jobs:\n"
            "        jobs.pop()\n"
        )
        result = _flow_result((source, self.PATH, self.MODULE))
        assert "FS005" not in {v.rule for v in result.violations}


TAINTED_FP = """
import time

def make_fingerprint(payload):
    stamp = time.time()
    tag = payload + str(stamp)
    return compute_fingerprint(tag)

def compute_fingerprint(data):
    return hash(data)
"""

SET_ORDER_FP = """
def items_fingerprint(items):
    order = list(set(items))
    return compute_fingerprint(order)

def compute_fingerprint(data):
    return hash(data)
"""

SANITIZED_FP = """
def items_fingerprint(items):
    order = sorted(set(items))
    return compute_fingerprint(order)

def compute_fingerprint(data):
    return hash(data)
"""

INTERPROC_FP = """
import time

def outer():
    stamp = time.time()
    return wrap(stamp)

def wrap(value):
    return compute_fingerprint(value)

def compute_fingerprint(data):
    return hash(data)
"""


class TestTaintFlow:
    PATH = "src/repro/recipe/fake_fp.py"
    MODULE = "repro.recipe.fake_fp"

    def _rules(self, source):
        result = _flow_result((source, self.PATH, self.MODULE))
        return {v.rule for v in result.violations}, result

    def test_wall_clock_into_fingerprint_flagged(self):
        rules, result = self._rules(TAINTED_FP)
        assert "DT004" in rules
        finding = next(v for v in result.violations if v.rule == "DT004")
        assert "time.time()" in finding.message
        assert finding.witness["sink"] == "compute_fingerprint"

    def test_set_iteration_order_flagged(self):
        rules, _ = self._rules(SET_ORDER_FP)
        assert "DT004" in rules

    def test_sorted_sanitizes(self):
        rules, _ = self._rules(SANITIZED_FP)
        assert "DT004" not in rules

    def test_taint_crosses_function_boundary(self):
        rules, result = self._rules(INTERPROC_FP)
        assert "DT004" in rules
        finding = next(v for v in result.violations if v.rule == "DT004")
        assert finding.witness["source"]["label"] == "time.time()"


class TestChangedOnly:
    def _git(self, cwd, *args):
        import subprocess

        subprocess.run(
            ["git", *args],
            cwd=cwd,
            check=True,
            capture_output=True,
            env={
                "PATH": "/usr/bin:/bin",
                "GIT_AUTHOR_NAME": "t",
                "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t",
                "GIT_COMMITTER_EMAIL": "t@t",
                "HOME": str(cwd),
            },
        )

    def test_changed_only_lints_only_dirty_files(self, tmp_path, monkeypatch, capsys):
        self._git(tmp_path, "init", "-q")
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("x = 1\n")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        dirty.write_text("try:\n    pass\nexcept:\n    pass\n")
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--changed-only", "--format", "json", "."]) == 1
        import json as _json

        payload = _json.loads(capsys.readouterr().out)
        assert payload["files_scanned"] == 1
        assert payload["violation_counts"] == {"FS001": 1}
        assert payload["flow"] is None  # changed-only runs per-file rules only

    def test_changed_only_clean_exit_zero(self, tmp_path, monkeypatch, capsys):
        self._git(tmp_path, "init", "-q")
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--changed-only", "."]) == 0
        capsys.readouterr()

    def test_changed_only_outside_git_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.py").write_text("x = 1\n")
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nowhere"))
        assert lint_main(["--changed-only", "."]) == 2
        capsys.readouterr()

    def test_untracked_files_are_linted(self, tmp_path, monkeypatch, capsys):
        self._git(tmp_path, "init", "-q")
        (tmp_path / "a.py").write_text("x = 1\n")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        fresh = tmp_path / "fresh.py"
        fresh.write_text("try:\n    pass\nexcept:\n    pass\n")
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--changed-only", "."]) == 1
        capsys.readouterr()


class TestFlowReportSchema:
    def test_flow_stats_in_project_result(self):
        result = _flow_result(
            ("x = 1\n", "src/repro/service/fake_s.py", "repro.service.fake_s")
        )
        assert result.flow_stats is not None
        assert set(result.flow_stats) == {
            "call_graph",
            "thread_roots",
            "budget_coverage",
            "taint",
        }

    def test_no_flow_project_skips_flow_rules(self):
        project = Project(flow=False)
        project.add_source(
            RACY_WORKER,
            path="src/repro/service/fake_w.py",
            module="repro.service.fake_w",
        )
        result = project.run()
        assert "CC001" not in {v.rule for v in result.violations}
        assert result.flow_stats is None

    def test_witness_lands_in_json_payload(self):
        result = _flow_result(
            (RACY_WORKER, "src/repro/service/fake_w.py", "repro.service.fake_w")
        )
        payload = result_to_json(result)
        entries = [v for v in payload["violations"] if v["rule"] == "CC001"]
        assert entries and "witness" in entries[0]
        assert entries[0]["witness"]["accesses"]

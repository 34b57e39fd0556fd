"""Tests for the determinism & isolation prover (repro.analysis.isolation)."""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.isolation import (
    CERT_SCHEMA,
    CERTIFIED,
    ENTRY_POINTS,
    VIOLATED,
    IsolationAnalyzer,
    IsolationError,
    analyze_entry_points,
    analyze_module_isolation_source,
    build_certificate,
    check_certificate,
    import_closure,
    verify_isolation,
)
from repro.analysis.phases import SourceResolver, raw_imports

REPO = Path(__file__).resolve().parents[2]
BASELINE = REPO / "benchmarks" / "results" / "ISOLATION_baseline.json"
FIXTURE = REPO / "src" / "repro" / "analysis" / "broken_isolation.py"


def _fixture_line(marker: str) -> int:
    """Line number of the first fixture-source line containing ``marker``."""
    for number, line in enumerate(FIXTURE.read_text().splitlines(), start=1):
        if marker in line:
            return number
    raise AssertionError(f"marker {marker!r} not found in {FIXTURE}")


@pytest.fixture(scope="module")
def shipped_reports():
    return analyze_entry_points()


@pytest.fixture(scope="module")
def broken_report():
    analyzer = IsolationAnalyzer()
    return analyzer.analyze_entry(
        "broken", "repro.analysis.broken_isolation", "drive"
    )


class TestImportClosure:
    def test_follows_lazy_function_level_imports(self):
        # sweep imports ObsSession lazily inside a helper; the closure must
        # still include the observability tree.
        resolver = SourceResolver()
        closure = import_closure("repro.harness.sweep", resolver)
        assert "repro.obs.session" in closure

    def test_skips_type_checking_blocks(self):
        # experiment's only obs reference is under `if TYPE_CHECKING:` --
        # the FR tree must not drag the observability stack in.
        resolver = SourceResolver()
        closure = import_closure("repro.harness.experiment", resolver)
        assert not any(module.startswith("repro.obs") for module in closure)

    @pytest.mark.parametrize(
        "test, followed",
        [
            # Only the bare test is never true at run time...
            ("TYPE_CHECKING", ["else_branch"]),
            ("typing.TYPE_CHECKING", ["else_branch"]),
            # ...anything built around it can be, so both branches count.
            ("not TYPE_CHECKING", ["body", "else_branch"]),
            ("TYPE_CHECKING or FLAG", ["body", "else_branch"]),
            ("TYPE_CHECKING and FLAG", ["body", "else_branch"]),
            ("not typing.TYPE_CHECKING", ["body", "else_branch"]),
        ],
    )
    def test_type_checking_polarity(self, test, followed):
        source = textwrap.dedent(
            f"""
            if {test}:
                import body
            else:
                from . import else_branch
            """
        )
        imports = raw_imports(ast.parse(source))
        assert [names[0] if names else module for _, module, names in imports] == followed

    def test_raw_imports_keep_statements_as_written(self):
        source = textwrap.dedent(
            """
            import os, repro.sim.link
            from ..core import network as net, router
            def lazy():
                try:
                    from repro.obs import session
                except ImportError:
                    import fallback
            """
        )
        assert raw_imports(ast.parse(source)) == [
            (0, "os", ()),
            (0, "repro.sim.link", ()),
            (2, "core", ("network", "router")),
            (0, "repro.obs", ("session",)),
            (0, "fallback", ()),
        ]

    def test_stop_set_prunes_other_models(self):
        resolver = SourceResolver()
        closure = import_closure(
            "repro.harness.experiment",
            resolver,
            stop=frozenset({"repro.baselines.vc.network", "repro.baselines.vc.config"}),
        )
        assert "repro.baselines.vc.router" not in closure


class TestShippedEntryPointsCertified:
    def test_all_entry_points_analyzed(self, shipped_reports):
        assert [r.name for r in shipped_reports] == [e[0] for e in ENTRY_POINTS]

    @pytest.mark.parametrize("label", ["FR", "VC", "WH"])
    def test_run_experiment_certified(self, shipped_reports, label):
        report = next(r for r in shipped_reports if r.name == f"run_experiment[{label}]")
        assert report.verdict == CERTIFIED
        assert report.findings == ()
        assert report.traced_draws > 0
        assert len(report.modules) > 10

    def test_run_load_sweep_certified(self, shipped_reports):
        report = next(r for r in shipped_reports if r.name == "run_load_sweep")
        assert report.verdict == CERTIFIED
        # The sweep tree includes the observability layer (lazy import).
        assert any(m.startswith("repro.obs") for m in report.modules)

    def test_model_trees_are_model_specific(self, shipped_reports):
        # Each model's tree stops at the *other* models' network/config
        # modules.  (Some FR core machinery is reachable from every tree:
        # sim.invariants lazily imports FRRouter for isinstance dispatch.)
        fr = next(r for r in shipped_reports if r.model == "FR")
        vc = next(r for r in shipped_reports if r.model == "VC")
        assert "repro.core.network" in fr.modules
        assert "repro.baselines.vc.network" not in fr.modules
        assert "repro.baselines.vc.router" not in fr.modules
        assert "repro.baselines.vc.network" in vc.modules
        assert "repro.baselines.vc.router" in vc.modules
        assert "repro.core.network" not in vc.modules

    def test_known_registries_classified_read_only(self, shipped_reports):
        fr = next(r for r in shipped_reports if r.model == "FR")
        assert "repro.harness.presets.PRESETS" in fr.read_only_globals
        assert "repro.traffic.patterns._PATTERNS" in fr.read_only_globals

    def test_unknown_entry_module_raises(self):
        with pytest.raises(IsolationError):
            IsolationAnalyzer().analyze_entry("x", "repro.no_such_module", "run")


class TestBrokenFixtureViolated:
    """Every seeded sin must be reported, at the correct file and line."""

    def test_verdict_violated(self, broken_report):
        assert broken_report.verdict == VIOLATED

    @pytest.mark.parametrize(
        "category, marker",
        [
            ("rng-untraced", "random.randint(0, self.mesh.num_nodes - 2)"),
            ("global-write", "_ROUTE_CACHE[key] = self._compute"),
            ("class-mutable-write", "self.totals[event] = self.totals.get"),
            ("id-keyed", "self._by_identity[id(item)] = item"),
            ("unordered-iteration", "[tag for tag in self._pending]"),
        ],
    )
    def test_each_sin_found_at_its_line(self, broken_report, category, marker):
        expected_line = _fixture_line(marker)
        matches = [
            f
            for f in broken_report.findings
            if f.category == category
            and f.path.endswith("broken_isolation.py")
            and f.line == expected_line
        ]
        assert matches, (
            f"no {category} finding at broken_isolation.py:{expected_line}; "
            f"got {[f.render() for f in broken_report.findings]}"
        )

    def test_lint_suppressions_do_not_hide_sins(self, broken_report):
        # The fixture carries `# frfc-lint: disable=` comments on every sin
        # line (the repo-wide lint gate stays green), yet the whole-program
        # pass still reports all of them.
        assert len(broken_report.findings) >= 5


class TestCommittedBaseline:
    def test_baseline_is_clean(self):
        baseline = json.loads(BASELINE.read_text())
        assert baseline["schema"] == CERT_SCHEMA
        for name, entry in baseline["entry_points"].items():
            assert entry["verdict"] == CERTIFIED, name
            assert entry["findings"] == [], name

    def test_fresh_analysis_matches_baseline(self, shipped_reports):
        baseline = json.loads(BASELINE.read_text())
        violations, notes = check_certificate(
            shipped_reports, baseline, fail_on_new=True
        )
        assert violations == []
        assert len(notes) == len(ENTRY_POINTS)


class TestCertificateSchema:
    def test_document_shape(self, shipped_reports):
        document = build_certificate(shipped_reports)
        assert document["schema"] == CERT_SCHEMA
        for entry in document["entry_points"].values():
            assert set(entry) == {
                "module",
                "function",
                "model",
                "verdict",
                "modules_scanned",
                "evidence",
                "findings",
            }
            assert set(entry["evidence"]) == {"globals_read_only", "rng_draws_traced"}

    def test_findings_serialized_with_location(self, broken_report):
        document = build_certificate([broken_report])
        findings = document["entry_points"]["broken"]["findings"]
        assert findings
        for finding in findings:
            assert set(finding) == {"category", "path", "line", "qualname", "detail"}
            assert finding["line"] > 0

    def test_round_trips_through_json(self, shipped_reports):
        document = build_certificate(shipped_reports)
        assert json.loads(json.dumps(document)) == document


class TestBudgetGate:
    """The CI gate: a newly introduced shared-state write must trip it."""

    def _reports_with_new_write(self, tmp_path, monkeypatch):
        source = textwrap.dedent(
            """
            _CACHE: dict = {}

            def lookup(key):
                if key not in _CACHE:
                    _CACHE[key] = expensive(key)
                return _CACHE[key]

            def expensive(key):
                return key * 2
            """
        )
        module_path = tmp_path / "freshly_broken.py"
        module_path.write_text(source)
        monkeypatch.syspath_prepend(str(tmp_path))
        analyzer = IsolationAnalyzer()
        return [analyzer.analyze_entry("run_load_sweep", "freshly_broken", "lookup")]

    def test_new_global_write_trips_the_gate(self, tmp_path, monkeypatch):
        baseline = json.loads(BASELINE.read_text())
        reports = self._reports_with_new_write(tmp_path, monkeypatch)
        violations, _ = check_certificate(reports, baseline)
        assert any("was CERTIFIED, now VIOLATED" in v for v in violations)
        assert any("global-write" in v for v in violations)

    def test_fail_on_new_rejects_unknown_findings(self, tmp_path, monkeypatch):
        # Against a baseline that already records one VIOLATED finding for
        # this entry, count-based checking passes but --fail-on-new rejects
        # a *different* finding key.
        reports = self._reports_with_new_write(tmp_path, monkeypatch)
        recorded = build_certificate(reports)
        fresh_keyed = json.loads(json.dumps(recorded))
        for finding in fresh_keyed["entry_points"]["run_load_sweep"]["findings"]:
            finding["detail"] = "an older, different finding"
        violations, _ = check_certificate(reports, fresh_keyed)
        assert violations == []
        violations, _ = check_certificate(reports, fresh_keyed, fail_on_new=True)
        assert any("new finding" in v for v in violations)

    def test_missing_entry_point_is_a_violation(self, shipped_reports):
        baseline = json.loads(BASELINE.read_text())
        del baseline["entry_points"]["run_load_sweep"]
        violations, _ = check_certificate(shipped_reports, baseline)
        assert any("run_load_sweep" in v and "not in" in v for v in violations)

    def test_schema_mismatch_is_a_violation(self, shipped_reports):
        violations, _ = check_certificate(shipped_reports, {"schema": "bogus/9"})
        assert violations and "re-record" in violations[0]

    def test_improvement_is_a_note_not_a_violation(self, tmp_path, monkeypatch):
        reports = self._reports_with_new_write(tmp_path, monkeypatch)
        baseline = build_certificate(reports)
        clean = textwrap.dedent(
            """
            def lookup(key):
                return key * 2
            """
        )
        (tmp_path / "freshly_fixed.py").write_text(clean)
        analyzer = IsolationAnalyzer()
        fixed = [analyzer.analyze_entry("run_load_sweep", "freshly_fixed", "lookup")]
        violations, notes = check_certificate(fixed, baseline)
        assert violations == []
        assert any("re-record" in note for note in notes)


SINGLE_FILE_CASES = {
    "global-write": """
        _MEMO = {}

        def route(key):
            _MEMO[key] = key + 1
            return _MEMO[key]
        """,
    "global-escape": """
        _TABLE = []

        def peek():
            return _TABLE
        """,
    "functools-cache": """
        import functools

        @functools.lru_cache(maxsize=None)
        def distance(a, b):
            return abs(a - b)
        """,
    "rng-untraced": """
        def pick(options, generator):
            return generator.choice(options)
        """,
    "id-keyed": """
        def index(flits):
            table = {}
            for flit in flits:
                table[id(flit)] = flit
            return table
        """,
    "unordered-iteration": """
        def drain(tags: set) -> list:
            return [tag for tag in tags]
        """,
}


class TestSingleFileProjection:
    """The per-file backend behind D011/D012/D013."""

    @pytest.mark.parametrize("category", sorted(SINGLE_FILE_CASES))
    def test_each_category_detected(self, category):
        source = textwrap.dedent(SINGLE_FILE_CASES[category])
        findings = analyze_module_isolation_source(source, "src/repro/core/fake.py")
        assert any(f.category == category for f in findings), (
            category,
            [f.render() for f in findings],
        )

    def test_traced_rng_is_clean(self):
        source = textwrap.dedent(
            """
            from repro.sim.rng import DeterministicRng

            class Source:
                def __init__(self, rng: DeterministicRng) -> None:
                    self.rng = rng

                def draw(self, options):
                    local = self.rng.spawn(7)
                    return local.choice(options) + self.rng.randint(0, 3)
            """
        )
        findings = analyze_module_isolation_source(source, "src/repro/traffic/fake.py")
        assert [f for f in findings if f.category == "rng-untraced"] == []

    def test_rng_wrapper_module_exempt(self):
        source = textwrap.dedent(
            """
            import random

            class DeterministicRng:
                def __init__(self, seed: int) -> None:
                    self._random = random.Random(seed)

                def randint(self, low: int, high: int) -> int:
                    return self._random.randint(low, high)
            """
        )
        findings = analyze_module_isolation_source(source, "src/repro/sim/rng.py")
        assert [f for f in findings if f.category == "rng-untraced"] == []

    def test_read_only_registry_is_clean(self):
        source = textwrap.dedent(
            """
            PRESETS = {"quick": 1, "paper": 2}

            def get(name):
                known = ", ".join(sorted(PRESETS))
                return PRESETS[name]
            """
        )
        findings = analyze_module_isolation_source(source, "src/repro/harness/fake.py")
        assert findings == []

    def test_sorted_set_iteration_is_clean(self):
        source = textwrap.dedent(
            """
            def drain(tags: set) -> list:
                return [tag for tag in sorted(tags)]
            """
        )
        findings = analyze_module_isolation_source(source, "src/repro/core/fake.py")
        assert findings == []

    def test_per_instance_container_is_clean(self):
        source = textwrap.dedent(
            """
            class Pool:
                def __init__(self) -> None:
                    self.slots = []

                def push(self, flit) -> None:
                    self.slots.append(flit)
            """
        )
        findings = analyze_module_isolation_source(source, "src/repro/core/fake.py")
        assert findings == []

    def test_class_level_default_shadowed_in_init_is_clean(self):
        source = textwrap.dedent(
            """
            class Stats:
                totals: dict = {}

                def __init__(self) -> None:
                    self.totals = {}

                def record(self, event: str) -> None:
                    self.totals[event] = 1
            """
        )
        findings = analyze_module_isolation_source(source, "src/repro/core/fake.py")
        assert [f for f in findings if f.category == "class-mutable-write"] == []


class TestLintRules:
    """D011/D012/D013 wiring through the lint engine, with suppression."""

    def _lint(self, source, path="src/repro/core/fake.py"):
        from repro.lint.engine import lint_source

        return lint_source(textwrap.dedent(source), path)

    def test_d011_fires_on_module_write(self):
        findings = self._lint(SINGLE_FILE_CASES["global-write"])
        assert any(f.rule_id == "D011" for f in findings)

    def test_d012_fires_on_untraced_draw(self):
        findings = self._lint(SINGLE_FILE_CASES["rng-untraced"])
        assert any(f.rule_id == "D012" for f in findings)

    def test_d013_fires_on_id_keyed_map(self):
        findings = self._lint(SINGLE_FILE_CASES["id-keyed"])
        assert any(f.rule_id == "D013" for f in findings)

    def test_disable_comment_suppresses(self):
        source = """
        _MEMO = {}

        def route(key):
            _MEMO[key] = key + 1  # frfc-lint: disable=D011
            return _MEMO[key]
        """
        findings = self._lint(source)
        assert [f for f in findings if f.rule_id == "D011"] == []

    def test_broken_fixture_module_is_lint_clean(self):
        # The fixtures suppress every sin line, so the repo-wide gate passes.
        findings = self._lint(FIXTURE.read_text(), str(FIXTURE))
        assert [f.rule_id for f in findings] == []

    def test_bare_set_expression_left_to_d002(self):
        source = """
        def f():
            return [x for x in {1, 2, 3}]
        """
        findings = self._lint(source)
        assert any(f.rule_id == "D002" for f in findings)
        assert not any(f.rule_id == "D013" for f in findings)


class TestVerifyIsolation:
    """The CI-marked dynamic witness: spawn/serial digest identity."""

    def test_spawned_and_serial_digests_identical_all_models(self):
        reports = verify_isolation(cycles=240)
        assert [r.label for r in reports] == ["FR", "VC", "WH"]
        for report in reports:
            assert report.identical, report.render()
            assert report.serial[0] == report.serial[1]
            assert report.serial[0] == report.spawned
            assert len(report.spawned) == 64

    def test_digests_differ_across_models(self):
        reports = verify_isolation(cycles=240, labels=("FR", "VC"))
        assert reports[0].spawned != reports[1].spawned

    def test_render_reports_divergence(self):
        from repro.analysis.isolation import IsolationVerifyReport

        diverged = IsolationVerifyReport(label="FR", serial=("a" * 64, "a" * 64), spawned="b" * 64)
        assert not diverged.identical
        assert "DIVERGED" in diverged.render()


class TestShippedTreeSpotChecks:
    """Regression pins for the sins this PR fixed in shipped code."""

    def test_no_departures_sentinel_is_immutable(self):
        from repro.core import input_schedule

        assert isinstance(input_schedule._NO_DEPARTURES, tuple)

    def test_git_sha_has_no_module_cache(self):
        import repro.obs.manifest as manifest

        assert not hasattr(manifest, "_git_sha_cache")
        tree = ast.parse(Path(manifest.__file__).read_text())
        mutable_globals = [
            stmt
            for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            and isinstance(getattr(stmt, "value", None), (ast.Dict, ast.List, ast.Set))
        ]
        assert mutable_globals == []

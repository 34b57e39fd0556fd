"""Tests for frfc-lint: each rule fires on its hazard and respects suppression."""

import importlib.util
import re
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    ALL_RULES,
    Finding,
    LintConfigurationError,
    iter_python_files,
    lint_paths,
    lint_source,
    suppressed_rules_by_line,
)


REPO = Path(__file__).resolve().parents[2]


def load_cli():
    """Import tools/frfc_lint.py by file path (tools/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "frfc_lint_cli", REPO / "tools" / "frfc_lint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lint(snippet, path="src/repro/harness/fake.py"):
    """Lint a snippet; the default path sits outside the D005 subpackages so
    each test isolates the rule it targets."""
    return lint_source(textwrap.dedent(snippet), path)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


class TestD001AmbientNondeterminism:
    def test_import_random_flagged(self):
        findings = lint("import random\n")
        assert rule_ids(findings) == ["D001"]
        assert "repro.sim.rng" in findings[0].message

    def test_from_random_import_flagged(self):
        assert rule_ids(lint("from random import shuffle\n")) == ["D001"]

    def test_wall_clock_call_flagged(self):
        findings = lint(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert "D001" in rule_ids(findings)
        assert any("time.time" in finding.message for finding in findings)

    def test_datetime_now_flagged(self):
        findings = lint(
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        )
        assert "D001" in rule_ids(findings)

    def test_wall_clock_import_flagged(self):
        assert "D001" in rule_ids(lint("from time import monotonic\n"))

    def test_deterministic_code_clean(self):
        findings = lint(
            """
            from repro.sim.rng import DeterministicRng

            def draw(rng: DeterministicRng) -> int:
                return rng.randint(0, 4)
            """,
            path="src/repro/harness/fake.py",
        )
        assert findings == []

    def test_suppressed(self):
        findings = lint(
            "import random  # frfc-lint: disable=D001 -- sanctioned wrapper\n"
        )
        assert findings == []

    def test_non_wall_clock_time_use_clean(self):
        # time.sleep does not make *results* time-dependent; D001 targets reads.
        findings = lint(
            """
            import time

            def pause():
                time.sleep(0.1)
            """
        )
        assert rule_ids(findings) == []


class TestD002BareSetIteration:
    def test_for_over_set_literal_flagged(self):
        findings = lint(
            """
            def walk():
                for port in {1, 2, 3}:
                    use(port)
            """
        )
        assert rule_ids(findings) == ["D002"]

    def test_comprehension_over_set_call_flagged(self):
        findings = lint(
            """
            def walk(ports):
                return [p for p in set(ports)]
            """
        )
        assert rule_ids(findings) == ["D002"]

    def test_set_algebra_flagged(self):
        findings = lint(
            """
            def walk(a, b):
                for port in set(a) | set(b):
                    use(port)
            """
        )
        assert rule_ids(findings) == ["D002"]

    def test_sorted_set_clean(self):
        findings = lint(
            """
            def walk(ports):
                for port in sorted(set(ports)):
                    use(port)
            """
        )
        assert findings == []

    def test_list_iteration_clean(self):
        findings = lint(
            """
            def walk(ports):
                for port in list(ports):
                    use(port)
            """
        )
        assert findings == []

    def test_suppressed(self):
        findings = lint(
            """
            def walk():
                for port in {1, 2}:  # frfc-lint: disable=D002
                    use(port)
            """
        )
        assert findings == []


class TestD003ErrorsCarryMessages:
    def test_bare_raise_class_flagged(self):
        findings = lint(
            """
            class BufferPoolError(Exception):
                pass

            def fail():
                raise BufferPoolError
            """
        )
        assert rule_ids(findings) == ["D003"]

    def test_empty_call_flagged(self):
        findings = lint(
            """
            def fail():
                raise ValueError()
            """
        )
        assert rule_ids(findings) == ["D003"]

    def test_violation_suffix_covered(self):
        findings = lint(
            """
            def fail():
                raise InvariantViolation()
            """
        )
        assert rule_ids(findings) == ["D003"]

    def test_raise_with_message_clean(self):
        findings = lint(
            """
            def fail(node):
                raise ValueError(f"router {node} leaked a credit")
            """
        )
        assert findings == []

    def test_reraise_clean(self):
        findings = lint(
            """
            def fail():
                try:
                    pass
                except ValueError:
                    raise
            """
        )
        assert findings == []

    def test_non_error_exception_ignored(self):
        assert lint("def f():\n    raise StopIteration\n") == []

    def test_suppressed(self):
        findings = lint(
            """
            def fail():
                raise ValueError()  # frfc-lint: disable=D003
            """
        )
        assert findings == []


class TestD004MutableDefaults:
    # Snippets use a harness/ path so D005 (annotation coverage) stays out
    # of the way and each assertion isolates D004.
    PATH = "src/repro/harness/fake.py"

    def test_list_literal_default_flagged(self):
        findings = lint("def f(history=[]):\n    return history\n", path=self.PATH)
        assert rule_ids(findings) == ["D004"]
        assert "history" in findings[0].message

    def test_dict_call_default_flagged(self):
        findings = lint("def f(cache=dict()):\n    return cache\n", path=self.PATH)
        assert rule_ids(findings) == ["D004"]

    def test_kwonly_default_flagged(self):
        findings = lint("def f(*, slots=set()):\n    return slots\n", path=self.PATH)
        assert rule_ids(findings) == ["D004"]

    def test_lambda_default_flagged(self):
        findings = lint("g = lambda table={}: table\n", path=self.PATH)
        assert rule_ids(findings) == ["D004"]

    def test_none_default_clean(self):
        assert lint("def f(history=None):\n    return history\n", path=self.PATH) == []

    def test_tuple_default_clean(self):
        assert lint("def f(ports=(1, 2)):\n    return ports\n", path=self.PATH) == []

    def test_suppressed(self):
        findings = lint(
            "def f(history=[]):  # frfc-lint: disable=D004\n    return history\n",
            path=self.PATH,
        )
        assert findings == []


class TestD005PublicFunctionsAnnotated:
    def test_unannotated_public_function_flagged(self):
        findings = lint(
            """
            def route(flit, port):
                return port
            """,
            path="src/repro/core/fake.py",
        )
        assert rule_ids(findings) == ["D005"]
        assert "flit" in findings[0].message
        assert "return" in findings[0].message

    def test_unannotated_method_flagged(self):
        findings = lint(
            """
            class Router:
                def step(self, cycle):
                    pass
            """,
            path="src/repro/baselines/fake.py",
        )
        assert rule_ids(findings) == ["D005"]

    def test_private_function_exempt(self):
        findings = lint(
            """
            def _helper(x):
                return x
            """,
            path="src/repro/core/fake.py",
        )
        assert findings == []

    def test_fully_annotated_clean(self):
        findings = lint(
            """
            class Router:
                def step(self, cycle: int) -> None:
                    pass

            def route(flit: object, *extra: int, **options: float) -> int:
                return 0
            """,
            path="src/repro/core/fake.py",
        )
        assert findings == []

    def test_outside_annotated_subpackages_exempt(self):
        findings = lint(
            """
            def route(flit, port):
                return port
            """,
            path="src/repro/harness/fake.py",
        )
        assert findings == []

    def test_suppressed(self):
        findings = lint(
            """
            def route(flit, port):  # frfc-lint: disable=D005
                return port
            """,
            path="src/repro/core/fake.py",
        )
        assert findings == []


class TestD006ForeignPrivateState:
    def test_write_to_other_objects_private_attr_flagged(self):
        findings = lint(
            """
            def poke(other):
                other._count = 1
            """
        )
        assert rule_ids(findings) == ["D006"]

    def test_augassign_flagged(self):
        findings = lint(
            """
            def poke(other):
                other._count += 1
            """
        )
        assert rule_ids(findings) == ["D006"]

    def test_write_to_own_private_attr_clean(self):
        findings = lint(
            """
            class Router:
                def reset(self):
                    self._count = 0
            """
        )
        assert findings == []

    def test_link_pipeline_read_flagged_outside_link_module(self):
        findings = lint(
            """
            def peek(link):
                return list(link._slots)
            """
        )
        assert rule_ids(findings) == ["D006"]
        assert "_slots" in findings[0].message

    def test_link_pipeline_read_clean_inside_link_module(self):
        findings = lint(
            """
            def peek(link: object) -> list:
                return list(link._slots)
            """,
            path="src/repro/sim/link.py",
        )
        assert findings == []

    def test_public_attr_write_clean(self):
        findings = lint(
            """
            def poke(other):
                other.count = 1
            """
        )
        assert findings == []

    def test_suppressed_with_next_line_marker(self):
        findings = lint(
            """
            def peek(link):
                # frfc-lint: disable-next-line=D006 -- sanctioned peek
                return list(link._slots)
            """
        )
        assert findings == []


class TestD008NoPrintInSimulator:
    def test_print_in_simulator_module_flagged(self):
        findings = lint("print('router state')\n", path="src/repro/core/router.py")
        assert rule_ids(findings) == ["D008"]

    def test_print_in_obs_module_flagged(self):
        findings = lint("print('event')\n", path="src/repro/obs/events.py")
        assert rule_ids(findings) == ["D008"]

    def test_cli_module_exempt(self):
        findings = lint("print('result')\n", path="src/repro/harness/runner.py")
        assert findings == []

    def test_outside_repro_exempt(self):
        findings = lint("print('debug')\n", path="tools/some_script.py")
        assert findings == []
        findings = lint("print('debug')\n", path="tests/obs/test_events.py")
        assert findings == []

    def test_docstring_mention_clean(self):
        findings = lint(
            '''
            """Example::

                print(result.summary())
            """
            x = 1
            ''',
            path="src/repro/core/router.py",
        )
        assert findings == []

    def test_shadowed_print_method_clean(self):
        findings = lint(
            """
            def report(log):
                log.print()
            """,
            path="src/repro/obs/fake.py",
        )
        assert findings == []

    def test_suppressed(self):
        findings = lint(
            "print('x')  # frfc-lint: disable=D008\n",
            path="src/repro/core/router.py",
        )
        assert findings == []


class TestD014ResultWritesAreAtomic:
    def test_truncating_open_flagged(self):
        findings = lint(
            """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """,
            path="src/repro/obs/manifest.py",
        )
        assert rule_ids(findings) == ["D014"]
        assert findings[0].line == 3  # the open() call itself
        assert "atomic" in findings[0].message

    def test_exclusive_and_keyword_modes_flagged(self):
        assert rule_ids(
            lint("open(p, 'x')\n", path="src/repro/obs/report.py")
        ) == ["D014"]
        assert rule_ids(
            lint("open(p, mode='w')\n", path="src/repro/obs/report.py")
        ) == ["D014"]

    def test_path_write_methods_flagged(self):
        findings = lint(
            """
            def save(path, text, blob):
                path.write_text(text)
                path.write_bytes(blob)
            """,
            path="src/repro/stats/fake.py",
        )
        assert rule_ids(findings) == ["D014", "D014"]

    def test_reads_and_appends_clean(self):
        findings = lint(
            """
            def load(path):
                with open(path) as handle:
                    return handle.read()

            def extend(path, line):
                # Append-only streams (progress.jsonl) resume, not truncate.
                with open(path, "a") as handle:
                    handle.write(line)
            """,
            path="src/repro/obs/progress.py",
        )
        assert findings == []

    def test_atomic_writers_and_cli_exempt(self):
        snippet = "open(p, 'w')\n"
        assert lint(snippet, path="src/repro/obs/exporters.py") == []
        assert lint(snippet, path="src/repro/obs/ledger.py") == []
        assert lint(snippet, path="src/repro/harness/runner.py") == []
        assert lint(snippet, path="tools/frfc_analyze.py") == []

    def test_dynamic_mode_not_flagged(self):
        # A non-literal mode cannot be proven truncating; stay quiet.
        assert lint("open(p, mode)\n", path="src/repro/obs/fake.py") == []

    def test_suppressible(self):
        findings = lint(
            "open(p, 'w')  # frfc-lint: disable=D014\n",
            path="src/repro/obs/manifest.py",
        )
        assert findings == []


class TestEngine:
    def test_disable_all(self):
        findings = lint("import random  # frfc-lint: disable=all\n")
        assert findings == []

    def test_disable_list(self):
        source = "def f(history=[]):  # frfc-lint: disable=D004, D005\n    return history\n"
        assert lint(source, path="src/repro/core/fake.py") == []

    def test_suppression_is_line_scoped(self):
        findings = lint(
            """
            import random  # frfc-lint: disable=D001

            def f(history=[]):
                return history
            """,
            path="src/repro/harness/fake.py",
        )
        assert rule_ids(findings) == ["D004"]

    def test_suppressed_rules_by_line(self):
        table = suppressed_rules_by_line(
            "x = 1\ny = 2  # frfc-lint: disable=D001,D003\n"
        )
        assert table == {2: {"D001", "D003"}}

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert rule_ids(findings) == ["E000"]

    def test_finding_format(self):
        finding = Finding(path="a.py", line=3, column=4, rule_id="D001", message="boom")
        assert finding.format() == "a.py:3:4: D001 boom"

    def test_findings_sorted_by_position(self):
        source = "import random\n\n\ndef f(history=[]):\n    return history\n"
        findings = lint_source(source, "src/repro/harness/fake.py")
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_rule_catalogue_complete(self):
        assert [rule.rule_id for rule in ALL_RULES] == [
            "D001",
            "D002",
            "D003",
            "D004",
            "D005",
            "D006",
            "D008",
            "D011",
            "D012",
            "D013",
            "D014",
        ]
        assert all(rule.summary for rule in ALL_RULES)

    def test_documented_catalogue_is_the_rules(self):
        """One catalogue, in docs/static-analysis.md, row for row ALL_RULES;
        the other two places a rule id is written name no rule that is not."""
        ids = [rule.rule_id for rule in ALL_RULES]
        catalogue = (REPO / "docs" / "static-analysis.md").read_text(encoding="utf-8")
        assert re.findall(r"^\| (D\d{3}) \|", catalogue, re.M) == ids
        invariants = (REPO / "docs" / "invariants.md").read_text(encoding="utf-8")
        assert not re.search(r"^\| D\d{3} \|", invariants, re.M)  # points there instead
        rules_source = (REPO / "src" / "repro" / "lint" / "rules.py").read_text(encoding="utf-8")
        retired = {"D007", "D009", "D010"}
        for text in (catalogue, invariants, rules_source):
            assert set(re.findall(r"\bD\d{3}\b", text)) <= set(ids) | retired

    def test_disable_next_line(self):
        findings = lint(
            """
            # frfc-lint: disable-next-line=D001 -- sanctioned wrapper
            import random
            """
        )
        assert findings == []

    def test_disable_next_line_is_line_scoped(self):
        findings = lint(
            """
            # frfc-lint: disable-next-line=D001
            import random
            import random as r2
            """
        )
        assert rule_ids(findings) == ["D001"]

    def test_disable_next_line_wrong_rule_does_not_suppress(self):
        findings = lint(
            """
            # frfc-lint: disable-next-line=D002
            import random
            """
        )
        assert rule_ids(findings) == ["D001"]

    def test_both_spellings_in_suppression_table(self):
        table = suppressed_rules_by_line(
            "a = 1  # frfc-lint: disable=D001\n"
            "# frfc-lint: disable-next-line=D002,D003\n"
            "b = 2\n"
        )
        assert table == {1: {"D001"}, 3: {"D002", "D003"}}

    def test_iter_python_files_rejects_non_python(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hello")
        with pytest.raises(LintConfigurationError):
            list(iter_python_files([target]))

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "bad.py").write_text("import random\n")
        (tmp_path / "pkg" / "good.py").write_text("x = 1\n")
        findings = lint_paths([tmp_path])
        assert rule_ids(findings) == ["D001"]

    def test_iter_python_files_dedupes_overlapping_paths(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        target = tmp_path / "pkg" / "mod.py"
        target.write_text("x = 1\n")
        files = list(iter_python_files([tmp_path, tmp_path / "pkg", target, target]))
        assert len(files) == 1

    def test_overlapping_paths_report_findings_once(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        findings = lint_paths([tmp_path, bad])
        assert rule_ids(findings) == ["D001"]

    def test_non_utf8_file_reported_as_e001(self, tmp_path):
        mojibake = tmp_path / "mojibake.py"
        mojibake.write_bytes(b"x = 1  # \xff\xfe caf\xe9\n")
        findings = lint_paths([tmp_path])
        assert rule_ids(findings) == ["E001"]
        assert "UTF-8" in findings[0].message

    def test_one_bad_file_does_not_stop_the_sweep(self, tmp_path):
        (tmp_path / "mojibake.py").write_bytes(b"\xff\xfe\x00")
        (tmp_path / "ok_but_bad.py").write_text("import random\n")
        findings = lint_paths([tmp_path])
        assert sorted(rule_ids(findings)) == ["D001", "E001"]


class TestRepositoryIsClean:
    def test_src_repro_has_no_findings(self):
        findings = lint_paths([REPO / "src" / "repro"])
        assert findings == [], "\n".join(f.format() for f in findings)


class TestCommandLine:
    def test_cli_clean_tree_exit_zero(self, tmp_path, capsys):
        cli = load_cli()
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert cli.main([str(tmp_path)]) == 0

    def test_cli_findings_exit_one(self, tmp_path, capsys):
        cli = load_cli()
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert cli.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "D001" in out

    def test_cli_list_rules(self, capsys):
        cli = load_cli()
        assert cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "D001",
            "D002",
            "D003",
            "D004",
            "D005",
            "D006",
            "D008",
            "D014",
        ):
            assert rule_id in out
        # Retired: they analysed no class of the tree they gated; the
        # whole-model `frfc_analyze races` / `hotpath` passes are the gate.
        assert not {"D007", "D009", "D010"} & set(out.split())

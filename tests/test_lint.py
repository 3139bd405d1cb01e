"""Tests for `repro lint`: rules, suppression, exit codes, CLI."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis import (
    ModuleInfo,
    collect_modules,
    lint_paths,
    list_rules,
    render_json,
    render_text,
)
from repro.analysis.rules.provenance import ProvenanceCompleteness
from repro.cli import main
from repro.exceptions import AnalysisError

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
SRC = REPO_ROOT / "src"

ALL_RULE_IDS = [
    "R000", "R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008",
]


def lint_fixture(tree, select=None, **kwargs):
    return lint_paths([str(FIXTURES / tree)], select=select, **kwargs)


def findings_by_file(result):
    grouped = {}
    for finding in result.findings:
        name = finding.path.rsplit("/", 1)[-1]
        grouped.setdefault(name, []).append(finding)
    return grouped


class TestRegistry:
    def test_all_rules_registered(self):
        assert [rule.id for rule in list_rules()] == ALL_RULE_IDS

    def test_unknown_rule_select_is_config_error(self):
        with pytest.raises(AnalysisError):
            lint_fixture("r001", select=["R777"])

    def test_unknown_ignore_rule_is_config_error(self):
        with pytest.raises(AnalysisError):
            lint_fixture("r001", ignore=["R777"])

    def test_r007_classifies_exactly_the_cli_flags(self):
        """R007's flag tables name every `add_argument` dest in cli.py
        and nothing else, so no stale or phantom flag is pre-approved."""
        cli = SRC / "repro" / "cli.py"
        module = ModuleInfo(path=cli, rel="repro/cli.py", source=cli.read_text())
        dests = {dest for _, dest in ProvenanceCompleteness._iter_flags(module)}
        classified = (
            set(ProvenanceCompleteness.PROVENANCE_FLAGS)
            | ProvenanceCompleteness.SCENARIO_FLAGS
            | ProvenanceCompleteness.OPERATIONAL_FLAGS
        )
        assert classified == dests


class TestRuleDetection:
    """Each rule: pinned true positives in bad.py, zero findings in good.py."""

    @pytest.mark.parametrize(
        "tree, rule, bad_lines",
        [
            ("r001", "R001", [3, 10, 14, 18, 22]),
            ("r002", "R002", [10, 14, 18, 22]),
            ("r003", "R003", [6, 12, 16, 21]),
            ("r004", "R004", [3, 7]),
            ("r005", "R005", [7, 8, 9, 10]),
            # r006 spans two fixture packages: keygraphs/bad.py sorts
            # before service/bad.py, each pinning lines 6/12/16.
            ("r006", "R006", [6, 12, 16, 6, 12, 16]),
            ("r008", "R008", [5, 9]),
        ],
    )
    def test_bad_flagged_good_clean(self, tree, rule, bad_lines):
        result = lint_fixture(tree, select=[rule])
        grouped = findings_by_file(result)
        bad = [f for fs in grouped.values() for f in fs if "bad" in f.path]
        assert [f.line for f in bad] == bad_lines
        assert all(f.rule == rule for f in bad)
        assert not [f for fs in grouped.values() for f in fs if "good" in f.path]
        assert result.exit_code == 1

    def test_r007_unclassified_flag_flagged(self):
        result = lint_fixture("r007_bad", select=["R007"])
        assert [(f.rule, f.line) for f in result.findings] == [("R007", 9)]
        assert "mystery" in result.findings[0].message

    def test_r007_classified_and_written_clean(self):
        result = lint_fixture("r007_good", select=["R007"])
        assert result.findings == []
        assert result.exit_code == 0

    def test_r007_mapped_key_must_be_written(self):
        # The good cli.py linted WITHOUT its provenance writer: the
        # `workers` flag now promises a key nobody writes.
        result = lint_paths(
            [str(FIXTURES / "r007_good" / "cli.py")], select=["R007"]
        )
        assert len(result.findings) == 1
        assert "workers" in result.findings[0].message

    def test_r002_allows_monotonic_timers(self):
        result = lint_fixture("r002", select=["R002"])
        assert not [f for f in result.findings if "good" in f.path]

    def test_select_restricts_rules(self):
        result = lint_fixture("ci_gate", select=["R002"])
        assert {f.rule for f in result.findings} == {"R002"}

    def test_ignore_drops_rules(self):
        result = lint_fixture("ci_gate", ignore=["R001", "R002"])
        assert result.findings == []
        assert result.exit_code == 0


class TestSuppression:
    def test_valid_noqa_suppresses(self):
        result = lint_fixture("suppress", select=["R002"])
        suppressed = [f for f in result.suppressed if "suppressed.py" in f.path]
        assert len(suppressed) == 1
        assert not [f for f in result.findings if "suppressed.py" in f.path]

    def test_invalid_noqa_is_r000_and_suppresses_nothing(self):
        result = lint_fixture("suppress")
        invalid = [f for f in result.findings if "invalid.py" in f.path]
        assert [(f.rule, f.line) for f in invalid] == [
            ("R000", 7), ("R002", 7), ("R000", 11), ("R002", 11),
        ]

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.time()"
            "  # repro: noqa[R001] -- wrong rule named\n"
        )
        pkg = tmp_path / "simulation"
        pkg.mkdir()
        (pkg / "mod.py").write_text(src)
        result = lint_paths([str(tmp_path)], select=["R002"])
        assert len(result.findings) == 1
        assert result.suppressed == []

    def test_noqa_does_not_reach_same_named_module(self, tmp_path):
        """Two trees with the same relative path keep their own
        suppression tables: a's noqa must not hide b's violation."""
        draw = "import numpy as np\nx = np.random.rand()"
        for tree, comment in (
            ("a", "  # repro: noqa[R001] -- fixture keeps legacy draw"),
            ("b", ""),
        ):
            (tmp_path / tree).mkdir()
            (tmp_path / tree / "x.py").write_text(draw + comment + "\n")
        result = lint_paths([str(tmp_path / "b"), str(tmp_path / "a")])
        assert [(f.rule, f.path, f.line) for f in result.findings] == [
            ("R001", (tmp_path / "b" / "x.py").as_posix(), 2)
        ]
        assert len(result.suppressed) == 1
        assert result.exit_code == 1

    def test_colliding_keys_report_paths_as_given(self, tmp_path, monkeypatch, capsys):
        """Two trees with the same layout print distinct locations; a
        lone tree keeps its scan-root-relative key."""
        draw = "import numpy as np\nx = np.random.rand()"
        for tree, comment in (
            ("a", "  # repro: noqa[R001] -- fixture keeps legacy draw"),
            ("b", ""),
        ):
            (tmp_path / tree).mkdir()
            (tmp_path / tree / "x.py").write_text(draw + comment + "\n")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "b", "a", "--verbose"]) == 1
        out = capsys.readouterr().out
        assert "b/x.py:2:5 R001" in out
        assert "a/x.py:2:5 R001" in out and "[suppressed]" in out
        result = lint_paths(["b"])
        assert [f.path for f in result.findings] == ["x.py"]


class TestReporters:
    def test_json_report_shape(self):
        result = lint_fixture("ci_gate")
        payload = json.loads(render_json(result))
        assert payload["format"] == "repro-lint-report/v2"
        assert payload["summary"]["exit_code"] == 1
        assert payload["summary"]["active"] == len(result.findings)
        first = payload["findings"][0]
        assert set(first) == {"rule", "path", "line", "col", "message", "snippet"}

    def test_text_report_mentions_each_finding(self):
        result = lint_fixture("ci_gate")
        text = render_text(result)
        for finding in result.findings:
            assert f"{finding.path}:{finding.line}" in text

    def test_parse_error_reported_not_crashed(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        modules, errors = collect_modules([str(tmp_path)])
        assert modules == []
        assert [e.rule for e in errors] == ["R999"]
        result = lint_paths([str(tmp_path)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("make", ["empty_dir", "non_python_file"])
    def test_no_python_files_is_config_error(self, tmp_path, capsys, make):
        target = tmp_path
        if make == "non_python_file":
            target = tmp_path / "NOTES.md"
            target.write_text("# not python\n")
        with pytest.raises(AnalysisError):
            lint_paths([str(target)])
        assert main(["lint", str(target)]) == 2
        assert "no python files" in capsys.readouterr().err


class TestCli:
    def test_exit_zero_on_clean_tree(self):
        assert main(["lint", str(FIXTURES / "r007_good")]) == 0

    def test_exit_one_on_violation_tree(self, capsys):
        code = main(["lint", str(FIXTURES / "ci_gate")])
        assert code == 1
        assert "R001" in capsys.readouterr().out

    def test_exit_two_on_config_error(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "ci_gate"), "--select", "R777"]
        )
        assert code == 2
        assert "R777" in capsys.readouterr().err

    def test_json_format(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "ci_gate"), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["active"] > 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out


class TestCiGate:
    """Pin the exact commands the CI lint leg runs."""

    def test_src_tree_clean(self, capsys):
        """`repro lint src --format json` must be green."""
        code = main(["lint", str(SRC), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0, payload["findings"]
        assert payload["summary"]["active"] == 0
        assert sorted(
            (f["rule"], f["path"]) for f in payload["suppressed"]
        ) == [
            ("R002", "repro/service/events.py"),
            ("R002", "repro/service/queue.py"),
        ]

    def test_src_noqa_comments_are_justified(self):
        """Every inline suppression under src/ names rules and says why
        in at least three words."""
        modules, _ = collect_modules([str(SRC)])
        notes = [
            (module.rel, note)
            for module in modules
            for note in module.suppressions.values()
        ]
        assert notes, "src/ carries no suppressions at all"
        for rel, note in notes:
            assert note.rules, (rel, note.line)
            assert len(note.justification.split()) >= 3, (rel, note.line)

    def test_gate_fails_on_seeded_violation(self):
        """A synthetic violation tree must trip the gate (exit 1)."""
        assert main(["lint", str(FIXTURES / "ci_gate")]) == 1

"""Runner/CLI integration of the branch-melding stage."""

import json

from repro.cli import main
from repro.runner import RunnerConfig, run_suite_resilient

ARCHS = ("fallthrough", "btfnt")
SCALE = 0.05
WINDOW = 6


class TestMeldInRunner:
    def test_meld_stage_runs_clean_with_lint(self):
        result = run_suite_resilient(
            ["eqntott"], scale=SCALE, window=WINDOW, archs=ARCHS,
            meld=True, config=RunnerConfig(lint=True),
        )
        assert not result.partial
        assert result.executed == ["eqntott"]

    def test_meld_changes_the_measured_workload(self):
        plain = run_suite_resilient(
            ["eqntott"], scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(),
        )
        melded = run_suite_resilient(
            ["eqntott"], scale=SCALE, window=WINDOW, archs=ARCHS,
            meld=True, config=RunnerConfig(),
        )
        plain_exp = plain.results[0]
        melded_exp = melded.results[0]
        # Melding removes branch events, so the melded unit executes
        # fewer instructions in every layout.
        assert melded_exp.original_instructions < plain_exp.original_instructions

    def test_no_meldable_sites_is_a_no_op(self):
        result = run_suite_resilient(
            ["compress"], scale=SCALE, window=WINDOW, archs=ARCHS,
            meld=True, config=RunnerConfig(lint=True),
        )
        assert not result.partial


class TestMeldCli:
    def test_table3_accepts_meld_flag(self, tmp_path, capsys):
        out = tmp_path / "t3.txt"
        code = main([
            "table3", "--benchmarks", "eqntott", "--scale", str(SCALE),
            "--meld", "--lint", "-o", str(out),
        ])
        assert code == 0
        assert "eqntott" in out.read_text()

    def test_meld_command_reports_verdicts(self, capsys):
        assert main(["meld", "eqntott", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "meldable" in out and "blocked" in out
        assert "applied meld at cmppt" in out

    def test_meld_prove_and_inject(self, capsys):
        code = main([
            "meld", "eqntott", "--scale", "0.05", "--prove", "--inject", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PROVED" in out
        assert out.count("caught") == 2
        assert "RL018" in out

    def test_meld_study_renders_table(self, capsys):
        assert main(["meld", "eqntott", "--scale", "0.05", "--study"]) == 0
        out = capsys.readouterr().out
        assert "# Alignment x melding interaction study" in out
        assert "| eqntott |" in out

    def test_meld_json_payload(self, tmp_path):
        out = tmp_path / "meld.json"
        code = main([
            "meld", "eqntott", "--scale", "0.05", "--json", "--inject", "1",
            "-o", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        (entry,) = payload["benchmarks"]
        assert entry["benchmark"] == "eqntott"
        assert entry["legality"]["verdicts"]["meldable"] == 2
        assert entry["probes"][0]["caught"] is True

    def test_unknown_benchmark_rejected(self, capsys):
        assert main(["meld", "nope"]) == 2

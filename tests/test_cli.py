"""Tests for the command-line experiment runner (python -m repro)."""

import pytest

from repro.analysis.cli import available_experiments, build_parser, main, run_experiment


class TestCLI:
    def test_available_experiments(self):
        names = available_experiments()
        assert "fig5a" in names and "table1" in names and "all" in names

    def test_run_fig5a(self):
        report = run_experiment("fig5a")
        assert "1001001" in report

    def test_run_fig6_power(self):
        report = run_experiment("fig6-power")
        assert "ADC reduction" in report

    def test_run_table1(self):
        report = run_experiment("table1")
        assert "4.135x" in report

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("does-not-exist")

    def test_parser_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig5b"])
        assert args.experiment == "fig5b"
        with pytest.raises(SystemExit):
            parser.parse_args(["nope"])

    def test_main_prints_report(self, capsys):
        assert main(["fig5a"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5(a)" in out


class TestPipelineCLI:
    def test_run_subcommand_pipelined(self, capsys):
        assert main(["run", "--backend", "ideal", "--samples", "32",
                     "--batch-size", "16", "--pipeline-stages", "2",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Pipelined ideal" in out
        assert "stage 1" in out
        assert "Pipeline partition (2 stages" in out

    def test_loadtest_subcommand_pipelined(self, capsys):
        assert main(["loadtest", "--requests", "32", "--rate", "100000",
                     "--max-batch", "16", "--pipeline-stages", "2",
                     "--max-p99-ms", "2000"]) == 0
        out = capsys.readouterr().out
        assert "pipeline x2" in out
        assert "pipeline stages (worker 0):" in out
        assert "SLO OK" in out


class TestRunCLIValidation:
    @pytest.mark.parametrize("argv, message", [
        (["--mapped-layers", "-1"], r"max_mapped_layers must be None .* or >= 0"),
        (["--samples", "-3"], r"--samples must be >= 1"),
    ])
    def test_out_of_range_counts_rejected(self, argv, message):
        from repro.exec.cli import build_run_parser, run_run_command

        with pytest.raises(SystemExit, match=message):
            run_run_command(build_run_parser().parse_args(argv))


class TestRunCLIScratch:
    def test_profile_prints_the_plan_scratch(self, capsys, monkeypatch):
        # Three mapped layers share the arena's slabs; the printed total
        # and largest slab are the arena's after the run's forward.
        from repro.exec.plan import ModelPlan

        seen = []
        close = ModelPlan.close

        def recording_close(plan):
            seen.append((plan.arena.nbytes(), plan.arena.largest_slab()))
            close(plan)

        monkeypatch.setattr(ModelPlan, "close", recording_close)
        assert main(["run", "--backend", "analog", "--samples", "64",
                     "--mapped-layers", "3", "--profile"]) == 0
        out = capsys.readouterr().out
        [(nbytes, (name, slab_bytes))] = seen
        assert nbytes > slab_bytes > 0
        assert (f"plan scratch  {nbytes / 1e6:.2f} MB "
                f"(largest slab {name}, {slab_bytes / 1e6:.2f} MB)") in out

    def test_pipelined_profile_prints_each_stage_scratch(self, capsys,
                                                         monkeypatch):
        # Each stage's arena lives in its stage process; its size and
        # largest slab travel back in the stage's stats dict.
        import repro.shard

        reports = []
        run_pipelined = repro.shard.run_pipelined

        def recording_run(*args, **kwargs):
            reports.append(run_pipelined(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(repro.shard, "run_pipelined", recording_run)
        assert main(["run", "--backend", "analog", "--samples", "64",
                     "--mapped-layers", "3", "--pipeline-stages", "2",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        [report] = reports
        assert len(report.stage_stats) == 2
        for stage in report.stage_stats:
            name, slab_bytes = stage["largest_slab"]
            assert stage["scratch_bytes"] >= slab_bytes > 0
            assert (f"stage {stage['stage']} plan scratch  "
                    f"{stage['scratch_bytes'] / 1e6:.2f} MB "
                    f"(largest slab {name}, {slab_bytes / 1e6:.2f} MB)") in out

"""Tests for the command-line interface."""

import json
import warnings
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    """Run every command from a scratch directory, so the runs that keep
    the default ledger write it there, not into the working tree."""
    monkeypatch.chdir(tmp_path)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "Brunel"])
        assert args.backend == "folded"
        assert args.scale == 0.05
        assert not hasattr(args, "alerts")


class TestCommands:
    def test_workloads_lists_table1(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "Brunel" in out
        assert "Potjans-Diesmann" in out

    def test_models_lists_signal_counts(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "AdEx_COBA" in out
        assert "hybrid path" in out

    def test_microcode_listing(self, capsys):
        assert main(["microcode", "LIF"]) == 0
        out = capsys.readouterr().out
        assert "signals" in out
        assert "weight pre-scale" in out

    def test_microcode_unknown_model_fails_cleanly(self, capsys):
        assert main(["microcode", "NoSuchModel"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_microcode_non_finite_dt_is_a_one_line_error(self, dt, capsys):
        assert main(["microcode", "LIF", "--dt", dt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: dt must be positive and finite, got {dt}\n"

    def test_microcode_unsupported_model_fails_cleanly(self, capsys):
        assert main(["microcode", "HH"]) == 2
        err = capsys.readouterr().err
        assert "--backend hybrid" in err

    def test_run_workload(self, capsys):
        code = main(
            ["run", "Vogels-Abbott", "--scale", "0.02", "--steps", "150"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spikes" in out
        assert "neuron" in out

    def test_run_on_reference_backend(self, capsys):
        code = main(
            [
                "run", "Brunel", "--backend", "reference",
                "--solver", "Euler", "--scale", "0.02", "--steps", "100",
            ]
        )
        assert code == 0

    def test_experiment_table5(self, capsys):
        assert main(["experiment", "table5"]) == 0
        out = capsys.readouterr().out
        assert "Control signals" in out

    def test_experiment_table6(self, capsys):
        assert main(["experiment", "table6"]) == 0
        out = capsys.readouterr().out
        assert "9.258" in out

    def test_experiment_prints_exactly_the_committed_artefact(self, capsys):
        # No banner and no trailing blank line: redirecting the output
        # is how a file under tests/experiments/artefacts/ is refreshed.
        assert main(["experiment", "figure12"]) == 0
        out = capsys.readouterr().out
        committed = Path(__file__).parents[1] / "experiments" / "artefacts"
        assert out == (committed / "figure12.txt").read_text(encoding="utf-8")

    def test_experiment_figure13_small(self, capsys):
        code = main(
            ["experiment", "figure13", "--scale", "0.02", "--steps", "80"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "geomean latency" in out

    @pytest.mark.parametrize(
        "name, argv, message",
        [
            ("figure3", ["--steps", "0"], "steps must be >= 1, got 0"),
            ("table3", ["--steps", "0"], "steps must be >= 1, got 0"),
            ("figure13", ["--steps", "-5"], "steps must be >= 1, got -5"),
            ("figure3", ["--scale", "0"], "scale must be positive"),
            ("validation", ["--scale", "nan"], "scale must be positive"),
            ("all", ["--scale", "-1"], "scale must be positive"),
            # A flag the artefact's run() does not take would otherwise
            # print the default artefact as if it had been applied.
            ("stdp_learning", ["--steps", "100000"],
             "experiment stdp_learning takes no --steps"),
            ("behaviors", ["--scale", "0.1"],
             "experiment behaviors takes no --scale"),
            ("table5", ["--steps", "5"], "experiment table5 takes no --steps"),
            ("table3", ["--scale", "0.1"], "experiment table3 takes no --scale"),
        ],
        ids=[
            "figure3-steps0", "table3-steps0", "figure13-steps<0",
            "figure3-scale0", "validation-scale-nan", "all-scale<0",
            "stdp_learning-steps", "behaviors-scale", "table5-steps",
            "table3-scale",
        ],
    )
    def test_experiment_refuses_before_any_output(
        self, name, argv, message, capsys
    ):
        assert main(["experiment", name, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert len(captured.err.strip().splitlines()) == 1


class TestCheckpointCli:
    def test_checkpoint_then_resume_matches_straight_run(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "run.ckpt")
        base = [
            "run", "Izhikevich", "--backend", "folded",
            "--scale", "0.02", "--steps", "150",
        ]
        assert main(base) == 0
        straight = capsys.readouterr().out

        assert main(base + ["--checkpoint-every", "60",
                            "--checkpoint-path", path]) == 0
        capsys.readouterr()
        assert main(base + ["--resume-from", path]) == 0
        resumed = capsys.readouterr().out
        assert "resumed from" in resumed
        assert "at step 120" in resumed

        def spike_line(text):
            return next(line for line in text.splitlines() if "spikes" in line)

        assert spike_line(resumed) == spike_line(straight)

    def test_resume_past_requested_steps_fails_cleanly(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "run.ckpt")
        base = [
            "run", "Izhikevich", "--backend", "folded",
            "--scale", "0.02",
        ]
        assert main(base + ["--steps", "150", "--checkpoint-every", "60",
                            "--checkpoint-path", path]) == 0
        capsys.readouterr()
        assert main(base + ["--steps", "100", "--resume-from", path]) == 2
        assert "past the requested" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, names",
        [
            (["--seed", "6"], ["seed: 5 (checkpoint) vs 6 (this run)"]),
            (["--seed", "5", "--scale", "0.1"], ["populations"]),
        ],
        ids=["seed", "scale"],
    )
    def test_resume_into_another_run_is_refused(
        self, flags, names, tmp_path, capsys
    ):
        # The checkpoint carries the spec it was built from: a seed-5
        # checkpoint used to resume into seed-6 connectivity, exit 0.
        path = str(tmp_path / "run.ckpt")
        base = ["run", "Brunel", "--steps", "100", "--no-ledger"]
        assert main(base + ["--seed", "5", "--scale", "0.05",
                            "--checkpoint-every", "50",
                            "--checkpoint-path", path]) == 0
        capsys.readouterr()
        assert main(base + flags + ["--resume-from", path]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: checkpoint signature does not match")
        for name in names:
            assert name in line


class TestRunRefusals:
    """Flag combinations ``run``, ``sweep`` and ``spec`` refuse before
    the banner: one ``error:`` line, exit 2, nothing on stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "Brunel", "--stats-json", "{missing}/s.json"],
            ["run", "Brunel", "--trace", "{missing}/t.json"],
            ["run", "Brunel", "--checkpoint-every", "3",
             "--checkpoint-path", "{missing}/x.pkl"],
            ["sweep", "Brunel", "--stats-json", "{missing}/s.json"],
        ],
        ids=["run-stats-json", "run-trace", "run-checkpoint-path",
             "sweep-stats-json"],
    )
    def test_an_output_path_in_a_missing_directory(
        self, argv, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing")
        argv = [arg.format(missing=missing) for arg in argv]
        assert main([*argv, "--steps", "10", "--no-ledger"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --")
        assert f"directory {missing!r} does not exist" in captured.err
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("backend", ["flexon", "folded"])
    @pytest.mark.parametrize("command", ["run", "sweep", "spec"])
    def test_a_solver_the_backend_ignores(self, command, backend, capsys):
        argv = [command, "Brunel", "--backend", backend, "--solver", "RKF45"]
        if command != "spec":
            argv += ["--steps", "10", "--no-ledger"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --solver RKF45 does not apply to backend {backend!r}: "
            "its fixed-point datapaths have no software solver\n"
        )

    def test_a_solver_the_backend_uses_is_recorded(self, capsys):
        import json

        assert main(["spec", "Brunel", "--backend", "hybrid",
                     "--solver", "RKF45"]) == 0
        assert json.loads(capsys.readouterr().out)["solver"] == "RKF45"


class TestFrontendCommands:
    def test_spec_is_valid_json(self, capsys):
        import json

        from repro.workloads import spec_for

        assert main(["spec", "Brunel"]) == 0
        spec = json.loads(capsys.readouterr().out)
        # run's defaults: backend folded, scale 0.05, seed 1.
        assert spec == json.loads(json.dumps(
            {**spec_for("Brunel", 0.05, 1), "backend": "folded"}
        ))

    def test_spec_refuses_a_bad_seed_before_printing(self, capsys):
        assert main(["spec", "Brunel", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == ""

    def test_simulate_spec_file(self, tmp_path, capsys):
        import json

        from repro.workloads import spec_for

        path = tmp_path / "net.json"
        path.write_text(
            json.dumps({**spec_for("Brunel", 0.02), "backend": "folded"})
        )
        assert main(["simulate", str(path), "--steps", "200"]) == 0
        out = capsys.readouterr().out
        assert "folded-flexon" in out
        assert "spikes" in out

    def test_simulate_reports_plastic_weights(self, tmp_path, capsys):
        import json

        from repro.workloads import spec_for

        spec = spec_for("Brunel", 0.02)
        spec["projections"][0]["plasticity"] = {
            "rule": "pair_stdp", "a_plus": 0.01,
        }
        path = tmp_path / "plastic.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", str(path), "--steps", "100"]) == 0
        assert "mean weight" in capsys.readouterr().out

    def test_simulate_zero_steps_is_a_clean_zero_hz_run(self, tmp_path, capsys):
        import json

        from repro.workloads import spec_for

        path = tmp_path / "net.json"
        path.write_text(
            json.dumps({**spec_for("Brunel", 0.02), "backend": "folded"})
        )
        # Used to die in the rate line: spikes / n / (0 steps * dt).
        assert main(["simulate", str(path), "--steps", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 spikes" in out and "0.0 Hz" in out

    def test_simulate_negative_steps_fails_before_the_banner(
        self, tmp_path, capsys
    ):
        from repro.workloads import spec_for

        path = tmp_path / "net.json"
        path.write_text(json.dumps(spec_for("Brunel", 0.02)))
        assert main(["simulate", str(path), "--steps", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # the network was never built
        assert captured.err == "error: steps must be >= 0, got -5\n"

    def test_simulate_bad_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["simulate", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            ({"solver": "RK4"}, "unknown solver 'RK4'"),
            ({"solver": "RKF45", "model": "LLIF"}, "LID"),
        ],
    )
    def test_simulate_bad_solver_is_a_one_line_configuration_error(
        self, tmp_path, capsys, overrides, needle
    ):
        import json

        spec = {
            "backend": "reference",
            "solver": overrides["solver"],
            "populations": [
                {"name": "p", "n": 5, "model": overrides.get("model", "DLIF")}
            ],
        }
        path = tmp_path / "solver.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", str(path), "--steps", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the banner
        assert captured.err.startswith("error: ") and needle in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "stimulus, needle",
        [
            ({"kind": "poisson", "rate_hz": 100.0, "weight": 1.0,
              "n_sources": -1}, "n_sources"),
            ({"kind": "poisson", "rate_hz": 100.0, "weight": 1.0,
              "n_sources": 2.5}, "n_sources"),
            ({"kind": "poisson", "rate_hz": float("nan"), "weight": 1.0},
             "rate must be finite"),
            ({"kind": "poisson", "rate_hz": 100.0, "weight": float("inf")},
             "weight must be finite"),
            ({"kind": "pattern", "weight": 1.0, "period": 4,
              "events": {"4": [0]}}, "never reached"),
            ({"kind": "pattern", "weight": 1.0, "events": {"-1": [0]}},
             "never reached"),
        ],
    )
    def test_simulate_bad_stimulus_is_a_one_line_configuration_error(
        self, tmp_path, capsys, stimulus, needle
    ):
        import json

        spec = {
            "backend": "reference",
            "populations": [{"name": "p", "n": 5, "model": "DLIF"}],
            "stimuli": [{"target": "p", **stimulus}],
        }
        path = tmp_path / "stimulus.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", str(path), "--steps", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the banner
        assert captured.err.startswith("error: ") and needle in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            ({"weight_std": -1.0}, "weight_std must be finite and >= 0"),
            ({"weight_std": float("nan")}, "weight_std must be finite and >= 0"),
            ({"weight": float("nan")}, "weight must be finite"),
            ({"weight": float("inf")}, "weight must be finite"),
        ],
    )
    def test_simulate_bad_weights_are_a_one_line_configuration_error(
        self, tmp_path, capsys, overrides, needle
    ):
        # These used to build a NaN (or jitter-free) table and run to
        # "0 spikes", exit 0.
        import json

        spec = {
            "backend": "reference",
            "populations": [{"name": "p", "n": 5, "model": "DLIF"}],
            "projections": [
                {"pre": "p", "post": "p", "probability": 0.5, **overrides}
            ],
        }
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", str(path), "--steps", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the banner
        assert captured.err.startswith("error: ") and needle in captured.err
        assert "'p' -> 'p'" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "parameters, needle",
        [
            ({"tau_w": 0}, "tau_w must be positive"),
            ({"tau_r": 0}, "tau_r must be positive"),
            ({"tau": float("nan")}, "tau must be finite"),
            ({"theta": float("inf")}, "theta must be finite"),
            ({"leak_rate": -5}, "leak_rate must be >= 0"),
        ],
    )
    def test_simulate_bad_model_parameters_are_a_one_line_configuration_error(
        self, tmp_path, capsys, parameters, needle
    ):
        # tau_w/tau_r = 0 used to die in a ZeroDivisionError traceback
        # (exit 1); the others ran to completion, exit 0.
        import json

        spec = {
            "backend": "reference",
            "populations": [
                {"name": "p", "n": 5, "model": "IF_cond_exp_gsfa_grr",
                 "parameters": parameters}
            ],
        }
        path = tmp_path / "parameters.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", str(path), "--steps", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the banner
        assert captured.err.startswith("error: ") and needle in captured.err
        assert "population 'p'" in captured.err
        assert captured.err.count("\n") == 1


    @staticmethod
    def _narrow_eif_spec(backend, **extra):
        """An LIF population beside an EIF one whose ``delta_t`` is too
        narrow for its constants (``1 / delta_t = 1000``)."""
        return {
            "backend": backend,
            **extra,
            "populations": [
                {"name": "lif", "n": 10, "model": "LIF"},
                {"name": "eif", "n": 10, "model": "EIF",
                 "parameters": {"delta_t": 0.001}},
            ],
            "stimuli": [
                {"kind": "poisson", "target": target, "rate_hz": 100.0,
                 "weight": 0.4, "n_sources": 50, "syn_type": 0}
                for target in ("lif", "eif")
            ],
        }

    @pytest.mark.parametrize("backend", ["flexon", "folded", "hybrid"])
    def test_a_constant_outside_the_format_names_its_population(
        self, tmp_path, capsys, backend
    ):
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(self._narrow_eif_spec(backend)))
        assert main(["simulate", str(path), "--steps", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            "error: population 'eif': model 'EIF': constants outside Q9.22"
        )
        assert "inv_delta_t = 1000" in captured.err
        assert "'lif'" not in captured.err

    @pytest.mark.parametrize("backend", ["reference", "solver"])
    @pytest.mark.parametrize("solver", ["Euler", "RKF45"])
    def test_an_exi_exponent_past_float64_is_refused(
        self, tmp_path, capsys, backend, solver
    ):
        # exi_cap = 1 / 0.001 + 2 = 1002 > log(float64 max) = 709.78: Euler
        # overflowed exp (a RuntimeWarning, then spikes placed by the
        # overflow), RKF45 a NumericsError mid-run.
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(self._narrow_eif_spec(backend, solver=solver)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(path), "--steps", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: population 'eif': model 'EIF'")
        assert "delta_t = 0.001" in captured.err
        assert "delta_t >= 0.00142" in captured.err


class TestTelemetryCli:
    BASE = ["run", "Brunel", "--backend", "reference", "--solver", "Euler",
            "--scale", "0.02", "--steps", "60"]

    def test_run_writes_trace_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(self.BASE + ["--trace", str(path)]) == 0
        assert "wrote trace" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) > 60 * 3  # phases plus population kernel spans
        assert doc["otherData"]["dropped_events"] == 0

    def test_run_trace_max_events_bounds_the_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(
            self.BASE + ["--trace", str(path), "--trace-max-events", "12"]
        ) == 0
        doc = json.loads(path.read_text())
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == 12
        assert doc["otherData"]["dropped_events"] > 0

    def test_run_writes_stats_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "stats.json"
        assert main(self.BASE + ["--stats-json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-run-stats/3"
        assert doc["network"] == "Brunel"
        assert doc["n_steps"] == 60
        assert set(doc["phase_fractions"]) == {"stimulus", "neuron", "synapse"}
        assert doc["metrics"]["sim_steps_total"]["values"][0]["value"] == 60

    def test_profile_is_no_longer_a_command(self, capsys):
        # Cut in favour of ``bench/run.py --trace 1``, which reports
        # every number it printed (EXPERIMENTS.md, PR 30).
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "--quick"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err


class TestSweepCli:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workloads == []
        assert args.backend == "reference"
        assert (args.scale, args.steps, args.seed) == (0.05, 400, 1)
        for gone in (
            "workers", "max_retries", "deadline", "chaos_kill_at", "alerts",
        ):
            assert not hasattr(args, gone)

    def test_sweep_unknown_workload_fails_cleanly(self, capsys):
        assert main(["sweep", "NoSuchNet"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_sweep_runs_jobs_in_process(self, tmp_path, capsys):
        stats = tmp_path / "sweep.json"
        code = main(
            ["sweep", "Nowotny et al.", "--scale", "0.05",
             "--steps", "100", "--seed", "3", "--no-ledger",
             "--stats-json", str(stats)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1/1 jobs completed" in out
        doc = json.loads(stats.read_text())
        assert doc["schema"] == "repro-sweep/2"
        assert (doc["completed"], doc["failed"]) == (1, 0)
        (job,) = doc["jobs"]
        assert job["name"] == "Nowotny et al."
        assert job["outcome"] == "completed"
        assert job["stats"]["n_steps"] == 100

    def test_a_numerics_failure_fails_one_job_and_the_loop_goes_on(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.errors import NumericsError
        from repro.provenance import load_ledger
        from repro.reliability import guard

        guards = []

        class TripsOnTheFirstJob(guard.NumericsGuard):
            def __init__(self, backend):
                super().__init__(backend)
                guards.append(self)

            def on_phase(self, phase, step, seconds, operations):
                if self is guards[0] and step == 20:
                    raise NumericsError(
                        "membrane went NaN", population="exc", step=step
                    )
                super().on_phase(phase, step, seconds, operations)

        monkeypatch.setattr(guard, "NumericsGuard", TripsOnTheFirstJob)
        stats = tmp_path / "sweep.json"
        ledger = str(tmp_path / "ledger.jsonl")
        code = main(
            ["sweep", "Brunel", "Izhikevich", "--scale", "0.05",
             "--steps", "100", "--ledger", ledger,
             "--stats-json", str(stats)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "job 'Brunel' failed: membrane went NaN" in out
        assert "1/2 jobs completed" in out
        failed, completed = json.loads(stats.read_text())["jobs"]
        assert failed["outcome"] == "failed"
        assert failed["error"] == "membrane went NaN"
        assert "spike_digest" not in failed
        assert completed["outcome"] == "completed"
        (entry,) = load_ledger(ledger)
        assert entry["outcome"] == "failed"
        assert entry["metrics"] == {"jobs": 2, "completed": 1, "failed": 1}
        assert list(entry["job_digests"]) == ["Izhikevich"]

"""One spec-to-simulator path behind run and sweep.

``repro.assembly`` owns the backend table; every run is built from the
workload's front-end spec by ``build_simulation``, and ``spec_for``
writes the seed contract (network seeds with ``seed``, stimulus RNG
with ``seed + 1``);
``repro.runcontext.RunContext`` owns the plane bring-up and the
write-out. These tests pin that as behaviour: every entry point reports
the same spike digest for the same ``(workload, scale, seed, steps)``,
the ledger entries keep the parent commit's fields and config digests,
arguments are validated before anything is built, and a plain launch
imports no HTTP server.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.assembly import BACKENDS, make_backend
from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.frontend import build_backend, build_network, build_simulation
from repro.provenance import config_digest, load_ledger
from repro.workloads import spec_for, workload_names

SCALE, SEED, STEPS = 0.05, 3, 300

#: Every ledger entry carries these; sweeps add ``job_digests``.
ENTRY_FIELDS = {
    "schema", "run_id", "ts", "timestamp", "kind", "workload", "backend",
    "shards", "steps", "scale", "seed", "dt", "config_digest", "config",
    "spike_digest", "outcome", "duration", "metrics", "artifacts",
}

#: ``config_digest`` of the entries the parent commit wrote for
#: ``run Brunel --backend reference --scale 0.05 --steps 300 --seed 3``
#: and the matching one-job ``sweep`` (``"shards": 0`` is part of both
#: configs, so it stays in them as a constant). Re-pinned 2026-10-15:
#: the sweep's config dropped ``workers`` and ``max_retries`` when the
#: process pool went (was ``c85094c2…``); the ``run`` digest never moved.
PARENT_BRUNEL_DIGESTS = {
    "run": "74b048b7cd54295e288f4532544256c990246a922d8b420e513d30f370fbeb36",
    "sweep": (
        "18f9d836d23112f75e428a02118a96b2596f6862d0bf63957f3d25d07da96b67"
    ),
}


def _run_config(workload, backend):
    return {
        "workload": workload, "backend": backend, "steps": STEPS,
        "scale": SCALE, "seed": SEED, "dt": 1e-4, "solver": None,
        "shards": 0,
    }


@pytest.mark.parametrize(
    "workload, backend",
    [
        ("Brunel", "reference"),
        ("Izhikevich", "folded"),
        ("Vogels et al.", "reference"),  # RKF45
    ],
)
def test_one_digest_from_every_entry_point(
    workload, backend, tmp_path, capsys
):
    simulator, _ = build_simulation(
        {**spec_for(workload, SCALE, SEED), "backend": backend}
    )
    result = simulator.run(STEPS)
    assert result.total_spikes() > 0
    expected = result.spikes.digest()

    ledger = str(tmp_path / "ledger.jsonl")
    common = [
        "--backend", backend, "--scale", str(SCALE), "--steps", str(STEPS),
        "--seed", str(SEED), "--ledger", ledger,
    ]

    def stats_of(argv, name):
        path = tmp_path / name
        assert main([*argv, *common, "--stats-json", str(path)]) == 0
        return json.loads(path.read_text())

    single = stats_of(["run", workload], "run.json")
    sweep = stats_of(["sweep", workload], "sweep.json")
    capsys.readouterr()

    assert single["spike_digest"] == expected
    (job,) = sweep["jobs"]
    assert job["spike_digest"] == expected

    run_entry, sweep_entry = load_ledger(ledger)
    assert set(run_entry) == ENTRY_FIELDS
    assert set(sweep_entry) == ENTRY_FIELDS | {"job_digests"}
    assert run_entry["kind"] == "run"
    assert run_entry["config"] == _run_config(workload, backend)
    assert run_entry["config_digest"] == config_digest(run_entry["config"])
    assert (
        run_entry["workload"], run_entry["backend"], run_entry["shards"]
    ) == (workload, backend, 0)
    assert (run_entry["steps"], run_entry["scale"], run_entry["seed"]) == (
        STEPS, SCALE, SEED,
    )
    assert run_entry["spike_digest"] == expected
    assert run_entry["outcome"] == "completed"
    assert sweep_entry["kind"] == "sweep"
    assert sweep_entry["shards"] == 0
    assert sweep_entry["workload"] == workload
    assert sweep_entry["config"] == {
        "workloads": [workload], "backend": backend, "steps": STEPS,
        "scale": SCALE, "seed": SEED, "dt": 1e-4, "solver": None,
        "shards": 0,
    }
    assert sweep_entry["spike_digest"] == expected
    assert sweep_entry["job_digests"] == {workload: expected}
    if workload == "Brunel":
        assert {
            "run": run_entry["config_digest"],
            "sweep": sweep_entry["config_digest"],
        } == PARENT_BRUNEL_DIGESTS


@pytest.mark.parametrize("backend", ["reference", "folded"])
@pytest.mark.parametrize("workload", workload_names())
def test_a_registry_spec_through_json_runs_as_assembled(workload, backend):
    # A spec read back from a file (``repro simulate``) runs as the
    # dict ``repro run`` builds, and keeps the same identity.
    spec = {**spec_for(workload, 0.05, SEED), "backend": backend}
    simulator, network = build_simulation(json.loads(json.dumps(spec)))
    direct, direct_network = build_simulation(spec)
    assert network.spec == direct_network.spec
    assert simulator.run(100).spikes.digest() == (
        direct.run(100).spikes.digest()
    )


def test_dt_reaches_the_registry_poisson_drive():
    # The stimuli used to keep the 0.1 ms step whatever --dt said.
    network = build_network(spec_for("Brunel", 0.05, 1, dt=2e-4))
    assert [stimulus.dt for stimulus in network.stimuli] == [2e-4]


def test_spec_then_simulate_reports_the_run_digest(tmp_path, capsys):
    flags = ["--backend", "reference", "--scale", "0.05", "--seed", "3"]
    assert main(["spec", "Izhikevich", *flags]) == 0
    spec = tmp_path / "spec.json"
    spec.write_text(capsys.readouterr().out)
    assert main(["simulate", str(spec), "--steps", "150"]) == 0
    (digest,) = [
        line.removeprefix("spike digest: ")
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("spike digest: ")
    ]
    stats = tmp_path / "run.json"
    assert main(
        ["run", "Izhikevich", *flags, "--steps", "150", "--no-ledger",
         "--stats-json", str(stats)]
    ) == 0
    assert json.loads(stats.read_text())["spike_digest"] == digest


class TestBackendTable:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_every_name_builds(self, name):
        assert make_backend(name, 1e-4, "Euler").name

    def test_every_backend_list_is_the_table(self):
        subparsers = next(
            action for action in build_parser()._actions
            if action.dest == "command"
        ).choices
        for command in ("run", "sweep", "spec"):
            (backend,) = [
                action for action in subparsers[command]._actions
                if action.dest == "backend"
            ]
            assert backend.choices is BACKENDS
        for name in BACKENDS:
            assert build_backend({"backend": name}).name
        with pytest.raises(ConfigurationError, match=", ".join(BACKENDS)):
            build_backend({"backend": "fpga"})

    def test_unknown_name_lists_the_table(self):
        with pytest.raises(ConfigurationError, match=", ".join(BACKENDS)):
            make_backend("fpga")

    def test_solver_is_the_dict_state_reference_path(self):
        assert make_backend("reference").use_engine
        assert not make_backend("solver").use_engine


BANNER = "run ID:"


class TestRunArguments:
    """Checked once, as one ``error:`` line, before the banner."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--steps", "-3"], "steps must be >= 0"),
            (["--trace", "t.json", "--trace-max-events", "-1"],
             "trace ring capacity"),
            (["--checkpoint-every", "-5"], "checkpoint interval"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
            (["--dt", "nan"], "dt must be positive and finite, got nan"),
            (["--dt", "inf"], "dt must be positive and finite, got inf"),
        ],
        ids=[
            "steps<0", "ring<0", "ckpt<0", "seed<0", "dt-nan", "dt-inf",
        ],
    )
    def test_run_rejects(self, argv, message, capsys):
        assert main(["run", "Brunel", "--no-ledger", *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert BANNER not in captured.out

    @pytest.mark.parametrize("dt", ["nan", "inf", "-1"])
    def test_sweep_refuses_a_bad_dt_before_any_job(self, dt, capsys):
        # A NaN step used to escape the build as a raw ValueError, and a
        # negative one failed each job in turn with exit 1.
        assert main(["sweep", "Brunel", "--no-ledger", "--dt", dt]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: dt must be positive and finite, got {float(dt)}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "Brunel", "--no-ledger", "--seed", "-1"],
            ["run", "Brunel", "--no-ledger", "--seed", "-1"],
        ],
        ids=["sweep", "run"],
    )
    def test_a_negative_seed_is_refused_by_every_command(self, argv, capsys):
        # numpy's default_rng raised ValueError from inside the build.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == ""

    def test_a_spec_with_a_negative_seed_is_refused(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "seed": -3, "populations": [{"name": "p", "n": 5, "model": "DLIF"}],
        }))
        assert main(["simulate", str(spec), "--steps", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: top-level 'seed' must be >= 0, got -3\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_shards_is_no_longer_a_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "Brunel", "--no-ledger", "--shards", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_serve_is_no_longer_a_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "Brunel", "--no-ledger", "--serve", ":0"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --serve :0" in capsys.readouterr().err

    def test_zero_steps_is_a_clean_empty_run(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        ledger = str(tmp_path / "ledger.jsonl")
        code = main(
            ["run", "Brunel", "--backend", "reference", "--steps", "0",
             "--stats-json", str(stats), "--ledger", ledger]
        )
        assert code == 0
        assert "0 spikes in 0 ms" in capsys.readouterr().out
        assert json.loads(stats.read_text())["n_steps"] == 0
        (entry,) = load_ledger(ledger)
        assert entry["steps"] == 0
        assert entry["metrics"] == {"total_spikes": 0, "mean_rate_hz": 0.0}


def test_plain_run_imports_no_server_and_no_multiprocessing():
    """The launch cost ``bench/`` reads as ``wall_s`` on ``brunel-small``."""
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        "code = main(['run', 'Brunel', '--backend', 'reference', "
        "'--scale', '0.02', '--steps', '5', '--no-ledger'])\n"
        "heavy = [m for m in ('http.server', 'multiprocessing.connection', "
        "'repro.observability', 'repro.hardware') if m in sys.modules]\n"
        "sys.exit(code or (3 if heavy else 0))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


SUBCOMMANDS = [
    ["workloads"], ["models"], ["microcode"], ["run"], ["sweep"],
    ["experiment"], ["simulate"], ["spec"],
    ["runs"], ["runs", "list"], ["runs", "show"], ["runs", "diff"],
]


@pytest.mark.parametrize("command", SUBCOMMANDS, ids=" ".join)
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([*command, "--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_the_subcommand_list_is_complete():
    (subparsers,) = [
        action for action in build_parser()._actions
        if hasattr(action, "choices") and action.dest == "command"
    ]
    assert set(subparsers.choices) == {
        command[0] for command in SUBCOMMANDS
    }

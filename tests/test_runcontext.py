"""Tests: graceful interrupt = clean stop + checkpoint + partial stats.

``InterruptHook`` and ``graceful_signals`` live beside ``RunContext``
in ``repro.runcontext``.
"""

import signal

import numpy as np
import pytest

from repro.engine.hooks import PhaseHook
from repro.errors import RunInterrupted
from repro.network.backends import ReferenceBackend
from repro.network.network import Network
from repro.network.simulator import Simulator
from repro.network.stimulus import PoissonStimulus
from repro.reliability import Checkpoint
from repro.runcontext import EXIT_CODES, InterruptHook, graceful_signals

DT = 1e-4
STEPS = 120
STOP_AT = 50


def _network():
    rng = np.random.default_rng(21)
    network = Network("int-net")
    exc = network.add_population("exc", 30, "DLIF")
    network.connect(
        "exc", "exc", probability=0.2, weight=0.05, syn_type=0, rng=rng
    )
    network.add_stimulus(
        PoissonStimulus(exc, rate_hz=900.0, weight=0.09, dt=DT, n_sources=8)
    )
    return network


def _simulator():
    return Simulator(_network(), ReferenceBackend("Euler"), dt=DT, seed=5)


class _RequestAt(PhaseHook):
    """Calls ``hook.request`` at a chosen step (a signal stand-in)."""

    def __init__(self, hook, step, signal_name="SIGINT"):
        self.hook = hook
        self.step = step
        self.signal_name = signal_name

    def on_step_start(self, step):
        if step == self.step:
            self.hook.request(self.signal_name)


class TestInterruptHook:
    def _interrupt_run(self, tmp_path, signal_name="SIGINT"):
        simulator = _simulator()
        path = str(tmp_path / "final.ckpt")
        hook = InterruptHook(simulator, checkpoint_path=path)
        requester = _RequestAt(hook, STOP_AT, signal_name)
        with pytest.raises(RunInterrupted) as excinfo:
            simulator.run(STEPS, hooks=[requester, hook])
        return hook, excinfo.value, path

    def test_raises_at_the_requested_boundary(self, tmp_path):
        hook, error, _ = self._interrupt_run(tmp_path)
        assert error.signal_name == "SIGINT"
        assert error.step == STOP_AT

    def test_partial_stats_document(self, tmp_path):
        hook, error, path = self._interrupt_run(tmp_path, "SIGTERM")
        stats = hook.partial_stats(error)
        assert stats.pop("partial") is True
        assert stats.pop("interrupted") == {
            "signal": "SIGTERM",
            "step": STOP_AT,
            "exit_code": 143,
            "checkpoint": path,
        }
        # The rest is a finished run's document, built by the same code
        # over the steps before the interrupt.
        finished = _simulator().run(STOP_AT).to_stats_dict()
        assert set(stats) == set(finished)
        assert stats["schema"] == "repro-run-stats/3"
        assert stats["n_steps"] == STOP_AT
        assert stats["spike_digest"] == finished["spike_digest"]
        assert stats["counters"] == finished["counters"]
        assert stats["phases"]["neuron"]["operations"] == STOP_AT * 30

    def test_a_resumed_run_names_the_absolute_stop_step(self, tmp_path):
        _, _, path = self._interrupt_run(tmp_path)
        resumed = _simulator()
        checkpoint = Checkpoint.load(path)
        checkpoint.restore(resumed)
        hook = InterruptHook(resumed)
        with pytest.raises(RunInterrupted) as excinfo:
            resumed.run(
                STEPS - STOP_AT,
                hooks=[_RequestAt(hook, STOP_AT + 30), hook],
                spikes=checkpoint.seed_recorder(),
            )
        stats = hook.partial_stats(excinfo.value)
        assert stats["interrupted"]["step"] == STOP_AT + 30
        assert stats["n_steps"] == 30
        # The recorder carries the checkpointed prefix too.
        straight = _simulator().run(STOP_AT + 30)
        assert stats["spike_digest"] == straight.spikes.digest()

    def test_checkpoint_resumes_bit_identically(self, tmp_path):
        _, _, path = self._interrupt_run(tmp_path)

        resumed = _simulator()
        checkpoint = Checkpoint.load(path)
        checkpoint.restore(resumed)
        assert resumed.current_step == STOP_AT
        result = resumed.run(
            STEPS - STOP_AT, spikes=checkpoint.seed_recorder()
        )

        baseline = _simulator().run(STEPS)
        assert result.spikes.digest() == baseline.spikes.digest()

    def test_no_checkpoint_path_skips_checkpoint(self):
        simulator = _simulator()
        hook = InterruptHook(simulator, checkpoint_path=None)
        with pytest.raises(RunInterrupted) as excinfo:
            simulator.run(STEPS, hooks=[_RequestAt(hook, STOP_AT), hook])
        assert hook.checkpoint_written is None
        stats = hook.partial_stats(excinfo.value)
        assert stats["interrupted"]["checkpoint"] is None


class TestGracefulSignals:
    def test_first_signal_requests_graceful_stop(self):
        hook = InterruptHook(_simulator())
        with graceful_signals(hook):
            signal.raise_signal(signal.SIGINT)
            assert hook.requested == "SIGINT"

    def test_second_signal_forces_exit(self):
        hook = InterruptHook(_simulator())
        try:
            with graceful_signals(hook):
                signal.raise_signal(signal.SIGINT)
                with pytest.raises(KeyboardInterrupt):
                    signal.raise_signal(signal.SIGTERM)
        finally:
            # The force-exit path resets handlers; make sure the test
            # process is back to defaults either way.
            signal.signal(signal.SIGINT, signal.default_int_handler)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)

    def test_previous_handlers_restored(self):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        with graceful_signals(InterruptHook(_simulator())):
            assert signal.getsignal(signal.SIGINT) is not before_int
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term

    def test_exit_codes_follow_convention(self):
        assert EXIT_CODES == {"SIGINT": 130, "SIGTERM": 143}

"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.compiler import FlexonCompiler
from repro.models.registry import create_model
from repro.network.network import Network
from repro.network.stimulus import PoissonStimulus, StimulusPlan
from repro.routing import DelayRing

#: The paper's simulation time step (0.1 ms).
DT = 1e-4


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def compiler():
    return FlexonCompiler()


@pytest.fixture
def lif_model():
    return create_model("LIF")


@pytest.fixture
def small_network(rng):
    """A tiny two-population DLIF network with stimulus."""
    network = Network("test-net")
    exc = network.add_population("exc", 40, "DLIF")
    network.add_population("inh", 10, "DLIF")
    network.connect(
        "exc", "exc", probability=0.15, weight=0.05, syn_type=0, rng=rng,
        delay_steps=1, delay_jitter=4,
    )
    network.connect(
        "exc", "inh", probability=0.15, weight=0.05, syn_type=0, rng=rng
    )
    network.connect(
        "inh", "exc", probability=0.15, weight=0.2, syn_type=1, rng=rng
    )
    network.add_stimulus(
        PoissonStimulus(exc, rate_hz=500.0, weight=0.08, dt=DT, n_sources=10)
    )
    return network


def drive_single(model, current, steps, dt=DT, syn_type=0, n=1):
    """Drive one (or n) neurons with a constant per-step input weight.

    Returns (fired_count_per_neuron, final_state, spike_steps_of_n0).
    """
    state = model.initial_state(n)
    n_types = model.parameters.n_synapse_types
    inputs = np.zeros((n_types, n))
    inputs[syn_type, :] = current
    fired_counts = np.zeros(n, dtype=int)
    spike_steps = []
    for step in range(steps):
        fired = model.step(state, inputs.copy(), dt)
        fired_counts += fired
        if fired[0]:
            spike_steps.append(step)
    return fired_counts, state, spike_steps


def enqueue_events(ring, post_idx, weights, delays, syn_type=0):
    """Enqueue per-event ``(target neuron, weight, delay)`` triples.

    Encodes them the way a Projection does at build time — ring targets
    ``delay * stride + post_idx`` — so ring tests can speak in delays.
    """
    post_idx = np.asarray(post_idx, dtype=np.int64)
    delays = np.asarray(delays, dtype=np.int64)
    ring.enqueue(
        (delays * ring.stride + post_idx).astype(np.int32),
        np.asarray(weights, dtype=np.float64),
        syn_type,
    )


def stimulus_rows(stimulus, steps, seed):
    """What a plan over this one stimulus deposits, step by step.

    Returns ``(rows, events, plan)``: the input rows of the stimulus's
    synapse type, the per-step event counts, and the plan.
    """
    target = stimulus.target
    ring = DelayRing(target.n, target.n_synapse_types, max_delay=1)
    plan = StimulusPlan([stimulus], {target.name: ring}, seed)
    rows, events = [], []
    for step in range(steps):
        events.append(plan.inject(step))
        rows.append(ring.current()[stimulus.syn_type].copy())
        ring.rotate()
    return np.array(rows), events, plan

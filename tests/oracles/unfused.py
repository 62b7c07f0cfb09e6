"""The neuron phase before populations were fused into blocks.

``RuntimeBackend.prepare`` used to build one runtime per population and
the simulator called ``advance`` once per population per step, handing
each its own ring bucket. :func:`unfused` makes a backend prepare that
way again and :func:`run_unfused` steps a simulator that way — no block
schedule, no gathered input, no mask slicing — so a fused run can be
held to it: same spikes, same state bytes, same per-population
saturation counts, cycles, ``advances`` and checkpoint payloads. Under
RKF45 that is one stepper per population, each accepting or rejecting
its own substeps: the per-population ``evaluations`` a fused block's
per-member step control must reproduce.
"""

import numpy as np

from repro.network.backends import RuntimeBackend
from repro.network.recorder import SpikeRecorder
from repro.network.simulator import Simulator


def unfused(backend: RuntimeBackend) -> RuntimeBackend:
    """``backend``, preparing every population as a block of its own."""
    backend.block_key = lambda population: None
    return backend


def run_unfused(
    simulator: Simulator, n_steps: int, spikes: SpikeRecorder = None
) -> SpikeRecorder:
    """Advance ``simulator`` (built on an :func:`unfused` backend)
    ``n_steps`` with the three-phase loop as it was: one ``advance``
    per population runtime, in network order."""
    recorder = spikes if spikes is not None else SpikeRecorder()
    network, dt = simulator.network, simulator.dt
    runtimes = simulator.backend.runtimes
    assert all(runtime.block is None for runtime in runtimes.values())
    rings = simulator.router.rings
    for _ in range(n_steps):
        step = simulator.current_step
        simulator.stimulus_plan.inject(step)
        fired = {}
        for name, runtime in runtimes.items():
            mask = runtime.advance(rings[name].current(), dt)
            fired[name] = np.nonzero(mask)[0]
            recorder.record_indices(name, step, fired[name])
        for projection in network.projections:
            fired_pre = fired[projection.pre.name]
            if fired_pre.size:
                targets, weights = projection.synapses_of(fired_pre)
                rings[projection.post.name].enqueue(
                    targets, weights, projection.syn_type
                )
        for rule in network.plasticity_rules:
            rule.step(
                fired[rule.projection.pre.name],
                fired[rule.projection.post.name],
                dt,
            )
        simulator.router.rotate_all()
        simulator._step += 1
    return recorder

"""Spike delivery as a per-synapse loop: the accumulation-order contract.

``Projection.synapses_of`` + ``DelayRing.enqueue`` promise to accumulate
arrivals one at a time in the contract order — projections in network
order, fired neurons ascending, CSR synapse order within a neuron. :class:`DeliveryLoop`
is that sentence as three nested Python loops over per-synapse
``(pre, post, weight, delay)`` records into a dense ``(step, type,
neuron)`` array. A ring must equal it with ``==`` on float64, not
``allclose``: any other summation order shows in the last bits.
"""

import numpy as np


def csr_records(projection):
    """A projection's synapses as ``(pre, post, weight, delay)`` records,
    in CSR order, decoded from its tables."""
    return list(zip(
        projection.pre_of_synapses().tolist(), projection.post_idx.tolist(),
        np.asarray(projection.weights).tolist(), projection.delays.tolist(),
    ))


class DeliveryLoop:
    """The contract as nested loops: dense weights per step, and the
    lifetime number of arrivals (a ring's ``enqueued_events``).

    ``projections`` lists ``(syn_type, records)`` per projection, in
    network order, records in CSR order; steps run ``0 .. n_steps - 1``
    into a post population of ``n_types`` synapse types and ``post_n``
    neurons whose delays stay below ``depth``.
    """

    def __init__(self, projections, n_steps, depth, n_types, post_n):
        self.projections = projections
        horizon = n_steps + depth
        self.dense = np.zeros((horizon, n_types, post_n))
        self.arrivals = 0

    def inject(self, step, events):
        """Stimulus arrivals ``(syn_type, post, weight)`` at ``step``."""
        for syn_type, post, weight in events:
            self.dense[step, syn_type, post] += weight
            self.arrivals += 1

    def deliver(self, step, fired):
        """``fired[k]``: the pre-neurons of projection ``k`` that fired
        at ``step`` (any iterable; walked ascending)."""
        for (syn_type, records), neurons in zip(self.projections, fired):
            for neuron in sorted(neurons):
                for pre, post, weight, delay in records:
                    if pre == neuron:
                        self.dense[step + delay, syn_type, post] += weight
                        self.arrivals += 1

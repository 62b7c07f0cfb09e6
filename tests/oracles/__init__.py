"""Slow, obviously-right implementations the compiled paths are held to.

Each module keeps the step a lowering replaced, so tests can demand the
same bits and the same counters from the fast path:

* :mod:`tests.oracles.coo_build` — the whole-array network build (no
  streaming);
* :mod:`tests.oracles.delivery` — spike delivery as a per-synapse loop
  in the accumulation-order contract;
* :mod:`tests.oracles.eager_ring` — a delay ring that zeroes every
  consumed bucket (no clearing deferred to compaction);
* :mod:`tests.oracles.faults` — not an oracle but code that only
  checks other code: :class:`FaultInjector` flips state bits and
  poisons float state in a live simulation;
* :mod:`tests.oracles.folded_scan` — the folded hardware step that
  scans every saturation point (no range proof);
* :mod:`tests.oracles.pair_stdp` — the per-synapse pair-STDP step;
* :mod:`tests.oracles.unfused` — one runtime and one ``advance`` call
  per population (no fused blocks).
"""

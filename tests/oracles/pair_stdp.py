"""The per-synapse pair-STDP step, kept as the oracle for the compiled one.

This is the arithmetic :class:`repro.plasticity.PairSTDP` ran before it
stepped on a :class:`~repro.network.projection.SynapseIndex`: one
``exp`` per touched synapse, both updates applied in place, then a
separate clip pass over everything touched (so a synapse depressed and
potentiated in one step is clipped on its net value). Flat synapse sets
come from ``np.isin`` over the decoded tables — slow and obviously
right. The compiled rule must reproduce it bit for bit: weights, traces
and all three counters.
"""

import numpy as np


class ReferencePairSTDP:
    """Shadows an attached, not yet stepped rule on a copy of its weights."""

    def __init__(self, rule):
        projection = rule.projection
        self.rule = rule
        self.pre_of = projection.pre_of_synapses()
        self.post_of = projection.post_idx
        self.state = {
            "x_val": np.zeros(projection.pre.n),
            "x_last": np.zeros(projection.pre.n, dtype=np.int64),
            "y_val": np.zeros(projection.post.n),
            "y_last": np.zeros(projection.post.n, dtype=np.int64),
            "now": 0,
            "dt": None,
            "deferred_updates": 0,
            "applied_updates": 0,
            "trace_refreshes": 0,
            "steps_seen": 0,
            "weights": projection.weights.copy(),
        }

    def step(self, fired_pre, fired_post, dt):
        rule, state = self.rule, self.state
        state["dt"] = dt
        state["now"] += 1
        state["steps_seen"] += 1
        now, weights = state["now"], state["weights"]
        x_val, x_last = state["x_val"], state["x_last"]
        y_val, y_last = state["y_val"], state["y_last"]
        dep = np.flatnonzero(np.isin(self.pre_of, fired_pre))
        pot = np.flatnonzero(np.isin(self.post_of, fired_post))
        posts, pres = self.post_of[dep], self.pre_of[pot]
        weights[dep] -= rule.a_minus * (
            y_val[posts] * np.exp((y_last[posts] - now) * (dt / rule.tau_minus))
        )
        weights[pot] += rule.a_plus * (
            x_val[pres] * np.exp((x_last[pres] - now) * (dt / rule.tau_plus))
        )
        for fired, val, last, tau in (
            (fired_pre, x_val, x_last, rule.tau_plus),
            (fired_post, y_val, y_last, rule.tau_minus),
        ):
            val[fired] = val[fired] * np.exp((last[fired] - now) * (dt / tau)) + 1.0
            last[fired] = now
        for touched in (dep, pot):
            weights[touched] = np.clip(weights[touched], rule.w_min, rule.w_max)
        refreshes = dep.size + pot.size + fired_pre.size + fired_post.size
        state["applied_updates"] += dep.size + pot.size
        state["trace_refreshes"] += refreshes
        state["deferred_updates"] += max(x_val.size + y_val.size - refreshes, 0)

    def assert_matches(self):
        """The rule's :meth:`snapshot` equals the reference state, bit
        for bit and key for key."""
        snapshot = self.rule.snapshot()
        assert list(snapshot) == list(self.state)
        for key, expected in self.state.items():
            if isinstance(expected, np.ndarray):
                assert snapshot[key].dtype == expected.dtype, key
                assert snapshot[key].tobytes() == expected.tobytes(), key
            else:
                assert snapshot[key] == expected, key


def shadowed(rule):
    """Make every ``rule.step`` also step a :class:`ReferencePairSTDP`
    and compare the two; returns the reference."""
    reference = ReferencePairSTDP(rule)
    compiled_step = rule.step

    def step(fired_pre, fired_post, dt):
        compiled_step(fired_pre, fired_post, dt)
        reference.step(fired_pre, fired_post, dt)
        reference.assert_matches()

    rule.step = step
    return reference

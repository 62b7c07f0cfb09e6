"""A delay ring that zeroes every bucket it consumes: the eager reference.

:class:`EagerRing` keeps ``depth`` buckets in a wrapped array — the
layout a checkpoint carries — and clears the consumed bucket on every
rotation, so no bucket ever holds a stale sum. ``DelayRing`` clears
consumed buckets only when it compacts; everything a caller can read
(``current``, ``snapshot``, ``pending_weight``, ``enqueued_events``)
must be the same, bit for bit. It takes the same head-relative ring
targets ``delay * stride + post`` and adds in the same order.
"""

import numpy as np


class EagerRing:
    def __init__(self, n, n_synapse_types, max_delay):
        self.depth = max_delay + 1
        self.stride = n_synapse_types * n
        self.ring = np.zeros((self.depth, n_synapse_types, n))
        self.head = 0
        self.enqueued_events = 0

    def enqueue(self, targets, weights, syn_type):
        delay, post = np.divmod(targets.astype(np.int64), self.stride)
        bucket = (self.head + delay) % self.depth
        np.add.at(self.ring, (bucket, syn_type, post), weights)
        self.enqueued_events += targets.size

    def enqueue_now(self, post, weights, syn_type, events=0):
        if isinstance(post, slice):
            self.ring[self.head, syn_type, post] += weights
            self.enqueued_events += events
        else:
            np.add.at(self.ring[self.head, syn_type], post, weights)
            self.enqueued_events += post.size

    def current(self):
        return self.ring[self.head]

    def rotate(self):
        self.ring[self.head] = 0.0
        self.head = (self.head + 1) % self.depth

    def pending_weight(self):
        """The live buckets summed in the order they are consumed."""
        return float(np.roll(self.ring, -self.head, axis=0).sum())

    def snapshot(self):
        return {
            "ring": self.ring.copy(),
            "head": self.head,
            "enqueued_events": self.enqueued_events,
        }

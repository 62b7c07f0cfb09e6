"""The six benchmark workloads, as data.

Each workload pins a *regime* — which layer of the simulator does the
work — not just a network. ``shares`` are the stimulus / neuron /
synapse wall-clock fractions of the timed steps, measured on the commit
that introduced the benchmark; they record why the workload was chosen
and are not baselines. ``rates`` are loose per-population mean firing
rate bands in Hz (about [0.5x, 2x] of the rates on that commit over
twelve seeds, never zero) over the whole ``warmup_steps + steps`` run;
they catch a workload that went silent or exploded, not a changed
digest.

``warmup_steps`` is both the untimed in-process warm-up and the whole
of a CLI launch, so the two can be compared digest for digest. It ends
before the network's first synchronised volley where there is one
(``brunel-delivery``, ``brunel-stdp``): how far into the volley step
200 falls depends on the seed, step 150 is before it on every seed.
``steps`` ends before the second volley for the same reason.

``reps`` / ``launches`` / ``extra_setups`` are the counts of one 20 s
measurement (``NOMINAL_SECONDS``); ``--seconds`` scales them. They
differ per workload because a repetition's fixed cost differs and the
driver's whole schedule has to fit its time cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: The measurement length ``reps`` and ``launches`` are sized for.
NOMINAL_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    #: One-line reason this workload exists (copied to BENCHMARK.json).
    why: str
    #: Table I registry name, or None for a generated front-end spec.
    registry: Optional[str]
    backend: str
    scale: float
    #: Untimed in-process steps before the timed ``Simulator.run``;
    #: also all a CLI launch simulates.
    warmup_steps: int
    #: Timed in-process steps.
    steps: int
    reps: int
    launches: int
    #: Set-ups timed on their own after the repetitions, so ``setup_s``
    #: is a median of ``reps + extra_setups`` samples.
    extra_setups: int
    #: population -> (low, high) mean rate in Hz over the whole run.
    rates: Dict[str, Tuple[float, float]]
    #: stimulus / neuron / synapse shares at the introducing commit.
    shares: Tuple[float, float, float]
    #: MiB of touched pages kept in hand between measurements (see
    #: ``measure.HotPages``): about 1.2x the CLI child's peak RSS.
    hot_mb: int
    #: Whether the traced protocol also measures the program's own
    #: telemetry overhead (ABBA pairs; only where it is cheap enough
    #: or where hook dispatch is a visible share of the step).
    telemetry: bool = False

    @property
    def total_steps(self) -> int:
        return self.warmup_steps + self.steps


def brunel_stdp_spec(seed: int) -> dict:
    """The ``brunel-stdp`` front-end spec; ``seed`` is its only input.

    Brunel's network as ``repro.workloads.brunel`` builds it at scale
    1.0, with pair STDP on the recurrent excitatory projection.
    """
    exc = {"probability": 0.1, "weight": 0.4, "weight_std": 0.04,
           "syn_type": 0, "delay_steps": 10, "delay_jitter": 10}
    inh = {"probability": 0.1, "weight": -2.0, "weight_std": 0.2,
           "syn_type": 1, "delay_steps": 10, "delay_jitter": 10}
    return {
        "name": "brunel-stdp",
        "dt": 1e-4,
        "seed": seed,
        "backend": "reference",
        "solver": "Euler",
        "populations": [
            {"name": "exc", "n": 4000, "model": "IF_psc_alpha"},
            {"name": "inh", "n": 1000, "model": "IF_psc_alpha"},
        ],
        "projections": [
            {"pre": "exc", "post": "exc", **exc,
             "plasticity": {"rule": "pair_stdp"}},
            {"pre": "exc", "post": "inh", **exc},
            {"pre": "inh", "post": "exc", **inh},
            {"pre": "inh", "post": "inh", **inh},
        ],
        "stimuli": [
            {"kind": "poisson", "target": "exc", "rate_hz": 100.0,
             "weight": 0.4, "n_sources": 5, "syn_type": 0},
        ],
    }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="brunel-delivery",
            why="Brunel at scale 2 (10k neurons, 10M synapses): spike "
            "delivery (synapses_of gather + DelayRing.enqueue scatter) "
            "is 0.96 of the step; the synapse-phase rebuild must show here",
            registry="Brunel", backend="reference", scale=2.0,
            warmup_steps=150, steps=350, reps=3, launches=3, extra_setups=1,
            rates={"exc": (68.0, 274.0), "inh": (120.0, 490.0)},
            shares=(0.02, 0.02, 0.96), hot_mb=460,
        ),
        Workload(
            name="potjans-layered",
            why="Potjans-Diesmann at scale 2 (16k neurons, 12M synapses, "
            "8 populations, 21 projections, 4 Poisson stimuli): same "
            "routing layer, many small projections, stimulus heavy",
            registry="Potjans-Diesmann", backend="reference", scale=2.0,
            warmup_steps=200, steps=800, reps=4, launches=3, extra_setups=0,
            rates={"L23e": (11.0, 46.0), "L23i": (10.0, 48.0), "L4e": (7.0, 30.0),
                   "L4i": (5.0, 24.0), "L5e": (10.0, 54.0), "L6e": (10.0, 45.0)},
            shares=(0.31, 0.16, 0.53), hot_mb=370, telemetry=True,
        ),
        Workload(
            name="vogels-solver",
            why="Vogels et al. at scale 1 (10k neurons, 2M synapses) on "
            "RKF45: neuron-bound on the SolverRuntime path, bypasses "
            "delivery, so a synapse rebuild predicts no change",
            registry="Vogels et al.", backend="reference", scale=1.0,
            warmup_steps=200, steps=500, reps=5, launches=3, extra_setups=0,
            rates={"exc": (15.0, 60.0), "inh": (7.0, 29.0)},
            shares=(0.10, 0.79, 0.10), hot_mb=140,
        ),
        Workload(
            name="muller-folded",
            why="Muller et al. at scale 2 (3.5k neurons, 3M synapses) on "
            "the folded fixed-point backend (CLI default): the paper's "
            "own datapaths + microcode do the work",
            registry="Muller et al.", backend="folded", scale=2.0,
            warmup_steps=200, steps=1300, reps=4, launches=3, extra_setups=0,
            rates={"exc": (6.5, 27.0), "inh": (6.5, 27.0)},
            shares=(0.11, 0.83, 0.06), hot_mb=170,
        ),
        Workload(
            name="brunel-stdp",
            why="Brunel-shaped JSON spec generated from --seed (5k "
            "neurons, 2.5M synapses) with pair STDP on exc->exc: weight "
            "writes beside delivery reads; the only front-end workload",
            registry=None, backend="reference", scale=1.0,
            warmup_steps=150, steps=1050, reps=5, launches=3, extra_setups=0,
            rates={"exc": (23.0, 93.0), "inh": (37.0, 152.0)},
            shares=(0.06, 0.10, 0.84), hot_mb=160,
        ),
        Workload(
            name="brunel-small",
            why="Brunel at scale 0.05 (250 neurons, 7.9k synapses): fixed "
            "per-step cost (Python loop, hook dispatch, numpy dispatch) "
            "and per-run cost (import, ledger fsync) dominate",
            registry="Brunel", backend="reference", scale=0.05,
            warmup_steps=1000, steps=10000, reps=10, launches=8, extra_setups=40,
            rates={"exc": (29.0, 190.0), "inh": (17.0, 98.0)},
            shares=(0.12, 0.42, 0.46), hot_mb=0, telemetry=True,
        ),
    )
}

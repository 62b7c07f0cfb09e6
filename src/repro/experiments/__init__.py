"""The paper suite: one module, and one renderer, per evaluation artefact.

Every artefact module exposes the same two functions:

* ``run(...)`` computes the artefact's rows. Its defaults are the
  parameters the committed file was made with. Only the workload-level
  artefacts take ``scale`` and ``steps``, and Table III ``steps``
  (``takes``); the others refuse both.
* ``render(rows)`` turns those rows into the artefact's exact text.

``repro experiment NAME`` prints ``render(NAME)``, and
``tests/experiments/artefacts/NAME.txt`` holds the same bytes, so one
tier-1 test catches any drift between the program and the file. The
artefacts, in the order ``repro experiment all`` prints them:

* ``figure3`` — Table I plus the per-phase latency breakdown on the
  CPU and GPU models (Figure 3);
* ``figures4to8`` — the feature-behaviour sketches as fixed-point
  hardware traces;
* ``table3`` — the feature-combination matrix, verified by simulation;
* ``table5`` — folded-Flexon microprograms and cycle counts;
* ``figure12`` / ``table6`` — datapath, neuron and array area/power;
* ``figure13`` — latency and energy gains over CPU and GPU;
* ``validation`` — Section VI-A's spike comparison against the float
  reference;
* ``amdahl`` — end-to-end (whole-step) speedups;
* ``behaviors`` — Izhikevich-style behaviour regimes on the hardware;
* ``event_driven`` — the LLIF event-driven energy saving;
* ``stdp_learning`` — unsupervised STDP pattern learning on folded Flexon;
* ``ablation_*`` — fast exp, fixed-point width, folding and synapse-type
  ablations.

The map holds module paths, not modules, so parsing the CLI's choices
imports none of them.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Tuple

from repro.errors import ConfigurationError

ARTEFACTS = {
    "figure3": "repro.experiments.figure3",
    "figures4to8": "repro.experiments.figures4to8",
    "table3": "repro.experiments.table3",
    "table5": "repro.experiments.table5",
    "figure12": "repro.experiments.figure12",
    "table6": "repro.experiments.table6",
    "figure13": "repro.experiments.figure13",
    "validation": "repro.experiments.validation",
    "amdahl": "repro.experiments.amdahl",
    "behaviors": "repro.experiments.behaviors",
    "event_driven": "repro.experiments.event_driven",
    "stdp_learning": "repro.experiments.stdp_learning",
    "ablation_exp": "repro.experiments.ablation_exp",
    "ablation_fixedpoint": "repro.experiments.ablation_fixedpoint",
    "ablation_folding": "repro.experiments.ablation_folding",
    "ablation_synapse_types": "repro.experiments.ablation_synapse_types",
}


def artefact(name: str):
    """The module that computes and renders artefact ``name``."""
    return importlib.import_module(ARTEFACTS[name])


def takes(name: str) -> Tuple[str, ...]:
    """The parameters artefact ``name``'s ``run`` takes."""
    return tuple(inspect.signature(artefact(name).run).parameters)


def render(name: str, **params) -> str:
    """Artefact ``name``'s text.

    ``params`` (``scale``, ``steps``) override the defaults of its
    ``run``. One that ``run`` does not take is refused before anything
    is computed: it would otherwise leave the output unchanged.
    """
    for key in params:
        if key not in takes(name):
            raise ConfigurationError(f"experiment {name} takes no --{key}")
    module = artefact(name)
    return module.render(module.run(**params))

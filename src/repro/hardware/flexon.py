"""Baseline Flexon: the single-cycle flexible digital neuron (Figure 10).

All per-feature data paths evaluate in parallel within one cycle;
multiplexers gate the conflicting ones (QDI vs EXI, EXD vs LID) and
latches switch unused paths off. This functional model evaluates the
enabled data paths in the canonical order shared with the folded
microcode (see :mod:`repro.hardware.microcode`), making the two designs
bit-identical — the property Section V-B's control signals must
guarantee.

State lives in raw fixed point, in the register file both designs
share (:class:`FlexonNeuron` owns it; the folded array subclasses it and
brings only its own step), so views, read-out and checkpoints are one
implementation and a payload of either design has one layout. Between
steps the membrane potential is written back through the *truncate*
optimisation (Section IV-B1): with ``theta = 1.0`` the integer portion
is mostly redundant, so storage narrows from the 32-bit datapath
format to a 24-bit membrane format (sign + 1 integer bit + 22 fraction
bits; the paper quotes 22 bits assuming non-negative potentials — we
keep a sign bit because reversal synapses legitimately pull below rest,
and document the delta).
"""

from __future__ import annotations

import copy
from typing import Dict, Optional

import numpy as np

from repro.errors import SimulationError
from repro.features import Feature, FeatureSet
from repro.fixedpoint import MEMBRANE_FORMAT, FixedFormat, fx_add, fx_saturate
from repro.hardware import datapaths as dp
from repro.hardware.constants import NeuronConstants
from repro.hardware.control import N_STATE_REGISTERS, STATE_NAMES


class FlexonNeuron:
    """A vectorised array of baseline Flexon neurons (one model).

    ``step`` performs what one hardware cycle performs for each neuron:
    consume the accumulated (already weight-pre-scaled, quantised)
    input, update all state, and report fired neurons.

    The array owns the register file both designs share: ``regs``, the
    state registers Table IV's ``s`` selects (:mod:`~repro.hardware.
    control`'s layout), and ``cnt`` (``None`` without AR); ``state``
    names their rows in :meth:`FeatureSet.state_variables` order. They
    are only ever written in place, so a :meth:`view`, a restore and an
    injected fault all land in the rows the next step reads.
    """

    #: Cycles one neuron update occupies (the single-cycle design).
    cycles_per_neuron = 1

    def __init__(
        self,
        features: FeatureSet,
        constants: NeuronConstants,
        n: int,
        membrane_format: Optional[FixedFormat] = MEMBRANE_FORMAT,
    ):
        self.features = features
        self.constants = constants
        self.n = n
        self.membrane_format = membrane_format
        self.regs = np.zeros((N_STATE_REGISTERS, n), dtype=np.int64)
        self.cnt = np.zeros(n, dtype=np.int64) if Feature.AR in features else None
        self.state = self._name_rows()
        #: Time steps executed so far (a view reads its block's).
        self.steps = 0
        #: The array a :meth:`view` is cut from; ``None`` for an array.
        self.block: Optional["FlexonNeuron"] = None
        # What ``step`` accepts; a view accepts nothing.
        self._input_shape = (constants.n_synapse_types, n)

    def _name_rows(self) -> Dict[str, np.ndarray]:
        row = {name: s for s, name in STATE_NAMES.items()}
        return {
            name: self.cnt if name == "cnt" else self.regs[row[name]]
            for name in self.features.state_variables(
                self.constants.n_synapse_types
            )
        }

    def _refuse(self, raw_inputs: np.ndarray) -> SimulationError:
        if self.block is not None:
            return SimulationError(
                "these neurons are columns of a larger array; step the array"
            )
        return SimulationError(
            f"expected inputs of shape {self._input_shape}, "
            f"got {raw_inputs.shape}"
        )

    # -- one hardware cycle -----------------------------------------------

    def step(self, raw_inputs: np.ndarray) -> np.ndarray:
        """Advance every neuron one time step; return the fired mask.

        ``raw_inputs`` has shape ``(n_synapse_types, n)`` and carries
        the accumulated synaptic weights as raw fixed-point integers,
        already pre-scaled by the back-end's weight scale.
        """
        if raw_inputs.shape != self._input_shape:
            raise self._refuse(raw_inputs)
        c = self.constants
        f = self.features
        fmt = c.fmt
        v = self.state["v"]

        # AR input gating (Figure 9i)
        if Feature.AR in f:
            gated = dp.ArPath.gate(raw_inputs, self.cnt)
        else:
            gated = raw_inputs

        # 1. membrane decay + CUB inputs
        has_cub = f.accumulation_kernel is Feature.CUB
        if Feature.EXD in f:
            acc = dp.CubExdLidPath.exd(v, c)
        else:
            acc = dp.CubExdLidPath.lid(v, c)
        if has_cub:
            for i in range(c.n_synapse_types):
                acc = fx_add(acc, dp.CubExdLidPath.cub(gated[i], c), fmt)

        # 2. conductance kernels (+ reversal coupling)
        use_rev = Feature.REV in f
        for i in range(c.n_synapse_types):
            if Feature.COBA in f:
                g_new, y_new = dp.CobaPath.update(
                    self.state[f"g{i}"], self.state[f"y{i}"], gated[i], i, c
                )
                self.state[f"g{i}"][...] = g_new
                self.state[f"y{i}"][...] = y_new
            elif Feature.COBE in f:
                g_new = dp.CobePath.update(self.state[f"g{i}"], gated[i], i, c)
                self.state[f"g{i}"][...] = g_new
            else:
                continue
            if use_rev:
                acc = fx_add(acc, dp.RevPath.contribution(v, g_new, i, c), fmt)
            else:
                acc = fx_add(acc, g_new, fmt)

        # 3. spike-triggered current
        owner = f.w_owner
        if owner is Feature.RR:
            w_new, r_new, contribution = dp.RrPath.update(
                self.state["w"], self.state["r"], v, c
            )
            self.state["w"][...] = w_new
            self.state["r"][...] = r_new
            acc = fx_add(acc, contribution, fmt)
        elif owner is Feature.SBT:
            w_new = dp.SbtPath.update(self.state["w"], v, c)
            self.state["w"][...] = w_new
            acc = fx_add(acc, w_new, fmt)
        elif owner is Feature.ADT:
            w_new = dp.AdtPath.decay(self.state["w"], c)
            self.state["w"][...] = w_new
            acc = fx_add(acc, w_new, fmt)

        # 4. spike initiation (EXI placed at the top of the adder tree,
        # the critical-path optimisation of Section IV-B1)
        if Feature.QDI in f:
            acc = fx_add(acc, dp.QdiPath.contribution(v, c), fmt)
        elif Feature.EXI in f:
            acc = fx_add(acc, dp.ExiPath.contribution(v, c), fmt)

        # 5. fire, reset, write back
        fired = acc > c.threshold
        v_next = np.where(fired, np.int64(c.v_reset), acc)
        if self.membrane_format is not None:
            v_next = fx_saturate(v_next, self.membrane_format)
        v[...] = v_next
        # RR-mode jumps grow the reversal-coupled w/r conductances (see
        # the FeatureModel.step commentary); direct-coupled w shrinks.
        if owner is Feature.RR:
            self.state["w"] += np.where(fired, c.b, 0)
            self.state["r"] += np.where(fired, c.q_r, 0)
        elif owner is not None:
            self.state["w"] -= np.where(fired, c.b, 0)
        if Feature.AR in f:
            cnt = self.cnt
            cnt[...] = dp.ArPath.tick(cnt)
            cnt[fired] = c.cnt_max
        self.steps += 1
        return fired

    # -- the register file, shared with the folded design ----------------------

    @property
    def total_cycles(self) -> int:
        """Cycles consumed so far by these neurons."""
        return (self.block or self).steps * self.n * self.cycles_per_neuron

    def view(self, lo: int, hi: int) -> "FlexonNeuron":
        """Neurons ``lo:hi`` as an array of their own over the same
        registers: read-out, checkpoints and faults see exactly these
        neurons, the step count reads through, only the array steps."""
        view = copy.copy(self)
        del view.steps
        view.block, view.n, view._input_shape = self, hi - lo, None
        view.regs = self.regs[:, lo:hi]
        view.cnt = None if self.cnt is None else self.cnt[lo:hi]
        view.state = view._name_rows()
        return view

    def float_state(self) -> Dict[str, np.ndarray]:
        """The state as floats, named like the models' (for recording)."""
        scale = self.constants.fmt.scale
        return {
            name: raw.astype(np.float64) / (1 if name == "cnt" else scale)
            for name, raw in self.state.items()
        }

    def snapshot(self) -> Dict[str, object]:
        """Copies of the register file (checkpointing)."""
        return {
            "regs": self.regs.copy(),
            "cnt": None if self.cnt is None else self.cnt.copy(),
            "total_cycles": self.total_cycles,
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Overwrite the register file from a :meth:`snapshot`."""
        keys = sorted(snapshot) if isinstance(snapshot, dict) else snapshot
        if keys != ["cnt", "regs", "total_cycles"]:
            raise SimulationError(
                f"snapshot {keys!r} is not a Flexon register file "
                "(expected keys ['cnt', 'regs', 'total_cycles'])"
            )
        regs = np.asarray(snapshot["regs"], dtype=np.int64)
        if regs.shape != self.regs.shape:
            raise SimulationError(
                f"snapshot register shape {regs.shape} does not match "
                f"{self.regs.shape}"
            )
        cnt = snapshot["cnt"]
        if (cnt is None) != (self.cnt is None) or (
            cnt is not None and np.shape(cnt) != self.cnt.shape
        ):
            raise SimulationError(
                "snapshot refractory counter does not match this model"
            )
        # In place: steps and views hold these rows.
        self.regs[...] = regs
        if cnt is not None:
            self.cnt[...] = cnt
        (self.block or self).steps = int(snapshot["total_cycles"]) // max(
            1, self.n * self.cycles_per_neuron
        )

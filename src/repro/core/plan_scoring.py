"""Cheap candidate-plan scoring straight from a reduction sequence.

The compiler's recombination stage and the subgraph order search both rank
many candidate reductions by the paper's hardware-aware objective

``(#emitter-emitter CNOTs, average photon-loss duration, duration)``

and historically paid for every candidate by materialising the full forward
:class:`~repro.circuit.circuit.Circuit` and running
:func:`~repro.circuit.metrics.compute_metrics` (one gate object, one schedule
entry and one dataclass per gate, per candidate).  Only the *winning*
candidate ever needs the circuit.

:func:`score_sequence` computes the identical objective tuple directly from
the operation sequence: it expands each reversed operation into the exact
gate list :func:`~repro.core.reduction.forward_circuit_from_sequence` would
emit — as flat tuples over int qubit keys — and replays the same
ALAP dependency-list recurrences as
:func:`repro.circuit.timing.schedule_circuit` (ALAP is the framework's only
scheduling policy).  The floating-point
arithmetic is performed in the same order, so the scores are **bit-identical**
to the metrics of the materialised circuit and candidate selection is
unchanged; only the per-candidate cost drops (no object churn, one dict
walk per pass).
"""

from __future__ import annotations

from typing import Sequence

from repro.circuit.timing import GateDurations
from repro.core.reduction import ReductionOp, ReductionOpType, ReductionSequence

__all__ = ["score_sequence"]

_SWAP = ReductionOpType.SWAP
_ABSORB_LEAF = ReductionOpType.ABSORB_LEAF
_ABSORB_DANGLING = ReductionOpType.ABSORB_DANGLING
_ABSORB_TWIN = ReductionOpType.ABSORB_TWIN
_DISCONNECT = ReductionOpType.DISCONNECT
_EMIT_ISOLATED = ReductionOpType.EMIT_ISOLATED
_FREE_EMITTER = ReductionOpType.FREE_EMITTER


def _expanded_gates(
    operations: Sequence[ReductionOp], durations: GateDurations
) -> tuple[list[tuple[int, int | None, float, int | None]], int]:
    """The forward gate list and its emitter-emitter gate count.

    Each gate is ``(qubit, second qubit or None, duration, emitted photon or
    None)``; it mirrors :func:`repro.core.reduction.forward_circuit_from_sequence`
    gate for gate, with the operands the scheduler sees (conditional-Pauli
    operands included).  Qubits are ints: emitter ``e`` is ``e`` and photon
    ``p`` is ``~p``, so the two never collide.  The emitted photon is set on
    ``EMIT`` gates only.
    """
    emit = durations.emission
    e1 = durations.emitter_single_qubit
    p1 = durations.photon_single_qubit
    meas = durations.measurement
    cz = durations.emitter_emitter_gate
    gates: list[tuple[int, int | None, float, int | None]] = []
    add = gates.append
    cnots = 0
    for kind, e, e_b, photon, _ in reversed(operations):
        if kind is _DISCONNECT:
            add((e, e_b, cz, None))
            cnots += 1
        elif kind is _FREE_EMITTER:
            add((e, None, e1, None))
        else:
            p = ~photon
            if kind is _SWAP:
                add((e, p, emit, photon))
                add((e, None, e1, None))
                # MEASURE_Z with a conditional Z on the photon: the photon is
                # an operand of the measurement for scheduling purposes.
                add((e, p, meas, None))
            elif kind is _ABSORB_LEAF or kind is _EMIT_ISOLATED:
                add((e, p, emit, photon))
                add((p, None, p1, None))
            elif kind is _ABSORB_DANGLING:
                add((e, p, emit, photon))
                add((e, None, e1, None))
            elif kind is _ABSORB_TWIN:
                add((e, None, e1, None))
                add((e, p, emit, photon))
                add((p, None, p1, None))
                add((e, None, e1, None))
            else:  # pragma: no cover - the enum is closed
                raise ValueError(f"unknown reduction operation {kind!r}")
    return gates, cnots


def score_sequence(
    sequence: ReductionSequence | Sequence[ReductionOp],
    durations: GateDurations | None = None,
    cnot_cutoff: float | None = None,
) -> tuple[float, float, float] | None:
    """The plan-selection key of ``sequence`` without building its circuit.

    Returns ``(num_emitter_emitter_cnots, average_photon_loss_duration,
    duration)`` — bit-identical to the corresponding fields of
    ``compute_metrics(sequence.to_circuit(), durations=durations,
    policy="alap")``, at a fraction of the cost.

    Parameters
    ----------
    sequence : ReductionSequence | Sequence[ReductionOp]
        A complete reduction (as returned by ``finish``/``greedy_reduce``),
        or the operation list of one: the leaf-order search scores its
        state's live list and builds a sequence only for a new incumbent.
    durations : GateDurations | None, optional
        Hardware gate durations; ``None`` uses the quantum-dot defaults.
    cnot_cutoff : float | None, optional
        When given and the sequence has *strictly more* emitter-emitter
        CNOTs, return ``None`` without running the schedule walk.  The CNOT
        count is the leading component of the lexicographic key, so a
        candidate above the cutoff can never win — callers pass their
        current best's count to skip the schedule for most losers.
    """
    if durations is None:
        durations = GateDurations()
    operations = (
        sequence.operations if isinstance(sequence, ReductionSequence) else sequence
    )
    gates, cnots = _expanded_gates(operations, durations)
    if cnot_cutoff is not None and cnots > cnot_cutoff:
        return None

    # ASAP pass for the makespan: the recurrence of schedule_circuit, with
    # max/min over a gate's one or two operands spelled out (same values,
    # same float operations).
    ready: dict[int, float] = {}
    get = ready.get
    makespan = 0.0
    for a, b, duration, _ in gates:
        start = get(a, 0.0)
        if b is not None:
            other = get(b, 0.0)
            if other > start:
                start = other
            end = start + duration
            ready[b] = end
        else:
            end = start + duration
        ready[a] = end
        if end > makespan:
            makespan = end

    # ALAP pass: schedule the reversed circuit ASAP, then mirror.  Only the
    # earliest start, the latest end and the emission ends are kept.
    ready = {}
    get = ready.get
    lowest_start = 0.0  # the shift below applies only to a negative start
    latest_end = 0.0 if not gates else -float("inf")
    emission_ends: list[tuple[int, float]] = []  # reversed gate order
    for a, b, duration, photon in reversed(gates):
        end = get(a, makespan)
        if b is not None:
            other = get(b, makespan)
            if other < end:
                end = other
            start = end - duration
            ready[b] = start
        else:
            start = end - duration
        ready[a] = start
        if start < lowest_start:
            lowest_start = start
        if end > latest_end:
            latest_end = end
        if photon is not None:
            emission_ends.append((photon, end))
    shift = -lowest_start
    if shift > 0:
        # Rounding is monotone, so max(e + shift) == max(e) + shift exactly.
        latest_end = latest_end + shift
        emission_ends = [(photon, end + shift) for photon, end in emission_ends]
    final_makespan = latest_end

    # Average photon-loss duration, accumulated in gate order exactly like
    # Schedule.emission_times() / photon_exposure_times().
    emission_end: dict[int, float] = {}
    for photon, end in reversed(emission_ends):
        emission_end[photon] = end
    if emission_end:
        average_loss = sum(
            final_makespan - t for t in emission_end.values()
        ) / len(emission_end)
    else:
        average_loss = 0.0

    return (float(cnots), average_loss, final_makespan)

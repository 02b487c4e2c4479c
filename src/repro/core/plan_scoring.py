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
emit — as bare ``(operands, duration)`` tuples — and replays the same
ALAP dependency-list recurrences as
:func:`repro.circuit.timing.schedule_circuit` (ALAP is the framework's only
scheduling policy).  The floating-point
arithmetic is performed in the same order, so the scores are **bit-identical**
to the metrics of the materialised circuit and candidate selection is
unchanged; only the per-candidate cost drops (no object churn, one dict
walk).
"""

from __future__ import annotations

from repro.circuit.timing import GateDurations
from repro.core.reduction import ReductionOpType, ReductionSequence

__all__ = ["score_sequence"]


def _expanded_gates(
    sequence: ReductionSequence, durations: GateDurations
) -> list[tuple[tuple[tuple[str, int], ...], float, int | None]]:
    """The forward gate list as ``(operand keys, duration, emitted photon)``.

    Mirrors :func:`repro.core.reduction.forward_circuit_from_sequence` gate
    for gate; operand keys match :func:`repro.circuit.timing._qubit_key`
    (conditional-Pauli operands included, exactly as the scheduler sees
    them).  ``emitted photon`` is set on ``EMIT`` entries only.
    """
    emit = durations.emission
    e1 = durations.emitter_single_qubit
    p1 = durations.photon_single_qubit
    meas = durations.measurement
    cz = durations.emitter_emitter_gate
    gates: list[tuple[tuple[tuple[str, int], ...], float, int | None]] = []
    for op in reversed(sequence.operations):
        e = ("emitter", op.emitter) if op.emitter is not None else None
        p = ("photon", op.photon) if op.photon is not None else None
        kind = op.op_type
        if kind is ReductionOpType.SWAP:
            gates.append(((e, p), emit, op.photon))
            gates.append(((e,), e1, None))
            # MEASURE_Z with a conditional Z on the photon: the photon is an
            # operand of the measurement for scheduling purposes.
            gates.append(((e, p), meas, None))
        elif kind is ReductionOpType.ABSORB_LEAF:
            gates.append(((e, p), emit, op.photon))
            gates.append(((p,), p1, None))
        elif kind is ReductionOpType.ABSORB_DANGLING:
            gates.append(((e, p), emit, op.photon))
            gates.append(((e,), e1, None))
        elif kind is ReductionOpType.ABSORB_TWIN:
            gates.append(((e,), e1, None))
            gates.append(((e, p), emit, op.photon))
            gates.append(((p,), p1, None))
            gates.append(((e,), e1, None))
        elif kind is ReductionOpType.DISCONNECT:
            gates.append(((e, ("emitter", op.emitter_b)), cz, None))
        elif kind is ReductionOpType.EMIT_ISOLATED:
            gates.append(((e, p), emit, op.photon))
            gates.append(((p,), p1, None))
        elif kind is ReductionOpType.FREE_EMITTER:
            gates.append(((e,), e1, None))
        else:  # pragma: no cover - the enum is closed
            raise ValueError(f"unknown reduction operation {op!r}")
    return gates


def score_sequence(
    sequence: ReductionSequence,
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
    sequence : ReductionSequence
        A complete reduction (as returned by ``finish``/``greedy_reduce``).
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

    cnots = float(sequence.num_emitter_emitter_gates)
    if cnot_cutoff is not None and cnots > cnot_cutoff:
        return None

    gates = _expanded_gates(sequence, durations)

    # ASAP pass for the makespan (same recurrence as schedule_circuit, same
    # float order).
    ready: dict[tuple[str, int], float] = {}
    makespan = 0.0
    for operands, duration, _ in gates:
        start = max((ready.get(q, 0.0) for q in operands), default=0.0)
        end = start + duration
        makespan = max(makespan, end)
        for q in operands:
            ready[q] = end

    # ALAP pass: schedule the reversed circuit ASAP, then mirror.
    ready = {}
    end_times = [0.0] * len(gates)
    for i in range(len(gates) - 1, -1, -1):
        operands, duration, _ = gates[i]
        end = min((ready.get(q, makespan) for q in operands), default=makespan)
        end_times[i] = end
        start = end - duration
        for q in operands:
            ready[q] = start
    alap_start = [e - d for e, (_, d, _) in zip(end_times, gates)]
    shift = -min(alap_start, default=0.0)
    if shift > 0:
        end_times = [e + shift for e in end_times]
    final_makespan = max(end_times, default=0.0)

    # Average photon-loss duration, accumulated in gate order exactly like
    # Schedule.emission_times() / photon_exposure_times().
    emission_end: dict[int, float] = {}
    for (_, _, photon), end in zip(gates, end_times):
        if photon is not None:
            emission_end[photon] = end
    if emission_end:
        average_loss = sum(
            final_makespan - t for t in emission_end.values()
        ) / len(emission_end)
    else:
        average_loss = 0.0

    return (cnots, average_loss, final_makespan)

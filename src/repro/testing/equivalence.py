"""Cross-backend equivalence: the invariant class gating the fast path.

A candidate backend — the vectorized fast path (DESIGN.md §15) or the
multiprocess backend (DESIGN.md §16, real worker processes with
measured CPU/IPC costs) — only earns its place if it is
*indistinguishable* from the discrete-event reference on everything the
paper's evaluation measures. This module turns that into machine-
checked invariants over two :class:`~repro.engine.backends.
BackendResult` objects; the same tiers apply to every candidate, and
:func:`run_equivalence` takes ``candidate=`` to pick which one runs
against the reference. A candidate's ``measured`` field (real costs,
multiprocess only) is carried through untouched — it has no modeled
counterpart to compare against, so it is reported, not gated.

**Exact invariants** (any mismatch is a violation):

- spout-emitted tuple count;
- per-operator processed totals;
- per-key state totals per stateful operator (conservation: every
  tuple counted exactly once, wherever it was routed);
- per-key final placements and per-instance received counts, when the
  topology routes deterministically (``exact_placements`` /
  ``exact_received`` — hybrid/PKG streams make load-dependent picks,
  so there callers relax these two to the containment guarantee the
  backends do share: identical totals, placements within the member
  set).

**Tolerance invariants** (the backends model time differently, so
load-dependent routing may diverge within bounds):

- overall and per-stream locality within ``locality_tol`` (absolute);
- per-operator load balance within ``balance_tol`` (relative).

A third, backend-internal invariant — the reference adapter must not
perturb the DES — is checked by comparing same-seed event fingerprints
against a direct ``deploy``/``run`` (see
:func:`reference_fingerprint_unchanged`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional

from repro.errors import DeploymentError
from repro.testing.invariants import Violation

if TYPE_CHECKING:
    from repro.engine.backends import ReconfigureAction


@dataclass
class EquivalenceReport:
    """Outcome of one cross-backend comparison."""

    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def _add(self, invariant: str, detail: str) -> None:
        self.violations.append(Violation(invariant, detail, at_s=0.0))

    def summary(self) -> str:
        if self.ok:
            return "equivalent"
        return "; ".join(
            f"{v.invariant}: {v.detail}" for v in self.violations
        )


def compare_backends(
    reference,
    candidate,
    *,
    locality_tol: float = 0.02,
    balance_tol: float = 0.15,
    exact_placements: bool = True,
    exact_received: bool = True,
) -> EquivalenceReport:
    """Check ``candidate`` against ``reference`` (both
    :class:`~repro.engine.backends.BackendResult`); returns a report
    whose violations name every broken invariant.

    Set ``exact_placements=False`` / ``exact_received=False`` for
    topologies with load-dependent routing (hybrid split sets, PKG):
    those streams guarantee per-key totals and member-set containment,
    not a reproducible instance sequence.
    """
    report = EquivalenceReport()

    if reference.tuples_emitted != candidate.tuples_emitted:
        report._add(
            "emitted_total",
            f"reference emitted {reference.tuples_emitted}, "
            f"{candidate.backend} emitted {candidate.tuples_emitted}",
        )

    for op in sorted(reference.processed):
        ref_n = reference.processed[op]
        cand_n = candidate.processed.get(op)
        if ref_n != cand_n:
            report._add(
                "processed_total",
                f"{op}: reference processed {ref_n}, "
                f"{candidate.backend} processed {cand_n}",
            )

    for op in sorted(reference.per_key_totals):
        ref_totals = reference.per_key_totals[op]
        cand_totals = candidate.per_key_totals.get(op, {})
        if ref_totals != cand_totals:
            only_ref = set(ref_totals) - set(cand_totals)
            only_cand = set(cand_totals) - set(ref_totals)
            diffs = [
                key
                for key in set(ref_totals) & set(cand_totals)
                if ref_totals[key] != cand_totals[key]
            ]
            report._add(
                "per_key_totals",
                f"{op}: {len(diffs)} keys differ, "
                f"{len(only_ref)} only in reference, "
                f"{len(only_cand)} only in {candidate.backend} "
                f"(sample: {sorted(map(repr, diffs))[:3]})",
            )

    if exact_placements:
        for op in sorted(reference.key_instances):
            ref_where = reference.key_instances[op]
            cand_where = candidate.key_instances.get(op, {})
            if ref_where != cand_where:
                diffs = [
                    key
                    for key in set(ref_where) | set(cand_where)
                    if ref_where.get(key) != cand_where.get(key)
                ]
                report._add(
                    "key_placements",
                    f"{op}: {len(diffs)} keys placed differently "
                    f"(sample: {sorted(map(repr, diffs))[:3]})",
                )

    if exact_received:
        for op in sorted(reference.received):
            if reference.received[op] != candidate.received.get(op):
                report._add(
                    "received_per_instance",
                    f"{op}: reference {reference.received[op]}, "
                    f"{candidate.backend} {candidate.received.get(op)}",
                )

    delta = abs(reference.locality - candidate.locality)
    if delta > locality_tol:
        report._add(
            "locality",
            f"overall locality differs by {delta:.4f} "
            f"(reference {reference.locality:.4f}, "
            f"{candidate.backend} {candidate.locality:.4f}, "
            f"tol {locality_tol})",
        )
    for stream in sorted(reference.stream_locality):
        ref_loc = reference.stream_locality[stream]
        cand_loc = candidate.stream_locality.get(stream)
        if cand_loc is None or abs(ref_loc - cand_loc) > locality_tol:
            report._add(
                "stream_locality",
                f"{stream}: reference {ref_loc:.4f}, "
                f"{candidate.backend} {cand_loc}",
            )

    for op in sorted(reference.load_balance):
        ref_bal = reference.load_balance[op]
        cand_bal = candidate.load_balance.get(op)
        if cand_bal is None or abs(cand_bal - ref_bal) > balance_tol * max(
            ref_bal, 1.0
        ):
            report._add(
                "load_balance",
                f"{op}: reference {ref_bal:.4f}, "
                f"{candidate.backend} {cand_bal} (tol {balance_tol})",
            )

    return report


def script(manager) -> List["ReconfigureAction"]:
    """What ``manager`` committed, as the actions a batch backend
    replays (DESIGN.md §15.3): per committed round, one per stream of
    its plan, carrying the table the data plane routed by
    (``Manager.wire_table``), at the round's ``swapped_at_tuples``, and
    with ``parallelism`` on a rescale round. Skipped and vetoed rounds
    replay as nothing. Raises DeploymentError, naming the round, for an
    aborted or unfinished round: the state it migrated stays where it
    landed.
    """
    from repro.engine.backends import ReconfigureAction

    actions = []
    for record in manager.rounds:
        if record.skipped or record.vetoed:
            continue
        if record.completed_at is None:
            raise DeploymentError(
                f"round {record.round_id} did not commit "
                f"({record.abort_reason or 'still in flight'}); the state "
                f"it migrated stays where it landed, which a batch "
                f"backend cannot replay"
            )
        actions.extend(
            ReconfigureAction(
                record.swapped_at_tuples,
                stream,
                manager.wire_table(table),
                record.rescale_to,
            )
            for stream, table in record.plan.tables.items()
        )
    return actions


def run_equivalence(
    topology_factory,
    *,
    reference_options=None,
    candidate_options=None,
    candidate: str = "vectorized",
    locality_tol: float = 0.02,
    balance_tol: float = 0.15,
    exact_placements: bool = True,
    exact_received: bool = True,
):
    """Run the same (finite!) topology on the reference backend and on
    ``candidate``, and compare. ``topology_factory`` is called once per
    backend — each run needs fresh operator state.

    When the reference options attach a manager, the candidate
    replays :func:`script` of it; its own ``actions`` must be empty.

    Returns ``(report, reference_result, candidate_result)``.
    """
    from repro.engine.backends import BackendOptions, run_topology

    ref = run_topology(
        topology_factory(),
        "reference",
        reference_options or BackendOptions(),
    )
    candidate_options = candidate_options or BackendOptions()
    manager = ref.handle.manager
    if manager is not None:
        if candidate_options.actions:
            raise DeploymentError(
                "the reference run's manager scripts the candidate; "
                "pass no actions"
            )
        candidate_options = replace(candidate_options, actions=script(manager))
    cand = run_topology(topology_factory(), candidate, candidate_options)
    report = compare_backends(
        ref,
        cand,
        locality_tol=locality_tol,
        balance_tol=balance_tol,
        exact_placements=exact_placements,
        exact_received=exact_received,
    )
    return report, ref, cand


def reference_fingerprint_unchanged(
    topology_factory, options=None
) -> Optional[Violation]:
    """Check the backend seam itself is inert: running a topology
    through the ``reference`` adapter must yield the same event
    fingerprint as a direct ``deploy``/``run`` of the DES — proof the
    refactor added nothing to the simulator hot path.

    Returns None when the fingerprints match, a Violation otherwise.
    """
    from repro.engine.backends import BackendOptions, run_topology
    from repro.engine.cluster import Cluster
    from repro.engine.runner import deploy
    from repro.engine.simulator import Simulator
    from repro.engine.backends import _default_servers

    options = options or BackendOptions()
    via_backend = run_topology(
        topology_factory(),
        "reference",
        replace(options, fingerprint=True),
    )

    topology = topology_factory()
    sim = Simulator()
    sim.enable_fingerprint()
    cluster = Cluster(
        sim,
        _default_servers(topology, options),
        bandwidth_gbps=options.bandwidth_gbps,
        latency_s=options.latency_s,
    )
    deployment = deploy(
        sim,
        cluster,
        topology,
        costs=options.costs,
        max_pending=options.max_pending,
    )
    if options.on_deployed is not None:
        options.on_deployed(deployment)
    deployment.start()
    sim.run()

    if via_backend.fingerprint != sim.fingerprint:
        return Violation(
            "reference_fingerprint",
            f"backend adapter fingerprint {via_backend.fingerprint} != "
            f"direct DES fingerprint {sim.fingerprint}",
            at_s=0.0,
        )
    return None

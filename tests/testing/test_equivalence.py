"""Cross-backend equivalence: the gate on the vectorized fast path.

Three workload families, each run on both backends from identical
finite inputs:

- **fig13-quick** (Flickr two-stage counting): per-key totals, key
  placements and received counts must match *exactly*; locality and
  balance identically (deterministic routing end to end);
- **skew** (table / hash / hybrid policies): table and hash are exact;
  hybrid relaxes placements to member-set containment (the d-choices
  pick is load-dependent) while totals stay exact;
- **rescale**: a real DES ``Manager.rescale`` episode, and generated
  rescale episodes with periodic rounds, each replayed on the fast
  backends by :func:`~repro.testing.equivalence.script` (every
  committed round at the tuple offset of the DES's first spout swap):
  per-key totals and placements exact; ``script`` refuses an aborted
  round, and a run without a manager replays nothing.

Plus the seam-inertness check: running the DES through the reference
adapter must not change same-seed event fingerprints.
"""

import math
import random

import pytest

from repro.core import Manager, ManagerConfig
from repro.engine import CountBolt, TableFieldsGrouping, TopologyBuilder
from repro.engine.backends import (
    BackendOptions,
    ReconfigureAction,
    available_backends,
    run_topology,
)
from repro.engine.operators import IteratorSpout
from repro.errors import DeploymentError
from repro.testing import (
    RngTree,
    compare_backends,
    generate_config,
    reference_fingerprint_unchanged,
    run_equivalence,
)
from repro.testing.episode import attempt_rescale
from repro.workloads.flickr import FlickrWorkload
from repro.workloads.pairs import PairsConfig, PairsWorkload
from repro.workloads.skew import SkewConfig, SkewWorkload


STRICT = dict(locality_tol=1e-9, balance_tol=1e-9)


def test_both_backends_registered():
    assert {"reference", "vectorized"} <= set(available_backends())


class TestFig13Quick:
    @pytest.mark.parametrize("padding", [0, 4000])
    def test_flickr_pipeline_equivalent(self, padding):
        workload = FlickrWorkload()
        report, ref, vec = run_equivalence(
            lambda: workload.topology(
                parallelism=4, padding=padding, tuples_per_instance=400
            ),
            locality_tol=1e-9,  # deterministic: must match exactly
            balance_tol=1e-9,
        )
        assert report.ok, report.summary()
        assert ref.per_key_totals["A"] == vec.per_key_totals["A"]
        assert ref.per_key_totals["B"] == vec.per_key_totals["B"]
        assert ref.tuples_emitted == vec.tuples_emitted > 0

    def test_batch_size_does_not_change_results(self):
        workload = FlickrWorkload()
        make = lambda: workload.topology(
            parallelism=3, padding=0, tuples_per_instance=300
        )
        small = run_topology(
            make(), "vectorized", BackendOptions(batch_size=7)
        )
        large = run_topology(
            make(), "vectorized", BackendOptions(batch_size=4096)
        )
        assert small.per_key_totals == large.per_key_totals
        assert small.key_instances == large.key_instances
        assert small.received == large.received


class TestSkewPolicies:
    @pytest.mark.parametrize("policy", ["table", "hash"])
    def test_deterministic_policies_exact(self, policy):
        report, _, _ = run_equivalence(
            lambda: SkewWorkload(
                SkewConfig(parallelism=4, tuples_per_instance=1500)
            ).topology(policy),
            locality_tol=1e-9,
            balance_tol=1e-9,
        )
        assert report.ok, report.summary()

    def test_hybrid_totals_exact_placements_contained(self):
        config = SkewConfig(parallelism=4, tuples_per_instance=1500)
        report, ref, vec = run_equivalence(
            lambda: SkewWorkload(config).topology("hybrid"),
            exact_placements=False,
            exact_received=False,
            locality_tol=0.05,
            balance_tol=0.15,
        )
        assert report.ok, report.summary()
        # split keys: totals exact, every holder inside the split set
        split = SkewWorkload(config).split_set()
        for key, members in split.items():
            assert ref.per_key_totals["A"][key] == (
                vec.per_key_totals["A"][key]
            )
            assert set(vec.key_instances["A"][key]) <= set(members)
        # tail keys (never split) must place identically
        for key, where in ref.key_instances["A"].items():
            if key not in split:
                assert vec.key_instances["A"][key] == where


SPOUTS = 3
PER_SPOUT = 3000


def _rescale_source(ctx):
    rng = random.Random(ctx.instance_index)
    for _ in range(PER_SPOUT):
        a = rng.randrange(12)
        yield (a, a + 100)


def _rescale_topology(bolts):
    builder = TopologyBuilder()
    builder.spout(
        "S", lambda: IteratorSpout(_rescale_source), parallelism=SPOUTS
    )
    builder.bolt(
        "A",
        lambda: CountBolt(0, forward=True),
        parallelism=bolts,
        inputs={"S": TableFieldsGrouping(0)},
    )
    builder.bolt(
        "B",
        lambda: CountBolt(1, forward=False),
        parallelism=bolts,
        inputs={"A": TableFieldsGrouping(1)},
    )
    return builder.build()


def _attach_rescale(deployment):
    manager = Manager(deployment, ManagerConfig(period_s=None))
    sim = deployment.sim
    sim.schedule(0.02, attempt_rescale, sim, manager, 4, math.inf)


class TestRescaleEpisode:
    def test_scripted_rescale_matches_des_episode(self):
        # a real mid-run rescale 2 -> 4 driven by the DES manager,
        # replayed at the tuple offset of its first spout swap
        options = BackendOptions(num_servers=4, on_deployed=_attach_rescale)
        report, ref, vec = run_equivalence(
            lambda: _rescale_topology(2),
            reference_options=options,
            candidate_options=options,
            exact_received=False,  # the spouts swap at other moments
            locality_tol=1.0,  # so locality is weighted differently
            balance_tol=1.0,
        )
        assert report.ok, report.summary()
        manager = ref.handle.manager
        assert manager.tier_parallelism == 4
        assert [r.rescale_to for r in manager.completed_rounds] == [4]


#: generated rescale episodes: seed 14 scales 2 -> 1, seed 0 3 -> 4 -> 5,
#: seed 1 4 -> 3
REPLAY_SEEDS = (14, 0, 1)


def _episode_options(seed, **manager_kw):
    """A generated rescale episode as backend options: fault-free,
    four times the tuples, rounds every 6 ms and the rescales at 0.15
    of their drawn times, so several rounds commit while tuples flow."""
    config = generate_config(RngTree(0), seed, rescale=True)
    workload = PairsWorkload(
        PairsConfig(
            parallelism=config.parallelism,
            keys=config.keys,
            exponent=config.exponent,
            correlation=config.correlation,
            seed=config.seed,
            tuples_per_instance=config.tuples_per_instance * 4,
        )
    )
    manager_kw = {
        "period_s": 0.006,
        "imbalance": config.imbalance,
        "rpc_latency_s": config.rpc_latency_s,
        "round_timeout_s": config.round_timeout_s,
        "seed": config.seed,
        **manager_kw,
    }

    def attach(deployment):
        manager = Manager(deployment, ManagerConfig(**manager_kw))
        manager.start()
        sim = deployment.sim
        for at_s, target in config.rescales:
            sim.schedule(
                at_s * 0.15,
                attempt_rescale,
                sim,
                manager,
                target,
                config.until_s,
            )

    widest = max([config.parallelism] + [t for _, t in config.rescales])
    options = BackendOptions(
        num_servers=widest,
        on_deployed=attach,
        batch_size=256,
        mp_timeout_s=60,
    )
    return workload.online_topology, options


class TestReplay:
    """:func:`~repro.testing.equivalence.script`: a fast backend runs
    every round the DES manager committed, at the DES's swap offset."""

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("candidate", ["vectorized", "multiprocess"])
    @pytest.mark.parametrize("seed", REPLAY_SEEDS)
    def test_generated_rescale_episode_replays_exactly(self, seed, candidate):
        factory, options = _episode_options(seed)
        report, ref, cand = run_equivalence(
            factory,
            reference_options=options,
            candidate=candidate,
            candidate_options=options,
            exact_received=False,
            locality_tol=1.0,
            balance_tol=1.0,
        )
        assert report.ok, report.summary()
        committed = [
            r
            for r in ref.handle.manager.completed_rounds
            if not (r.skipped or r.vetoed)
        ]
        assert any(r.is_rescale for r in committed)
        assert len(committed) >= 3
        offsets = [r.swapped_at_tuples for r in committed]
        assert offsets == sorted(offsets)
        assert 0 < offsets[0] < ref.tuples_emitted

    def test_script_refuses_an_aborted_round(self):
        factory, options = _episode_options(14, round_timeout_s=1e-4)
        with pytest.raises(DeploymentError, match=r"round 1 did not commit"):
            run_equivalence(
                factory, reference_options=options, candidate_options=options
            )

    def test_script_and_actions_are_exclusive(self):
        options = BackendOptions(num_servers=4, on_deployed=_attach_rescale)
        with pytest.raises(DeploymentError, match="no actions"):
            run_equivalence(
                lambda: _rescale_topology(2),
                reference_options=options,
                candidate_options=BackendOptions(
                    num_servers=4,
                    actions=[ReconfigureAction(10, "S->A", None, 4)],
                ),
            )

    def test_a_run_without_a_manager_replays_nothing(self):
        report, ref, vec = run_equivalence(
            lambda: _rescale_topology(2), **STRICT
        )
        assert report.ok, report.summary()
        assert ref.handle.manager is None
        assert vec.handle.options.actions == []


class TestSeamInertness:
    def test_reference_fingerprint_unchanged_by_adapter(self):
        workload = FlickrWorkload()
        violation = reference_fingerprint_unchanged(
            lambda: workload.topology(
                parallelism=3, padding=0, tuples_per_instance=200
            )
        )
        assert violation is None, violation


class TestViolationDetection:
    """The comparator must actually catch divergence, not just pass."""

    def _results(self):
        workload = FlickrWorkload()
        return run_equivalence(
            lambda: workload.topology(
                parallelism=3, padding=0, tuples_per_instance=200
            )
        )

    def test_perturbed_totals_flagged(self):
        _, ref, vec = self._results()
        key = next(iter(vec.per_key_totals["A"]))
        vec.per_key_totals["A"][key] += 1
        report = compare_backends(ref, vec)
        assert any(
            v.invariant == "per_key_totals" for v in report.violations
        )

    def test_perturbed_placement_flagged(self):
        _, ref, vec = self._results()
        key = next(iter(vec.key_instances["A"]))
        vec.key_instances["A"][key] = (99,)
        report = compare_backends(ref, vec)
        assert any(
            v.invariant == "key_placements" for v in report.violations
        )

    def test_perturbed_locality_flagged(self):
        _, ref, vec = self._results()
        vec.locality = ref.locality + 0.5
        report = compare_backends(
            ref, vec, exact_received=True, locality_tol=0.02
        )
        assert any(v.invariant == "locality" for v in report.violations)

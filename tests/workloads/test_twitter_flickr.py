"""Tests for the Twitter-like and Flickr-like generators."""

import hashlib
from collections import Counter

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    FlickrConfig,
    FlickrWorkload,
    TwitterConfig,
    TwitterWorkload,
)

SMALL = TwitterConfig(
    tweets_per_week=4000,
    num_locations=80,
    base_hashtags=600,
    new_hashtags_per_week=60,
    seed=11,
)


def test_twitter_config_validation():
    with pytest.raises(WorkloadError):
        TwitterConfig(num_locations=0)
    with pytest.raises(WorkloadError):
        TwitterConfig(affinity=1.2)
    with pytest.raises(WorkloadError):
        TwitterConfig(new_tag_share=0.6, flash_share=0.5)
    with pytest.raises(WorkloadError):
        TwitterConfig(volatility_period_weeks=0)


def test_twitter_week_is_deterministic():
    workload = TwitterWorkload(SMALL)
    first = list(workload.week_records(3))
    second = list(workload.week_records(3))
    assert first == second


def test_twitter_week_size_and_day_range():
    workload = TwitterWorkload(SMALL)
    records = list(workload.week_records(2))
    assert len(records) == SMALL.tweets_per_week
    for day, location, tag in records:
        assert 14 <= day < 21
        assert location.startswith("loc")
        assert tag.startswith("#")


def test_twitter_negative_week_rejected():
    with pytest.raises(WorkloadError):
        next(TwitterWorkload(SMALL).week_records(-1))


def test_twitter_affinity_concentrates_tags():
    """A popular tag's tweets cluster at its home location."""
    workload = TwitterWorkload(SMALL)
    week = 1
    by_tag = {}
    for _, location, tag in workload.week_records(week):
        by_tag.setdefault(tag, Counter())[location] += 1
    tag, locations = max(by_tag.items(), key=lambda kv: sum(kv[1].values()))
    total = sum(locations.values())
    top_share = locations.most_common(1)[0][1] / total
    assert top_share > 0.5  # affinity default is 0.75


def test_twitter_stable_tag_home_is_stable():
    workload = TwitterWorkload(SMALL)
    stable = next(
        tag
        for rank in range(50)
        for tag in [workload.tag_name(rank)]
        if not workload._is_volatile(tag)
    )
    homes = {workload.home_location(stable, week) for week in range(8)}
    assert len(homes) == 1


def test_twitter_volatile_tag_home_changes_by_era():
    workload = TwitterWorkload(SMALL)
    volatile = next(
        tag
        for rank in range(50)
        for tag in [workload.tag_name(rank)]
        if workload._is_volatile(tag)
    )
    homes = {workload.home_location(volatile, week) for week in range(20)}
    assert len(homes) > 1
    # Within one era the home stays put.
    week0_home = workload.home_location(volatile, 0)
    assert workload.home_location(volatile, 0) == week0_home


def test_twitter_new_cohorts_appear_and_age_out():
    config = TwitterConfig(
        tweets_per_week=4000,
        new_tag_lifetime_weeks=2,
        seed=5,
    )
    workload = TwitterWorkload(config)
    week5_tags = {tag for _, _, tag in workload.week_records(5)}
    assert any(tag.startswith("#w5n") for tag in week5_tags)
    assert any(tag.startswith("#w4n") for tag in week5_tags)
    # Cohort of week 2 (age 3 > lifetime 2) is gone.
    assert not any(tag.startswith("#w2n") for tag in week5_tags)


def test_twitter_flash_events_structure():
    workload = TwitterWorkload(SMALL)
    events = workload.flash_events(4)
    assert len(events) == SMALL.flash_events_per_week
    assert events[0].tag == SMALL.flash_tag
    for event in events:
        assert 28 <= event.start_day < 35
        assert list(event.days) == [
            event.start_day, event.start_day + 1
        ]


def test_twitter_flash_tag_moves_between_locations():
    """The Fig. 10 pattern: the recurring flash tag peaks in different
    locations on different days."""
    workload = TwitterWorkload(SMALL)
    series = workload.daily_frequency(SMALL.flash_tag, weeks=6)
    assert len(series) >= 2  # several distinct locations
    peak_days = {
        location: max(days, key=days.get) for location, days in series.items()
    }
    assert len(set(peak_days.values())) >= 2  # peaks on different days


#: SHA-256 over ``repr(record)`` of weeks 0-5 of ``TwitterConfig(seed=0,
#: tweets_per_week=size)``, computed on the commit before the generator
#: memoized its per-key draws (1864dfe).
WEEKS_0_TO_5_DIGESTS = {
    5_000: "86f5903632c03e4fe348327561fc3b1af73c127a56b831d709771079455f8559",
    30_000: "37872f31f226e13ecf69a59ca419ff97c2863209f87c665efe3b162173d29de1",
}


@pytest.mark.parametrize("size", sorted(WEEKS_0_TO_5_DIGESTS))
def test_twitter_records_are_what_they_were_before_the_memo(size):
    workload = TwitterWorkload(TwitterConfig(seed=0, tweets_per_week=size))
    digest = hashlib.sha256()
    for week in range(6):
        for record in workload.week_records(week):
            digest.update(repr(record).encode())
    assert digest.hexdigest() == WEEKS_0_TO_5_DIGESTS[size]


def test_twitter_warm_caches_do_not_change_records():
    """A week reads the same off a workload that has already generated
    others (in any order) as off a fresh one."""
    warm = TwitterWorkload(SMALL)
    for week in (4, 0, 7, 2):
        list(warm.week_records(week))
    for week in (2, 7, 0, 4, 5):
        fresh = TwitterWorkload(SMALL)
        assert list(warm.week_records(week)) == list(fresh.week_records(week))


def test_flickr_config_validation():
    with pytest.raises(WorkloadError):
        FlickrConfig(num_tags=0)
    with pytest.raises(WorkloadError):
        FlickrConfig(affinity=-0.1)


def test_flickr_pairs_deterministic_and_stable():
    workload = FlickrWorkload(FlickrConfig(seed=3))
    first = list(workload.pairs(100, stream_seed=1))
    second = list(workload.pairs(100, stream_seed=1))
    assert first == second
    assert first != list(workload.pairs(100, stream_seed=2))


def test_flickr_home_country_is_stable():
    workload = FlickrWorkload(FlickrConfig(seed=3))
    assert workload.home_country("tag7") == workload.home_country("tag7")


def test_flickr_affinity_controls_correlation():
    strong = FlickrWorkload(FlickrConfig(affinity=1.0, seed=2))
    for tag, country in strong.pairs(200):
        assert country == strong.home_country(tag)


def test_flickr_topology_runs():
    from repro.engine import RunConfig, run

    workload = FlickrWorkload(
        FlickrConfig(num_tags=200, num_countries=30, seed=1)
    )
    result = run(
        workload.topology(parallelism=2, padding=100),
        RunConfig(duration_s=0.06, warmup_s=0.02, num_servers=2),
    )
    assert result.throughput > 0


def test_flickr_finite_topology_drains():
    from repro.engine import Cluster, Simulator, deploy

    workload = FlickrWorkload(FlickrConfig(num_tags=50, num_countries=10))
    topology = workload.topology(parallelism=2, tuples_per_instance=300)
    sim = Simulator()
    deployment = deploy(sim, Cluster(sim, 2), topology)
    deployment.start()
    sim.run()
    assert deployment.metrics.processed_total("B") == 600

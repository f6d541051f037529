"""A generative Twitter-like workload (Section 4.3 substitute).

The paper's crawl (Oct 2015 – May 2016, 173 M location→hashtag pairs)
is proprietary. This generator reproduces the properties the
online-vs-offline experiments depend on:

- **skew** — Zipfian locations and hashtags (moderate exponents: the
  real dataset's locations go down to cities and points of interest,
  so no single key dominates and hash load balance sits near 1.1);
- **stable correlations** — most hashtags have a fixed "home" location
  (captured equally well by offline and online analysis);
- **transient correlations** — a fraction of hashtags re-draw their
  home every few weeks (an *era*), so trends persist long enough for
  weekly online reconfiguration to exploit them while a week-0 offline
  analysis decays; flash events (a tag spiking in one location for a
  couple of days, like #nevertrump in Fig. 10) sit on top;
- **novelty** — new hashtag *cohorts* are born every week and live for
  several weeks with decaying traffic. Online analysis catches a
  cohort from its second week; offline never does. This is what caps
  achieved locality below the partitioner's prediction (Section 4.3).

All output is deterministic given the config seed; weeks are generated
independently and never stored.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.workloads.zipf import WeightedSampler, ZipfSampler, derived_rng

#: One record: (absolute day, location, hashtag).
Record = Tuple[int, str, str]


@dataclass(frozen=True)
class FlashEvent:
    """A hashtag spiking in one location for a few days."""

    tag: str
    location: str
    start_day: int  # absolute day index
    duration_days: int

    @property
    def days(self) -> range:
        return range(self.start_day, self.start_day + self.duration_days)


@dataclass(frozen=True)
class TwitterConfig:
    num_locations: int = 500
    base_hashtags: int = 5000
    tweets_per_week: int = 50000
    location_exponent: float = 0.5
    hashtag_exponent: float = 0.7
    #: Log-normal σ of slow popularity drift (0 disables); this is what
    #: makes tables computed from past data lose their balance over
    #: time (Fig. 11b: "some hashtags and locations become more
    #: frequent in the following weeks").
    popularity_drift_sigma: float = 1.0
    #: Weeks over which a key's popularity multiplier decorrelates.
    drift_period_weeks: int = 4
    #: P(regular tweet is located at its hashtag's home location).
    affinity: float = 0.75
    #: Fraction of hashtags whose home location changes every era.
    volatile_fraction: float = 0.4
    #: Era length: a volatile tag keeps one home this many weeks.
    volatility_period_weeks: int = 3
    #: Steady-state share of traffic using recently-born hashtags.
    new_tag_share: float = 0.2
    #: Population of each weekly cohort of new hashtags.
    new_hashtags_per_week: int = 400
    #: Weeks a cohort stays active after birth.
    new_tag_lifetime_weeks: int = 6
    #: Per-week decay of a cohort's traffic share.
    cohort_decay: float = 0.7
    #: Flash events per week (the first one reuses ``flash_tag``).
    flash_events_per_week: int = 2
    #: Share of each week's tweets belonging to flash events.
    flash_share: float = 0.05
    #: The recurring flash hashtag (the Fig. 10 protagonist).
    flash_tag: str = "#flash"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_locations < 1 or self.base_hashtags < 1:
            raise WorkloadError("populations must be >= 1")
        for name in ("affinity", "volatile_fraction", "new_tag_share",
                     "flash_share", "cohort_decay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{name} must be in [0, 1], got {value}")
        if self.volatility_period_weeks < 1:
            raise WorkloadError("volatility_period_weeks must be >= 1")
        if self.new_tag_lifetime_weeks < 1:
            raise WorkloadError("new_tag_lifetime_weeks must be >= 1")
        if self.flash_share + self.new_tag_share > 0.9:
            raise WorkloadError(
                "flash_share + new_tag_share leave too little regular "
                "traffic"
            )


class TwitterWorkload:
    """Deterministic week-by-week (location, hashtag) generator."""

    def __init__(self, config: TwitterConfig = TwitterConfig()) -> None:
        self.config = config
        self._locations = ZipfSampler(
            config.num_locations, config.location_exponent
        )
        self._hashtags = ZipfSampler(
            config.base_hashtags, config.hashtag_exponent
        )
        self._cohort_tags = ZipfSampler(
            config.new_hashtags_per_week, config.hashtag_exponent
        )
        self._sampler_cache: Dict[Tuple[str, int], WeightedSampler] = {}
        # The correlation structure and the drift are pure functions of
        # (seed, key[, era]) drawn from one-shot RNGs, and seeding one
        # costs ~8 µs (several per tweet, unmemoized). The week RNG is
        # not involved, so memoizing them leaves the records as they are.
        #: tag → era phase of a volatile tag, None for a stable one
        self._tag_phase: Dict[str, Optional[int]] = {}
        #: era (None: stable tags) → tag → home location
        self._homes: Dict[Optional[int], Dict[str, str]] = {}
        #: kind → drift phase by rank
        self._drift_phase: Dict[str, array] = {}
        #: (kind, era) → Gaussian draw by rank, NaN where not drawn yet
        self._drift_draws: Dict[Tuple[str, int], array] = {}

    # ------------------------------------------------------------------
    # Popularity drift
    # ------------------------------------------------------------------

    def _drift_factor(self, kind: str, rank: int, week: int) -> float:
        """Smooth per-key popularity multiplier over time.

        A key's log-popularity offset interpolates between independent
        Gaussian draws one drift period apart, with a per-key phase so
        keys decorrelate at different times.
        """
        config = self.config
        sigma = config.popularity_drift_sigma
        if sigma <= 0.0:
            return 1.0
        t = week / config.drift_period_weeks + self._phase_of(kind, rank)
        era = math.floor(t)
        f = t - era
        z0 = self._drift_draw(kind, rank, era)
        z1 = self._drift_draw(kind, rank, era + 1)
        return math.exp(sigma * ((1.0 - f) * z0 + f * z1))

    def _base(self, kind: str) -> ZipfSampler:
        return self._locations if kind == "loc" else self._hashtags

    def _phase_of(self, kind: str, rank: int) -> float:
        phases = self._drift_phase.get(kind)
        if phases is None:
            seed = self.config.seed
            phases = self._drift_phase[kind] = array("d", (
                derived_rng(seed, "phase", kind, r).random()
                for r in range(self._base(kind).n)
            ))
        return phases[rank]

    def _drift_draw(self, kind: str, rank: int, era: int) -> float:
        draws = self._drift_draws.get((kind, era))
        if draws is None:
            draws = self._drift_draws[(kind, era)] = (
                array("d", [math.nan]) * self._base(kind).n
            )
        z = draws[rank]
        if z != z:  # NaN: not drawn yet
            z = draws[rank] = derived_rng(
                self.config.seed, "drift", kind, rank, era
            ).gauss(0, 1)
        return z

    def _weekly_sampler(self, kind: str, week: int) -> WeightedSampler:
        """Zipf × drift sampler for ``kind`` ("loc" or "tag") at
        ``week``; cached because building the CDF is O(population)."""
        cached = self._sampler_cache.get((kind, week))
        if cached is not None:
            return cached
        base = self._base(kind)
        weights = [
            base.pmf(rank) * self._drift_factor(kind, rank, week)
            for rank in range(base.n)
        ]
        sampler = WeightedSampler(weights)
        if len(self._sampler_cache) > 16:
            self._sampler_cache.clear()
        self._sampler_cache[(kind, week)] = sampler
        return sampler

    # ------------------------------------------------------------------
    # Naming and correlation structure
    # ------------------------------------------------------------------

    def location_name(self, rank: int) -> str:
        return f"loc{rank}"

    def tag_name(self, rank: int) -> str:
        return f"#t{rank}"

    def _volatile_phase(self, tag: str) -> Optional[int]:
        """The era phase of a volatile tag, None for a stable one."""
        try:
            return self._tag_phase[tag]
        except KeyError:
            config = self.config
            phase = None
            rng = derived_rng(config.seed, "volatile", tag)
            if rng.random() < config.volatile_fraction:
                phase = derived_rng(config.seed, "phase", tag).randrange(
                    config.volatility_period_weeks
                )
            self._tag_phase[tag] = phase
            return phase

    def _is_volatile(self, tag: str) -> bool:
        return self._volatile_phase(tag) is not None

    def home_location(self, tag: str, week: int) -> str:
        """The location a tag is correlated with during ``week``.

        Volatile tags keep a home for one *era*
        (``volatility_period_weeks`` weeks, with a per-tag phase so
        changes spread over time); others keep it forever.
        """
        config = self.config
        phase = self._volatile_phase(tag)
        if phase is None:
            era, parts = None, ("home", tag)
        else:
            era = (week + phase) // config.volatility_period_weeks
            parts = ("home", tag, era)
        homes = self._homes.get(era)
        if homes is None:
            homes = self._homes[era] = {}
        home = homes.get(tag)
        if home is None:
            rng = derived_rng(config.seed, *parts)
            home = homes[tag] = self.location_name(
                self._locations.sample(rng)
            )
        return home

    def flash_events(self, week: int) -> List[FlashEvent]:
        """This week's flash events; the first reuses ``flash_tag`` so
        the same hashtag peaks in different locations over time."""
        config = self.config
        rng = derived_rng(config.seed, "flash", week)
        events: List[FlashEvent] = []
        for index in range(config.flash_events_per_week):
            tag = (
                config.flash_tag
                if index == 0
                else f"#w{week}flash{index}"
            )
            location = self.location_name(self._locations.sample(rng))
            start = week * 7 + rng.randrange(6)
            events.append(
                FlashEvent(tag, location, start, duration_days=2)
            )
        return events

    # ------------------------------------------------------------------
    # New-hashtag cohorts
    # ------------------------------------------------------------------

    def _cohort_weights(self, week: int) -> List[Tuple[int, float]]:
        """Active cohorts at ``week`` as (birth_week, weight); weights
        are normalized so a steady-state week's cohort traffic equals
        ``new_tag_share`` of the total."""
        config = self.config
        full = [
            config.cohort_decay**age
            for age in range(config.new_tag_lifetime_weeks)
        ]
        normalizer = sum(full)
        weights = []
        for age in range(min(week + 1, config.new_tag_lifetime_weeks)):
            weights.append((week - age, full[age] / normalizer))
        return weights

    def cohort_tag(self, birth_week: int, rank: int) -> str:
        return f"#w{birth_week}n{rank}"

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def week_records(self, week: int) -> Iterator[Record]:
        """All (day, location, hashtag) records of one week."""
        if week < 0:
            raise WorkloadError(f"week must be >= 0, got {week}")
        config = self.config
        rng = derived_rng(config.seed, "week", week)
        events = self.flash_events(week)
        total = config.tweets_per_week
        n_flash = int(total * config.flash_share) if events else 0

        cohorts = self._cohort_weights(week)
        cohort_share = config.new_tag_share * sum(w for _, w in cohorts)
        n_new = int(total * cohort_share)
        n_regular = total - n_flash - n_new
        base_day = week * 7

        tag_sampler = self._weekly_sampler("tag", week)
        for _ in range(n_regular):
            tag = self.tag_name(tag_sampler.sample(rng))
            yield self._place(tag, week, base_day, rng)

        if cohorts:
            births = [b for b, _ in cohorts]
            cumulative = []
            acc = 0.0
            for _, weight in cohorts:
                acc += weight
                cumulative.append(acc)
            for _ in range(n_new):
                r = rng.random() * acc
                index = next(
                    i for i, c in enumerate(cumulative) if r <= c
                )
                tag = self.cohort_tag(
                    births[index], self._cohort_tags.sample(rng)
                )
                yield self._place(tag, week, base_day, rng)

        for _ in range(n_flash):
            event = events[rng.randrange(len(events))]
            day = event.start_day + rng.randrange(event.duration_days)
            yield (day, event.location, event.tag)

    def _place(self, tag: str, week: int, base_day: int, rng) -> Record:
        if rng.random() < self.config.affinity:
            location = self.home_location(tag, week)
        else:
            sampler = self._weekly_sampler("loc", week)
            location = self.location_name(sampler.sample(rng))
        return (base_day + rng.randrange(7), location, tag)

    def week_pairs(self, week: int) -> Iterator[Tuple[str, str]]:
        """(location, hashtag) pairs of one week — the application
        routes first by location, then by hashtag (Section 4.3)."""
        for _, location, tag in self.week_records(week):
            yield (location, tag)

    def daily_frequency(
        self, tag: str, weeks: int
    ) -> Dict[str, Dict[int, int]]:
        """Per-location daily counts of one hashtag over ``weeks``
        weeks (the Fig. 10 query)."""
        series: Dict[str, Dict[int, int]] = {}
        for week in range(weeks):
            for day, location, record_tag in self.week_records(week):
                if record_tag == tag:
                    per_day = series.setdefault(location, {})
                    per_day[day] = per_day.get(day, 0) + 1
        return series

"""A stable tag/country workload (Section 4.4 substitute for the
Flickr 100M dataset).

"This dataset represents a stable workload as there is no temporal
information and images are not ordered." Tuples are
``(tag, country, padding)``: the application counts tags at the first
stateful PO and countries at the second, so routing goes first by tag,
then by country. Each tag has a fixed home country; correlation
strength is controlled by ``affinity``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.engine import Padding, TableFieldsGrouping, Topology, count_chain
from repro.errors import WorkloadError
from repro.workloads.zipf import ZipfSampler, derived_rng


@dataclass(frozen=True)
class FlickrConfig:
    num_tags: int = 4000
    num_countries: int = 120
    tag_exponent: float = 1.0
    country_exponent: float = 0.8
    #: P(photo's country == its tag's home country).
    affinity: float = 0.85
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_tags < 1 or self.num_countries < 1:
            raise WorkloadError("populations must be >= 1")
        if not 0.0 <= self.affinity <= 1.0:
            raise WorkloadError(
                f"affinity must be in [0, 1], got {self.affinity}"
            )


class FlickrWorkload:
    """Deterministic (tag, country) photo metadata generator."""

    def __init__(self, config: FlickrConfig = FlickrConfig()) -> None:
        self.config = config
        self._tags = ZipfSampler(config.num_tags, config.tag_exponent)
        self._countries = ZipfSampler(
            config.num_countries, config.country_exponent
        )
        #: tag → home country memo: the mapping is a pure function of
        #: (config seed, tag), and deriving the RNG per draw was the
        #: single hottest line of the Fig. 13 pipeline
        self._homes: dict = {}

    def tag_name(self, rank: int) -> str:
        return f"tag{rank}"

    def country_name(self, rank: int) -> str:
        return f"country{rank}"

    def home_country(self, tag: str) -> str:
        """The (stable) country a tag correlates with."""
        country = self._homes.get(tag)
        if country is None:
            rng = derived_rng(self.config.seed, "home", tag)
            country = self.country_name(self._countries.sample(rng))
            self._homes[tag] = country
        return country

    # ------------------------------------------------------------------
    # Data generation
    # ------------------------------------------------------------------

    def pairs(self, count: int, stream_seed: int = 0) -> Iterator[Tuple[str, str]]:
        """``count`` (tag, country) pairs; deterministic per
        ``stream_seed`` (use different seeds for sample vs live)."""
        rng = derived_rng(self.config.seed, "pairs", stream_seed)
        for _ in range(count):
            yield self._draw(rng)

    def _draw(self, rng: random.Random) -> Tuple[str, str]:
        tag = self.tag_name(self._tags.sample(rng))
        if rng.random() < self.config.affinity:
            country = self.home_country(tag)
        else:
            country = self.country_name(self._countries.sample(rng))
        return (tag, country)

    # ------------------------------------------------------------------
    # Engine integration
    # ------------------------------------------------------------------

    def topology(
        self,
        parallelism: int,
        padding: int = 0,
        tuples_per_instance: int = None,
    ) -> Topology:
        """The Section 4.4 application with swappable routing tables:
        ``S -> A (fields on tag) -> B (fields on country)``."""
        pad = Padding(padding)

        def make_iterator(ctx):
            rng = derived_rng(self.config.seed, "spout", ctx.instance_index)
            emitted = 0
            while (
                tuples_per_instance is None or emitted < tuples_per_instance
            ):
                tag, country = self._draw(rng)
                yield (tag, country, pad)
                emitted += 1

        return count_chain(
            make_iterator,
            parallelism,
            [TableFieldsGrouping(0), TableFieldsGrouping(1)],
        )

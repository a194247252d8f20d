"""Training-stream composition from supervised and pseudo-labeled datasets.

Batchwise mixing emits batches with an exact supervised/semi-supervised
split; uniform mixing draws single examples equiprobably from the combined
pool. Sampling multiplicities are materialized here: a multiplicity-m
utterance contributes m pool entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Mapping

import numpy as np

from .corpus import Dataset, Utterance
from .errors import NstError, read_record

SUPERVISED = "sup"
SEMI = "semi"

BATCHWISE = "batchwise"
UNIFORM = "uniform"

_PLAN_SPEC = {"mode": str, "ratio": list, "batch_size": int}


class MixingError(NstError):
    pass


class IndivisibleRatioError(MixingError):
    pass


@dataclass(frozen=True)
class MixPlan:
    """How to compose training batches.

    In batchwise mode the ratio terms must divide the batch size exactly so
    each batch's composition is exact, not just in expectation.
    """

    mode: str = BATCHWISE
    ratio: tuple[int, int] = (1, 1)
    batch_size: int = 2

    def __post_init__(self):
        if self.mode not in (BATCHWISE, UNIFORM):
            raise MixingError(f"unknown mixing mode: {self.mode!r}")
        if len(self.ratio) != 2 or any(type(term) is not int for term in self.ratio):
            raise MixingError(f"ratio must be two integers, got {self.ratio!r}")
        sup, semi = self.ratio
        object.__setattr__(self, "ratio", (sup, semi))
        if self.mode != BATCHWISE:
            return
        if sup < 1 or semi < 1:
            raise MixingError("ratio terms must be positive")
        if self.batch_size < 1:
            raise MixingError("batch_size must be >= 1")
        if self.batch_size % (sup + semi) != 0:
            raise IndivisibleRatioError(
                f"ratio {sup}:{semi} does not divide batch size {self.batch_size}"
            )

    def batch_composition(self) -> tuple[int, int]:
        """(supervised, semi-supervised) example counts per batch."""
        sup, semi = self.ratio
        unit = self.batch_size // (sup + semi)
        return sup * unit, semi * unit

    @property
    def item_size(self) -> int:
        """Examples per item of the plan's stream: a batch, or one uniform draw."""
        return self.batch_size if self.mode == BATCHWISE else 1

    @classmethod
    def from_dict(cls, record: Mapping) -> "MixPlan":
        """The plan a ``to_dict`` record describes; absent keys take their defaults.

        ``ratio`` is a list of two JSON integers.
        """
        return cls(**read_record(record, _PLAN_SPEC, MixingError, "mix settings"))

    def to_dict(self) -> dict:
        record: dict[str, object] = {"mode": self.mode}
        if self.mode == BATCHWISE:
            record["ratio"] = list(self.ratio)
            record["batch_size"] = self.batch_size
        return record


def materialize(dataset: Dataset, origin: str) -> list[tuple[Utterance, str]]:
    """Duplicate each utterance by its multiplicity and tag it with ``origin``."""
    pool = []
    for u in dataset:
        pool.extend([(u, origin)] * u.multiplicity)
    return pool


def _epochs(pool: list, rng: np.random.Generator) -> Iterator:
    """Endless uniform sampling without replacement within an epoch, reshuffling on exhaustion."""
    while True:
        for i in rng.permutation(len(pool)):
            yield pool[i]


def mix_batchwise(
    sup: Dataset,
    semi: Dataset,
    plan: MixPlan,
    rng: np.random.Generator,
) -> Iterator[list[tuple[Utterance, str]]]:
    """Endless stream of batches with the plan's exact per-batch composition."""
    if plan.mode != BATCHWISE:
        raise MixingError(f"plan mode is {plan.mode!r}, expected {BATCHWISE!r}")
    if len(sup) == 0 or len(semi) == 0:
        raise MixingError("batchwise mixing needs nonempty supervised and semi sets")
    n_sup, n_semi = plan.batch_composition()
    sup_stream = _epochs(materialize(sup, SUPERVISED), rng)
    semi_stream = _epochs(materialize(semi, SEMI), rng)
    while True:
        yield [*islice(sup_stream, n_sup), *islice(semi_stream, n_semi)]


def mix_uniform(
    sup: Dataset,
    semi: Dataset,
    rng: np.random.Generator,
) -> Iterator[tuple[Utterance, str]]:
    """Endless stream drawing each combined-pool entry with equal probability."""
    pool = materialize(sup, SUPERVISED) + materialize(semi, SEMI)
    if not pool:
        raise MixingError("combined pool is empty")
    size = len(pool)
    while True:
        yield pool[int(rng.integers(0, size))]

"""Group-level indices and the theory layer.

The theory layer has two faces: closed-form models (power-law h, its
time-dependent form, and the extreme-value H over a survival function) and a
seeded stochastic career simulator (Poisson publication counts with
gamma-mixed per-paper citation rates).  Simulation output is deterministic
for a given seed; the generator is numpy's default PCG64, with one spawned
child stream per career so careers stay independent.  numpy is imported
only when a simulation runs, so the other commands start without it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .core import _descending, _score_h, a_index, h_core_sum, h_index
from .errors import DomainError, UndefinedInputError
from .records import (INT64_MIN, CitationRecord, Publication, _finite, _float_knob,
                      _plain_count, citation_vector, totals)


# What each group index reads from one member record; the index is the
# h-index of those values over the group.
_MEMBER_VALUES = {
    "successive_h": lambda member: h_index(citation_vector(member)),
    "group_hp": lambda member: totals(member)[0],
    "group_hc": lambda member: totals(member)[1],
}


def _member_reader(keys):
    """group_indices's reduction: a function from one member record to its
    values for the group indices named in keys, in order."""
    readers = [_MEMBER_VALUES[key] for key in keys]
    return lambda member: [read(member) for read in readers]


def _group_scores(rows, keys):
    """group_indices's combine step: the member count, and for each key the
    h-index of its column of the members' value rows."""
    if not rows:
        raise UndefinedInputError("group has no members")
    return {"members": len(rows),
            **{key: _score_h(column) for key, column in zip(keys, zip(*rows))}}


def group_indices(group, keys=tuple(_MEMBER_VALUES)):
    """Member count and the group indices named in keys (all by default), in
    one pass over group: successive h is the h-index of the members'
    h-indices, group h_p of their publication counts and group h_c of their
    citation totals.  Each member is reduced to its values as it is read, so
    an iterable of records need hold only one at a time."""
    # map keeps no member once it is reduced
    return _group_scores(list(map(_member_reader(keys), group)), keys)


def successive_h(group):
    """h-index of the members' h-indices."""
    return group_indices(group, ("successive_h",))["successive_h"]


def group_hp(group):
    """h-index of the members' publication counts."""
    return group_indices(group, ("group_hp",))["group_hp"]


def group_hc(group):
    """h-index of the members' citation totals."""
    return group_indices(group, ("group_hc",))["group_hc"]


def lotkaian_h(t_sources, alpha):
    """Equilibrium h of a power-law source-item system: T**(1/alpha)."""
    if not t_sources >= 1:  # also rejects NaN
        raise DomainError("source count must be at least 1")
    if not alpha > 1:
        raise DomainError("power-law exponent must exceed 1")
    return _finite(lambda: t_sources ** (1.0 / alpha), "Lotkaian h")


def dynamic_h(t_sources, alpha, b, t):
    """Time-dependent h [(1 - b**t)**(alpha-1) * T]**(1/alpha); grows from 0
    at t=0 towards the equilibrium value as t -> infinity."""
    if not t_sources >= 1:  # also rejects NaN
        raise DomainError("source count must be at least 1")
    if not alpha > 1:
        raise DomainError("power-law exponent must exceed 1")
    if not 0 < b < 1:
        raise DomainError("ageing rate b must lie in (0, 1)")
    if not t >= 0:
        raise DomainError("time must be non-negative")
    if t == 0:
        return 0.0
    return _finite(lambda: ((1.0 - b ** t) ** (alpha - 1.0) * t_sources) ** (1.0 / alpha),
                   "dynamic h")


@dataclass(frozen=True)
class TailFunction:
    """Survival function G(k) = P(X >= k) over integer thresholds k >= 0.

    G must be non-increasing with G(0) <= 1.
    """

    survival: object

    @classmethod
    def from_sample(cls, counts):
        data = _descending(counts)[::-1]
        if not data:
            raise UndefinedInputError("empty sample has no tail")
        n = len(data)

        def survival(k):
            return Fraction(n - bisect_left(data, k), n)

        return cls(survival=survival)

    @classmethod
    def discrete_pareto(cls, exponent):
        """G(k) = k**(-exponent) for k >= 1 (the Price special case is this
        with its own exponent); exact fractions for an integral exponent up to 1,074."""
        power = _finite(lambda: exponent, "tail exponent")
        if power <= 0:
            raise DomainError("tail exponent must be positive")
        # Past 1,074 the float G(k) is 0.0 for k >= 2, and k ** whole is unbounded.
        if power.is_integer() and power <= 1074:
            whole = int(exponent)

            def survival(k):
                return Fraction(1) if k <= 1 else Fraction(1, k ** whole)
        else:

            def survival(k):
                return 1.0 if k <= 1 else float(k) ** -power

        return cls(survival=survival)


def glanzel_H(tail, n):
    """Extreme-value H: the largest r whose characteristic extreme value
    u_r = max{k : G(k) >= r/n} still reaches r.  G never rises, so u_r >= r
    exactly when G(r) >= r/n, which holds for every r up to H and fails
    after it.  H is found by a galloping search (r = 1, 2, 4, ...) and then
    a bisection, so G is read O(log H) times."""
    n = _plain_count(n, INT64_MIN, "sample size")
    if n < 1:
        raise DomainError("sample size must be positive")

    def reaches(r):
        return tail.survival(r) >= Fraction(r, n)

    low, high = 0, 1  # reaches(low) holds (or low is 0); high is the next rank to try
    while high <= n and reaches(high):
        low, high = high, min(2 * high, n + 1)
    # H lies in [low, high): the ranks after low reach r up to H and fail after it
    return low + bisect_left(range(low + 1, high), True, key=lambda r: not reaches(r))


# Largest expected ensemble, in career-years plus publications plus citation
# events (SimConfig.expected_size), that a simulation may draw.  Each drawn
# item is a Python object, so this bounds time and memory; the default
# config draws about 140,000.
MAX_SIMULATION_SIZE = 5_000_000


@dataclass(frozen=True)
class SimConfig:
    """Career-simulation knobs.

    Each career runs for a length drawn uniformly from 1..career_years.
    Publications arrive Poisson(pub_rate) per year; each publication draws a
    latent citation rate from Gamma(gamma_shape, rate=gamma_rate), scaled by
    citation_rate_scale, and collects Poisson(rate) citations in every year
    from its publication year through the career end.
    """

    seed: int = 0
    careers: int = 200
    career_years: int = 30
    pub_rate: float = 2.0
    gamma_shape: float = 3.0
    gamma_rate: float = 1.5
    citation_rate_scale: float = 1.0

    def __post_init__(self):
        # Each knob is stored as read (the class is frozen): the counts as
        # plain ints, and an int too large for a float as an infinite float.
        for name in ("seed", "careers", "career_years"):
            object.__setattr__(self, name, _plain_count(getattr(self, name), -math.inf,
                                                        name, math.inf))
        for name in ("pub_rate", "gamma_shape", "gamma_rate", "citation_rate_scale"):
            object.__setattr__(self, name, _float_knob(getattr(self, name)))
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        if self.careers < 1 or self.career_years < 1:
            raise DomainError("careers and career_years must be positive")
        if self.pub_rate <= 0 or self.gamma_shape <= 0 or self.gamma_rate <= 0:
            raise DomainError("pub_rate, gamma_shape and gamma_rate must be positive")
        if self.citation_rate_scale < 0:
            raise DomainError("citation_rate_scale must be non-negative")
        # Career-years alone are counted in exact integers first, so that
        # the float estimate cannot overflow.
        size = (self.expected_size()
                if self.careers * (self.career_years + 1) <= 2 * MAX_SIMULATION_SIZE
                else math.inf)
        if not size <= MAX_SIMULATION_SIZE:  # also rejects NaN knobs
            raise DomainError(
                f"expected simulation size {size:.3g} (career-years, publications "
                f"and citation events) exceeds {MAX_SIMULATION_SIZE:,}")

    def expected_size(self):
        """Expected career-years plus publications plus citation events the
        ensemble draws.  A career lasts (career_years + 1) / 2 years on
        average, a publication from year y of an L-year career collects
        citations for L - y + 1 years, and E[L(L+1)/2] = (Y+1)(Y+2)/6."""
        career_years = self.careers * (self.career_years + 1) / 2
        publications = career_years * self.pub_rate
        mean_rate = self.gamma_shape / self.gamma_rate * self.citation_rate_scale
        return (career_years + publications
                + publications * mean_rate * (self.career_years + 2) / 3)


@dataclass(frozen=True)
class CareerSummary:
    """Per-career digest; core_size is the total citations of the h-core."""

    career_id: int
    years: int
    n_p: int
    n_c: int
    h: int
    a: float
    core_size: int


def burrell_simulate(config):
    """Run the career ensemble; returns (records, summaries), both ordered by
    career index and reproducible field for field from the seed."""
    import numpy as np

    root = np.random.SeedSequence(config.seed)
    records = []
    summaries = []
    for career_id, child in enumerate(root.spawn(config.careers)):
        rng = np.random.default_rng(child)
        length = int(rng.integers(1, config.career_years + 1))
        pubs = []
        serial = 0
        for year in range(1, length + 1):
            for _ in range(int(rng.poisson(config.pub_rate))):
                serial += 1
                rate = float(rng.gamma(config.gamma_shape, 1.0 / config.gamma_rate))
                # One draw per citation year, from the publication year on;
                # numpy draws a sized Poisson as that many scalar draws in order.
                counts = rng.poisson(rate * config.citation_rate_scale,
                                     size=length - year + 1)
                years = np.repeat(np.arange(year, length + 1), counts).tolist()
                pubs.append(Publication(id=f"p{serial:04d}", year=year,
                                        event_years=tuple(years),
                                        event_citers=((),) * len(years)))
        record = CitationRecord(entity=f"career-{career_id:04d}",
                                publications=tuple(pubs))
        vector = citation_vector(record)
        n_p, n_c = totals(record)
        summaries.append(CareerSummary(
            career_id=career_id, years=length, n_p=n_p, n_c=n_c,
            h=h_index(vector), a=a_index(vector), core_size=h_core_sum(vector)))
        records.append(record)
    return records, summaries

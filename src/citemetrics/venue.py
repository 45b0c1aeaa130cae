"""Journal- and field-level indicators, plus cohort residual scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (DegenerateCohortError, DomainError, RecordValidationError,
                     UndefinedInputError)
from .records import INT64_MAX, _finite, _plain_count


def _count(value, name, low=-math.inf):
    """value read by the plain-count rule with no upper bound: a count too
    large for float arithmetic is the DomainError that _finite raises."""
    return _plain_count(value, low, name, high=math.inf)


@dataclass(frozen=True)
class FieldProfile:
    """A research field with its mean citations per paper."""

    name: str
    chi: float

    def __post_init__(self):
        if not 0 < self.chi < math.inf:  # also rejects NaN
            raise DomainError(f"field {self.name!r}: chi must be positive and finite")


@dataclass(frozen=True)
class CohortPoint:
    entity: str
    n_p: int
    h: int

    def __post_init__(self):
        # The plain-count type rule, stored as plain ints; ranges are record faults.
        for name in ("n_p", "h"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        if self.n_p < 0 or self.h < 0:
            raise RecordValidationError(f"{self.entity!r}: counts must be non-negative")
        if self.n_p > INT64_MAX:
            raise RecordValidationError(
                f"{self.entity!r}: n_p does not fit in a signed 64-bit integer")
        if self.h > self.n_p:
            raise RecordValidationError(
                f"{self.entity!r}: h ({self.h}) exceeds publication count ({self.n_p})")


def impact_factor(n_citations, n_articles):
    """Citations received in the target year by a journal's articles from the
    source years, divided by the number of those articles."""
    n_citations = _count(n_citations, "n_citations")
    n_articles = _count(n_articles, "n_articles")
    if n_articles < 0:
        raise RecordValidationError("n_articles must be non-negative")
    if n_citations < 0:
        raise RecordValidationError("n_citations must be non-negative")
    if n_articles < 1:
        raise UndefinedInputError("impact factor needs at least one source article")
    return _finite(lambda: n_citations / n_articles, "impact factor")


def relative_h(h, n_articles_in_year):
    """h divided by the number of articles published in the current year."""
    h, n_articles_in_year = _count(h, "h", low=0), _count(n_articles_in_year, "n_articles")
    if n_articles_in_year < 1:
        raise UndefinedInputError("relative h needs at least one article")
    return _finite(lambda: h / n_articles_in_year, "relative h")


def sri(h, n):
    """Strike rate index 10*log(h)/log(N), for 1 <= h <= N; base-independent."""
    h, n = _count(h, "h"), _count(n, "N")
    if h < 1 or n < 2:
        raise DomainError("strike rate index needs h >= 1 and N >= 2")
    if h > n:
        raise DomainError(f"strike rate index: h ({h}) exceeds N ({n})")
    return _finite(lambda: 10.0 * math.log(h) / math.log(n), "strike rate index")


def impact_index_hm(h, n, beta=0.4):
    """Size-corrected journal/institution impact h / N**beta."""
    h, n = _count(h, "h", low=0), _count(n, "N")
    if n < 1:
        raise UndefinedInputError("impact index needs at least one article")
    if not -math.inf < beta < math.inf:  # also rejects NaN
        raise DomainError("impact index needs a finite beta")
    return _finite(lambda: h / n ** float(beta), "impact index")


def field_factor(reference, field):
    """(chi_reference / chi_field)**(2/3)."""
    return _finite(lambda: (reference.chi / field.chi) ** (2.0 / 3.0), "field factor")


def field_normalized_h(h, field, reference):
    """Rescale h so that fields with different citation densities compare.
    h is a count, or a float such as a normalized h being mapped back."""
    h = h if isinstance(h, float) else _count(h, "h")
    if not h >= 0:  # also rejects NaN
        raise DomainError("normalized h needs h >= 0")
    return _finite(lambda: field_factor(reference, field) * h, "normalized h")


def theoretical_h_estimate(n_p, chi, literal_radical=False):
    """Power-law model estimate of h from paper count and mean citation rate.

    The default reading is the dimensionally consistent (N_p * chi**2 / 4)**(1/3);
    literal_radical selects ((N_p / 4) * chi**(2/3))**(1/3) instead.
    """
    n_p = _count(n_p, "n_p")
    if n_p < 1:
        raise DomainError("theoretical h estimate needs at least one paper")
    if not chi > 0:  # also rejects NaN
        raise DomainError("theoretical h estimate needs chi > 0")
    if literal_radical:
        return _finite(lambda: ((n_p / 4.0) * chi ** (2.0 / 3.0)) ** (1.0 / 3.0),
                       "theoretical h estimate")
    return _finite(lambda: (n_p * chi * chi / 4.0) ** (1.0 / 3.0),
                   "theoretical h estimate")


def research_status(cohort):
    """Residuals of h against an ordinary least-squares line on publication
    counts; positive residuals mark above-trend impact for the output size.
    Each (entity, n_p, h) tuple is read as a CohortPoint."""
    points = []
    for item in cohort:
        if not isinstance(item, CohortPoint):
            entity, n_p, h = item  # a ValueError for a tuple of another length
            item = CohortPoint(entity, n_p, h)
        points.append(item)
    if len(points) < 3:
        raise DegenerateCohortError("research status needs at least three cohort points")
    xs = [p.n_p for p in points]
    ys = [p.h for p in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise DegenerateCohortError("publication counts are constant; slope undefined")
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    intercept = mean_y - slope * mean_x
    return [(p.entity, p.h - (intercept + slope * p.n_p)) for p in points]


def vanraan_diagnostic(n_c):
    """Chemistry-calibrated prediction 0.42 * N_c**0.45, for sanity inspection
    next to the actual h; never a target to assert against."""
    n_c = _count(n_c, "n_c")
    if n_c < 0:
        raise DomainError("citation total must be non-negative")
    return _finite(lambda: 0.42 * n_c ** 0.45, "van Raan estimate")

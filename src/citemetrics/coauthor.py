"""Co-authorship-corrected h variants."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

from .core import _threshold_rank
from .records import AuthoredVector, prepare


def authored_vector(record, config=None):
    """Build the (citations, authors) vector with the record-model tie rule,
    filtering self-citations first when a config is given.  Every
    publication must expose an author count of at least 1."""
    return prepare(record, config).part("authored")


def _entries(av):
    if isinstance(av, AuthoredVector):
        return av.entries
    # stable sort: plain pair lists keep their given tie order
    return sorted(((int(c), int(a)) for c, a in av), key=lambda e: -e[0])


def _h_core_authors(av):
    """The author counts of the h-core, in rank order."""
    entries = _entries(av)
    return [a for _, a in entries[:_threshold_rank(c for c, _ in entries)]]


def hi_index(av, center="mean"):
    """h divided by the mean (or median) author count over the h-core."""
    if center not in ("mean", "median"):
        raise ValueError(f"unknown center {center!r}")
    core_authors = _h_core_authors(av)
    h = len(core_authors)
    if h == 0:
        return 0.0
    if center == "mean":
        return h / (sum(core_authors) / h)
    return h / statistics.median(core_authors)


def pure_h(av, scores=None):
    """h divided by the square root of the mean equivalent-author number over
    the h-core.  By default each author holds an equal 1/author_count share,
    so the equivalent number is the author count itself; pass scores (one
    credit share per entry, aligned with the rank order: an AuthoredVector's
    entries as they are, plain pairs by citations descending with ties kept
    in their given order) to plug in a positional weighting scheme."""
    equivalent = _h_core_authors(av)
    h = len(equivalent)
    if h == 0:
        return 0.0
    if scores is not None:
        equivalent = [1.0 / s for s in list(scores)[:h]]
    return h / math.sqrt(sum(equivalent) / h)


def schreiber_hm(av):
    """Fractional-rank variant: accumulate effective ranks 1/authors down the
    citation-descending list and return the largest effective rank that still
    fits under its citation count.  Effective ranks rise and counts fall, so
    the first miss ends the scan."""
    effective_rank = Fraction(0)
    best = Fraction(0)
    for count, n_authors in _entries(av):
        effective_rank += Fraction(1, n_authors)
        if effective_rank <= count:
            best = effective_rank
        else:
            break
    return float(best)

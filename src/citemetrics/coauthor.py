"""Co-authorship-corrected h variants."""

from __future__ import annotations

import math
from collections import Counter

from .core import _add_ratios, _fold, _threshold_rank
from .records import AuthoredVector, PreparedRecord, _plain_count


def authored_vector(record, config=None):
    """Build the (citations, authors) vector with the record-model tie rule,
    filtering self-citations first when a config is given.  Every
    publication must expose an author count of at least 1."""
    return PreparedRecord(record, config).authored


def _entries(av):
    if isinstance(av, AuthoredVector):
        return av.entries
    entries = [(_plain_count(c), _plain_count(a, 1, "author count")) for c, a in av]
    # stable sort: plain pair lists keep their given tie order
    return sorted(entries, key=lambda e: -e[0])


def _h_core_authors(av):
    """The author counts of the h-core, in rank order."""
    entries = _entries(av)
    return [a for _, a in entries[:_threshold_rank([c for c, _ in entries])]]


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
    ranked = sorted(core_authors)
    middle = h // 2
    median = ranked[middle] if h % 2 else (ranked[middle - 1] + ranked[middle]) / 2
    return h / median


def pure_h(av, scores=None):
    """h divided by the square root of the mean equivalent-author number over
    the h-core.  By default each author holds an equal 1/author_count share,
    so the equivalent number is the author count itself; pass scores (one
    credit share in (0, 1] per entry, aligned with the rank order: an AuthoredVector's
    entries as they are, plain pairs by citations descending with ties kept
    in their given order) to plug in a positional weighting scheme."""
    equivalent = _h_core_authors(av)
    h = len(equivalent)
    if h == 0:
        return 0.0
    if scores is not None:
        scores = list(scores)[:h]
        if len(scores) < h:
            raise ValueError(f"{len(scores)} scores for an h-core of {h}")
        for share in scores:
            if not 0 < share <= 1:  # also rejects NaN
                raise ValueError(f"credit share {share!r} is not in (0, 1]")
        equivalent = [1.0 / s for s in scores]
    return h / math.sqrt(sum(equivalent) / h)


def schreiber_hm(av):
    """Fractional-rank variant: accumulate effective ranks 1/authors down the
    citation-descending list and return the largest effective rank that still
    fits under its citation count.  Effective ranks rise and counts fall, so
    the first miss ends the scan.  Every rank up to h fits, its effective
    rank being at most the rank itself, so the scan starts past h from the
    h-core's effective rank: papers/authors summed once per distinct author
    count, as a balanced tree.  Past h it is held as num / den over a common
    multiple of the author counts, and the float is num / den, rounded
    once."""
    entries = _entries(av)
    h = _threshold_rank([c for c, _ in entries])
    papers = Counter(a for _, a in entries[:h])  # author count -> papers
    num, den = _fold(((m, a) for a, m in papers.items()), _add_ratios, (0, 1))
    for count, n_authors in entries[h:]:
        step = math.lcm(den, n_authors)
        next_num = num * (step // den) + step // n_authors
        if next_num > count * step:
            break
        num, den = next_num, step
    return num / den

"""Indices computed from a descending citation vector alone.

Every function accepts either a CitationVector, whose counts are taken as
they are (they are descending by construction), or any iterable of plain
counts in any order, checked by records._plain_count and sorted first.  All
indices return 0 on empty vectors, and forms that divide by h are defined
as 0 when h is 0.

The largest passing rank of h, h2, w, g and h_w is one bisection over the
ranks (_threshold_rank).  That is exact: the tested quantity (a count, the
top-k arithmetic mean, or h_w's weighted rank against a falling count)
never moves toward the threshold as the rank grows, nor the threshold
toward it, so the ranks that pass come before those that fail.  In f and t
every rank up to h passes: there c_k >= k, so the top-k product is at
least k**k and the top-k reciprocal sum at most k/c_k <= 1.  Their scans
start past h, from the h-core's product or reciprocal sum built once as a
balanced tree, and stop at the first failing rank.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from itertools import accumulate

from .errors import DomainError
from .records import G_CONVENTIONS, CitationVector, _finite, _plain_count


def _descending(v):
    if isinstance(v, CitationVector):
        return v.counts
    return sorted(map(_plain_count, v), reverse=True)


def _threshold_rank(counts, threshold=lambda rank: rank):
    """Largest rank whose count reaches threshold(rank), found by bisection
    over counts, a sequence read as it is: every rank that passes must come
    before every rank that fails, as it does for descending counts and a
    rising threshold.  By default the threshold is the rank itself, which
    gives h."""
    return bisect_left(range(1, len(counts) + 1), True,
                       key=lambda rank: counts[rank - 1] < threshold(rank))


def _score_h(scores):
    """h over computed real scores, unchecked and unrounded (an infinite
    score counts): the temporal score lists and the group member values."""
    return _threshold_rank(sorted(scores, reverse=True))


def h_index(v):
    """Largest rank h whose paper has at least h citations."""
    return _threshold_rank(_descending(v))


def g_index(v, convention="bounded"):
    """Largest g whose top-g papers jointly hold at least g**2 citations.

    Under "bounded" g cannot exceed the number of papers; under "unbounded"
    ranks beyond the record contribute zero citations, so once every paper
    passes, the top-g sum stays at the total and g is floor(sqrt(total)).
    """
    if convention not in G_CONVENTIONS:
        raise ValueError(f"unknown g convention {convention!r}")
    running = list(accumulate(_descending(v)))
    g = _threshold_rank(running, lambda g: g * g)
    if g < len(running) or convention == "bounded":
        return g
    return math.isqrt(running[-1]) if running else 0


def _h_core(v):
    counts = _descending(v)
    return counts[:_threshold_rank(counts)]


def h_core_sum(v):
    """Total citations held by the h-core."""
    return sum(_h_core(v))


def a_index(v):
    """Mean citations over the h-core."""
    core = _h_core(v)
    return sum(core) / len(core) if core else 0.0


def r_index(v):
    """Square root of the h-core citation sum; equals sqrt(A*h)."""
    return math.sqrt(h_core_sum(v))


def hw_index(v):
    """Citation-weighted h: weighted ranks are the cumulative citation sum
    divided by h; the index is the square root of the citations down to the
    largest rank whose weighted rank still fits under its citation count."""
    counts = _descending(v)
    h = _threshold_rank(counts)
    if h == 0:
        return 0.0
    running = list(accumulate(counts))
    # the last kept rank: r_w(rank) = running/h <= count, exactly; rank 1 passes
    kept = _threshold_rank([h * c for c in counts], lambda rank: running[rank - 1])
    return math.sqrt(running[kept - 1])


def h2_index(v):
    """Largest k whose k-th paper has at least k**2 citations."""
    return _threshold_rank(_descending(v), lambda rank: rank * rank)


def w_index(v):
    """Largest w whose w-th paper has at least 10*w citations."""
    return _threshold_rank(_descending(v), lambda rank: 10 * rank)


def maxprod(v):
    """Maximum of rank times citations-at-rank."""
    return max((rank * count for rank, count in enumerate(_descending(v), start=1)),
               default=0)


def _fold(items, combine, empty):
    """items combined pairwise, level by level, so that the big integers of
    a long product grow evenly; empty when there are none."""
    items = list(items)
    while len(items) > 1:
        paired = list(map(combine, items[::2], items[1::2]))
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0] if items else empty


def _add_ratios(a, b):
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def f_index(v):
    """Largest f whose top-f papers have harmonic mean citations >= f.

    A zero count makes the harmonic mean 0 and ends the scan.  The
    reciprocal sum is held as an integer numerator and denominator, so
    boundary cases are decided exactly.
    """
    counts = _descending(v)
    f = _threshold_rank(counts)
    if f < len(counts) and counts[f]:
        num, den = _fold(((1, c) for c in counts[:f]), _add_ratios, (0, 1))
        for count in counts[f:]:
            if count == 0:
                break
            num, den = num * count + den, den * count
            if num > den:  # f / reciprocal_sum < f, exactly
                break
            f += 1
    return f


def t_index(v):
    """Largest t whose top-t papers have geometric mean citations >= t.

    The comparison is done in exact integers (product >= t**t), which is the
    geometric-mean condition without floating-point noise.
    """
    counts = _descending(v)
    t = _threshold_rank(counts)
    if t < len(counts) and counts[t]:
        product = _fold(counts[:t], operator.mul, 1)
        for count in counts[t:]:
            product *= count
            if product < (t + 1) ** (t + 1):  # a zero count fails here too
                break
            t += 1
    return t


def rm_index(v):
    """Square root of the sum of square roots of the h-core citations."""
    return math.sqrt(sum(math.sqrt(c) for c in _h_core(v)))


def h_core_cv(v):
    """Coefficient of variation of the h-core citations, using the sample
    (h-1 divisor) standard deviation; 0 when h <= 1."""
    core = _h_core(v)
    h = len(core)
    if h <= 1:
        return 0.0
    mean = sum(core) / h
    variance = sum((c - mean) ** 2 for c in core) / (h - 1)
    return math.sqrt(variance) / mean


def rmcv_index(v):
    """rm_index minus the h-core coefficient of variation."""
    return rm_index(v) - h_core_cv(v)


def h_alpha_predict(h, n_c, alpha=-0.1):
    """Predictive index sqrt(h**2 + alpha*N_c); a negative or non-finite
    radicand is an error, reported rather than clamped."""
    what = "predictive radicand h^2 + alpha*N_c"

    def radicand():
        value = h * h + alpha * n_c
        if value < 0:
            raise DomainError(f"{what} is negative ({value:g})")
        return value

    return math.sqrt(_finite(radicand, what))


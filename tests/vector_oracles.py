"""Independent brute-force oracles for the vector indices.

Each oracle scans every candidate rank from scratch and applies the
definitional predicate verbatim (exact arithmetic where the definition is
rational), with no shared state between candidates.  They deliberately do
not reuse any incremental logic from the library.
"""

import math
from fractions import Fraction


def oracle_h(counts):
    counts = sorted(counts, reverse=True)
    qualifying = [j for j in range(1, len(counts) + 1) if counts[j - 1] >= j]
    return max(qualifying, default=0)


def oracle_g(counts, convention):
    counts = sorted(counts, reverse=True)
    total = sum(counts)
    if convention == "bounded":
        candidates = range(1, len(counts) + 1)
    else:
        candidates = range(1, max(len(counts), math.isqrt(total)) + 1)
    qualifying = [g for g in candidates if sum(counts[:g]) >= g * g]
    return max(qualifying, default=0)


def oracle_h2(counts):
    counts = sorted(counts, reverse=True)
    qualifying = [k for k in range(1, len(counts) + 1) if counts[k - 1] >= k * k]
    return max(qualifying, default=0)


def oracle_w(counts):
    counts = sorted(counts, reverse=True)
    qualifying = [w for w in range(1, len(counts) + 1) if counts[w - 1] >= 10 * w]
    return max(qualifying, default=0)


def oracle_maxprod(counts):
    counts = sorted(counts, reverse=True)
    return max((i * counts[i - 1] for i in range(1, len(counts) + 1)), default=0)


def _harmonic_mean(top):
    if any(c == 0 for c in top):
        return Fraction(0)
    return Fraction(len(top)) / sum(Fraction(1, c) for c in top)


def oracle_f(counts):
    counts = sorted(counts, reverse=True)
    qualifying = [f for f in range(1, len(counts) + 1)
                  if _harmonic_mean(counts[:f]) >= f]
    return max(qualifying, default=0)


def _geometric_mean_at_least(top, threshold):
    # exp(mean(log c)) >= t  <=>  prod(c) >= t**len, compared in exact integers
    if any(c == 0 for c in top):
        return False
    return math.prod(top) >= threshold ** len(top)


def oracle_t(counts):
    counts = sorted(counts, reverse=True)
    qualifying = [t for t in range(1, len(counts) + 1)
                  if _geometric_mean_at_least(counts[:t], t)]
    return max(qualifying, default=0)


def oracle_hw(counts):
    counts = sorted(counts, reverse=True)
    h = oracle_h(counts)
    if h == 0:
        return 0.0
    # weighted rank r_w(j) = sum(top j) / h must not exceed the j-th count
    qualifying = [j for j in range(1, len(counts) + 1)
                  if Fraction(sum(counts[:j]), h) <= counts[j - 1]]
    return math.sqrt(sum(counts[:max(qualifying, default=0)]))


def _h_core(counts):
    """The h-core: the top oracle_h(counts) counts, descending."""
    counts = sorted(counts, reverse=True)
    return counts[:oracle_h(counts)]


def oracle_a(counts):
    core = _h_core(counts)
    return sum(core) / len(core) if core else 0.0


def oracle_r(counts):
    return math.sqrt(sum(_h_core(counts)))


def oracle_r_m(counts):
    # square roots summed in rank order, highest count first
    return math.sqrt(sum(math.sqrt(c) for c in _h_core(counts)))


def oracle_h_core_cv(counts):
    """Sample standard deviation (h - 1 divisor) of the h-core counts over
    their mean; 0 when the core has at most one paper."""
    core = _h_core(counts)
    if len(core) <= 1:
        return 0.0
    mean = sum(core) / len(core)
    return math.sqrt(sum((c - mean) ** 2 for c in core) / (len(core) - 1)) / mean


def oracle_r_m_cv(counts):
    return oracle_r_m(counts) - oracle_h_core_cv(counts)


def oracle_h_alpha(counts, alpha):
    """sqrt(h**2 + alpha * N_c), or None where the radicand is negative or
    not finite and the index is undefined."""
    h = oracle_h(counts)
    radicand = h * h + alpha * sum(counts)
    if radicand < 0 or not math.isfinite(radicand):
        return None
    return math.sqrt(radicand)


def _effective_rank(pairs, j):
    return sum(Fraction(1, authors) for _, authors in pairs[:j])


def oracle_schreiber_hm(pairs):
    # (citations, authors) pairs, citations descending with ties kept in order
    pairs = sorted(pairs, key=lambda p: -p[0])
    qualifying = [_effective_rank(pairs, j) for j in range(1, len(pairs) + 1)
                  if _effective_rank(pairs, j) <= pairs[j - 1][0]]
    return float(max(qualifying, default=0))


def oracle_sequence(years, counts):
    """h of every window [start, last] of publication years, newest first,
    each window's counts collected and scanned from scratch."""
    last, first = max(years), min(years)
    return [oracle_h([c for y, c in zip(years, counts) if start <= y])
            for start in range(last, first - 1, -1)]


def oracle_score_h(scores):
    """Largest k such that at least k real-valued scores reach k, counted
    from scratch for every candidate k (scores compared unrounded)."""
    qualifying = [k for k in range(1, len(scores) + 1)
                  if sum(1 for s in scores if s >= k) >= k]
    return max(qualifying, default=0)


def contemporary_score_vector(pubs, now, gamma, delta):
    """Contemporary scores of (year, citations) pairs, in the given order:
    gamma * age**(-delta) * citations with age = now - year + 1."""
    return [gamma * (now - year + 1) ** (-delta) * citations for year, citations in pubs]


def trend_score_vector(pubs, now, gamma, delta):
    """Trend scores of (year, citation event years) pairs, in the given
    order: gamma times the sum over events of age**(-delta), each age
    counted from the event's year."""
    return [gamma * sum((now - event + 1) ** (-delta) for event in events)
            for _, events in pubs]


def oracle_contemporary_h(pubs, now, gamma, delta):
    return oracle_score_h(contemporary_score_vector(pubs, now, gamma, delta))


def oracle_trend_h(pubs, now, gamma, delta):
    return oracle_score_h(trend_score_vector(pubs, now, gamma, delta))


def oracle_hi(pairs, center):
    """h divided by the mean or median author count of the h-core, the
    (citations, authors) pairs ranked by citations with ties kept in order."""
    pairs = sorted(pairs, key=lambda p: -p[0])
    h = oracle_h([c for c, _ in pairs])
    if h == 0:
        return 0.0
    authors = sorted(a for _, a in pairs[:h])
    if center == "mean":
        return h / (sum(authors) / h)
    middle = h // 2
    median = authors[middle] if h % 2 else (authors[middle - 1] + authors[middle]) / 2
    return h / median


def oracle_pure_h(pairs, scores=None):
    """h over the square root of the mean equivalent-author number of the
    h-core, the (citations, authors) pairs ranked by citations with ties
    kept in order.  The equivalent number is the author count, or 1/score
    when per-entry credit scores, aligned with that ranking, are given."""
    pairs = sorted(pairs, key=lambda p: -p[0])
    h = oracle_h([c for c, _ in pairs])
    if h == 0:
        return 0.0
    if scores is None:
        equivalent = [a for _, a in pairs[:h]]
    else:
        equivalent = [1.0 / s for s in scores[:h]]
    return h / math.sqrt(sum(equivalent) / h)


def _rank(pubs):
    """(id, year, citations, ...) tuples ranked by citations descending,
    ties by year, then id, ascending."""
    return sorted(pubs, key=lambda pub: (-pub[2], pub[1], pub[0]))


def oracle_authored_pairs(pubs):
    """(citations, authors) pairs of (id, year, citations, authors) tuples,
    ranked by the record tie rule: citations descending, then year and id
    ascending."""
    return [(c, authors) for _, _, c, authors in _rank(pubs)]


def oracle_ar(pubs, now):
    """Square root of the sum of citations/age over the h-core of (id, year,
    citations) triples, summed in rank order, ages counted to now."""
    ranked = _rank(pubs)
    h = oracle_h([c for _, _, c in ranked])
    return math.sqrt(sum(c / (now - year + 1) for _, year, c in ranked[:h]))


def oracle_m_quotient(pubs, now):
    """h of (id, year, citations) triples over the career length in years,
    first publication to now inclusive."""
    return oracle_h([c for _, _, c in pubs]) / (now - min(y for _, y, _ in pubs) + 1)


def oracle_h_norm_output(counts):
    return oracle_h(counts) / len(counts)


def _same_author(a, b):
    return a.strip().casefold() == b.strip().casefold()


def oracle_kept_events(authors, events, owner, mode):
    """The (year, citing authors) events of one publication that are not
    self-citations.  Under exclude_own an event is one when a citing author
    is the owner; under exclude_coauthor when a citing author is the owner
    or one of the publication's authors.  Names match after trimming and
    case-folding, each pair compared on its own."""
    blocked = [owner] if mode == "exclude_own" else [*authors, *([owner] if owner else [])]
    return [(year, citing) for year, citing in events
            if not any(_same_author(c, b) for c in citing for b in blocked)]


def oracle_glanzel_H(sample, n):
    """Glänzel's H of the empirical tail of a non-negative sample against
    sample size n: the largest r in 1..n whose characteristic value
    u_r = max{k : G(k) >= r/n} reaches r, every u_r found by trying each
    k from 0 to the sample maximum, with G(k) the exact share of the sample
    at k or above."""
    def survival(k):
        return Fraction(sum(1 for x in sample if x >= k), len(sample))

    def u(r):
        return max(k for k in range(max(sample) + 1) if survival(k) >= Fraction(r, n))

    return max((r for r in range(1, n + 1) if u(r) >= r), default=0)


def oracle_pareto_glanzel_H(exponent, n):
    """Glänzel's H of the discrete Pareto tail G(k) = k**-exponent, k >= 1,
    against sample size n, as in oracle_glanzel_H: every u_r found by trying
    k = 1, 2, ... until G(k + 1) falls below r/n.  G(k) is an exact fraction
    for an integral exponent and the float k**-exponent otherwise."""
    def survival(k):
        if float(exponent).is_integer():
            return Fraction(1, k ** int(exponent))
        return float(k) ** -exponent

    def u(r):
        k = 1
        while survival(k + 1) >= Fraction(r, n):
            k += 1
        return k

    return max((r for r in range(1, n + 1) if u(r) >= r), default=0)

import math
import time

import pytest
from hypothesis import example, given, strategies as st

import vector_oracles as vo
from citemetrics import (CitationRecord, DomainError, IndexConfig, Publication,
                         a_index, citation_vector, compute_report, f_index,
                         g_index, h2_index, h_alpha_predict, h_core_cv,
                         h_core_sum, h_index, hw_index, maxprod, r_index,
                         rm_index, rmcv_index, t_index, w_index)
from citemetrics.core import _score_h, _threshold_rank
from golden_values import CLASSIFIED_PRINTED, EQUAL_H_PRINTED, NEW_INDEX_PRINTED

counts_lists = st.lists(st.integers(min_value=0, max_value=200), max_size=40)
positive_counts = st.lists(st.integers(min_value=1, max_value=200),
                           min_size=1, max_size=40)
# Counts that f and t decide past h: an exact tie at the crossing (a
# reciprocal sum of exactly 1, a product of exactly t**t), long runs of equal
# counts and counts near 2**63, each with a short tail that can end the scan.
# The g and h_w oracles would scan up to sqrt(2**63) ranks, so these go to f
# and t alone.
_CROSSINGS = st.one_of(
    st.sampled_from([(2, 3, 6), (2, 4, 4), (3, 3, 3), (2, 3, 7, 42), (2, 4, 6, 12),
                     (3, 4, 4, 6), (4, 4, 4, 4)]),
    st.integers(min_value=2, max_value=6).map(lambda t: (t ** t,) + (1,) * (t - 1)),
    st.sampled_from([(4, 1), (9, 3, 1), (16, 8, 2, 1), (8, 8, 2, 2), (25, 25, 5, 1, 1)]),
    st.tuples(st.integers(min_value=0, max_value=60),
              st.integers(min_value=1, max_value=80)).map(lambda run: (run[0],) * run[1]),
    st.lists(st.integers(min_value=2 ** 63 - 2 ** 10, max_value=2 ** 63 - 1)
             | st.integers(min_value=0, max_value=60), max_size=40).map(tuple),
)
crossing_counts = st.tuples(_CROSSINGS, st.lists(st.integers(min_value=0, max_value=8),
                                                 max_size=5)).map(lambda ct: [*ct[0], *ct[1]])


# ---------------------------------------------------------------------------
# Golden tables

@pytest.mark.parametrize("name", sorted(EQUAL_H_PRINTED))
def test_equal_h_cohort_reproduces_printed_row(name, equal_h_records):
    v = citation_vector(equal_h_records[name])
    printed = EQUAL_H_PRINTED[name]
    assert h_index(v) == printed["h"]
    assert g_index(v, "unbounded") == printed["g"]
    assert a_index(v) == pytest.approx(printed["a"], abs=0.05)
    assert r_index(v) == pytest.approx(printed["r"], abs=0.05)
    assert hw_index(v) == pytest.approx(printed["h_w"], abs=0.05)
    assert w_index(v) == printed["w"]
    assert maxprod(v) == printed["maxprod"]
    assert h2_index(v) == printed["h2"]
    assert h_core_sum(v) == printed["core_sum"]


@pytest.mark.parametrize("name", sorted(CLASSIFIED_PRINTED))
def test_classified_authors_reproduce_printed_row(name, classified_records):
    v = citation_vector(classified_records[name])
    printed = CLASSIFIED_PRINTED[name]
    assert h_index(v) == printed["h"]
    assert g_index(v, "bounded") == printed["g"]
    assert a_index(v) == pytest.approx(printed["a"], abs=0.05)
    assert r_index(v) == pytest.approx(printed["r"], abs=0.05)


@pytest.mark.parametrize("name", sorted(NEW_INDEX_PRINTED))
def test_root_sum_root_family_reproduces_printed_row(name, classified_records):
    v = citation_vector(classified_records[name])
    printed = NEW_INDEX_PRINTED[name]
    assert rm_index(v) == pytest.approx(printed["r_m"], abs=0.005)
    assert h_core_cv(v) == pytest.approx(printed["h_core_cv"], abs=0.005)
    assert rmcv_index(v) == pytest.approx(printed["r_m_cv"], abs=0.01)


# ---------------------------------------------------------------------------
# Per-index cases

ACE = [100, 28, 25, 7, 7, 7, 7, 4, 4] + [1] * 11
BCE = [60, 60, 50, 20, 5, 1, 1, 1, 1, 1]


def test_h_empty_and_uncited():
    assert h_index([]) == 0
    assert h_index([0, 0]) == 0


def test_h_ace():
    assert h_index(ACE) == 7


def test_g_unbounded_pads_with_zero_ranks(equal_h_records):
    assert g_index(citation_vector(equal_h_records["A"]), "unbounded") == 17


def test_g_bounded_caps_at_paper_count():
    assert g_index(BCE, "bounded") == 10
    assert g_index(BCE, "unbounded") == 14


def test_g_unbounded_past_the_last_paper_is_the_root_of_the_total():
    # no scan over the 2**31 zero-citation ranks beyond the one paper
    assert g_index([2 ** 62], "unbounded") == 2 ** 31
    assert g_index([2 ** 62], "bounded") == 1


def test_a_basic(equal_h_records):
    assert a_index(citation_vector(equal_h_records["D"])) == 34
    assert a_index(ACE) == pytest.approx(181 / 7)
    assert a_index([1]) == 1


def test_r_basic(equal_h_records):
    assert r_index(citation_vector(equal_h_records["D"])) == pytest.approx(math.sqrt(340))
    assert r_index([1]) == 1


def test_hw_weighted_rank_cases(equal_h_records):
    assert hw_index(citation_vector(equal_h_records["A"])) == pytest.approx(math.sqrt(280))
    # scientist E crosses at rank 3 with 193 core citations kept
    assert hw_index(citation_vector(equal_h_records["E"])) == pytest.approx(math.sqrt(193))


def test_hw_uniform_vector_is_k():
    for k in (1, 3, 7):
        assert hw_index([k] * k) == k


def test_h2_cases(equal_h_records):
    assert h2_index(citation_vector(equal_h_records["A"])) == 5
    assert h2_index(citation_vector(equal_h_records["B"])) == 4
    assert h2_index([1]) == 1


def test_w_cases(equal_h_records):
    assert w_index(citation_vector(equal_h_records["A"])) == 3
    assert w_index(citation_vector(equal_h_records["E"])) == 2
    assert w_index([10]) == 1
    assert w_index([9]) == 0


def test_maxprod_cases(equal_h_records):
    assert maxprod(citation_vector(equal_h_records["A"])) == 252
    assert maxprod(citation_vector(equal_h_records["C"])) == 112
    assert maxprod([17]) == 17
    assert maxprod([]) == 0


def test_f_cases():
    assert f_index(ACE) == 8
    assert f_index([4] * 4) == 4
    assert f_index([0, 0]) == 0


def test_t_cases():
    assert t_index(ACE) == 9
    assert t_index([4] * 4) == 4
    assert t_index([1]) == 1


@pytest.mark.parametrize("tail, f, t", [((), 50_000, 50_000), ((1, 0), 50_000, 50_001)])
def test_f_and_t_pass_the_h_core_without_arithmetic(tail, f, t):
    # Every rank up to h passes, so 50,000 counts of 2**62 need no product or
    # reciprocal sum; a tail past h builds the h-core's once, as a tree.
    counts = [2 ** 62] * 50_000 + list(tail)
    for index, want in ((f_index, f), (t_index, t)):
        started = time.perf_counter()
        assert index(counts) == want
        assert time.perf_counter() - started < 1.0


def test_f_and_t_pass_distinct_huge_counts_without_arithmetic():
    # 50,000 distinct odd counts near 2**62 all lie in the h-core, so no rank
    # needs a product or a reciprocal sum of those counts.
    counts = [2 ** 62 + 2 * i + 1 for i in range(50_000)]
    for index in (f_index, t_index):
        started = time.perf_counter()
        assert index(counts) == 50_000
        assert time.perf_counter() - started < 1.0


def test_rm_single():
    assert rm_index([1]) == 1


def test_cv_uniform_core_is_zero():
    assert h_core_cv([5] * 5) == 0.0
    assert h_core_cv([1]) == 0.0


def test_rmcv_uniform_core_keeps_rm():
    assert rmcv_index([4] * 4) == rm_index([4] * 4)


def test_h_alpha_cases():
    assert h_alpha_predict(10, 0) == 10
    assert h_alpha_predict(10, 400) == pytest.approx(math.sqrt(60))
    with pytest.raises(DomainError):
        h_alpha_predict(3, 100)


def test_uniform_fixture_collapses_all_indices():
    for k in (1, 2, 5, 9):
        v = [k] * k
        assert (h_index(v) == g_index(v, "bounded") == g_index(v, "unbounded")
                == f_index(v) == t_index(v) == k)
        assert a_index(v) == r_index(v) == hw_index(v) == k


def test_core_values_through_report(equal_h_records):
    rep = compute_report(equal_h_records["A"], IndexConfig(g_convention="unbounded"),
                         "h,g,w,h_alpha")
    assert (rep.values["h"], rep.values["g"], rep.values["w"]) == (10, 17, 3)
    assert rep.values["h_alpha"] == pytest.approx(math.sqrt(100 - 0.1 * 290))


# ---------------------------------------------------------------------------
# Oracle equivalence and invariants (spot versions; the full seeded corpus
# lives in the acceptance suite)

def _counts_record(counts):
    return CitationRecord(entity="X", publications=tuple(
        Publication(id=f"p{i}", year=2000, citation_count=c)
        for i, c in enumerate(counts)))


_ORACLES = [
    (h_index, vo.oracle_h), (h2_index, vo.oracle_h2), (w_index, vo.oracle_w),
    (maxprod, vo.oracle_maxprod), (f_index, vo.oracle_f), (t_index, vo.oracle_t),
    (hw_index, vo.oracle_hw), (a_index, vo.oracle_a), (r_index, vo.oracle_r),
    (rm_index, vo.oracle_r_m), (h_core_cv, vo.oracle_h_core_cv),
    (rmcv_index, vo.oracle_r_m_cv),
    (lambda v: g_index(v, "bounded"), lambda c: vo.oracle_g(c, "bounded")),
    (lambda v: g_index(v, "unbounded"), lambda c: vo.oracle_g(c, "unbounded")),
]


def _h_alpha(v, alpha):
    try:
        return h_alpha_predict(h_index(v), sum(v), alpha)
    except DomainError:
        return None


# Hand-picked vectors: empty, all zero, every rank passing g (so unbounded g
# is the isqrt of the total), and exact ties at the h, g and h_w thresholds.
@given(counts_lists, crossing_counts, st.sampled_from([-0.1, -1.0, 0.5]))
@example([], [], -0.1)
@example([0] * 6, [], -0.1)
@example([200] * 5, [], -0.1)
@example([1], [], -0.1)
@example([3, 3, 3], [], -0.1)
@example([5, 3, 1], [], -0.1)
@example([2, 2], [], -0.1)
@example([9, 3, 3, 1, 0], [], -0.1)
def test_matches_definitional_oracles(counts, crossing, alpha):
    # each index on the plain list and on the record's prepared citation
    # vector, which it reads as it is
    vector = citation_vector(_counts_record(counts))
    for index, oracle in _ORACLES:
        assert index(counts) == index(vector) == oracle(counts)
    assert (_h_alpha(counts, alpha) == _h_alpha(vector.counts, alpha)
            == vo.oracle_h_alpha(counts, alpha))
    vector = citation_vector(_counts_record(crossing))
    for index, oracle in ((f_index, vo.oracle_f), (t_index, vo.oracle_t)):
        assert index(crossing) == index(vector) == oracle(crossing)


def _first_failure_rank(counts, threshold):
    """The rank before the first whose count misses threshold(rank), trying
    each rank in order."""
    rank = 0
    while rank < len(counts) and counts[rank] >= threshold(rank + 1):
        rank += 1
    return rank


_THRESHOLDS = {"rank": lambda rank: rank, "rank**2": lambda rank: rank * rank,
               "10*rank": lambda rank: 10 * rank}


def _tied(k, threshold, tail):
    """k counts tied exactly at the k-th rank's threshold, then the tail's
    counts below it."""
    tie = _THRESHOLDS[threshold](k)
    return [tie] * k + [c for c in tail if c < tie]


# Descending vectors: empty or all zero, counts up to 2**63 - 1, or a tie.
_DESCENDING = st.one_of(
    st.lists(st.just(0), max_size=8),
    st.lists(st.integers(min_value=0, max_value=2 ** 63 - 1), max_size=40),
    st.builds(_tied, st.integers(min_value=0, max_value=12),
              st.sampled_from(sorted(_THRESHOLDS)), counts_lists),
).map(lambda counts: sorted(counts, reverse=True))


@pytest.mark.parametrize("threshold", sorted(_THRESHOLDS))
@given(_DESCENDING)
@example([])
def test_threshold_rank_matches_a_first_failure_scan(threshold, counts):
    threshold = _THRESHOLDS[threshold]
    assert _threshold_rank(counts, threshold) == _first_failure_rank(counts, threshold)


@given(st.lists(st.floats(min_value=-50, max_value=50)
                | st.sampled_from([math.inf, -math.inf, 0.0, 1.0, 3.0]), max_size=30))
@example([math.inf] * 3 + [-math.inf] * 2)
@example([-math.inf])
def test_score_h_matches_oracle(scores):
    assert _score_h(scores) == vo.oracle_score_h(scores)


@given(positive_counts)
def test_order_chain_on_positive_vectors(counts):
    assert (h_index(counts) <= f_index(counts) <= t_index(counts)
            <= g_index(counts, "unbounded"))


@given(counts_lists)
def test_structural_inequalities(counts):
    h = h_index(counts)
    assert h2_index(counts) <= h
    top = sorted(counts, reverse=True)
    if h > 0:
        assert a_index(counts) >= h
        assert maxprod(counts) >= h * top[h - 1] >= h * h


@given(counts_lists)
def test_r_squared_equals_a_times_h(counts):
    h = h_index(counts)
    if h > 0:
        assert r_index(counts) ** 2 == pytest.approx(a_index(counts) * h, abs=1e-9)


@given(counts_lists, st.data())
def test_incrementing_a_count_never_decreases(counts, data):
    if not counts:
        counts = [0]
    i = data.draw(st.integers(min_value=0, max_value=len(counts) - 1))
    bumped = list(counts)
    bumped[i] += 1
    assert h_index(bumped) >= h_index(counts)
    assert g_index(bumped, "unbounded") >= g_index(counts, "unbounded")
    assert r_index(bumped) >= r_index(counts)
    assert w_index(bumped) >= w_index(counts)
    assert h2_index(bumped) >= h2_index(counts)
    assert maxprod(bumped) >= maxprod(counts)


@given(counts_lists)
def test_appending_uncited_paper_changes_nothing(counts):
    extended = list(counts) + [0]
    assert h_index(extended) == h_index(counts)
    assert g_index(extended, "unbounded") == g_index(counts, "unbounded")
    assert a_index(extended) == a_index(counts)
    assert r_index(extended) == r_index(counts)
    assert hw_index(extended) == hw_index(counts)
    assert h2_index(extended) == h2_index(counts)
    assert w_index(extended) == w_index(counts)
    assert maxprod(extended) == maxprod(counts)
    assert rm_index(extended) == rm_index(counts)

import math

import pytest
from hypothesis import assume, given, strategies as st

import vector_oracles as vo
from citemetrics import (AuthoredVector, CitationRecord, FidelityError,
                         Publication, authored_vector, h_index, hi_index, pure_h,
                         schreiber_hm)

pair_lists = st.lists(st.tuples(st.integers(min_value=0, max_value=60),
                                st.integers(min_value=1, max_value=10)),
                      max_size=25)
# (citations, authors, year): small counts, so that equal counts straddle the
# h-core often; the year, and the id from the position, set the record tie
# order among them
authored_pubs = st.lists(st.tuples(st.integers(min_value=0, max_value=8),
                                   st.integers(min_value=1, max_value=10),
                                   st.integers(min_value=2000, max_value=2001)),
                         max_size=25)


def _authored_data(pubs):
    """The publications as plain (citations, authors) pairs in the given
    order, as a record's prepared authored vector, and as the oracle's pairs
    ranked by the record tie rule."""
    record = CitationRecord(entity="X", publications=tuple(
        Publication(id=f"p{i}", year=year, author_count=a, citation_count=c)
        for i, (c, a, year) in enumerate(pubs)))
    ranked = vo.oracle_authored_pairs(
        [(f"p{i}", year, c, a) for i, (c, a, year) in enumerate(pubs)])
    return [(c, a) for c, a, _ in pubs], authored_vector(record), ranked


def test_authored_vector_orders_and_requires_authors():
    record = CitationRecord(entity="X", publications=(
        Publication(id="b", year=2001, author_count=2, citation_count=4),
        Publication(id="a", year=2000, authors=("P", "Q", "R"), citation_count=9),
    ))
    av = authored_vector(record)
    assert av.entries == ((9, 3), (4, 2))

    bare = CitationRecord(entity="X", publications=(
        Publication(id="a", year=2000, citation_count=9),))
    with pytest.raises(FidelityError, match="author count"):
        authored_vector(bare)


def test_authored_vector_entries_are_read_as_they_are():
    # an AuthoredVector is taken to hold integer pairs, citations descending,
    # and is not sorted again; the same plain pairs are sorted first
    assert schreiber_hm(AuthoredVector(((1, 1), (5, 1)))) == 2.0
    assert schreiber_hm([(1, 1), (5, 1)]) == 1.0


def test_hi_single_authored_is_h():
    pairs = [(9, 1), (7, 1), (4, 1), (1, 1)]
    assert hi_index(pairs, "mean") == h_index([c for c, _ in pairs])


def test_hi_uniform_core():
    pairs = [(8, 2), (7, 2), (6, 2), (5, 2)]
    assert hi_index(pairs, "mean") == 2.0


def test_hi_mean_vs_median_divergence():
    pairs = [(9, 10), (8, 1), (7, 1), (6, 1)]
    assert hi_index(pairs, "mean") == pytest.approx(4 / 3.25)
    assert hi_index(pairs, "median") == 4.0


def test_hi_even_core_median_is_midpoint():
    pairs = [(9, 5), (8, 3), (7, 2), (6, 1)]
    assert hi_index(pairs, "median") == pytest.approx(4 / 2.5)


@pytest.mark.parametrize("pairs", [[], [(0, 2)], [(5, 2)]],
                         ids=["no-pairs", "empty-core", "core"])
def test_hi_rejects_an_unknown_center_whatever_the_core(pairs):
    with pytest.raises(ValueError, match="unknown center 'bogus'"):
        hi_index(pairs, "bogus")


@pytest.mark.parametrize("pairs, mean, median", [
    ([(9, 10), (8, 1), (7, 1), (6, 1)], 4 / 3.25, 4.0),
    ([(9, 5), (8, 3), (7, 2), (6, 1)], 4 / 2.75, 4 / 2.5),
    ([(3, 2), (3, 4), (3, 9), (1, 1)], 3 / 5, 3 / 4),
    ([(0, 3)], 0.0, 0.0),
])
def test_hi_oracle_on_hand_computed_cores(pairs, mean, median):
    for center, want in (("mean", mean), ("median", median)):
        assert vo.oracle_hi(pairs, center) == pytest.approx(want)
        assert hi_index(pairs, center) == vo.oracle_hi(pairs, center)


@pytest.mark.parametrize("center", ["mean", "median"])
@given(pairs=pair_lists, pubs=authored_pubs)
def test_hi_matches_oracle(pairs, pubs, center):
    assert hi_index(pairs, center) == vo.oracle_hi(pairs, center)
    given_order, vector, ranked = _authored_data(pubs)
    assert hi_index(given_order, center) == vo.oracle_hi(given_order, center)
    assert hi_index(vector, center) == vo.oracle_hi(ranked, center)


def test_pure_h_cases():
    single = [(9, 1), (7, 1), (4, 1), (1, 1)]
    assert pure_h(single) == h_index([c for c, _ in single])
    uniform = [(8, 4), (7, 4), (6, 4), (5, 4)]
    assert pure_h(uniform) == 2.0
    skewed = [(9, 10), (8, 1), (7, 1), (6, 1)]
    assert pure_h(skewed) == pytest.approx(4 / math.sqrt(3.25))


def test_pure_h_score_override():
    pairs = [(9, 4), (8, 4), (7, 4), (6, 4)]
    # equal shares of 1/2 mean two equivalent authors regardless of the count
    assert pure_h(pairs, scores=[0.5, 0.5, 0.5, 0.5]) == pytest.approx(4 / math.sqrt(2))


def _scores(data, n):
    return data.draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                              min_size=n, max_size=n))


@given(pair_lists, authored_pubs, st.data())
def test_pure_h_matches_oracle(pairs, pubs, data):
    assert pure_h(pairs) == vo.oracle_pure_h(pairs)
    scores = _scores(data, len(pairs))
    assert pure_h(pairs, scores) == vo.oracle_pure_h(pairs, scores)
    given_order, vector, ranked = _authored_data(pubs)
    assert pure_h(given_order) == vo.oracle_pure_h(given_order)
    assert pure_h(vector) == vo.oracle_pure_h(ranked)
    scores = _scores(data, len(pubs))
    assert pure_h(given_order, scores) == vo.oracle_pure_h(given_order, scores)
    assert pure_h(vector, scores) == vo.oracle_pure_h(ranked, scores)


def test_schreiber_hand_accumulations():
    assert schreiber_hm([(6, 2), (5, 1), (4, 2), (3, 1)]) == 3.0
    assert schreiber_hm([(2, 3), (1, 3)]) == pytest.approx(2 / 3)
    assert schreiber_hm([]) == 0.0


def test_schreiber_single_authored_is_h():
    pairs = [(5, 1), (4, 1), (4, 1), (2, 1), (1, 1)]
    assert schreiber_hm(pairs) == h_index([c for c, _ in pairs])


@given(pair_lists)
def test_all_single_author_collapse(pairs):
    pairs = [(c, 1) for c, _ in pairs]
    h = h_index([c for c, _ in pairs])
    assert hi_index(pairs, "mean") == h
    assert hi_index(pairs, "median") == h
    assert pure_h(pairs) == h
    assert schreiber_hm(pairs) == h


@given(pair_lists, authored_pubs)
def test_schreiber_matches_oracle(pairs, pubs):
    assert schreiber_hm(pairs) == vo.oracle_schreiber_hm(pairs)
    given_order, vector, ranked = _authored_data(pubs)
    assert schreiber_hm(given_order) == vo.oracle_schreiber_hm(given_order)
    assert schreiber_hm(vector) == vo.oracle_schreiber_hm(ranked)


@given(pair_lists)
def test_schreiber_never_exceeds_h(pairs):
    assert schreiber_hm(pairs) <= h_index([c for c, _ in pairs])


def _ranking(pairs):
    # the order schreiber_hm scans: citations descending, ties kept in order
    return sorted(range(len(pairs)), key=lambda k: -pairs[k][0])


@given(pair_lists.filter(bool), st.data())
def test_schreiber_monotone_in_citations(pairs, data):
    # Only bumps that keep the citation ranking: the effective ranks then stay
    # put while one count rises, so no rank can stop fitting.
    i = data.draw(st.integers(min_value=0, max_value=len(pairs) - 1))
    bumped = list(pairs)
    bumped[i] = (bumped[i][0] + 1, bumped[i][1])
    assume(_ranking(bumped) == _ranking(pairs))
    assert schreiber_hm(bumped) >= schreiber_hm(pairs)


def test_schreiber_can_fall_when_a_bump_reorders_the_ranking():
    # The two-author paper overtakes the single-author one: its effective
    # rank 1/2 comes first and the next, 3/2, no longer fits under 1.
    assert schreiber_hm([(1, 1), (1, 2)]) == 1.0
    assert schreiber_hm([(1, 1), (2, 2)]) == 0.5
    assert vo.oracle_schreiber_hm([(1, 1), (2, 2)]) == 0.5


@given(pair_lists)
def test_pure_h_at_least_mean_variant(pairs):
    # dividing by sqrt of the mean author count can only exceed dividing by it
    assert pure_h(pairs) >= hi_index(pairs, "mean") - 1e-12

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from citemetrics import (CohortPoint, DegenerateCohortError, DomainError,
                         FieldProfile, RecordValidationError,
                         UndefinedInputError, field_factor,
                         field_normalized_h, impact_factor, impact_index_hm,
                         relative_h, research_status, sri,
                         theoretical_h_estimate, vanraan_diagnostic)
from citemetrics.cli import main


def test_impact_factor_cases():
    assert impact_factor(100, 50) == 2.0
    assert impact_factor(0, 50) == 0.0
    assert impact_factor(19, 38) == 0.5
    with pytest.raises(UndefinedInputError,
                       match="impact factor needs at least one source article"):
        impact_factor(10, 0)


@pytest.mark.parametrize("n_citations, n_articles, message", [
    (10, -1, "n_articles must be non-negative"),
    (-1, 10, "n_citations must be non-negative"),
    (-1, -1, "n_articles must be non-negative"),
], ids=["articles", "citations", "both"])
def test_impact_factor_rejects_negative_counts(n_citations, n_articles, message):
    with pytest.raises(RecordValidationError, match=message):
        impact_factor(n_citations, n_articles)


def test_relative_h_cases():
    assert relative_h(10, 10) == 1.0
    assert relative_h(0, 5) == 0.0
    assert relative_h(7, 20) == 0.35
    with pytest.raises(UndefinedInputError):
        relative_h(3, 0)


def test_sri_cases():
    assert sri(10, 100) == pytest.approx(5.0)
    assert sri(17, 17) == pytest.approx(10.0)
    assert sri(20, 500) == pytest.approx(10 * math.log(20) / math.log(500))
    with pytest.raises(DomainError):
        sri(0, 100)
    with pytest.raises(DomainError, match="strike rate index needs h >= 1"):
        sri(-3, 10)
    with pytest.raises(DomainError):
        sri(5, 1)


def test_sri_is_log_base_independent():
    value_ln = 10 * math.log(37) / math.log(812)
    value_log10 = 10 * math.log10(37) / math.log10(812)
    assert sri(37, 812) == pytest.approx(value_ln, abs=1e-12)
    assert value_ln == pytest.approx(value_log10, abs=1e-12)


def test_impact_index_cases():
    assert impact_index_hm(13, 1, 0.4) == 13
    assert impact_index_hm(20, 1000, 0.4) == pytest.approx(20 / 1000 ** 0.4)
    assert impact_index_hm(0, 50, 0.4) == 0.0
    assert impact_index_hm(9, 123, 0.0) == 9.0


def test_field_normalization_cases():
    physics = FieldProfile("physics", 4.0)
    assert field_normalized_h(10, physics, physics) == pytest.approx(10.0)
    dense = FieldProfile("dense", 32.0)
    assert field_normalized_h(10, dense, physics) == pytest.approx(2.5)
    assert field_normalized_h(0, dense, physics) == 0.0


def test_field_profile_requires_positive_chi():
    with pytest.raises(DomainError):
        FieldProfile("bad", 0.0)


@given(st.floats(min_value=0.1, max_value=50), st.floats(min_value=0.1, max_value=50),
       st.integers(min_value=0, max_value=80))
def test_normalize_then_denormalize_round_trips(chi_a, chi_b, h):
    a = FieldProfile("a", chi_a)
    b = FieldProfile("b", chi_b)
    there = field_normalized_h(h, a, b)
    assert field_factor(b, a) * field_factor(a, b) == pytest.approx(1.0, abs=1e-9)
    assert field_normalized_h(there, b, a) == pytest.approx(h, abs=1e-9)


def test_theoretical_h_estimate_cases():
    assert theoretical_h_estimate(4, 1.0) == pytest.approx(1.0)
    assert theoretical_h_estimate(32, 1.0) == pytest.approx(2.0)
    assert theoretical_h_estimate(100, 10.0) == pytest.approx(2500 ** (1 / 3))
    # the literal reading keeps the mean-rate power inside the cube root
    assert theoretical_h_estimate(4, 8.0, literal_radical=True) == pytest.approx(4 ** (1 / 3))
    with pytest.raises(DomainError):
        theoretical_h_estimate(0, 1.0)


def test_research_status_collinear_cohort():
    cohort = [("a", 10, 2), ("b", 20, 4), ("c", 30, 6)]
    assert all(res == pytest.approx(0.0, abs=1e-12)
               for _, res in research_status(cohort))


def test_research_status_closed_form():
    residuals = dict(research_status([("a", 10, 5), ("b", 20, 10), ("c", 30, 12)]))
    assert residuals["a"] == pytest.approx(-0.5)
    assert residuals["b"] == pytest.approx(1.0)
    assert residuals["c"] == pytest.approx(-0.5)


def test_research_status_duplicated_cohort_keeps_residuals():
    base = [("a", 10, 5), ("b", 20, 10), ("c", 30, 12)]
    doubled = [(f"{e}{tag}", n, h) for e, n, h in base for tag in ("1", "2")]
    single = dict(research_status(base))
    both = dict(research_status(doubled))
    for e, _, _ in base:
        assert both[f"{e}1"] == pytest.approx(single[e])
        assert both[f"{e}2"] == pytest.approx(single[e])


def test_research_status_degenerate_cohorts():
    with pytest.raises(DegenerateCohortError):
        research_status([("a", 10, 5), ("b", 20, 10)])
    with pytest.raises(DegenerateCohortError):
        research_status([("a", 10, 5), ("b", 10, 6), ("c", 10, 7)])


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=100),
                          st.integers(min_value=0, max_value=40)),
                min_size=3, max_size=20))
def test_research_status_residual_orthogonality(points):
    cohort = [(f"e{i}", n, min(h, n)) for i, (n, h) in enumerate(points)]
    if len({n for _, n, _ in cohort}) < 2:
        return
    residuals = research_status(cohort)
    res = [r for _, r in residuals]
    xs = [n for _, n, _ in cohort]
    assert sum(res) == pytest.approx(0.0, abs=1e-9)
    assert sum(r * x for r, x in zip(res, xs)) == pytest.approx(0.0, abs=1e-6)


def test_cohort_point_validation():
    with pytest.raises(RecordValidationError):
        CohortPoint("bad", 3, 5)
    with pytest.raises(RecordValidationError, match="'neg': counts must be non-negative"):
        CohortPoint("neg", -1, 0)
    with pytest.raises(RecordValidationError, match="'big': n_p does not fit"):
        CohortPoint("big", 2 ** 63, 0)
    # n_p and h follow the type rule of the (entity, n_p, h) tuples
    with pytest.raises(ValueError, match="^n_p 2.5 is not an integer$"):
        research_status([CohortPoint("a", 2.5, 1), ("b", 3, 1), ("c", 4, 2)])
    with pytest.raises(ValueError, match="^n_p True is a bool, not an integer$"):
        CohortPoint("c", True, 0)
    with pytest.raises(ValueError, match="^h 1.0 is not an integer$"):
        CohortPoint("d", 3, 1.0)
    assert type(CohortPoint("e", np.int64(3), np.int32(1)).n_p) is int


@pytest.mark.parametrize("point, error, message", [
    (("a", -1, 0), RecordValidationError, "^'a': counts must be non-negative$"),
    (("a", 2 ** 63, 0), RecordValidationError, "^'a': n_p does not fit"),
    (("a", 3, 5), RecordValidationError, r"^'a': h \(5\) exceeds publication count \(3\)$"),
    (("a", 2.5, 1), ValueError, "^n_p 2.5 is not an integer$"),
    (("a", 3), ValueError, "not enough values to unpack"),
], ids=["negative", "over-int64", "h-over-n_p", "float", "2-tuple"])
def test_research_status_reads_tuples_as_cohort_points(point, error, message):
    with pytest.raises(error, match=message):
        research_status([point, ("b", 3, 1), ("c", 4, 2)])
    if len(point) == 3:
        with pytest.raises(error, match=message):
            CohortPoint(*point)


def test_research_status_treats_tuples_and_cohort_points_alike():
    cohort = [("a", 10, 5), ("b", np.int64(20), 10), ("c", 30, np.int32(12))]
    assert research_status(cohort) == research_status([CohortPoint(*p) for p in cohort])


def test_vanraan_cases():
    assert vanraan_diagnostic(0) == 0.0
    assert vanraan_diagnostic(1) == pytest.approx(0.42)
    assert vanraan_diagnostic(10000) == pytest.approx(0.42 * 10000 ** 0.45)
    with pytest.raises(DomainError):
        vanraan_diagnostic(-1)


@pytest.mark.parametrize("call, message", [
    (lambda: relative_h(-5, 2), "h -5 is below 0"),
    (lambda: impact_index_hm(-3, 5), "h -3 is below 0"),
    (lambda: impact_factor(True, 1), "n_citations True is a bool"),
    (lambda: sri(2.5, 10), "h 2.5 is not an integer"),
], ids=["relative-h", "impact-index", "impact-factor-bool", "sri-float"])
def test_journal_counts_read_through_the_plain_count_rule(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("h", ["-3", "0"])
def test_journal_with_h_below_1_is_the_strike_rate_error(capsys, h):
    code = main(["journal", "--articles", "10", "--citations", "5", "--h", h])
    out, err = capsys.readouterr()
    assert (code, out, err) == (4, "", "error: strike rate index needs h >= 1 and N >= 2\n")


_PHYSICS = FieldProfile("physics", 4.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: theoretical_h_estimate(True, 2), ValueError, "n_p True is a bool"),
    (lambda: theoretical_h_estimate(2.5, 2), ValueError, "n_p 2.5 is not an integer"),
    (lambda: vanraan_diagnostic(True), ValueError, "n_c True is a bool"),
    (lambda: vanraan_diagnostic(3.5), ValueError, "n_c 3.5 is not an integer"),
    (lambda: field_normalized_h(True, _PHYSICS, _PHYSICS), ValueError, "h True is a bool"),
    (lambda: field_normalized_h(-3, _PHYSICS, _PHYSICS), DomainError,
     "normalized h needs h >= 0"),
    (lambda: field_normalized_h(-0.5, _PHYSICS, _PHYSICS), DomainError,
     "normalized h needs h >= 0"),
    (lambda: field_normalized_h(math.nan, _PHYSICS, _PHYSICS), DomainError,
     "normalized h needs h >= 0"),
], ids=["estimate-bool", "estimate-float", "vanraan-bool", "vanraan-float", "normalized-bool",
        "normalized-negative", "normalized-negative-float", "normalized-nan"])
def test_field_counts_read_through_the_plain_count_rule(call, error, message):
    with pytest.raises(error, match=message):
        call()

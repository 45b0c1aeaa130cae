import math
import random
import textwrap
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import datagen
from citemetrics import (CitationRecord, DomainError, Publication, SimConfig,
                         TailFunction, UndefinedInputError, burrell_simulate,
                         citation_vector, dynamic_h, glanzel_H, group_hc,
                         group_hp, group_indices, h_index, lotkaian_h, successive_h,
                         totals)
from citemetrics.aggregate import MAX_SIMULATION_SIZE
from citemetrics.cli import main
from conftest import run_bounded
from vector_oracles import oracle_glanzel_H, oracle_pareto_glanzel_H


def _member(entity, counts):
    pubs = tuple(Publication(id=f"p{i}", year=2000, citation_count=c)
                 for i, c in enumerate(counts))
    return CitationRecord(entity=entity, publications=pubs)


def _member_with_h(entity, h):
    return _member(entity, [h] * h if h else [0])


def test_successive_h_rank_scan():
    group = [_member_with_h(f"m{i}", h) for i, h in enumerate([5, 4, 3, 3, 2])]
    assert successive_h(group) == 3


def test_successive_h_uniform_members():
    for k, n in [(2, 5), (7, 3), (1, 1)]:
        group = [_member_with_h(f"m{i}", k) for i in range(n)]
        assert successive_h(group) == min(k, n)


def test_successive_h_single_member():
    assert successive_h([_member_with_h("solo", 9)]) == 1
    assert successive_h([_member_with_h("solo", 0)]) == 0


def test_successive_h_empty_group():
    with pytest.raises(UndefinedInputError):
        successive_h([])


def test_group_hp_hc():
    group = [_member("a", [1] * 30), _member("b", [1] * 20), _member("c", [1] * 10)]
    assert group_hp(group) == 3
    zeroes = [_member("a", [0, 0]), _member("b", [0])]
    assert group_hc(zeroes) == 0
    skewed = [_member("a", [50, 50]), _member("b", [1])]
    assert group_hc(skewed) == 1


def test_group_indices_match_their_definitions():
    rnd = random.Random(7)
    for _ in range(50):
        group = [_member(f"m{i}", [rnd.randint(0, 30) for _ in range(rnd.randint(1, 12))])
                 for i in range(rnd.randint(1, 10))]
        hs = [h_index(citation_vector(m)) for m in group]
        want = {"members": len(group), "successive_h": h_index(hs),
                "group_hp": h_index([totals(m)[0] for m in group]),
                "group_hc": h_index([totals(m)[1] for m in group])}
        assert group_indices(group) == want
        assert group_indices(iter(group)) == want
        for key in ("successive_h", "group_hp", "group_hc"):
            assert group_indices(group, (key,)) == {"members": len(group), key: want[key]}


@pytest.mark.parametrize("index", [successive_h, group_hp, group_hc, group_indices])
def test_group_indices_read_their_group_once(index):
    group = [_member("a", [5, 4, 3]), _member("b", [9, 9]), _member("c", [1])]
    reads = []

    def one_shot():
        for member in group:
            reads.append(member.entity)
            yield member

    assert index(one_shot()) == index(group)
    assert reads == ["a", "b", "c"]
    with pytest.raises(UndefinedInputError, match="group has no members"):
        index(iter([]))


def test_successive_h_structural_bounds():
    group = [_member_with_h(f"m{i}", h) for i, h in enumerate([9, 1, 1, 1])]
    s = successive_h(group)
    assert s <= len(group)
    assert s <= max(h_index(citation_vector(m)) for m in group)


def test_lotkaian_h_cases():
    assert lotkaian_h(100, 2.0) == pytest.approx(10.0)
    assert lotkaian_h(1, 3.7) == pytest.approx(1.0)
    assert lotkaian_h(1000, 2.5) == pytest.approx(1000 ** 0.4)
    with pytest.raises(DomainError):
        lotkaian_h(100, 1.0)
    with pytest.raises(DomainError):
        lotkaian_h(0, 2.0)


def test_dynamic_h_cases():
    assert dynamic_h(100, 2.0, 0.5, 0) == 0.0
    assert dynamic_h(100, 2.0, 0.5, 1) == pytest.approx(math.sqrt(50))
    with pytest.raises(DomainError):
        dynamic_h(100, 2.0, 1.5, 3)
    with pytest.raises(DomainError, match="time must be non-negative"):
        dynamic_h(100, 2.0, 0.5, -1)


def test_dynamic_h_monotone_and_converges():
    for alpha, b in [(2.0, 0.5), (1.5, 0.9), (3.0, 0.2)]:
        values = [dynamic_h(100, alpha, b, t) for t in range(0, 60)]
        assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))
        assert dynamic_h(100, alpha, b, 200) == pytest.approx(
            lotkaian_h(100, alpha), abs=1e-6)


def test_glanzel_on_empirical_tail_matches_h():
    sample = [35, 34, 33, 32, 31, 30, 29, 28, 28, 10]
    tail = TailFunction.from_sample(sample)
    assert glanzel_H(tail, len(sample)) == h_index(sample) == 10


def test_glanzel_degenerate_tail():
    tail = TailFunction(survival=lambda k: Fraction(1) if k == 0 else Fraction(0))
    assert glanzel_H(tail, 50) == 0


def test_glanzel_discrete_pareto_case():
    tail = TailFunction.discrete_pareto(2.0)
    assert glanzel_H(tail, 100) == 4


def test_glanzel_empirical_random_spot_check():
    rnd = random.Random(11)
    for _ in range(50):
        sample = [rnd.randint(0, 100) for _ in range(rnd.randint(1, 40))]
        assert glanzel_H(TailFunction.from_sample(sample), len(sample)) == h_index(sample)


def test_glanzel_discrete_pareto_float_exponents():
    assert glanzel_H(TailFunction.discrete_pareto(1.5), 100) == 6
    assert glanzel_H(TailFunction.discrete_pareto(2.5), 1000) == 7


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=25),
       st.integers(min_value=1, max_value=60))
def test_glanzel_matches_oracle(sample, n):
    assert glanzel_H(TailFunction.from_sample(sample), n) == oracle_glanzel_H(sample, n)


@given(st.integers(1, 6) | st.floats(1.0, 6.0), st.integers(min_value=1, max_value=60))
def test_glanzel_on_pareto_tails_matches_oracle(exponent, n):
    assert (glanzel_H(TailFunction.discrete_pareto(exponent), n)
            == oracle_pareto_glanzel_H(exponent, n))


def test_an_exponent_past_the_float_range_gives_a_zero_tail():
    # An exact k ** exponent would take memory without bound as the exponent
    # grows, so the calls run in a child whose memory is capped.
    child = run_bounded(textwrap.dedent("""
        from fractions import Fraction
        from citemetrics import TailFunction, glanzel_H
        for exponent in (1e300, 2 ** 1000, 1075):
            tail = TailFunction.discrete_pareto(exponent)
            assert tail.survival(2) == 0, exponent
            assert [glanzel_H(tail, n) for n in (10, 2 ** 63 - 1)] == [1, 1], exponent
        assert TailFunction.discrete_pareto(1074).survival(2) == Fraction(1, 2 ** 1074)
        """))
    assert (child.returncode, child.stderr) == (0, "")


def test_glanzel_reads_the_tail_at_most_H_plus_one_times():
    tail = TailFunction.from_sample([10 ** 6] * 3 + [1] * 5)
    calls = []

    def survival(k):
        calls.append(k)
        return tail.survival(k)

    H = glanzel_H(TailFunction(survival), 8)
    assert H == 3
    assert len(calls) <= H + 1


def test_glanzel_reads_the_tail_O_log_H_times():
    tail = TailFunction.discrete_pareto(1)
    calls = []

    def survival(k):
        calls.append(k)
        return tail.survival(k)

    # G(r) = 1/r >= r/n up to r = sqrt(n) exactly
    assert glanzel_H(TailFunction(survival), 10 ** 12) == 10 ** 6
    assert len(calls) <= 2 * (10 ** 6).bit_length() + 2


@pytest.mark.parametrize("n, error", [(0, DomainError), (-3, DomainError),
                                      (True, ValueError), (2.0, ValueError),
                                      (2 ** 63, ValueError)])
def test_glanzel_reads_n_as_a_plain_count(n, error):
    with pytest.raises(error):
        glanzel_H(TailFunction.discrete_pareto(2), n)


@pytest.mark.parametrize("exponent", [0, -1, math.nan, math.inf, 10 ** 400])
def test_discrete_pareto_needs_a_positive_finite_exponent(exponent):
    with pytest.raises(DomainError, match="tail exponent"):
        TailFunction.discrete_pareto(exponent)


def test_glanzel_tail_that_never_decays_gives_n():
    assert glanzel_H(TailFunction(survival=lambda k: Fraction(1)), 12_345) == 12_345


def test_simulation_is_deterministic():
    config = SimConfig(seed=42, careers=20, career_years=12)
    runs = [list(burrell_simulate(config)) for _ in range(2)]
    assert len(runs[0]) == 20 and runs[0] == runs[1]


def test_simulation_expected_size_matches_draws():
    config = SimConfig(seed=1, careers=400, career_years=12)
    drawn = sum(s.years + s.n_p + s.n_c for _, s in burrell_simulate(config))
    assert drawn == pytest.approx(config.expected_size(), rel=0.1)


@pytest.mark.parametrize("knobs", [
    {"pub_rate": 1e9}, {"pub_rate": math.inf}, {"pub_rate": math.nan},
    {"gamma_shape": math.nan}, {"citation_rate_scale": math.nan},
    {"citation_rate_scale": 1e9}, {"careers": 10 ** 400}, {"career_years": 10 ** 400},
    {"careers": MAX_SIMULATION_SIZE},
], ids=["pub-rate", "pub-rate-inf", "pub-rate-nan", "shape-nan", "scale-nan",
        "scale", "careers-huge", "years-huge", "careers"])
def test_oversized_simulation_is_rejected_before_drawing(knobs):
    with pytest.raises(DomainError, match="expected simulation size"):
        SimConfig(**knobs)


@pytest.mark.parametrize("knobs, message", [
    ({"careers": 0}, "careers and career_years must be positive"),
    ({"career_years": -1}, "careers and career_years must be positive"),
    ({"gamma_rate": 0.0}, "pub_rate, gamma_shape and gamma_rate must be positive"),
    ({"citation_rate_scale": -0.5}, "citation_rate_scale must be non-negative"),
], ids=["careers", "career-years", "gamma-rate", "rate-scale"])
def test_sim_config_rejects_each_knob_outside_its_domain(knobs, message):
    with pytest.raises(DomainError, match=message):
        SimConfig(**knobs)


def test_simulate_cli_refuses_oversized_ensemble(capsys):
    started = time.perf_counter()
    code = main(["simulate", "--pub-rate", "1e9"])
    assert time.perf_counter() - started < 1.0
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("error: expected simulation size 6.92e+13 ") and err.count("\n") == 1


@pytest.mark.parametrize("knobs, message", [
    ({"seed": True}, "seed True is a bool, not an integer"),
    ({"careers": 2.5}, "careers 2.5 is not an integer"),
    ({"career_years": 2.5}, "career_years 2.5 is not an integer"),
], ids=["bool-seed", "float-careers", "float-career-years"])
def test_sim_config_counts_must_be_plain_integers(knobs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimConfig(**knobs)


def test_sim_config_stores_its_counts_as_plain_ints():
    import numpy as np
    config = SimConfig(seed=np.int64(3), careers=np.int32(2), career_years=np.uint8(4))
    assert [type(config.seed), type(config.careers), type(config.career_years)] == [int] * 3
    assert (config.seed, config.careers, config.career_years) == (3, 2, 4)


@pytest.mark.parametrize("name", ["pub_rate", "gamma_shape", "citation_rate_scale"])
def test_a_knob_too_large_for_a_float_is_as_infinite_as_inf(name):
    messages = []
    for value in (10 ** 400, math.inf):
        with pytest.raises(DomainError) as exc:
            SimConfig(**{name: value})
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_negative_seed_is_rejected_before_drawing(capsys):
    with pytest.raises(DomainError, match="seed must be non-negative"):
        SimConfig(seed=-1)
    code = main(["simulate", "--seed=-1", "--careers", "2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (4, "", "error: seed must be non-negative\n")


def test_simulation_zero_rate_scale_kills_citations():
    config = SimConfig(seed=3, careers=15, career_years=10, citation_rate_scale=0.0)
    assert all(s.h == 0 and s.n_c == 0 for _, s in burrell_simulate(config))


def test_simulation_summary_consistency():
    for _, s in burrell_simulate(SimConfig(seed=9, careers=30, career_years=15)):
        assert 1 <= s.years <= 15
        assert s.h <= s.n_p
        assert s.core_size <= s.n_c
        if s.h:
            assert s.a == pytest.approx(s.core_size / s.h)


def test_simulation_records_are_event_level():
    for record, summary in burrell_simulate(SimConfig(seed=5, careers=5, career_years=8)):
        assert all(p.has_events for p in record.publications)
        assert h_index(citation_vector(record)) == summary.h


def test_simulation_memory_does_not_grow_with_the_ensemble():
    # Careers are drawn as they are read, so an ensemble read and dropped
    # one career at a time peaks at about one career (~0.15 MiB here),
    # whatever its size; kept, these 4,000 careers take ~4 MiB.
    # The child imports numpy and draws once before tracing, so that
    # neither numpy's import nor its first-call caches are counted.
    child = run_bounded(textwrap.dedent("""
        import tracemalloc
        from citemetrics import SimConfig, burrell_simulate
        list(burrell_simulate(SimConfig(careers=1)))
        tracemalloc.start()
        for _ in burrell_simulate(SimConfig(seed=1, careers=4000, career_years=2,
                                            pub_rate=1.0)):
            pass
        print(tracemalloc.get_traced_memory()[1])
        """))
    assert (child.returncode, child.stderr) == (0, "")
    assert int(child.stdout) < 2 ** 19, int(child.stdout)


def test_lotkaian_groups_order_group_indices():
    # model-generated groups should show successive <= h_p <= h_c nearly always
    rnd = random.Random(2024)
    violations = 0
    trials = 100
    for _ in range(trials):
        group = datagen.lotkaian_group(rnd, members=rnd.randint(3, 12), lotka_alpha=2.5)
        if not successive_h(group) <= group_hp(group) <= group_hc(group):
            violations += 1
    assert violations <= trials * 0.05

"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (visible with pytest -s / -rA)."""

import json
import math
import random
import time

import pytest

import datagen
import vector_oracles as vo
from citemetrics import (IndexConfig, SimConfig, TailFunction, a_index,
                         ar_index, burrell_simulate, citation_vector,
                         dynamic_h, f_index, g_index, glanzel_H, h2_index,
                         h_core_cv, h_core_sum, h_index, hw_index, hi_index,
                         lotkaian_h, m_quotient, maxprod, pure_h, r_index,
                         rm_index, rmcv_index, schreiber_hm,
                         t_index, trend_h, vanraan_diagnostic, w_index)
from citemetrics.cli import main
from citemetrics.records import PreparedRecord
from citemetrics.temporal import h_sequence
from citemetrics.report import render_json
from conftest import GOLDEN
from golden_values import CLASSIFIED_PRINTED, EQUAL_H_PRINTED, NEW_INDEX_PRINTED

CORPUS_SEED = 0xC17E
CORPUS = datagen.random_vectors(1000, CORPUS_SEED)
CLASSIFIED_ORDER = ["ACE", "ACF", "ADE", "ADF", "BCE", "BCF", "BDE", "BDF"]


def _report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_equal_h_table_reproduction(equal_h_records):
    started = time.perf_counter()
    failures = []
    for name, printed in EQUAL_H_PRINTED.items():
        v = citation_vector(equal_h_records[name])
        computed = {
            "h": h_index(v), "g": g_index(v, "unbounded"), "a": a_index(v),
            "r": r_index(v), "h_w": hw_index(v), "w": w_index(v),
            "maxprod": maxprod(v), "h2": h2_index(v), "core_sum": h_core_sum(v),
        }
        for key, expected in printed.items():
            got = computed[key]
            if isinstance(expected, int):
                if got != expected:
                    failures.append((name, key, expected, got))
            elif abs(got - expected) > 0.05:
                failures.append((name, key, expected, got))
    elapsed = time.perf_counter() - started
    _report("equal-h cohort table (9 indicators x 7 records)",
            not failures and elapsed < 1.0,
            f"{len(failures)} mismatches, {elapsed:.3f}s")


def test_criterion_classified_table_reproduction(classified_records):
    failures = []
    for name, printed in CLASSIFIED_PRINTED.items():
        v = citation_vector(classified_records[name])
        computed = {"h": h_index(v), "g": g_index(v, "bounded"),
                    "a": a_index(v), "r": r_index(v)}
        for key, expected in printed.items():
            got = computed[key]
            if isinstance(expected, int):
                if got != expected:
                    failures.append((name, key, expected, got))
            elif abs(got - expected) > 0.05:
                failures.append((name, key, expected, got))
    _report("classified-author table (32 cells)", not failures,
            f"{len(failures)} mismatches")


def test_criterion_root_sum_root_tables(classified_records):
    failures = []
    for name, printed in NEW_INDEX_PRINTED.items():
        v = citation_vector(classified_records[name])
        if abs(rm_index(v) - printed["r_m"]) > 0.005:
            failures.append((name, "r_m"))
        if abs(h_core_cv(v) - printed["h_core_cv"]) > 0.005:
            failures.append((name, "h_core_cv"))
        if abs(rmcv_index(v) - printed["r_m_cv"]) > 0.01:
            failures.append((name, "r_m_cv"))
    _report("root-sum-root and cv tables", not failures,
            f"{len(failures)} mismatches")


def test_criterion_oracle_equivalence():
    mismatches = 0
    for counts in CORPUS:
        checks = (
            h_index(counts) == vo.oracle_h(counts),
            g_index(counts, "bounded") == vo.oracle_g(counts, "bounded"),
            g_index(counts, "unbounded") == vo.oracle_g(counts, "unbounded"),
            h2_index(counts) == vo.oracle_h2(counts),
            w_index(counts) == vo.oracle_w(counts),
            maxprod(counts) == vo.oracle_maxprod(counts),
            f_index(counts) == vo.oracle_f(counts),
            t_index(counts) == vo.oracle_t(counts),
        )
        mismatches += sum(1 for ok in checks if not ok)
    _report("oracle equivalence on 1000 seeded vectors", mismatches == 0,
            f"{mismatches} mismatches")


def test_criterion_inequality_suite():
    rnd = random.Random(CORPUS_SEED + 1)
    violations = 0
    for counts in CORPUS:
        h = h_index(counts)
        if all(c > 0 for c in counts):
            if not h <= f_index(counts) <= t_index(counts) <= g_index(counts, "unbounded"):
                violations += 1
        if h2_index(counts) > h:
            violations += 1
        if maxprod(counts) < h * h:
            violations += 1
        if h > 0 and abs(r_index(counts) ** 2 - a_index(counts) * h) > 1e-9:
            violations += 1
        pairs = [(c, rnd.randint(1, 10)) for c in counts]
        if schreiber_hm(pairs) > h:
            violations += 1
        solo = [(c, 1) for c in counts]
        if not (hi_index(solo, "mean") == pure_h(solo) == schreiber_hm(solo) == h):
            violations += 1
    _report("inequality suite on the same corpus", violations == 0,
            f"{violations} violations")


def test_criterion_temporal_identities():
    rnd = random.Random(CORPUS_SEED + 2)
    violations = 0
    for i in range(500):
        record = datagen.random_event_record(rnd, entity=f"T{i:03d}")
        config = IndexConfig()
        h = h_index(citation_vector(record))
        # trend without decay collapses onto h
        if trend_h(record, IndexConfig(gamma=1.0, delta=0.0)) != h:
            violations += 1
        # m-quotient times career length recovers h
        now = PreparedRecord(record, config).now_year
        years = now - min(p.year for p in record.publications) + 1
        if abs(m_quotient(record, config) * years - h) > 1e-12:
            violations += 1
        # windows growing back in time never lower h
        seq = h_sequence(record, config)
        if any(a > b for a, b in zip(seq.values, seq.values[1:])):
            violations += 1
        # with every age equal to 1, AR equals R
        flat = datagen.random_event_record(rnd, entity=f"F{i:03d}", single_year=2020)
        if abs(ar_index(flat, IndexConfig(now_year=2020))
               - r_index(citation_vector(flat))) > 1e-9:
            violations += 1
    _report("temporal identities over 500 event-level records", violations == 0,
            f"{violations} violations")


def test_criterion_theory_layer():
    problems = []

    gap = abs(dynamic_h(100, 2.0, 0.5, 200) - lotkaian_h(100, 2.0))
    if gap > 1e-6:
        problems.append(f"dynamic/equilibrium gap {gap:g}")

    rnd = random.Random(CORPUS_SEED + 3)
    mismatches = 0
    for _ in range(500):
        sample = [rnd.randint(0, 150) for _ in range(rnd.randint(1, 50))]
        if glanzel_H(TailFunction.from_sample(sample), len(sample)) != h_index(sample):
            mismatches += 1
    if mismatches:
        problems.append(f"{mismatches} extreme-value/empirical-h mismatches")

    _, summaries = burrell_simulate(SimConfig(seed=20_08, careers=200))
    hs = [s.h for s in summaries]
    slope_a = datagen.ols_slope(hs, [s.a for s in summaries])
    slope_core = datagen.ols_slope([s.h ** 2 for s in summaries],
                                   [s.core_size for s in summaries])
    rho = datagen.spearman([s.years for s in summaries], hs)
    if slope_a <= 0:
        problems.append(f"A~h slope {slope_a:g}")
    if slope_core <= 0:
        problems.append(f"core~h^2 slope {slope_core:g}")
    if rho <= 0.5:
        problems.append(f"spearman(years, h) {rho:.3f}")

    # reported for inspection only, never asserted
    total_citations = sum(s.n_c for s in summaries)
    print(f"[info] ensemble diagnostic: predicted h {vanraan_diagnostic(total_citations):.1f} "
          f"from {total_citations} citations; max simulated h {max(hs)}")

    _report("theory layer", not problems, "; ".join(problems) or
            f"slopes {slope_a:.3f}/{slope_core:.3f}, spearman {rho:.3f}")


def test_criterion_cli_contract(capsys, equal_h_paths, classified_paths, tmp_path):
    problems = []
    classified = [str(classified_paths[n]) for n in CLASSIFIED_ORDER]

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    compute_argv = ["compute", "--input", str(equal_h_paths["A"]),
                    "--indices", "h,g,a,r", "--g-convention", "unbounded"]
    code, first = run(compute_argv)
    _, second = run(compute_argv)
    if code != 0 or first != second:
        problems.append("compute not byte-stable")
    if first != (GOLDEN / "compute_A_core.txt").read_text():
        problems.append("compute diverges from golden table")

    compare_argv = ["compare", "--inputs"] + classified + ["--indices", "h,g,a,r"]
    code, first = run(compare_argv)
    _, second = run(compare_argv)
    if code != 0 or first != second:
        problems.append("compare not byte-stable")
    if first != (GOLDEN / "compare_classified.txt").read_text():
        problems.append("compare diverges from golden table")

    code, out = run(["compute", "--input", str(equal_h_paths["A"]),
                     "--format", "json"])
    if code != 0 or render_json(json.loads(out)) != out:
        problems.append("JSON does not round-trip")

    sim_a = tmp_path / "sim_a.csv"
    sim_b = tmp_path / "sim_b.csv"
    sim_argv = ["simulate", "--seed", "7", "--careers", "40", "--years", "12"]
    main(sim_argv + ["--output", str(sim_a)])
    main(sim_argv + ["--output", str(sim_b)])
    capsys.readouterr()
    if sim_a.read_bytes() != sim_b.read_bytes():
        problems.append("simulate not byte-identical")

    _report("CLI contract", not problems, "; ".join(problems))

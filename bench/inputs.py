"""Seeded input generator for the benchmark workloads.

Every generator takes a ``random.Random`` (or a seed) and writes plain record
files with ``json``/``csv`` only, so the inputs do not depend on the library
under test.  Alongside the files each generator returns what it knows by
construction (per-publication citation counts in every self-citation mode,
publication years), which the output checks use as an independent oracle.

Sizes are fixed per slot and only the contents are seeded: the work a
command does then hardly moves between seeds, while the data still does.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

NOW_YEAR = 2024
MODES = ("include", "exclude_own", "exclude_coauthor")

OWNER = "Owner, A."
# The owner appears among citing authors under these spellings; the library
# compares authors after trimming and case-folding, so all of them match.
OWNER_SPELLINGS = (OWNER, "owner, a.", "OWNER, A.", " Owner, A. ")


@dataclass
class RecordTruth:
    """What the generator knows about one written record."""

    path: Path
    entity: str
    years: list
    counts: dict = field(default_factory=dict)  # mode -> per-publication counts


def allocate(rnd, total, parts, alpha):
    """Split ``total`` into ``parts`` integers, each at least 1, with
    Pareto(alpha)-distributed shares; the sum is exact."""
    if parts == 0:
        return []
    weights = [rnd.paretovariate(alpha) for _ in range(parts)]
    scale = (total - parts) / sum(weights)
    shares = [w * scale for w in weights]
    counts = [1 + int(s) for s in shares]
    by_remainder = sorted(range(parts), key=lambda i: int(shares[i]) - shares[i])
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def _readers(rnd, pool, low, high):
    return [f"Reader {rnd.randrange(pool):05d}" for _ in range(rnd.randint(low, high))]


# ---------------------------------------------------------------------------
# large_report: one big event-level researcher record per self-citation mode

@dataclass(frozen=True)
class LargeShape:
    publications: int = 5000
    uncited: int = 750
    events: tuple = (20_000, 28_000, 36_000)  # one record per mode, in MODES order
    coauthor_pool: int = 300
    reader_pool: int = 20_000
    first_year: int = 1995
    p_own: float = 0.15        # event cited by the owner
    p_coauthor: float = 0.06   # event cited by a co-author of the cited paper
    p_other_coauthor: float = 0.04  # co-author of another paper: not a self-citation


def _large_record(rnd, shape, n_events):
    n = shape.publications
    uncited = set(rnd.sample(range(n), shape.uncited))
    cited = [i for i in range(n) if i not in uncited]
    per_paper = dict(zip(cited, allocate(rnd, n_events, len(cited), 1.5)))
    pubs = []
    years = []
    kept = {mode: [] for mode in MODES}
    for i in range(n):
        # the first paper sits in the observation year, so now_year is the
        # same for the raw and every filtered record
        year = NOW_YEAR if i == 0 else rnd.randint(shape.first_year, NOW_YEAR)
        coauthors = [f"Coauthor {c:03d}"
                     for c in rnd.sample(range(shape.coauthor_pool), rnd.randint(0, 4))]
        events = []
        own = co = 0
        for _ in range(per_paper.get(i, 0)):
            citing = _readers(rnd, shape.reader_pool, 0, 2)
            u = rnd.random()
            if u < shape.p_own:
                citing.insert(rnd.randrange(len(citing) + 1), rnd.choice(OWNER_SPELLINGS))
                own += 1
            elif u < shape.p_own + shape.p_coauthor and coauthors:
                citing.append(rnd.choice(coauthors))
                co += 1
            elif u < shape.p_own + shape.p_coauthor + shape.p_other_coauthor:
                other = f"Coauthor {rnd.randrange(shape.coauthor_pool):03d}"
                if other not in coauthors:
                    citing.append(other)
            if not citing:
                citing = _readers(rnd, shape.reader_pool, 1, 1)
            events.append({"year": rnd.randint(year, NOW_YEAR), "citing_authors": citing})
        pubs.append({"id": f"p{i:05d}", "year": year,
                     "authors": [OWNER] + coauthors, "citation_events": events})
        years.append(year)
        kept["include"].append(len(events))
        kept["exclude_own"].append(len(events) - own)
        kept["exclude_coauthor"].append(len(events) - own - co)
    data = {"entity": OWNER, "kind": "researcher", "owner_name": OWNER,
            "publications": pubs}
    return data, years, kept


def write_large(rnd, out_dir, shape=LargeShape()):
    """Three large JSON records, one per self-citation mode.  Returns a
    list of (mode, RecordTruth)."""
    result = []
    for mode, n_events in zip(MODES, shape.events):
        data, years, kept = _large_record(rnd, shape, n_events)
        path = Path(out_dir) / f"large-{mode}.json"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        result.append((mode, RecordTruth(path=path, entity=OWNER, years=years,
                                         counts=kept)))
    return result


# ---------------------------------------------------------------------------
# cohort_batch: many small event-level records, half JSON, half events CSV

@dataclass(frozen=True)
class CohortShape:
    members: int = 200
    min_publications: int = 10
    max_publications: int = 150
    events_per_publication: int = 8
    uncited_share: float = 0.15
    reader_pool: int = 5000


def _cohort_slot(shape, slot):
    """Fixed size, career span and format of member slot ``slot``; the seed
    only shuffles the slots and fills them."""
    span = shape.max_publications - shape.min_publications
    n_pubs = shape.min_publications + span * slot // max(1, shape.members - 1)
    career = 5 + (slot * 37) % 26
    fmt = "json" if slot % 2 == 0 else "csv"
    return n_pubs, career, fmt


def _cohort_member(rnd, shape, name, n_pubs, career):
    uncited = set(rnd.sample(range(n_pubs), round(shape.uncited_share * n_pubs)))
    cited = [i for i in range(n_pubs) if i not in uncited]
    per_paper = dict(zip(cited, allocate(
        rnd, shape.events_per_publication * n_pubs, len(cited), 1.5)))
    first = NOW_YEAR - career + 1
    pubs = []
    for i in range(n_pubs):
        year = rnd.randint(first, NOW_YEAR)
        authors = [name] + [f"Colleague {rnd.randrange(1000):03d}"
                            for _ in range(rnd.randint(0, 3))]
        events = [{"year": rnd.randint(year, NOW_YEAR),
                   "citing_authors": _readers(rnd, shape.reader_pool, 1, 2)}
                  for _ in range(per_paper.get(i, 0))]
        pubs.append({"id": f"q{i:03d}", "year": year, "authors": authors,
                     "citation_events": events})
    return pubs


def _write_events_csv(path, pubs):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pub_id", "pub_year", "author_count", "cite_year", "citing_authors"])
        for pub in pubs:
            n_authors = len(pub["authors"])
            if not pub["citation_events"]:
                writer.writerow([pub["id"], pub["year"], n_authors, "", ""])
            for event in pub["citation_events"]:
                writer.writerow([pub["id"], pub["year"], n_authors, event["year"],
                                 ";".join(event["citing_authors"])])


def write_cohort(rnd, out_dir, shape=CohortShape()):
    """``shape.members`` small records; returns their RecordTruths in the
    order they are passed to the CLI."""
    slots = list(range(shape.members))
    rnd.shuffle(slots)
    truths = []
    for position, slot in enumerate(slots):
        n_pubs, career, fmt = _cohort_slot(shape, slot)
        name = f"m{position:03d}"
        pubs = _cohort_member(rnd, shape, name, n_pubs, career)
        path = Path(out_dir) / f"{name}.{fmt}"
        if fmt == "json":
            data = {"entity": name, "kind": "researcher", "publications": pubs}
            path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        else:
            _write_events_csv(path, pubs)
        counts = [len(p["citation_events"]) for p in pubs]
        truths.append(RecordTruth(path=path, entity=name,
                                  years=[p["year"] for p in pubs],
                                  counts={"include": counts}))
    return truths


def shape_summary(pairs):
    """Input shape per self-citation mode, summed over the records run in
    that mode: publications, events, uncited share and the events each
    filtering mode would drop as self-citations."""
    rows = {}
    for mode, truth in pairs:
        include = truth.counts["include"]
        row = rows.setdefault(mode, {"mode": mode, "records": 0, "publications": 0,
                                     "events": 0, "uncited": 0})
        row["records"] += 1
        row["publications"] += len(include)
        row["events"] += sum(include)
        row["uncited"] += sum(1 for c in include if c == 0)
        for other, counts in truth.counts.items():
            if other != "include":
                key = f"self_citations_{other}"
                row[key] = row.get(key, 0) + sum(include) - sum(counts)
    for row in rows.values():
        row["uncited_share"] = round(row.pop("uncited") / row["publications"], 4)
    return list(rows.values())


# ---------------------------------------------------------------------------
# Entry point: write one workload's inputs and print what is known about them

FULL = {"large_report": LargeShape(), "cohort_batch": CohortShape()}
SMOKE = {"large_report": LargeShape(publications=60, uncited=9, events=(200, 280, 360),
                                    coauthor_pool=20, reader_pool=200),
         "cohort_batch": CohortShape(members=6, max_publications=30)}


def generate(workload, seed, out_dir, smoke=False):
    """Write the inputs of ``workload`` for ``seed`` into ``out_dir`` and
    return a JSON-able description: the shape, and per record its file name,
    self-citation mode, publication years and per-mode citation counts."""
    shape = (SMOKE if smoke else FULL)[workload]
    rnd = random.Random(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "large_report":
        pairs = write_large(rnd, out_dir, shape)
    else:
        pairs = [("include", truth) for truth in write_cohort(rnd, out_dir, shape)]
    records = [{"file": truth.path.name, "entity": truth.entity, "mode": mode,
                "years": truth.years, "counts": truth.counts}
               for mode, truth in pairs]
    return {"workload": workload, "seed": seed, "shape": shape_summary(pairs),
            "records": records}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs to")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = parser.parse_args(argv)
    json.dump(generate(args.workload, args.seed, args.out, args.smoke), sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

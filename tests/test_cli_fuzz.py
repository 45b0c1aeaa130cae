"""CLI fuzz gate: whatever the input file and flags, a run ends with exit
code 0, 2, 3 or 4, never with an uncaught exception, an input or domain
error is reported on one `error:` line, and JSON output is strict JSON
(no NaN or Infinity)."""

import contextlib
import io
import json

from hypothesis import given, strategies as st

from citemetrics.cli import main
from citemetrics.records import KINDS
from conftest import FIXTURES

_INT = st.integers(min_value=-10 ** 400, max_value=10 ** 400)
_AUTHOR = st.sampled_from(["O. Wner", "o. wner ", "C. Oauthor", "R. Eader"])
_EVENT = st.fixed_dictionaries(
    {"year": _INT}, optional={"citing_authors": st.lists(_AUTHOR, max_size=3)})
_PUBLICATION = st.fixed_dictionaries(
    {"id": st.text(max_size=3), "year": _INT},
    optional={"authors": st.lists(_AUTHOR, max_size=3), "author_count": _INT,
              "citation_count": _INT, "citation_events": st.lists(_EVENT, max_size=4)})
_RECORD = st.fixed_dictionaries(
    {"entity": st.text(max_size=5), "publications": st.lists(_PUBLICATION, max_size=5)},
    optional={"kind": st.sampled_from(KINDS), "owner_name": _AUTHOR})
_FLOAT = st.floats(allow_nan=True, allow_infinity=True).map(repr)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda value: [f"{name}={value}"]))


_RECORD_FLAGS = st.tuples(
    _flag("--self-citations", st.sampled_from(["include", "exclude-own",
                                               "exclude-coauthor"])),
    _flag("--now-year", _INT),
    _flag("--format", st.sampled_from(["table", "json", "csv"])),
).map(lambda flags: sum(flags, []))
# compute and compare alone take the scoring flags
_DELTA = _flag("--delta", _FLOAT)


def _reject_constant(token):
    raise AssertionError(f"{token} is not JSON")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if code in (3, 4):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    if code == 0 and "--format=json" in argv:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    return code


@given(record=_RECORD, flags=_RECORD_FLAGS, delta=_DELTA, strict=st.booleans(),
       alpha=_flag("--alpha", _FLOAT), beta=_flag("--beta", _FLOAT))
def test_compute_on_schema_shaped_records(tmp_path_factory, record, flags, delta, strict,
                                          alpha, beta):
    path = tmp_path_factory.mktemp("fuzz") / "record.json"
    path.write_text(json.dumps(record))
    _run(["compute", "--input", str(path), *flags, *delta, *alpha, *beta]
         + ["--strict"] * strict)


@given(path=st.sampled_from([FIXTURES / "equal_h_cohort" / "A.json",
                             FIXTURES / "classified_authors" / "ACE.json"]),
       flags=_RECORD_FLAGS, delta=_DELTA, alpha=_flag("--alpha", _FLOAT),
       beta=_flag("--beta", _FLOAT), gamma=_flag("--gamma", _FLOAT))
def test_compute_json_on_valid_records(path, flags, delta, alpha, beta, gamma):
    _run(["compute", "--input", str(path), *flags, *delta, *alpha, *beta, *gamma,
          "--format=json"])


@given(record=_RECORD, flags=_RECORD_FLAGS, truncate=st.booleans())
def test_sequence_on_schema_shaped_records(tmp_path_factory, record, flags, truncate):
    path = tmp_path_factory.mktemp("fuzz") / "record.json"
    path.write_text(json.dumps(record))
    _run(["sequence", "--input", str(path), *flags]
         + ["--truncate-events"] * truncate)


@given(data=st.binary(max_size=200), suffix=st.sampled_from([".json", ".csv"]),
       header=st.sampled_from([b"", b"id,year,author_count,citation_count\n",
                               b"pub_id,pub_year,author_count,cite_year,citing_authors\n"]))
def test_compute_on_arbitrary_bytes(tmp_path_factory, data, suffix, header):
    path = tmp_path_factory.mktemp("fuzz") / f"record{suffix}"
    path.write_bytes(header + data)
    _run(["compute", "--input", str(path)])


@given(data=st.binary(max_size=200), header=st.sampled_from([b"", b"entity,n_p,h\n"]),
       fmt=st.sampled_from(["table", "json", "csv"]))
def test_status_on_arbitrary_bytes(tmp_path_factory, data, header, fmt):
    path = tmp_path_factory.mktemp("fuzz") / "cohort.csv"
    path.write_bytes(header + data)
    _run(["status", "--input", str(path), f"--format={fmt}"])


@given(records=st.lists(_RECORD, min_size=2, max_size=3), flags=_RECORD_FLAGS,
       command=st.sampled_from(["compare", "matrix", "successive", "group"]),
       strict=st.booleans(), delta=_DELTA)
def test_streaming_commands_on_schema_shaped_records(tmp_path_factory, records, flags,
                                                     command, strict, delta):
    directory = tmp_path_factory.mktemp("fuzz")
    paths = []
    for i, record in enumerate(records):
        paths.append(directory / f"record{i}.json")
        paths[-1].write_text(json.dumps(record))
    if command in ("successive", "group"):  # they take --format alone
        flags = [flag for flag in flags if flag.startswith("--format=")]
    elif command == "compare":
        flags = flags + delta + ["--strict"] * strict
    _run([command, "--inputs", *map(str, paths), *flags])


_NUMBER = st.one_of(_INT, st.sampled_from([0, 1, 2, 10 ** 400]))


@given(articles=_NUMBER, citations=_NUMBER, h=_flag("--h", _NUMBER),
       beta=_flag("--beta", _FLOAT), fmt=st.sampled_from(["table", "json", "csv"]))
def test_journal_on_extreme_values(articles, citations, h, beta, fmt):
    _run(["journal", f"--articles={articles}", f"--citations={citations}", *h, *beta,
          f"--format={fmt}"])


@given(h=_NUMBER, field_chi=_FLOAT, reference_chi=_FLOAT,
       estimate=st.one_of(st.just([]), st.tuples(_NUMBER, _FLOAT).map(
           lambda pair: [f"--np={pair[0]}", f"--chi={pair[1]}"])),
       nc=_flag("--nc", _NUMBER), literal=st.booleans(),
       fmt=st.sampled_from(["table", "json", "csv"]))
def test_field_on_extreme_values(h, field_chi, reference_chi, estimate, nc, literal, fmt):
    _run(["field", f"--h={h}", f"--field-chi={field_chi}",
          f"--reference-chi={reference_chi}", *estimate, *nc,
          *["--literal-radical"] * literal, f"--format={fmt}"])

"""Sweep/batch file formats and run-configuration tests."""

import json
import math
import os
import stat
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import opampfit
from opampfit import (
    ParseError,
    RunConfig,
    SweepRecord,
    read_batch_file,
    read_sweep_file,
    write_batch_file,
    write_sweep_file,
)
from opampfit import fileio
from opampfit.fileio import format_metadata


def parse_metadata(comments) -> dict[str, str]:
    """The key/value pairs of '# key = value' comment lines."""
    pairs = (line.lstrip("#").partition("=") for line in comments)
    return {key.strip(): value.strip() for key, eq, value in pairs if eq}


def sample_record():
    return SweepRecord(
        frequency_hz=np.array([1.0e4, 2.0e4, 3.33e4, 4.0e4]),
        gain=np.array([100.994606, 100.97, 100.91, 100.87]),
    )


class TestSweepFile:
    def test_round_trip_is_byte_identical(self, tmp_path):
        path = tmp_path / "sweep.csv"
        comments = format_metadata({"seed": 7, "truth_f0_hz": repr(9.773e7)})
        write_sweep_file(path, sample_record(), comments)
        first = path.read_bytes()
        record, kept_comments = read_sweep_file(path)
        write_sweep_file(path, record, kept_comments)
        assert path.read_bytes() == first

    def test_values_round_trip_exactly(self, tmp_path):
        path = tmp_path / "sweep.csv"
        original = sample_record()
        write_sweep_file(path, original, ())
        record, _ = read_sweep_file(path)
        assert np.array_equal(record.frequency_hz, original.frequency_hz)
        assert np.array_equal(record.gain, original.gain)

    def test_metadata_round_trip(self, tmp_path):
        comments = format_metadata({"seed": 42, "spacing": "linear"})
        meta = parse_metadata(comments)
        assert meta == {"seed": "42", "spacing": "linear"}

    def test_voltage_pair_schema(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(
            "frequency_hz,u_in_v,u_out_v\n"
            "1000.0,1.0,50.0\n"
            "2000.0,2.0,99.0\n"
            "3000.0,1.0,48.5\n",
            encoding="utf-8",
        )
        record, _ = read_sweep_file(path)
        np.testing.assert_allclose(record.gain, [50.0, 49.5, 48.5], rtol=1e-12)

    def test_zero_input_voltage_names_line(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(
            "frequency_hz,u_in_v,u_out_v\n1000.0,1.0,50.0\n2000.0,0.0,99.0\n3000.0,1.0,48.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as excinfo:
            read_sweep_file(path)
        assert str(excinfo.value).startswith(f"{path}:3: ")

    def test_decreasing_frequency_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "frequency_hz,gain\n1000.0,10.0\n3000.0,9.0\n2000.0,8.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="strictly increasing") as excinfo:
            read_sweep_file(path)
        assert str(excinfo.value).startswith(f"{path}:4: ")

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("frequency,gain\n1,2\n3,4\n5,6\n", "expected header"),
            ("frequency_hz,gain\n1000.0,1.0\n2000.0,2.0\n", "at least 3 data rows"),
            ("frequency_hz,gain\n1000.0,abc\n2000.0,2.0\n3000.0,1.0\n", "not a number"),
            ("frequency_hz,gain\n1000.0,nan\n2000.0,2.0\n3000.0,1.0\n", "not finite"),
            ("frequency_hz,gain\n1000.0,-2.0\n2000.0,2.0\n3000.0,1.0\n", "positive"),
            ("frequency_hz,gain\n1000.0,1.0,9\n2000.0,2.0\n3000.0,1.0\n", "columns"),
            ("frequency_hz,u_in_v,u_out_v\n1.0,1e-300,1e300\n2.0,1,1\n3.0,1,1\n", "overflows"),
            ("", "no header"),
        ],
    )
    def test_malformed_files(self, tmp_path, body, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ParseError, match=fragment):
            read_sweep_file(path)

    @pytest.mark.parametrize("reader", [read_sweep_file, read_batch_file])
    def test_non_utf8_bytes_are_a_parse_error(self, tmp_path, reader):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"# caf\xe9\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            reader(path)


class TestBatchFile:
    def test_round_trip_is_byte_identical(self, tmp_path):
        path = tmp_path / "batch.csv"
        ids = ["1", "2", "3"]
        values = np.array([97.1e6, 98.2e6, 97.9e6])
        write_batch_file(path, ids, values, format_metadata({"trials": 3}))
        first = path.read_bytes()
        got_ids, got_values, comments = read_batch_file(path)
        write_batch_file(path, got_ids, got_values, comments)
        assert path.read_bytes() == first
        assert got_ids == ids
        assert np.array_equal(got_values, values)

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text(
            "sample_id,f0_hz\na,1e6\nb,2e6\na,3e6\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="duplicate") as excinfo:
            read_batch_file(path)
        assert str(excinfo.value).startswith(f"{path}:4: ")

    def test_nonpositive_f0_rejected(self, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text("sample_id,f0_hz\na,0.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="positive"):
            read_batch_file(path)

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_batch_file(tmp_path / "b.csv", ["a"], [1.0, 2.0])

    @pytest.mark.parametrize("bad", ["", "#a", "a,b", "a\rb", "a\nb", " a", "a\t", "\xa0a"])
    def test_id_that_would_not_read_back_is_refused(self, tmp_path, bad):
        path = tmp_path / "b.csv"
        with pytest.raises(ValueError, match="text field") as excinfo:
            write_batch_file(path, [bad, "b"], [1.0, 2.0])
        assert repr(bad) in str(excinfo.value)
        assert not path.exists()

    def test_duplicate_id_is_refused(self, tmp_path):
        # named as the reader names it: the first id that repeats one before
        # it, found in one pass over the ids
        for ids, named in ((["a", "b", "a"], "a"), (["a", "b", "b", "a"], "b"),
                           ([*map(str, range(200_000)), "199999"], "199999")):
            with pytest.raises(ValueError, match=f"duplicate sample id '{named}'"):
                write_batch_file(tmp_path / "b.csv", ids, np.ones(len(ids)))
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_value_that_would_not_read_back_is_refused(self, tmp_path, bad):
        path = tmp_path / "b.csv"
        with pytest.raises(ValueError, match="positive and finite"):
            write_batch_file(path, ["a", "b"], [1.0, bad])
        assert not path.exists()


GAIN = "frequency_hz,gain\n"
PAIR = "frequency_hz,u_in_v,u_out_v\n"
BATCH = "sample_id,f0_hz\n"
BOTH_HEADERS = "'frequency_hz,gain' or 'frequency_hz,u_in_v,u_out_v'"


@pytest.mark.parametrize("reader,body,line_no,message", [
    (read_sweep_file, "", None, "no header line found"),
    (read_sweep_file, "# only a comment\n\n \n", None, "no header line found"),
    (read_sweep_file, b"# caf\xe9\n", None, "not UTF-8 text (invalid continuation byte)"),
    (read_sweep_file, "# c\nfrequency,gain\n1,2\n", 2,
     f"expected header {BOTH_HEADERS}, got 'frequency,gain'"),
    (read_sweep_file, GAIN + "1,2\n2,2,9\n", 3, "expected 2 columns, got 3"),
    (read_sweep_file, PAIR + "1,2\n", 2, "expected 3 columns, got 2"),
    (read_sweep_file, GAIN + "x,2\n", 2, "frequency_hz value 'x' is not a number"),
    (read_sweep_file, GAIN + "inf,2\n", 2, "frequency_hz value 'inf' is not finite"),
    (read_sweep_file, GAIN + "1,\n", 2, "gain value '' is not a number"),
    (read_sweep_file, GAIN + "1,nan\n", 2, "gain value 'nan' is not finite"),
    (read_sweep_file, PAIR + "1,1_0,2\n2,\u0661,2\n3,a,2\n", 4,
     "u_in_v value 'a' is not a number"),
    (read_sweep_file, PAIR + "1,1,-inf\n", 2, "u_out_v value '-inf' is not finite"),
    (read_sweep_file, GAIN + "0,2\n", 2,
     "frequencies must be strictly increasing and positive (0.0 after 0.0)"),
    (read_sweep_file, "frequency_hz,gain\r\n1,2\r\n\r\n# c\r\n3,2\r\n2,2\r\n", 6,
     "frequencies must be strictly increasing and positive (2.0 after 3.0)"),
    (read_sweep_file, PAIR + "1,-0.0,2\n", 2, "u_in_v must be nonzero"),
    (read_sweep_file, PAIR + "1,1e-300,1e300\n", 2, "gain u_out_v/u_in_v overflows (inf)"),
    (read_sweep_file, GAIN + "1,-2.0\n", 2, "gain must be positive, got -2.0"),
    (read_sweep_file, PAIR + "1,2,0\n", 2, "gain must be positive, got 0.0"),
    (read_sweep_file, GAIN + "1,2\n2,2\n", None, "need at least 3 data rows, got 2"),
    (read_batch_file, "", None, "no header line found"),
    (read_batch_file, b"sample_id,f0_hz\n\xff,1\n", None,
     "not UTF-8 text (invalid start byte)"),
    (read_batch_file, "sample,f0\n", 1, "expected header 'sample_id,f0_hz', got 'sample,f0'"),
    (read_batch_file, BATCH + "a,1\n\xa0\x0b,2\n", 3, "sample_id must be non-empty"),
    (read_batch_file, BATCH + "a,1\r b ,2\rb,3\r", 4, "duplicate sample_id 'b'"),
    (read_batch_file, BATCH + "a,1e6\nb,abc\n", 3, "f0_hz value 'abc' is not a number"),
    (read_batch_file, BATCH + "a,inf\n", 2, "f0_hz value 'inf' is not finite"),
    (read_batch_file, BATCH + "a,-1\n", 2, "f0_hz must be positive, got -1.0"),
    (read_batch_file, BATCH + "a,1,2\n", 2, "expected 2 columns, got 3"),
    (read_batch_file, BATCH + "# a,1\na\n", 3, "expected 2 columns, got 1"),
    (read_batch_file, "# c\n" + BATCH + "\n# d\n", None, "no data rows found"),
])
def test_parse_error_text_is_exact(tmp_path, reader, body, line_no, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(body if isinstance(body, bytes) else body.encode("utf-8"))
    with pytest.raises(ParseError) as excinfo:
        reader(path)
    where = path if line_no is None else f"{path}:{line_no}"
    assert str(excinfo.value) == f"{where}: {message}"


@pytest.mark.parametrize("bad", ["seed = 1", "# a\nb", "# a\r", ""])
@pytest.mark.parametrize("write", ["sweep", "batch"])
def test_comment_that_would_not_read_back_is_refused(tmp_path, bad, write):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="comment") as excinfo:
        if write == "sweep":
            write_sweep_file(path, sample_record(), ["# ok", bad])
        else:
            write_batch_file(path, ["a"], [1.0], ["# ok", bad])
    assert repr(bad) in str(excinfo.value)
    assert not path.exists()


# The writers rewrite an existing file in place and cut it at what they
# wrote, where truncating it on open would make ext4 start its writeback on
# close: these pin what a truncating open would have left.
WRITERS = {
    "sweep": lambda path, n: write_sweep_file(
        path, SweepRecord(np.arange(1.0, n + 1.0), np.full(n, 2.5)), [f"# rows = {n}"]),
    "batch": lambda path, n: write_batch_file(path, [f"id{i}" for i in range(n)], np.full(n, 1e8)),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_shorter_write_over_a_longer_file_leaves_only_the_new_bytes(tmp_path, writer):
    write = WRITERS[writer]
    write(tmp_path / "fresh.csv", 3)
    path = tmp_path / "out.csv"
    write(path, 500)
    inode = path.stat().st_ino
    write(path, 3)
    assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert path.stat().st_ino == inode


@pytest.mark.parametrize("writer", WRITERS)
def test_writers_write_to_the_null_device(writer):
    WRITERS[writer](os.devnull, 500)


@pytest.mark.parametrize("writer", WRITERS)
def test_symlinked_output_is_written_through(tmp_path, writer):
    write = WRITERS[writer]
    write(tmp_path / "fresh.csv", 3)
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    write(target, 500)
    try:
        link.symlink_to(target)
    except OSError as err:  # Windows without the symlink privilege
        pytest.skip(f"cannot make a symlink: {err}")
    write(link, 3)
    assert link.is_symlink()
    assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("writer", WRITERS)
def test_existing_file_keeps_its_mode_and_a_new_one_gets_the_umask(tmp_path, writer):
    write = WRITERS[writer]
    path = tmp_path / "out.csv"
    write(path, 500)
    path.chmod(0o640)
    write(path, 3)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    umask = os.umask(0o002)
    try:
        write(tmp_path / "new.csv", 3)
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o664


# Text built from the characters of the two formats reaches the row checks
# far more often than raw bytes, which rarely even decode.  The rest of the
# alphabet is what float() and np.loadtxt read differently: an underscore,
# an Arabic-Indic digit, whitespace that is not ASCII (NBSP, \x85) and the
# separators \x1c-\x1f, which loadtxt strips and float() refuses.
CSV_TEXT = st.text(alphabet="0123456789.,-+eEinfa#_ \r\n\u0661\xa0\x0b\x85\x1c\x1f").map(
    str.encode)
HEADERS = st.sampled_from([b"frequency_hz,gain\n", b"frequency_hz,u_in_v,u_out_v\n",
                           b"sample_id,f0_hz\n"])
ANY_BYTES = st.one_of(
    st.binary(max_size=200),
    CSV_TEXT,
    st.tuples(HEADERS, CSV_TEXT).map(b"".join),
    st.tuples(HEADERS, st.binary(max_size=50)).map(b"".join),
)
COMMENTS = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"))
    .map(lambda body: "#" + body),
    max_size=3,
)
POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308, allow_nan=False, allow_infinity=False)


# Each property below draws the count it names in the default profile, or
# the loaded profile's count if that is larger (HYPOTHESIS_PROFILE=long, see
# conftest.py).
@settings(max_examples=max(300, settings().max_examples),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=ANY_BYTES)
def test_readers_raise_only_parse_error(tmp_path, data):
    path = tmp_path / "any.csv"
    path.write_bytes(data)
    for reader in (read_sweep_file, read_batch_file):
        try:
            reader(path)
        except ParseError:
            pass


# Fields a row may hold instead of a good value: each is read one way by
# float() and maybe another by np.loadtxt, or is refused by both
ODD_FIELDS = ["1_0", "\u0661", "\xa02\xa0", "\x0b3", "\x1c4", "", " ", "nan", "-inf",
              "-5", "0", "1e-300", "1e300", "abc", "6 # note", "#7", "d1"]
LINE_ENDS = ["\n", "\n", "\r\n", "\r"]


def first_chunk(header: str, end: str = "\n") -> list[str]:
    """Well-formed rows, each ending in ``end``, that follow ``header`` and
    fill the readers' first chunk exactly: the row after them opens the
    second."""
    rows: list[str] = []
    size = 0
    while size <= fileio._CHUNK:  # readlines stops once it has read more than a chunk
        i = len(rows)
        first = f"d{i}" if header.startswith("sample") else f"{i + 1}e3"
        values = ["2", repr(100.0 / (1.0 + i / 1000.0))][-header.count(","):]
        rows.append(",".join([first, *values]) + end)
        size += len(rows[-1])
    return rows


def second_chunk_opens_with(header: str, *lines: str, before: str = "") -> bytes:
    """The bytes of a file whose second chunk opens with ``lines``."""
    return (before + header + "\n" + "".join(first_chunk(header))
            + "".join(line + "\n" for line in lines)).encode("utf-8")


N_FIRST = len(first_chunk("frequency_hz,gain"))  # rows in a sweep's first chunk


@st.composite
def csv_rows(draw):
    """The bytes of a sweep or batch file that is mostly well formed, with
    the departures either reader meets: odd fields, extra and missing
    columns, blank, whitespace-only and comment lines anywhere, mixed line
    ends and bytes that are not UTF-8.  One file in four holds a first
    chunk of well-formed rows, so the drawn rows fall in the second."""
    header = draw(st.sampled_from(["frequency_hz,gain", "frequency_hz,u_in_v,u_out_v",
                                   "sample_id,f0_hz"]))
    lines = [*draw(st.lists(st.sampled_from(["# a", "", " "]), max_size=2)), header]
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    prefix = first_chunk(header, draw(st.sampled_from(LINE_ENDS))) if draw(
        st.integers(0, 3)) == 0 else []
    text += "".join(prefix)
    lines = []
    for i in range(len(prefix), len(prefix) + draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19))
        if kind < 16:
            first = f"d{i}" if header.startswith("sample") else f"{i + 1}e3"
            fields = [first, *(str(draw(st.floats(0.05, 200.0)))
                               for _ in range(header.count(",")))]
            if kind >= 12:  # one field odd, or one too many or too few
                at = draw(st.integers(0, len(fields)))
                odd = draw(st.sampled_from(ODD_FIELDS))
                fields[at:at + 1] = draw(st.sampled_from([[odd], [], [odd, odd]]))
            lines.append(",".join(fields))
        else:
            lines.append(draw(st.sampled_from(["", " \x0b\xa0", "# c,1", "# c,1,2"])))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines),
                         max_size=len(lines)))
    text += "".join(map(str.__add__, lines, ends))
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def read_outcome(reader, path):
    """What ``reader`` makes of the file at ``path``: its arrays as lists
    and its ids and comments, or its ParseError's text, which names the line."""
    try:
        result = reader(path)
    except ParseError as err:
        return str(err)
    if isinstance(result[0], SweepRecord):
        record, comments = result
        return record.frequency_hz.tolist(), record.gain.tolist(), comments
    ids, values, comments = result
    assert values.dtype == np.float64
    return ids, values.tolist(), comments


def row_loop_outcome(reader, path):
    """:func:`read_outcome` with the array parse refusing every chunk, so
    that the row loop alone reads the file."""
    with pytest.MonkeyPatch.context() as patch:
        for body in (fileio._SweepBody, fileio._BatchBody):
            patch.setattr(body, "table", lambda self, rows, n_fields: False)
        return read_outcome(reader, path)


@settings(max_examples=max(400, settings().max_examples),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(csv_rows(), ANY_BYTES))
# a separator np.loadtxt strips and float() refuses
@example(data=b"frequency_hz,gain\n1,2\n2,\x1c2\n3,2\n")
# infinite frequencies, whose difference numpy warns about
@example(data=b"frequency_hz,gain\ninf,2\ninf,2\n5,2\n")
# a comment line with one comma among batch rows
@example(data=b"sample_id,f0_hz\na,1\n# b,2\nc,3\n")
# rows of one and three fields, which split into two tokens a row
@example(data=b"sample_id,f0_hz\na,1\n5\n6,2,3\n")
@example(data=b"sample_id,f0_hz\ra,1\r5\r6,2,3\r")
# the state carried from chunk 1 to chunk 2: the last frequency, the ids seen
@example(data=second_chunk_opens_with("frequency_hz,gain", "1e3,2"))
@example(data=second_chunk_opens_with("sample_id,f0_hz", "d0,1"))
# a comment and a blank line opening chunk 2, then a row that reads
@example(data=second_chunk_opens_with("frequency_hz,u_in_v,u_out_v", "# c", "",
                                      f"{N_FIRST + 1}e3,1,2", before="# a\n"))
@example(data=second_chunk_opens_with("frequency_hz,gain", f"{N_FIRST + 1}e3,\x1c2"))
# a chunk of blank lines alone, on which np.loadtxt warns
@example(data=second_chunk_opens_with("frequency_hz,gain", ""))
def test_array_path_and_row_loop_agree(tmp_path, data):
    # the row loop is the reference: the readers must refuse with its exact
    # error or return what it returns, bit for bit
    path = tmp_path / "any.csv"
    path.write_bytes(data)
    for reader in (read_sweep_file, read_batch_file):
        assert read_outcome(reader, path) == row_loop_outcome(reader, path)


def test_array_path_reads_what_the_writers_write(tmp_path, monkeypatch):
    def row(self, path, line_no, fields):
        raise AssertionError(f"the row loop read line {line_no}")

    for body in (fileio._SweepBody, fileio._BatchBody):
        monkeypatch.setattr(body, "row", row)
    path = tmp_path / "f.csv"
    write_sweep_file(path, sample_record(), ["# a"])
    read_sweep_file(path)
    path.write_text(PAIR + "1,2,3\r\n2,2,3\r\n3,2,3\r\n\r\n", encoding="utf-8")
    read_sweep_file(path)
    write_batch_file(path, [f"d{i}" for i in range(50_000)], np.arange(1.0, 50_001.0), ["# a"])
    read_batch_file(path)


def test_file_refused_at_its_last_row_is_read_once(tmp_path, monkeypatch):
    # the file is opened once, and the row loop reads the one chunk that the
    # array parse refuses, not the file
    rows = [f"{f!r},{2.0 + f / 1e9!r}\n" for f in (np.arange(1.0, 200_000.0) * 10.0).tolist()]
    path = tmp_path / "late.csv"
    path.write_text(GAIN + "".join(rows) + "2e7,abc\n", encoding="utf-8")
    opened, rows_read = [], []
    path_open, row_loop = Path.open, fileio._SweepBody.row

    def counted_open(self, *args, **kwargs):
        opened.append(self)
        return path_open(self, *args, **kwargs)

    def counted_row(self, path, line_no, fields):
        rows_read.append(line_no)
        row_loop(self, path, line_no, fields)

    monkeypatch.setattr(Path, "open", counted_open)
    monkeypatch.setattr(fileio._SweepBody, "row", counted_row)
    with pytest.raises(ParseError) as excinfo:
        read_sweep_file(path)
    assert str(excinfo.value) == f"{path}:200001: gain value 'abc' is not a number"
    assert opened == [path]
    assert 0 < len(rows_read) <= fileio._CHUNK // min(map(len, rows)) + 1
    assert rows_read[-1] == 200_001


# Peak memory of reading a file, per row, over a subprocess that only reads
# it with the named reader.  VmHWM is the high-water mark of this process's
# own memory; the process's getrusage ru_maxrss also counts the parent's
# resident set at the fork, which under pytest hides the whole read.
PEAK_AFTER_READ = """
import sys
import opampfit
getattr(opampfit, sys.argv[1])(sys.argv[2])
print(next(int(l.split()[1]) for l in open("/proc/self/status") if l.startswith("VmHWM:")))
"""
PEAK_ROWS = 200_000
# Measured at 200,000 rows: the chunks' arrays take 32-46 B a row (gain) and
# 34 B (u_in, u_out).  Where the row loop reads every chunk, each chunk's
# lists become arrays at its end, and a read takes 35-37 B a row in either
# header form.
MAX_PEAK_BYTES_PER_SWEEP_ROW = 64
# Measured at 200,000 rows: the array parse takes 128 B a row with digit ids
# and 159-164 B with 34-character ids; where the row loop reads every chunk,
# 128 B and 158 B.  Each id stays a Python str.
MAX_PEAK_BYTES_PER_BATCH_ROW = 224


def peak_bytes_per_row(reader, path, small_path):
    """The peak memory that ``reader`` adds per row reading ``path`` (of
    PEAK_ROWS rows), over its peak reading the few rows of ``small_path``."""
    def peak_kib(file):
        done = subprocess.run(
            [sys.executable, "-c", PEAK_AFTER_READ, reader, str(file)],
            env={**os.environ, "PYTHONPATH": str(Path(opampfit.__file__).resolve().parents[1])},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return int(done.stdout)

    return (peak_kib(path) - peak_kib(small_path)) * 1024 / PEAK_ROWS


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's /proc")
def test_peak_memory_per_sweep_row_is_bounded(tmp_path):
    f = np.arange(1.0, PEAK_ROWS + 1.0) * 10.0
    gain = 100.0 / np.sqrt(1.0 + (f / 1e6) ** 2)
    u_in = np.linspace(0.05, 0.2, PEAK_ROWS)
    write_sweep_file(tmp_path / "small.csv", SweepRecord(f[:3], gain[:3]))
    write_sweep_file(tmp_path / "gain.csv", SweepRecord(f, gain))
    with (tmp_path / "pair.csv").open("w", encoding="utf-8") as fh:
        fh.write(PAIR)
        fh.writelines(f"{a!r},{b!r},{c!r}\n"
                      for a, b, c in zip(f.tolist(), u_in.tolist(), (gain * u_in).tolist()))
    # a comment line every 500 rows sends every chunk to the row loop
    with (tmp_path / "commented.csv").open("w", encoding="utf-8") as fh:
        fh.write(GAIN)
        for start in range(0, PEAK_ROWS, 500):
            fh.write("# c\n")
            fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(f[start:start + 500].tolist(),
                                                         gain[start:start + 500].tolist()))
    for name in ("gain.csv", "pair.csv", "commented.csv"):
        per_row = peak_bytes_per_row("read_sweep_file", tmp_path / name, tmp_path / "small.csv")
        assert per_row <= MAX_PEAK_BYTES_PER_SWEEP_ROW, (name, per_row)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's /proc")
def test_peak_memory_per_batch_row_is_bounded(tmp_path):
    f0 = 1e8 * (1.0 + 0.05 * np.random.default_rng(8).standard_normal(PEAK_ROWS))
    write_batch_file(tmp_path / "small.csv", ["a", "b", "c"], f0[:3])
    write_batch_file(tmp_path / "digits.csv", range(PEAK_ROWS), f0)
    write_batch_file(tmp_path / "long.csv", [f"device-{i:027d}" for i in range(PEAK_ROWS)], f0)
    for name in ("digits.csv", "long.csv"):
        per_row = peak_bytes_per_row("read_batch_file", tmp_path / name, tmp_path / "small.csv")
        assert per_row <= MAX_PEAK_BYTES_PER_BATCH_ROW, (name, per_row)


@settings(max_examples=max(50, settings().max_examples),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    freqs=st.lists(POSITIVE, min_size=3, max_size=20, unique=True),
    gains=st.lists(POSITIVE, min_size=20, max_size=20),
    comments=COMMENTS,
)
def test_sweep_round_trip_is_byte_exact(tmp_path, freqs, gains, comments):
    path = tmp_path / "sweep.csv"
    record = SweepRecord(np.sort(freqs), gains[: len(freqs)])
    write_sweep_file(path, record, comments)
    first = path.read_bytes()
    got, got_comments = read_sweep_file(path)
    assert got_comments == comments
    write_sweep_file(path, got, got_comments)
    assert path.read_bytes() == first


def reads_back(sample_id):
    """The documented rule for a sample id the batch reader returns as written."""
    return (sample_id != "" and not sample_id.startswith("#")
            and sample_id == sample_id.strip() and not set(",\r\n") & set(sample_id))


@settings(max_examples=max(100, settings().max_examples),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ids=st.lists(st.one_of(st.text(max_size=8), st.text("abcXYZ0123456789_-.", min_size=1)),
                 min_size=1, max_size=20),
    values=st.lists(POSITIVE, min_size=20, max_size=20),
    comments=COMMENTS,
)
def test_batch_round_trip_is_byte_exact(tmp_path, ids, values, comments):
    # the writer refuses exactly the ids the reader cannot return as written
    path = tmp_path / "batch.csv"
    path.unlink(missing_ok=True)
    try:
        write_batch_file(path, ids, values[: len(ids)], comments)
    except ValueError:
        assert not all(map(reads_back, ids)) or len(set(ids)) < len(ids)
        assert not path.exists()
        return
    assert all(map(reads_back, ids)) and len(set(ids)) == len(ids)
    first = path.read_bytes()
    got_ids, got_values, got_comments = read_batch_file(path)
    assert (got_ids, got_comments) == (ids, comments)
    write_batch_file(path, got_ids, got_values, got_comments)
    assert path.read_bytes() == first


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = RunConfig()
        assert cfg.device.f0 == 97.73e6
        assert math.isinf(cfg.device.g0)
        assert cfg.topology.beta == pytest.approx(1.0 / 101.0, rel=1e-15)
        assert cfg.plan.n_points == 512

    def test_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps(
                {
                    "f0_hz": 39.6e6,
                    "g0": "inf",
                    "feedback_r_ohm": 1989.0,
                    "gain_r_ohm": 20.1,
                    "n_points": 64,
                    "sigma_rel": 0.01,
                    "seed": 9,
                }
            ),
            encoding="utf-8",
        )
        cfg = RunConfig.from_file(path)
        assert cfg.device.f0 == 39.6e6
        assert math.isinf(cfg.device.g0)
        assert cfg.sigma_rel == 0.01
        assert cfg.seed == 9

    def test_unknown_field_named(self):
        for field in ("frequency", "divider_r1_ohm", "divider_r2_ohm"):
            with pytest.raises(ValueError, match=f"unknown config field '{field}'"):
                RunConfig.from_mapping({field: 1.0})

    def test_bad_type_named(self):
        with pytest.raises(ValueError, match="f0_hz"):
            RunConfig.from_mapping({"f0_hz": "fast"})
        with pytest.raises(ValueError, match="n_points"):
            RunConfig.from_mapping({"n_points": 12.5})
        with pytest.raises(ValueError, match="'f_min_hz': expected a number, got None"):
            RunConfig.from_mapping({"f_min_hz": None})
        with pytest.raises(ValueError, match="spacing"):
            RunConfig.from_mapping({"spacing": 1})
        with pytest.raises(ValueError, match="f0_hz"):
            RunConfig.from_mapping({"f0_hz": "inf"})

    def test_null_means_infinite_or_absent_by_field(self):
        cfg = RunConfig.from_mapping({"g0": None, "gain_r_ohm": "Infinity"})
        assert math.isinf(cfg.g0) and math.isinf(cfg.gain_r_ohm)

    def test_field_level_invariant_messages(self):
        with pytest.raises(ValueError, match="sweep plan"):
            RunConfig.from_mapping({"n_points": 2})
        with pytest.raises(ValueError, match="device"):
            RunConfig.from_mapping({"f0_hz": -1.0})

    @pytest.mark.parametrize("data,message", [
        (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
        (b'{"seed": ' + b"1" * 5001 + b"}", "invalid JSON: an integer is too long"),
        (b'{"f0_hz": 1e8, "spacing": "caf\xe9"}', "not UTF-8 text (invalid continuation byte)"),
    ], ids=["deep", "long_int", "latin1"])
    def test_undecodable_file_is_a_parse_error_naming_it(self, tmp_path, data, message):
        path = tmp_path / "run.json"
        path.write_bytes(data)
        with pytest.raises(ParseError) as excinfo:
            RunConfig.from_file(path)
        assert str(excinfo.value).startswith(f"{path}: {message}")

    def test_is_immutable_and_valid_once_built(self):
        cfg = RunConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.n_points = 2
        with pytest.raises(ValueError, match="invalid sweep plan configuration: n_points"):
            RunConfig(n_points=2)

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  'single': 1\n}", encoding="utf-8")
        with pytest.raises(ParseError):
            RunConfig.from_file(path)

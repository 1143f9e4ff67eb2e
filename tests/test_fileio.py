"""Sweep/batch file formats and run-configuration tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opampfit import (
    ParseError,
    RunConfig,
    SweepRecord,
    read_batch_file,
    read_sweep_file,
    write_batch_file,
    write_sweep_file,
)
from opampfit.fileio import format_metadata, parse_metadata


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
        assert excinfo.value.line_no == 3

    def test_decreasing_frequency_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "frequency_hz,gain\n1000.0,10.0\n3000.0,9.0\n2000.0,8.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="strictly increasing") as excinfo:
            read_sweep_file(path)
        assert excinfo.value.line_no == 4

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
        assert excinfo.value.line_no == 4

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
        with pytest.raises(ValueError, match="duplicate sample id 'a'"):
            write_batch_file(tmp_path / "b.csv", ["a", "b", "a"], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_value_that_would_not_read_back_is_refused(self, tmp_path, bad):
        path = tmp_path / "b.csv"
        with pytest.raises(ValueError, match="positive and finite"):
            write_batch_file(path, ["a", "b"], [1.0, bad])
        assert not path.exists()


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


# Text built from the characters of the two formats reaches the row checks
# far more often than raw bytes, which rarely even decode.
CSV_TEXT = st.text(alphabet="0123456789.,-+eEinfa#_ \r\n").map(str.encode)
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


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=ANY_BYTES)
def test_readers_raise_only_parse_error(tmp_path, data):
    path = tmp_path / "any.csv"
    path.write_bytes(data)
    for reader in (read_sweep_file, read_batch_file):
        try:
            reader(path)
        except ParseError:
            pass


@settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
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


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
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
        cfg.validate()
        assert cfg.device().f0 == 97.73e6
        assert math.isinf(cfg.device().g0)
        assert cfg.topology().beta == pytest.approx(1.0 / 101.0, rel=1e-15)
        assert cfg.sweep_plan().n_points == 512

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
        assert cfg.device().f0 == 39.6e6
        assert math.isinf(cfg.device().g0)
        assert cfg.noise().sigma_rel == 0.01
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

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  'single': 1\n}", encoding="utf-8")
        with pytest.raises(ParseError):
            RunConfig.from_file(path)

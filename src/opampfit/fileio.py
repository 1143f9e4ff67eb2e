"""CSV sweep/batch files and the flat JSON run configuration.

Sweep files carry either ``frequency_hz,gain`` or
``frequency_hz,u_in_v,u_out_v`` columns (gain = u_out_v/u_in_v); batch files
carry ``sample_id,f0_hz``.  Lines starting with ``#`` are comments and are
preserved verbatim by the reader, so emitted files round-trip byte-for-byte.
Floats are written with ``repr``, the shortest locale-independent form that
parses back to the same value.

Each reader reads a file once, parsing its body as arrays in chunks of
lines.  Each chunk that the array parse refuses is read by the row loop: it
alone names a bad line, and it accepts what the array parse leaves to it
(``1_0``, say, which ``float()`` reads and ``np.loadtxt`` does not), so the
two agree on every file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .circuit import DeviceParams, Topology
from .extraction import SweepRecord
from .simulate import SimConfig, SweepPlan, _checked_sigma_rel

SWEEP_HEADER_GAIN = "frequency_hz,gain"
SWEEP_HEADER_PAIR = "frequency_hz,u_in_v,u_out_v"
BATCH_HEADER = "sample_id,f0_hz"


class ParseError(Exception):
    """A file failed to parse; the message leads with its ``path:line_no`` (or ``path``)."""

    def __init__(self, path, line_no: int | None, message: str):
        where = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{where}: {message}")


def _parse_float(token: str, path, line_no: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, line_no, f"{column} value {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(path, line_no, f"{column} value {token!r} is not finite")
    return value


def _content_lines(lines, comments: list[str], start: int = 1):
    """Yield ``(line_no, line)`` for each of ``lines``, numbered from
    ``start``, that is neither blank nor a comment, without its line end.
    Lines starting with ``#`` are appended to ``comments`` verbatim."""
    for line_no, raw in enumerate(lines, start):
        # a line holds no CR or LF but its one terminator
        line = raw.rstrip("\r\n")
        if line.startswith("#"):
            comments.append(line)
        elif line and not line.isspace():
            yield line_no, line


_CHUNK = 1 << 16  # a chunk of a file body: whole lines, just over this many characters


def _read_table(path: Path, body_type):
    """The UTF-8 CSV at ``path`` read into a new ``body_type``: its ``result``.

    Comment lines go to the comments and blank lines are skipped
    (:func:`_content_lines`); the first other line must be one of
    ``body_type.HEADERS``.  The rest is read once, in chunks of lines: each
    goes to the body's ``table``, and where that refuses it, the row loop
    reads that chunk, one ``body.row`` a line, with the line count carried
    over, and ``body.end_chunk`` then keeps what it read as arrays.  Every
    row must have as many comma-separated fields as the header.
    Any departure, including bytes that are not UTF-8, raises ParseError.
    """
    comments: list[str] = []
    body = body_type()
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            line_no, header = next(_content_lines(fh, comments), (None, None))
            if header is None:
                raise ParseError(path, None, "no header line found")
            if header not in body.HEADERS:
                expected = " or ".join(repr(h) for h in body.HEADERS)
                raise ParseError(path, line_no, f"expected header {expected}, got {header!r}")
            n_fields = header.count(",") + 1
            while rows := fh.readlines(_CHUNK):
                if not body.table(rows, n_fields):
                    for row_no, line in _content_lines(rows, comments, line_no + 1):
                        fields = line.split(",")
                        if len(fields) != n_fields:
                            raise ParseError(path, row_no,
                                             f"expected {n_fields} columns, got {len(fields)}")
                        body.row(path, row_no, fields)
                    body.end_chunk()
                line_no += len(rows)
    except UnicodeDecodeError as err:
        raise ParseError(path, None, f"not UTF-8 text ({err.reason})") from None
    return body.result(path, comments)


def _text_field(value: str) -> str:
    """``value`` if the readers here parse it back as written, else
    ValueError naming it."""
    if not value or value.startswith("#") or value != value.strip() or any(
            c in value for c in ",\r\n"):
        raise ValueError(
            f"text field {value!r} would not read back: it must be non-empty, not start "
            f"with '#', hold no ',', CR or LF, and have no surrounding whitespace"
        )
    value.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError here
    return value


def _write_csv(path, header: str, columns, comments=()) -> None:
    """Write a UTF-8 CSV: the ``comments`` lines, ``header``, then one row per
    index of the equal-length ``columns``.

    Numbers are written as the ``repr`` of their float.  A ``str`` field
    (outside numpy array columns) is written as it is and must read back
    unchanged (:func:`_text_field`); a comment must start with ``#`` and hold
    no CR or LF.  Both are checked before the file is opened.
    """
    for line in comments:
        if not line.startswith("#") or "\r" in line or "\n" in line:
            raise ValueError(f"comment {line!r} must start with '#' and hold no CR or LF")
        line.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError here
    fields = [
        map(repr, np.asarray(col, dtype=float).tolist()) if isinstance(col, np.ndarray)
        else [_text_field(v) if isinstance(v, str) else repr(float(v)) for v in col]
        for col in columns
    ]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        for line in (*comments, header):
            fh.write(line + "\n")
        for row in zip(*fields):
            fh.write(",".join(row) + "\n")


def read_sweep_file(path) -> tuple[SweepRecord, list[str]]:
    """Parse a sweep CSV; returns the record and its comment lines."""
    return _read_table(Path(path), _SweepBody)


class _SweepBody:
    """Sweep rows, chunk by chunk, with the last frequency carried over."""

    HEADERS = (SWEEP_HEADER_GAIN, SWEEP_HEADER_PAIR)

    def __init__(self):
        # an array per chunk read, then the list that row() fills
        self.f: list = [[]]
        self.gain: list = [[]]
        self.last_f = 0.0

    def table(self, rows: list[str], n_fields: int) -> bool:
        """Take ``rows`` as parsed by ``np.loadtxt``; False, taking nothing,
        where the row loop might read them otherwise.

        Refused: a blank first row, since loadtxt warns on a chunk without
        rows, and \\x1c to \\x1f, which loadtxt strips as whitespace and
        ``float()`` refuses.  A finite positive gain ``u_out_v/u_in_v``
        implies finite voltages and a nonzero ``u_in_v``.
        """
        text = "".join(rows)
        if rows[0].isspace() or any(c in text for c in "\x1c\x1d\x1e\x1f"):
            return False
        try:
            table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return False
        if table.shape[1] != n_fields:
            return False
        f = table[:, 0].copy()  # a column view would keep the whole table
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            gain = table[:, 1].copy() if n_fields == 2 else table[:, 2] / table[:, 1]
        # comparisons, unlike a difference of two infinities, raise no numpy warning
        if not (self.last_f < f[0] and (f[:-1] < f[1:]).all() and f[-1] < math.inf
                and ((gain > 0.0) & (gain < math.inf)).all()):
            return False
        self.f += [f, []]
        self.gain += [gain, []]
        self.last_f = float(f[-1])
        return True

    def row(self, path: Path, line_no: int, fields: list[str]) -> None:
        f = _parse_float(fields[0], path, line_no, "frequency_hz")
        if f <= self.last_f:
            raise ParseError(path, line_no, "frequencies must be strictly increasing and "
                             f"positive ({f!r} after {self.last_f!r})")
        self.last_f = f
        if len(fields) == 2:
            gain = _parse_float(fields[1], path, line_no, "gain")
        else:
            u_in = _parse_float(fields[1], path, line_no, "u_in_v")
            u_out = _parse_float(fields[2], path, line_no, "u_out_v")
            if u_in == 0.0:
                raise ParseError(path, line_no, "u_in_v must be nonzero")
            gain = u_out / u_in
            if not math.isfinite(gain):
                raise ParseError(path, line_no, f"gain u_out_v/u_in_v overflows ({gain!r})")
        if gain <= 0.0:
            raise ParseError(path, line_no, f"gain must be positive, got {gain!r}")
        self.f[-1].append(f)
        self.gain[-1].append(gain)

    def end_chunk(self) -> None:
        """The row loop's chunk as arrays, 8 B a value where a listed float takes 32."""
        self.f[-1:] = [np.array(self.f[-1], dtype=float), []]
        self.gain[-1:] = [np.array(self.gain[-1], dtype=float), []]

    def result(self, path: Path, comments: list[str]) -> tuple[SweepRecord, list[str]]:
        f, gain = np.concatenate(self.f), np.concatenate(self.gain)
        del self.f, self.gain  # the chunks go before SweepRecord copies f and gain
        if f.size < 3:
            raise ParseError(path, None, f"need at least 3 data rows, got {f.size}")
        return SweepRecord(frequency_hz=f, gain=gain), comments


def write_sweep_file(path, record: SweepRecord, comments: list[str] | tuple = ()) -> None:
    _write_csv(path, SWEEP_HEADER_GAIN, (record.frequency_hz, record.gain), comments)


def read_batch_file(path) -> tuple[list[str], np.ndarray, list[str]]:
    """Parse a batch CSV; returns sample ids, f0 values, and comment lines."""
    return _read_table(Path(path), _BatchBody)


class _BatchBody:
    """Batch rows, chunk by chunk, with the ids seen so far carried over."""

    HEADERS = (BATCH_HEADER,)

    def __init__(self):
        self.ids: list[str] = []
        self.seen: set[str] = set()
        # an array per chunk read, then the list that row() fills
        self.values: list = [[]]

    def table(self, rows: list[str], n_fields: int) -> bool:
        """Take ``rows`` as parsed by ``float()`` over their fields; False,
        taking nothing, where the row loop must read them."""
        tokens = ",".join(rows).split(",")
        heads = "".join(tokens[0::2])
        # every row holds one comma exactly when there are two tokens a row and
        # no line end falls in a first field; a '#' there may open a comment
        if len(tokens) != n_fields * len(rows) or any(c in heads for c in "\r\n#"):
            return False
        try:
            values = np.fromiter(map(float, tokens[1::2]), float, len(rows))
        except ValueError:
            return False
        ids = list(map(str.strip, tokens[0::2]))
        n_seen = len(self.seen)
        self.seen.update(ids)
        if (len(self.seen) != n_seen + len(ids) or "" in self.seen
                or not ((values > 0.0) & (values < math.inf)).all()):
            self.seen = set(self.ids)  # the row loop names the bad row
            return False
        self.ids += ids
        self.values += [values, []]
        return True

    def row(self, path: Path, line_no: int, fields: list[str]) -> None:
        sample_id = fields[0].strip()
        if not sample_id:
            raise ParseError(path, line_no, "sample_id must be non-empty")
        if sample_id in self.seen:
            raise ParseError(path, line_no, f"duplicate sample_id {sample_id!r}")
        self.seen.add(sample_id)
        f0 = _parse_float(fields[1], path, line_no, "f0_hz")
        if f0 <= 0.0:
            raise ParseError(path, line_no, f"f0_hz must be positive, got {f0!r}")
        self.ids.append(sample_id)
        self.values[-1].append(f0)

    def end_chunk(self) -> None:
        """The row loop's chunk of values as an array, as in :meth:`_SweepBody.end_chunk`."""
        self.values[-1:] = [np.array(self.values[-1], dtype=float), []]

    def result(self, path: Path, comments: list[str]) -> tuple[list[str], np.ndarray, list[str]]:
        if not self.ids:
            raise ParseError(path, None, "no data rows found")
        return self.ids, np.concatenate(self.values), comments


def write_batch_file(path, ids, f0_hz, comments: list[str] | tuple = ()) -> None:
    if len(ids) != len(f0_hz):
        raise ValueError(f"got {len(ids)} ids for {len(f0_hz)} values")
    ids = [str(i) for i in ids]
    seen: set[str] = set()
    for sample_id in ids:  # the first id that repeats one before it, as the reader names it
        if sample_id in seen:
            raise ValueError(f"duplicate sample id {sample_id!r}")
        seen.add(sample_id)
    bad = [v for v in map(float, f0_hz) if not 0.0 < v < math.inf]
    if bad:
        raise ValueError(f"f0_hz values must be positive and finite, got {bad[0]!r}")
    _write_csv(path, BATCH_HEADER, (ids, f0_hz), comments)


def format_metadata(mapping: dict) -> list[str]:
    """Render key/value metadata as '# key = value' comment lines."""
    return [f"# {key} = {value}" for key, value in mapping.items()]


def _config_value(name: str, annotation: str, value, allow_inf: bool):
    """``value`` checked against its field's annotation (``int``, ``str`` or
    ``float``).  A field that allows infinity also takes null, "inf" and
    "infinity" as ``math.inf``."""
    if annotation == "str":
        if isinstance(value, str):
            return value
        expected = "a string"
    elif annotation == "int":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        expected = "an integer"
    else:
        if allow_inf and (value is None or (
                isinstance(value, str) and value.lower() in ("inf", "infinity"))):
            return math.inf
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        expected = "a number"
    raise ValueError(f"config field {name!r}: expected {expected}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration: device, topology, sweep plan, noise, and
    integrator settings.  Defaults describe a gain-101 amplifier around a
    97.73 MHz ideal device swept noiselessly over 10-100 kHz.  The run's
    parts are built from these fields once, and kept: ``device``,
    ``topology``, ``plan`` and ``sim``."""

    f0_hz: float = 97.73e6
    g0: float = math.inf
    feedback_r_ohm: float = 100.0
    gain_r_ohm: float = 1.0
    f_min_hz: float = 1.0e4
    f_max_hz: float = 1.0e5
    n_points: int = 512
    spacing: str = "linear"
    sigma_rel: float = 0.0
    steps_per_period: int = 256
    steps_per_tau: int = 16
    seed: int = 0
    device: DeviceParams = field(init=False, repr=False)
    topology: Topology = field(init=False, repr=False)
    plan: SweepPlan = field(init=False, repr=False)
    sim: SimConfig = field(init=False, repr=False)

    # the fields that accept infinity, spelled null, "inf" or "infinity"
    _INFINITE_FIELDS = ("g0", "gain_r_ohm")

    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        annotations = {f.name: f.type for f in fields(cls) if f.init}
        values = {}
        for key, value in data.items():
            if key not in annotations:
                raise ValueError(f"unknown config field {key!r}")
            values[key] = _config_value(key, annotations[key], value,
                                        key in cls._INFINITE_FIELDS)
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ParseError(path, err.lineno, f"invalid JSON: {err.msg}") from None
        except UnicodeDecodeError as err:
            raise ParseError(path, None, f"not UTF-8 text ({err.reason})") from None
        except RecursionError as err:  # nesting past the decoder's depth limit
            raise ParseError(path, None, f"invalid JSON: {err}") from None
        except ValueError:  # the one left: an integer past int()'s digit limit
            raise ParseError(path, None, "invalid JSON: an integer is too long") from None
        if not isinstance(data, dict):
            raise ValueError("config file must hold a flat JSON object")
        return cls.from_mapping(data)

    def __post_init__(self):
        """Build the run's parts, checking each, in the order below;
        ValueError with the offending part spelled out."""
        for name, label, build, args in (
            ("device", "device", DeviceParams, (self.f0_hz, self.g0)),
            ("topology", "topology", Topology, (self.feedback_r_ohm, self.gain_r_ohm)),
            ("plan", "sweep plan", SweepPlan,
             (self.f_min_hz, self.f_max_hz, self.n_points, self.spacing)),
            ("sim", "simulation", SimConfig, (self.steps_per_period, self.steps_per_tau)),
            ("sigma_rel", "noise", _checked_sigma_rel, (self.sigma_rel,)),
        ):
            try:
                object.__setattr__(self, name, build(*args))
            except ValueError as err:
                raise ValueError(f"invalid {label} configuration: {err}") from None
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"invalid seed: must be a non-negative integer, got {self.seed!r}")

"""CSV sweep/batch files and the flat JSON run configuration.

Sweep files carry either ``frequency_hz,gain`` or
``frequency_hz,u_in_v,u_out_v`` columns (gain = u_out_v/u_in_v); batch files
carry ``sample_id,f0_hz``.  Lines starting with ``#`` are comments and are
preserved verbatim by the reader, so emitted files round-trip byte-for-byte.
Floats are written with ``repr``, the shortest locale-independent form that
parses back to the same value.

Each reader first parses a file's body as whole arrays.  Where that path
refuses anything, the row loop reads the file again from the start: it
alone names a bad line, and it accepts what the array path leaves to it
(``1_0``, say, which ``float()`` reads and ``np.loadtxt`` does not), so the
two agree on every file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .circuit import DeviceParams, Topology
from .extraction import SweepRecord
from .simulate import NoiseModel, SimConfig, SweepPlan

SWEEP_HEADER_GAIN = "frequency_hz,gain"
SWEEP_HEADER_PAIR = "frequency_hz,u_in_v,u_out_v"
BATCH_HEADER = "sample_id,f0_hz"


class ParseError(Exception):
    """A file failed to parse; carries the offending location."""

    def __init__(self, path, line_no: int | None, message: str):
        self.path = str(path)
        self.line_no = line_no
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


def _content_lines(fh, comments: list[str]):
    """Yield ``(line_no, line)`` for each line of the open CSV ``fh`` that
    is neither blank nor a comment, without its line end.  Lines starting
    with ``#`` are appended to ``comments`` verbatim."""
    for line_no, raw in enumerate(iter(fh.readline, ""), start=1):
        # a line holds no CR or LF but its one terminator
        line = raw.rstrip("\r\n")
        if line.startswith("#"):
            comments.append(line)
        elif line and not line.isspace():
            yield line_no, line


def _data_rows(path: Path, headers: tuple[str, ...], comments: list[str]):
    """Yield ``(line_no, fields)`` for each data row of the UTF-8 CSV at
    ``path``.

    Comment lines go to ``comments`` and blank lines are skipped
    (:func:`_content_lines`); the first other line must be one of
    ``headers``, and every later one must have as many comma-separated
    fields as it.  Any departure, including bytes that are not UTF-8,
    raises ParseError.
    """
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            lines = _content_lines(fh, comments)
            line_no, header = next(lines, (None, None))
            if header is None:
                raise ParseError(path, None, "no header line found")
            if header not in headers:
                expected = " or ".join(repr(h) for h in headers)
                raise ParseError(path, line_no, f"expected header {expected}, got {header!r}")
            n_fields = header.count(",") + 1
            for line_no, line in lines:
                fields = line.split(",")
                if len(fields) != n_fields:
                    raise ParseError(
                        path, line_no, f"expected {n_fields} columns, got {len(fields)}"
                    )
                yield line_no, fields
    except UnicodeDecodeError as err:
        raise ParseError(path, None, f"not UTF-8 text ({err.reason})") from None


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
    path = Path(path)
    return _read_sweep_table(path) or _read_sweep_rows(path)


def _table_lines(fh):
    """The rest of the open CSV ``fh``, line by line, for ``np.loadtxt``.

    Raises ValueError if the first line is blank, since loadtxt warns on a
    body without rows, and at a 64 KiB chunk of lines holding one of
    \\x1c to \\x1f, which loadtxt strips as whitespace and ``float()``
    refuses.
    """
    rows = fh.readlines(1 << 16)
    if not rows or rows[0].isspace():
        raise ValueError("no data row straight after the header")
    while rows:
        chunk = "".join(rows)
        if any(c in chunk for c in "\x1c\x1d\x1e\x1f"):
            raise ValueError("a separator character that float() refuses")
        yield from rows
        rows = fh.readlines(1 << 16)


def _read_sweep_table(path: Path) -> tuple[SweepRecord, list[str]] | None:
    """The sweep at ``path`` with its body parsed by ``np.loadtxt``, or None
    where the row loop must read it.

    A finite positive gain ``u_out_v/u_in_v`` implies finite voltages and a
    nonzero ``u_in_v``, so SweepRecord's checks refuse what the row loop does.
    """
    comments: list[str] = []
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            _, header = next(_content_lines(fh, comments), (None, None))
            if header not in (SWEEP_HEADER_GAIN, SWEEP_HEADER_PAIR):
                return None
            table = np.loadtxt(_table_lines(fh), delimiter=",", comments=None, ndmin=2)
        if table.shape[1] != header.count(",") + 1:
            return None
        gain = table[:, 1]
        if table.shape[1] == 3:
            # a division numpy warns about gives a gain SweepRecord refuses
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                gain = table[:, 2] / table[:, 1]
        return SweepRecord(frequency_hz=table[:, 0], gain=gain), comments
    except ValueError:  # UnicodeDecodeError included
        return None


def _read_sweep_rows(path: Path) -> tuple[SweepRecord, list[str]]:
    """:func:`read_sweep_file` one row at a time, naming the first bad line."""
    comments: list[str] = []
    freqs: list[float] = []
    gains: list[float] = []
    prev_f = 0.0
    for line_no, fields in _data_rows(path, (SWEEP_HEADER_GAIN, SWEEP_HEADER_PAIR), comments):
        f = _parse_float(fields[0], path, line_no, "frequency_hz")
        if f <= prev_f:
            raise ParseError(
                path, line_no,
                f"frequencies must be strictly increasing and positive "
                f"({f!r} after {prev_f!r})",
            )
        prev_f = f
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
        freqs.append(f)
        gains.append(gain)
    if len(freqs) < 3:
        raise ParseError(path, None, f"need at least 3 data rows, got {len(freqs)}")
    record = SweepRecord(frequency_hz=np.array(freqs), gain=np.array(gains))
    return record, comments


def write_sweep_file(path, record: SweepRecord, comments: list[str] | tuple = ()) -> None:
    _write_csv(path, SWEEP_HEADER_GAIN, (record.frequency_hz, record.gain), comments)


def read_batch_file(path) -> tuple[list[str], np.ndarray, list[str]]:
    """Parse a batch CSV; returns sample ids, f0 values, and comment lines."""
    path = Path(path)
    return _read_batch_table(path) or _read_batch_rows(path)


def _read_batch_table(path: Path) -> tuple[list[str], np.ndarray, list[str]] | None:
    """The batch at ``path`` with its body parsed in 64 KiB chunks of lines,
    or None where the row loop must read it."""
    comments: list[str] = []
    ids: list[str] = []
    chunks: list[np.ndarray] = []
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            if next(_content_lines(fh, comments), (None, None))[1] != BATCH_HEADER:
                return None
            while rows := fh.readlines(1 << 16):
                tokens = ",".join(rows).split(",")
                heads = "".join(tokens[0::2])
                # every row holds one comma exactly when there are two
                # tokens a row and no line end falls in a first field; a
                # '#' there may start a comment line
                if len(tokens) != 2 * len(rows) or any(c in heads for c in "\r\n#"):
                    return None
                ids.extend(map(str.strip, tokens[0::2]))
                chunks.append(np.fromiter(map(float, tokens[1::2]), float, len(rows)))
    except ValueError:  # UnicodeDecodeError included
        return None
    unique = set(ids)
    if not ids or "" in unique or len(unique) != len(ids):
        return None
    values = np.concatenate(chunks)
    if not (np.isfinite(values) & (values > 0.0)).all():
        return None
    return ids, values, comments


def _read_batch_rows(path: Path) -> tuple[list[str], np.ndarray, list[str]]:
    """:func:`read_batch_file` one row at a time, naming the first bad line."""
    comments: list[str] = []
    ids: list[str] = []
    values: list[float] = []
    seen: set[str] = set()
    for line_no, fields in _data_rows(path, (BATCH_HEADER,), comments):
        sample_id = fields[0].strip()
        if not sample_id:
            raise ParseError(path, line_no, "sample_id must be non-empty")
        if sample_id in seen:
            raise ParseError(path, line_no, f"duplicate sample_id {sample_id!r}")
        seen.add(sample_id)
        f0 = _parse_float(fields[1], path, line_no, "f0_hz")
        if f0 <= 0.0:
            raise ParseError(path, line_no, f"f0_hz must be positive, got {f0!r}")
        ids.append(sample_id)
        values.append(f0)
    if not ids:
        raise ParseError(path, None, "no data rows found")
    return ids, np.array(values), comments


def write_batch_file(path, ids, f0_hz, comments: list[str] | tuple = ()) -> None:
    if len(ids) != len(f0_hz):
        raise ValueError(f"got {len(ids)} ids for {len(f0_hz)} values")
    ids = [str(i) for i in ids]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate sample id {next(i for i in ids if ids.count(i) > 1)!r}")
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
    97.73 MHz ideal device swept noiselessly over 10-100 kHz."""

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

    # the fields that accept infinity, spelled null, "inf" or "infinity"
    _INFINITE_FIELDS = ("g0", "gain_r_ohm")

    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        annotations = {f.name: f.type for f in fields(cls)}
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
        """Check the configuration by building every underlying type;
        ValueError with the offending part spelled out."""
        for build, label in (
            (self.device, "device"),
            (self.topology, "topology"),
            (self.sweep_plan, "sweep plan"),
            (self.sim_config, "simulation"),
            (self.noise, "noise"),
        ):
            try:
                build()
            except ValueError as err:
                raise ValueError(f"invalid {label} configuration: {err}") from None
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"invalid seed: must be a non-negative integer, got {self.seed!r}")

    def device(self) -> DeviceParams:
        return DeviceParams(f0=self.f0_hz, g0=self.g0)

    def topology(self) -> Topology:
        return Topology(feedback_r=self.feedback_r_ohm, gain_r=self.gain_r_ohm)

    def sweep_plan(self) -> SweepPlan:
        return SweepPlan(
            f_min=self.f_min_hz, f_max=self.f_max_hz,
            n_points=self.n_points, spacing=self.spacing,
        )

    def sim_config(self) -> SimConfig:
        return SimConfig(
            steps_per_period=self.steps_per_period,
            steps_per_tau=self.steps_per_tau,
        )

    def noise(self) -> NoiseModel:
        return NoiseModel(sigma_rel=self.sigma_rel)

"""CSV sweep/batch files and the flat JSON run configuration.

Sweep files carry either ``frequency_hz,gain`` or
``frequency_hz,u_in_v,u_out_v`` columns (gain = u_out_v/u_in_v); batch files
carry ``sample_id,f0_hz``.  Lines starting with ``#`` are comments and are
preserved verbatim by the reader, so emitted files round-trip byte-for-byte.
Floats are written with ``repr``, the shortest locale-independent form that
parses back to the same value.
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


def read_sweep_file(path) -> tuple[SweepRecord, list[str]]:
    """Parse a sweep CSV; returns the record and its comment lines."""
    path = Path(path)
    comments: list[str] = []
    header = None
    freqs: list[float] = []
    gains: list[float] = []
    prev_f = 0.0
    with path.open("r", encoding="utf-8", newline="") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if line.startswith("#"):
                comments.append(line)
                continue
            if not line.strip():
                continue
            if header is None:
                if line not in (SWEEP_HEADER_GAIN, SWEEP_HEADER_PAIR):
                    raise ParseError(
                        path, line_no,
                        f"expected header {SWEEP_HEADER_GAIN!r} or {SWEEP_HEADER_PAIR!r}, "
                        f"got {line!r}",
                    )
                header = line
                continue
            parts = line.split(",")
            expected = 2 if header == SWEEP_HEADER_GAIN else 3
            if len(parts) != expected:
                raise ParseError(path, line_no, f"expected {expected} columns, got {len(parts)}")
            f = _parse_float(parts[0], path, line_no, "frequency_hz")
            if f <= prev_f:
                raise ParseError(
                    path, line_no,
                    f"frequencies must be strictly increasing and positive "
                    f"({f!r} after {prev_f!r})",
                )
            prev_f = f
            if header == SWEEP_HEADER_GAIN:
                gain = _parse_float(parts[1], path, line_no, "gain")
            else:
                u_in = _parse_float(parts[1], path, line_no, "u_in_v")
                u_out = _parse_float(parts[2], path, line_no, "u_out_v")
                if u_in == 0.0:
                    raise ParseError(path, line_no, "u_in_v must be nonzero")
                gain = u_out / u_in
            if gain <= 0.0:
                raise ParseError(path, line_no, f"gain must be positive, got {gain!r}")
            freqs.append(f)
            gains.append(gain)
    if header is None:
        raise ParseError(path, None, "no header line found")
    if len(freqs) < 3:
        raise ParseError(path, None, f"need at least 3 data rows, got {len(freqs)}")
    record = SweepRecord(frequency_hz=np.array(freqs), gain=np.array(gains))
    return record, comments


def write_sweep_file(path, record: SweepRecord, comments: list[str] | tuple = ()) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(line + "\n")
        fh.write(SWEEP_HEADER_GAIN + "\n")
        for f, y in zip(record.frequency_hz, record.gain):
            fh.write(f"{float(f)!r},{float(y)!r}\n")


def read_batch_file(path) -> tuple[list[str], np.ndarray, list[str]]:
    """Parse a batch CSV; returns sample ids, f0 values, and comment lines."""
    path = Path(path)
    comments: list[str] = []
    header_seen = False
    ids: list[str] = []
    values: list[float] = []
    seen: set[str] = set()
    with path.open("r", encoding="utf-8", newline="") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if line.startswith("#"):
                comments.append(line)
                continue
            if not line.strip():
                continue
            if not header_seen:
                if line != BATCH_HEADER:
                    raise ParseError(path, line_no, f"expected header {BATCH_HEADER!r}, got {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(path, line_no, f"expected 2 columns, got {len(parts)}")
            sample_id = parts[0].strip()
            if not sample_id:
                raise ParseError(path, line_no, "sample_id must be non-empty")
            if sample_id in seen:
                raise ParseError(path, line_no, f"duplicate sample_id {sample_id!r}")
            seen.add(sample_id)
            f0 = _parse_float(parts[1], path, line_no, "f0_hz")
            if f0 <= 0.0:
                raise ParseError(path, line_no, f"f0_hz must be positive, got {f0!r}")
            ids.append(sample_id)
            values.append(f0)
    if not header_seen:
        raise ParseError(path, None, "no header line found")
    if not ids:
        raise ParseError(path, None, "no data rows found")
    return ids, np.array(values), comments


def write_batch_file(path, ids, f0_hz, comments: list[str] | tuple = ()) -> None:
    path = Path(path)
    if len(ids) != len(f0_hz):
        raise ValueError(f"got {len(ids)} ids for {len(f0_hz)} values")
    with path.open("w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(line + "\n")
        fh.write(BATCH_HEADER + "\n")
        for sample_id, value in zip(ids, f0_hz):
            fh.write(f"{sample_id},{float(value)!r}\n")


def format_metadata(mapping: dict) -> list[str]:
    """Render key/value metadata as '# key = value' comment lines."""
    return [f"# {key} = {value}" for key, value in mapping.items()]


def parse_metadata(comments) -> dict[str, str]:
    """Recover key/value pairs from '# key = value' comment lines."""
    meta: dict[str, str] = {}
    for line in comments:
        body = line.lstrip("#").strip()
        if "=" in body:
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
    return meta


def _as_number(value, field_name: str, allow_inf: bool = False) -> float:
    if isinstance(value, str):
        if allow_inf and value.lower() in ("inf", "infinity"):
            return math.inf
        raise ValueError(f"config field {field_name!r}: expected a number, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config field {field_name!r}: expected a number, got {value!r}")
    return float(value)


@dataclass
class RunConfig:
    """Flat run configuration: device, topology, sweep plan, noise, and
    integrator settings.  Defaults describe a gain-101 amplifier around a
    97.73 MHz ideal device swept noiselessly over 10-100 kHz."""

    f0_hz: float = 97.73e6
    g0: float = math.inf
    feedback_r_ohm: float = 100.0
    gain_r_ohm: float = 1.0
    divider_r1_ohm: float | None = None
    divider_r2_ohm: float | None = None
    f_min_hz: float = 1.0e4
    f_max_hz: float = 1.0e5
    n_points: int = 512
    spacing: str = "linear"
    sigma_rel: float = 0.0
    steps_per_period: int = 256
    steps_per_tau: int = 16
    seed: int = 0

    _NUMBER_FIELDS = {
        "f0_hz": False, "g0": True, "feedback_r_ohm": False, "gain_r_ohm": True,
        "divider_r1_ohm": False, "divider_r2_ohm": False,
        "f_min_hz": False, "f_max_hz": False, "sigma_rel": False,
    }
    _INT_FIELDS = ("n_points", "steps_per_period", "steps_per_tau", "seed")

    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls) if not f.name.startswith("_")}
        cfg = cls()
        for key, value in data.items():
            if key not in known:
                raise ValueError(f"unknown config field {key!r}")
            if key in cls._NUMBER_FIELDS:
                if value is None:
                    value = math.inf if key in ("g0", "gain_r_ohm") else None
                else:
                    value = _as_number(value, key, allow_inf=cls._NUMBER_FIELDS[key])
            elif key in cls._INT_FIELDS:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"config field {key!r}: expected an integer, got {value!r}")
            elif key == "spacing":
                if not isinstance(value, str):
                    raise ValueError(f"config field {key!r}: expected a string, got {value!r}")
            setattr(cfg, key, value)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ParseError(path, err.lineno, f"invalid JSON: {err.msg}") from None
        if not isinstance(data, dict):
            raise ValueError("config file must hold a flat JSON object")
        return cls.from_mapping(data)

    def validate(self) -> None:
        """Re-run the underlying type invariants; raises ValueError with the
        offending field spelled out."""
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
        if (self.divider_r1_ohm is None) != (self.divider_r2_ohm is None):
            raise ValueError(
                "invalid topology configuration: divider_r1_ohm and divider_r2_ohm "
                "must be given together"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"invalid seed: must be a non-negative integer, got {self.seed!r}")

    def device(self) -> DeviceParams:
        return DeviceParams(f0=self.f0_hz, g0=self.g0)

    def topology(self) -> Topology:
        divider = None
        if self.divider_r1_ohm is not None and self.divider_r2_ohm is not None:
            divider = (self.divider_r1_ohm, self.divider_r2_ohm)
        return Topology(feedback_r=self.feedback_r_ohm, gain_r=self.gain_r_ohm, divider=divider)

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

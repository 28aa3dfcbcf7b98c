"""Deterministic report records and their serialization.

JSON output is canonical: sorted keys, floats at 17 significant digits
(lossless for float64), locale-independent. CSV is available only for
tabular payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__


class UnsupportedFormatError(ValueError):
    pass


def _normalize(obj):
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_normalize(v) for v in obj.tolist()]
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return '"nan"'
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):  # what json.dumps(value, ensure_ascii=True) calls
        return encode_basestring_ascii(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(obj) -> str:
    """Serialize with sorted keys and fixed 17-significant-digit floats."""
    obj = _normalize(obj)

    def emit(o) -> str:
        if isinstance(o, dict):
            items = sorted(o.items())
            return "{" + ",".join(f"{_fmt(k)}:{emit(v)}" for k, v in items) + "}"
        if isinstance(o, list):
            return "[" + ",".join(emit(v) for v in o) + "]"
        return _fmt(o)

    return emit(obj)


def config_digest(cfg_data: dict) -> str:
    import hashlib  # here, so that importing the package loads no OpenSSL
    return hashlib.sha256(canonical_json(cfg_data).encode("ascii")).hexdigest()


@dataclass
class ReportRecord:
    """Replayable experiment result: kind tag, config digest, seed, payload."""

    kind: str
    digest: str
    seed: int
    payload: dict
    version: str = __version__
    tables: dict = field(default_factory=dict)  # name -> (header, rows) for CSV

    def as_dict(self) -> dict:
        return {"kind": self.kind, "config_digest": self.digest, "seed": self.seed,
                "tool_version": self.version, "payload": _normalize(self.payload)}


class ReportFormat(Enum):
    JSON = "json"
    CSV = "csv"
    TEXT = "text"


def emit_report(record: ReportRecord, fmt: ReportFormat = ReportFormat.JSON) -> bytes:
    """Deterministically serialize a record."""
    if fmt is ReportFormat.JSON:
        return (canonical_json(record.as_dict()) + "\n").encode("ascii")
    if fmt is ReportFormat.CSV:
        if not record.tables:
            raise UnsupportedFormatError(
                f"report kind {record.kind!r} has no tabular payload; CSV unsupported")
        import csv as _csv
        import io
        buf = io.StringIO()
        w = _csv.writer(buf, lineterminator="\n")
        for name in sorted(record.tables):
            header, rows = record.tables[name]
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(_normalize(v)).strip('"') for v in row])
        return buf.getvalue().encode("ascii")
    if fmt is ReportFormat.TEXT:
        lines = [f"# {record.kind} (tool {record.version}, seed {record.seed})",
                 f"# config {record.digest[:16]}"]
        flat = _normalize(record.payload)

        def walk(prefix, o):
            if isinstance(o, dict):
                for k in sorted(o):
                    walk(f"{prefix}{k}.", o[k])
            elif isinstance(o, list):
                lines.append(f"{prefix[:-1]} = [{', '.join(map(canonical_json, o[:8]))}"
                             f"{', ...' if len(o) > 8 else ''}]")
            else:
                lines.append(f"{prefix[:-1]} = {_fmt(o)}")

        walk("", flat)
        if record.kind == "energy":
            ratio = flat.get("ratio")
            lines.append(f"analog/digital energy ratio: "
                         f"{_fmt(ratio) if ratio is not None else 'n/a'}")
        return ("\n".join(lines) + "\n").encode("ascii")
    raise UnsupportedFormatError(f"unknown format {fmt!r}")

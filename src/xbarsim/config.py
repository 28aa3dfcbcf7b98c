"""Experiment configuration: JSON-syntax tree with engineering-suffix number
literals ("5u", "1m", "500k"), full defaulting from the reference preset,
strict unknown-key rejection, and per-value provenance.
"""

from __future__ import annotations

import decimal
import difflib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .devices import MosParams
from .montecarlo import MismatchSpec
from .network import Activation, Fidelity
from .neuron import DacSpec, RgcParams, reference_params
from .reports import ReportFormat

ENG_SUFFIXES = {
    "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3,
    "k": 1e3, "K": 1e3, "M": 1e6, "G": 1e9,
}
_ENG_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([fpnumkKMG]?)\s*$")


class ConfigError(ValueError):
    """Configuration rejected; message carries the location (line/column for
    syntax, key path for semantics)."""


def parse_engineering(value, key: str = "") -> float:
    """Parse a number or an engineering-suffix string literal to a float."""
    if isinstance(value, bool):
        raise ConfigError(f"{key}: expected a number, got a boolean")
    try:
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            if value.strip() in ("inf", "Inf", "INF"):
                return math.inf
            m = _ENG_RE.match(value)
            if m:
                mant, suffix = m.groups()
                if not suffix:
                    return float(mant)
                # scale in decimal so "5u" parses to exactly float("5e-6")
                exp = round(math.log10(ENG_SUFFIXES[suffix]))
                return float(decimal.Decimal(mant).scaleb(exp))
            raise ConfigError(
                f"{key}: cannot parse {value!r} as a number with an optional "
                f"engineering suffix (one of {''.join(sorted(set(ENG_SUFFIXES)))})")
    except ArithmeticError:  # an integer or exponent past the float range
        raise ConfigError(f"{key}: number literal beyond the float range") from None
    raise ConfigError(f"{key}: expected a number or suffix literal, got {type(value).__name__}")


# a number leaf's bound, as (message, predicate): NaN fails all, inf all but one
_FINITE = ("must be finite", math.isfinite)
_POS = ("must be finite and > 0", lambda v: 0 < v < math.inf)
_NONNEG = ("must be finite and >= 0", lambda v: 0 <= v < math.inf)
_POS_OR_INF = ("must be > 0 (inf for an ideal source)", lambda v: v > 0)


def _within(lo: int, hi: float = math.inf) -> tuple:
    return (f"must be in [{lo}, {hi}]" if hi < math.inf else f"must be >= {lo}",
            lambda v: lo <= v <= hi)


def _device(m: MosParams) -> dict:
    return {"beta": ("eng", m.beta, _POS), "vt": ("eng", m.vt, _FINITE),
            "lambda": ("eng", m.lam, _NONNEG)}


def _dac(d: DacSpec) -> dict:
    return {"i_unit": ("eng", d.i_unit, _POS), "nbits": ("int", d.nbits, _within(1, 24))}


def _choice(default: str, allowed) -> tuple:
    """A string leaf restricted to the given values (an Enum class or strings)."""
    return ("choice", default, tuple(getattr(a, "value", a) for a in allowed))


# one entry of network.layers; it needs 'csv' or 'values'
_LAYER = {
    "csv": ("path_or_null", None),
    "values": ("matrix_or_null", None),
    "activation": _choice("threshold", Activation),
}

_NEURON = reference_params()
# 2**1024 overflows a float: the SAR step 1/2**n, the 2**bits - 1 weight levels
_EXPONENT = _within(1, 1023)
# the cap on a count that sizes an array or a loop (grid points, network
# inputs, Monte Carlo runs), so a typo exits 2 instead of exhausting memory
# or running for days
MAX_COUNT = 10**6

# the reference preset: every key the frontend understands, with its default
# and, for a number, the bound it must meet
_SCHEMA = {
    "preset": _choice("reference", ("reference",)),
    "neuron": {
        "m1": _device(_NEURON.m1),
        "m2": _device(_NEURON.m2),
        "m3": _device(_NEURON.m3),
        "m5": _device(_NEURON.m5),
        "ib": ("eng", _NEURON.ib, _POS),
        "ib2": ("eng", _NEURON.ib2, _POS),
        "ro_b2": ("eng", _NEURON.ro_b2, _POS_OR_INF),
        "vc": ("eng", _NEURON.vc, _FINITE),
        "vdd": ("eng", _NEURON.vdd, _POS),
        "vb3": ("eng", _NEURON.vb3, _FINITE),
        "r_load": ("eng", _NEURON.r_load, _POS),
        "dac": _dac(_NEURON.dac),
        "dac_out": _dac(_NEURON.dac_out),
    },
    "crossbar": {
        "rows": ("int", 4, _within(1)),
        "cols": ("int", 4, _within(1)),
        "g_min": ("eng", 1e-6, _POS),
        "g_max": ("eng", 1e-3, _POS),
        "csv": ("path_or_null", None),
        "values": ("matrix_or_null", None),
    },
    "sar": {
        "nbits": ("int", 6, _within(1)),
        "t_step": ("eng", 1e-6, _POS),
        "vref_in": ("eng", 0.65, _FINITE),
        "vref_out": ("eng", 0.95, _FINITE),
        "grid_points": ("int", 2001, _within(1, MAX_COUNT)),
        "grid_n": ("int", 16, _EXPONENT),
    },
    "mismatch": {
        "sigma_vt": ("eng", MismatchSpec().sigma_vt, _NONNEG),
        "sigma_beta_rel": ("eng", MismatchSpec().sigma_beta_rel, _NONNEG),
    },
    "mc": {
        "runs": ("int", 500, _within(2, MAX_COUNT)),
        "seed": ("int", 1, _within(0)),
        "calibration": ("bool", True),
    },
    "network": {
        "bits": ("int", 8, _EXPONENT),
        "v_read": ("eng", 0.1, _POS),
        "fidelity": _choice("circuit_ideal", Fidelity),
        "g_min": ("eng", 1e-7, _POS),
        "g_max": ("eng", 1e-5, _POS),
        "layers": ("layers_or_null", None),
        "inputs_csv": ("path_or_null", None),
        "n_inputs": ("int", 20, _within(1, MAX_COUNT)),
    },
    "energy": {
        "t_eval": ("eng", 10e-9, _NONNEG),
        "t_sar_step": ("eng", 100e-9, _NONNEG),
        "p_neuron": ("eng", 43e-6, _NONNEG),
        "p_sar": ("eng", 10e-6, _NONNEG),
        "e_mac": ("eng", 1e-12, _NONNEG),
        "e_act": ("eng", 0.5e-12, _NONNEG),
        # the SAR energy is divided by it as a float, exact up to 2**53
        "amortize_over": ("int", 1_000_000, _within(1, 2**53)),
    },
    "output": {
        "path": ("path_out_or_null", None),
        "format": _choice("json", ReportFormat),
    },
}


@dataclass
class SimConfig:
    """Fully resolved configuration tree plus value provenance."""

    data: dict
    provenance: dict = field(default_factory=dict)  # dotted key -> explicit|default
    base_dir: Path = field(default_factory=Path)

    def __getitem__(self, section: str) -> dict:
        return self.data[section]

    def to_json(self) -> str:
        from .reports import canonical_json
        return canonical_json(self.data)

    def neuron_params(self) -> RgcParams:
        n = self.data["neuron"]
        m1, m2, m3, m5 = (MosParams(n[r]["beta"], n[r]["vt"], n[r]["lambda"])
                          for r in ("m1", "m2", "m3", "m5"))
        return RgcParams(
            m1=m1, m2=m2, m3=m3, m5=m5,
            ib=n["ib"], ib2=n["ib2"], ro_b2=n["ro_b2"], vc=n["vc"],
            vdd=n["vdd"], vb3=n["vb3"], r_load=n["r_load"],
            dac=DacSpec(n["dac"]["i_unit"], n["dac"]["nbits"]),
            dac_out=DacSpec(n["dac_out"]["i_unit"], n["dac_out"]["nbits"]),
        )

    def mismatch_spec(self) -> MismatchSpec:
        m = self.data["mismatch"]
        return MismatchSpec(sigma_vt=m["sigma_vt"], sigma_beta_rel=m["sigma_beta_rel"])


def _suggest(key: str, candidates) -> str:
    close = difflib.get_close_matches(key, list(candidates), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _validate(node, schema, path: str, prov: dict, base_dir: Path):
    if not isinstance(node, dict):
        raise ConfigError(f"{path.rstrip('.') or '<root>'}: expected an object")
    out = {}
    for key in node:
        if key not in schema:
            raise ConfigError(f"unknown key {path + key!r}{_suggest(key, schema)}")
    for key, spec in schema.items():
        dotted = path + key
        present = key in node
        if isinstance(spec, dict):
            sub = node.get(key, {})
            out[key] = _validate(sub, spec, dotted + ".", prov, base_dir)
            continue
        kind, default = spec[:2]
        prov[dotted] = "explicit" if present else "default"
        value = node[key] if present else default
        if not present or (value is None and kind.endswith("_or_null")):
            out[key] = value
            continue
        if kind == "eng":
            value = parse_engineering(value, dotted)
        elif kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{dotted}: expected an integer, got {value!r}")
        elif kind == "bool":
            if not isinstance(value, bool):
                raise ConfigError(f"{dotted}: expected a boolean, got {value!r}")
        elif kind == "choice":
            if not isinstance(value, str) or value not in spec[2]:
                raise ConfigError(
                    f"{dotted}: must be one of {', '.join(spec[2])}, got {value!r}")
        elif kind in ("path_or_null", "path_out_or_null"):
            if not isinstance(value, str):
                raise ConfigError(f"{dotted}: expected a path string or null")
            if kind == "path_or_null" and not (base_dir / value).exists():
                raise ConfigError(
                    f"{dotted}: referenced file {str(base_dir / value)!r} does not exist")
        elif kind == "matrix_or_null":
            if (not isinstance(value, list) or not value
                    or not all(isinstance(r, list) and r for r in value)
                    or len({len(r) for r in value}) != 1):
                raise ConfigError(f"{dotted}: expected a list of equal-length, non-empty rows")
            value = [[parse_engineering(v, dotted) for v in row] for row in value]
            if not all(math.isfinite(v) for row in value for v in row):
                raise ConfigError(f"{dotted}: entries must be finite")
        elif kind == "layers_or_null":
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{dotted}: expected a non-empty list of layer objects")
            layers, value = value, []
            for i, layer in enumerate(layers):
                entry = _validate(layer, _LAYER, f"{dotted}[{i}].", prov, base_dir)
                if entry["csv"] is None and entry["values"] is None:
                    raise ConfigError(f"{dotted}[{i}]: needs 'csv' or 'values'")
                value.append(entry)
        else:  # pragma: no cover
            raise AssertionError(f"bad schema kind {kind}")
        if kind in ("eng", "int") and not spec[2][1](value):
            raise ConfigError(f"{dotted}: {spec[2][0]}, got {value!r}")
        out[key] = value
    return out


def _check_invariants(data: dict):
    """The rules that tie two keys together; each key's own bound is in _SCHEMA."""
    for section in ("crossbar", "network"):
        g_min, g_max = data[section]["g_min"], data[section]["g_max"]
        if g_min > g_max:
            raise ConfigError(f"{section}.g_min: must be <= {section}.g_max, "
                              f"got {g_min!r} > {g_max!r}")
    if data["sar"]["nbits"] > data["neuron"]["dac"]["nbits"]:
        raise ConfigError("sar.nbits: must be in [1, neuron.dac.nbits]")


def parse_config(text: str, base_dir: str | Path = ".") -> SimConfig:
    """Parse and fully validate a configuration document.

    Unknown keys are rejected with a nearest-match suggestion; number values
    accept engineering-suffix literals; every referenced file must exist.
    """
    base_dir = Path(base_dir)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"syntax error at line {e.lineno} column {e.colno}: {e.msg}") from e
    prov: dict = {}
    data = _validate(raw, _SCHEMA, "", prov, base_dir)
    _check_invariants(data)
    return SimConfig(data=data, provenance=prov, base_dir=base_dir)


def load_config(path: str | Path) -> SimConfig:
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)

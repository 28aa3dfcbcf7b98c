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
from .neuron import DacSpec, RgcParams
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
    raise ConfigError(f"{key}: expected a number or suffix literal, got {type(value).__name__}")


def _device(beta, vt, lam):
    return {"beta": ("eng", beta), "vt": ("eng", vt), "lambda": ("eng", lam)}


def _dac():
    return {"i_unit": ("eng", 0.125e-6), "nbits": ("int", 6)}


def _choice(default: str, allowed) -> tuple:
    """A string leaf restricted to the given values (an Enum class or strings)."""
    return ("choice", default, tuple(getattr(a, "value", a) for a in allowed))


# one entry of network.layers; it needs 'csv' or 'values'
_LAYER = {
    "csv": ("path_or_null", None),
    "values": ("matrix_or_null", None),
    "activation": _choice("threshold", Activation),
}

# the reference preset: every key the frontend understands, with its default
_SCHEMA = {
    "preset": _choice("reference", ("reference",)),
    "neuron": {
        "m1": _device(1e-3, 0.3, 0.05),
        "m2": _device(200e-6, 0.4, 0.05),
        "m3": _device(1e-3, 0.3, 0.05),
        "m5": _device(200e-6, 0.4, 0.0),
        "ib": ("eng", 5e-6),
        "ib2": ("eng", 4e-6),
        "ro_b2": ("eng", 2e6),
        "vc": ("eng", 0.2),
        "vdd": ("eng", 1.0),
        "vb3": ("eng", 1.15),
        "r_load": ("eng", 20e3),
        "dac": _dac(),
        "dac_out": _dac(),
    },
    "crossbar": {
        "rows": ("int", 4),
        "cols": ("int", 4),
        "g_min": ("eng", 1e-6),
        "g_max": ("eng", 1e-3),
        "csv": ("path_or_null", None),
        "values": ("matrix_or_null", None),
    },
    "sar": {
        "nbits": ("int", 6),
        "t_step": ("eng", 1e-6),
        "vref_in": ("eng", 0.65),
        "vref_out": ("eng", 0.95),
        "grid_points": ("int", 2001),
        "grid_n": ("int", 16),
    },
    "mismatch": {
        "sigma_vt": ("eng", 10e-3),
        "sigma_beta_rel": ("eng", 0.02),
    },
    "mc": {
        "runs": ("int", 500),
        "seed": ("int", 1),
        "calibration": ("bool", True),
    },
    "network": {
        "bits": ("int", 8),
        "v_read": ("eng", 0.1),
        "fidelity": _choice("circuit_ideal", Fidelity),
        "g_min": ("eng", 1e-7),
        "g_max": ("eng", 1e-5),
        "layers": ("layers_or_null", None),
        "inputs_csv": ("path_or_null", None),
        "n_inputs": ("int", 20),
    },
    "energy": {
        "t_eval": ("eng", 10e-9),
        "t_sar_step": ("eng", 100e-9),
        "p_neuron": ("eng", 43e-6),
        "p_sar": ("eng", 10e-6),
        "e_mac": ("eng", 1e-12),
        "e_act": ("eng", 0.5e-12),
        "amortize_over": ("int", 1_000_000),
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

    # ---- typed accessors -------------------------------------------------

    def mos_params(self, role: str) -> MosParams:
        d = self.data["neuron"][role]
        return MosParams(beta=d["beta"], vt=d["vt"], lam=d["lambda"])

    def neuron_params(self) -> RgcParams:
        n = self.data["neuron"]
        return RgcParams(
            m1=self.mos_params("m1"), m2=self.mos_params("m2"),
            m3=self.mos_params("m3"), m5=self.mos_params("m5"),
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
            out[key] = parse_engineering(value, dotted)
        elif kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{dotted}: expected an integer, got {value!r}")
            out[key] = value
        elif kind == "bool":
            if not isinstance(value, bool):
                raise ConfigError(f"{dotted}: expected a boolean, got {value!r}")
            out[key] = value
        elif kind == "choice":
            allowed = spec[2]
            if not isinstance(value, str) or value not in allowed:
                raise ConfigError(
                    f"{dotted}: must be one of {', '.join(allowed)}, got {value!r}")
            out[key] = value
        elif kind in ("path_or_null", "path_out_or_null"):
            if not isinstance(value, str):
                raise ConfigError(f"{dotted}: expected a path string or null")
            if kind == "path_or_null" and not (base_dir / value).exists():
                raise ConfigError(
                    f"{dotted}: referenced file {str(base_dir / value)!r} does not exist")
            out[key] = value
        elif kind == "matrix_or_null":
            if (not isinstance(value, list) or not value
                    or not all(isinstance(r, list) and r for r in value)
                    or len({len(r) for r in value}) != 1):
                raise ConfigError(f"{dotted}: expected a list of equal-length, non-empty rows")
            out[key] = [[parse_engineering(v, dotted) for v in row] for row in value]
        elif kind == "layers_or_null":
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{dotted}: expected a non-empty list of layer objects")
            out[key] = []
            for i, layer in enumerate(value):
                entry = _validate(layer, _LAYER, f"{dotted}[{i}].", prov, base_dir)
                if entry["csv"] is None and entry["values"] is None:
                    raise ConfigError(f"{dotted}[{i}]: needs 'csv' or 'values'")
                out[key].append(entry)
        else:  # pragma: no cover
            raise AssertionError(f"bad schema kind {kind}")
    return out


def _check_invariants(data: dict):
    def require(cond: bool, key: str, what: str):
        if not cond:
            raise ConfigError(f"{key}: {what}")

    n = data["neuron"]
    for role in ("m1", "m2", "m3", "m5"):
        require(n[role]["beta"] > 0, f"neuron.{role}.beta", "must be > 0")
        require(n[role]["lambda"] >= 0, f"neuron.{role}.lambda", "must be >= 0")
    require(n["ib"] > 0, "neuron.ib", "must be > 0")
    require(n["ib2"] > 0, "neuron.ib2", "must be > 0")
    require(n["vdd"] > 0, "neuron.vdd", "must be > 0")
    for d in ("dac", "dac_out"):
        require(1 <= n[d]["nbits"] <= 24, f"neuron.{d}.nbits", "must be in [1, 24]")
        require(n[d]["i_unit"] > 0, f"neuron.{d}.i_unit", "must be > 0")
    c = data["crossbar"]
    require(c["rows"] >= 1 and c["cols"] >= 1, "crossbar.rows", "dimensions must be >= 1")
    require(0 < c["g_min"] <= c["g_max"], "crossbar.g_min", "need 0 < g_min <= g_max")
    require(1 <= data["sar"]["nbits"] <= n["dac"]["nbits"], "sar.nbits",
            "must be in [1, neuron.dac.nbits]")
    require(data["sar"]["grid_points"] >= 1, "sar.grid_points", "must be >= 1")
    require(data["sar"]["grid_n"] >= 1, "sar.grid_n", "must be >= 1")
    m = data["mismatch"]
    require(m["sigma_vt"] >= 0 and m["sigma_beta_rel"] >= 0,
            "mismatch.sigma_vt", "sigmas must be >= 0")
    net = data["network"]
    require(net["bits"] >= 1, "network.bits", "must be >= 1")
    require(net["n_inputs"] >= 1, "network.n_inputs", "must be >= 1")
    require(net["v_read"] > 0, "network.v_read", "must be > 0")
    require(0 < net["g_min"] <= net["g_max"], "network.g_min", "need 0 < g_min <= g_max")
    for key, value in data["energy"].items():
        require(value >= 0, f"energy.{key}", "must be >= 0")
    require(data["energy"]["amortize_over"] >= 1, "energy.amortize_over", "must be >= 1")


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

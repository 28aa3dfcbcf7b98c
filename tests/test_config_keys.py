"""Every settable config key changes some answer of the package.

A key that changes no answer is still validated, documented and hashed into
every report's config digest. Two checks hold the schema to that:

- Each number and bool leaf of `config._SCHEMA` is perturbed within its
  bound and the rules of `_check_invariants`: an int by +1 (or -1 where +1
  breaks a bound or rule), an eng value by x1.05 (or set to 0.01 where its
  value is 0), a bool flipped. The perturbed config, like the unperturbed
  one, is `tests/data/config_ref.json` with the `network` section of
  `config_infer.json`, and runs all six kinds in-process through
  `run_experiment`. Some kind's answer must differ from the unperturbed
  run's: its payload and tables, or the error it raises. A leaf that
  changes no answer on these configs is named in ALLOWED with its reason,
  and an entry that changes an answer, or names no leaf, fails.
- The leaves the perturbation cannot exercise (paths, matrices, choices,
  layer entries), and every other leaf too, must appear in a module of the
  package as a string subscript, `x["name"]`, found by an AST scan. The
  check is coarse: it matches a leaf's last name, not its dotted path, so a
  name that two sections share (`nbits`, `g_min`, `g_max`, `csv`,
  `values`) passes once either section reads it.
"""

import ast
import functools
import json
from pathlib import Path

import pytest

import xbarsim
from xbarsim.config import _LAYER, _SCHEMA, ConfigError, parse_config
from xbarsim.experiments import ExperimentKind, run_experiment
from xbarsim.reports import canonical_json

MODULES = sorted(Path(xbarsim.__file__).parent.glob("*.py"))
DATA = Path(__file__).parent / "data"

# each number leaf that changes no answer on the configs below, and why it stays
ALLOWED = {
    "crossbar.g_min": "bounds the energy kind's matrix only: a cell outside "
                      "[g_min, g_max] exits 2, and a cell inside is read as it is",
    "crossbar.g_max": "bounds the energy kind's matrix only, as crossbar.g_min",
    "neuron.dac.nbits": "caps sar.nbits, the width the mc kind and the infer chip "
                        "trim with; bench/workloads.py's MC_CONFIG sets it",
}


def leaves(schema: dict, path: str = ""):
    """Each leaf's dotted path and its schema entry."""
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from leaves(spec, f"{path}{key}.")
        else:
            yield path + key, spec


def subscripted_names(source: str) -> set[str]:
    return {n.slice.value for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)
            and isinstance(n.slice.value, str)}


READ = set().union(*(subscripted_names(p.read_text(encoding="utf-8")) for p in MODULES))
NUMBER_LEAVES = {key: spec[0] for key, spec in leaves(_SCHEMA)
                 if spec[0] in ("eng", "int", "bool")}


@pytest.mark.parametrize("key", [key for key, _ in [*leaves(_SCHEMA),
                                                    *leaves(_LAYER, "network.layers[i].")]])
def test_every_leaf_is_read(key):
    assert key.rsplit(".", 1)[-1] in READ, f"{key} is validated but never read"


def test_detects_subscripts_only():
    source = ("cfg['sar']['nbits']\n"
              "x = {'t_step': 1}\n"
              "y = cfg.vref_out\n"
              "z = cfg[key]['rows']\n")
    assert subscripted_names(source) == {"sar", "nbits", "rows"}


def base_doc() -> dict:
    doc = json.loads((DATA / "config_ref.json").read_text(encoding="utf-8"))
    doc["network"] = json.loads((DATA / "config_infer.json").read_text(encoding="utf-8"))["network"]
    return doc


def candidates(kind: str, value):
    if kind == "bool":
        return [not value]
    if kind == "int":
        return [value + 1, value - 1]
    return [value * 1.05 if value else 0.01]


def perturbed(key: str):
    """The base config with leaf key moved to the first candidate value that
    parses, and that value."""
    *path, leaf = key.split(".")
    value = functools.reduce(dict.get, [*path, leaf], parse_config(json.dumps(base_doc())).data)
    for new in candidates(NUMBER_LEAVES[key], value):
        doc = base_doc()
        functools.reduce(lambda node, name: node.setdefault(name, {}), path, doc)[leaf] = new
        try:
            return parse_config(json.dumps(doc)), new
        except ConfigError:
            continue
    raise AssertionError(f"{key}: no perturbation of {value!r} parses")


def answers(cfg) -> dict[str, str]:
    """Each kind's payload and tables, or the error it raises."""
    out = {}
    for kind in ExperimentKind:
        try:
            rec = run_experiment(cfg, kind)
            out[kind.value] = canonical_json([rec.payload, rec.tables])
        except Exception as e:
            out[kind.value] = f"raised {type(e).__name__}: {e}"
    return out


@functools.cache
def base_answers() -> dict[str, str]:
    return answers(parse_config(json.dumps(base_doc())))


@functools.cache
def changed_kinds(key: str) -> tuple[str, ...]:
    got = answers(perturbed(key)[0])
    return tuple(kind for kind, answer in base_answers().items() if got[kind] != answer)


@pytest.mark.parametrize("key", [k for k in NUMBER_LEAVES if k not in ALLOWED])
def test_every_number_leaf_changes_an_answer(key):
    assert changed_kinds(key), f"{key} = {perturbed(key)[1]!r} changes no kind's answer"


def test_allow_list_names_leaves_that_change_nothing():
    # an entry whose leaf is gone, or that some kind now answers to, is deleted
    stale = [k for k in ALLOWED if k not in NUMBER_LEAVES or changed_kinds(k)]
    assert not stale, f"allowed, but gone or changing an answer: {', '.join(stale)}"


def test_base_config_runs_every_kind():
    # a kind that fails on the base config would hide a leaf it reads
    assert not [a for a in base_answers().values() if a.startswith("raised")]


def test_perturbation_meets_bounds_and_rules():
    cfg, new = perturbed("sar.nbits")  # +1 would pass neuron.dac.nbits
    assert new == 5 and cfg["sar"]["nbits"] == 5
    assert perturbed("mc.calibration")[1] is False
    assert perturbed("neuron.ib")[1] == 5e-6 * 1.05

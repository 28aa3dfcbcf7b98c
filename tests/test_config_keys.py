"""Every settable config key is read somewhere in src/xbarsim.

A key that nothing reads is still validated, documented and hashed into
every report's config digest, yet changes no output. Each leaf of
`config._SCHEMA` and `config._LAYER` must appear in a module of the package
as a string subscript, `x["name"]`, found by an AST scan. The check is
coarse: it matches a leaf's last name, not its dotted path, so a name that
two sections share (`nbits`, `g_min`, `g_max`, `csv`, `values`) passes
once either section reads it.
"""

import ast
from pathlib import Path

import pytest

import xbarsim
from xbarsim.config import _LAYER, _SCHEMA

MODULES = sorted(Path(xbarsim.__file__).parent.glob("*.py"))


def leaves(schema: dict, path: str = ""):
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from leaves(spec, f"{path}{key}.")
        else:
            yield path + key


def subscripted_names(source: str) -> set[str]:
    return {n.slice.value for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)
            and isinstance(n.slice.value, str)}


READ = set().union(*(subscripted_names(p.read_text(encoding="utf-8")) for p in MODULES))


@pytest.mark.parametrize("key", [*leaves(_SCHEMA), *leaves(_LAYER, "network.layers[i].")])
def test_every_leaf_is_read(key):
    assert key.rsplit(".", 1)[-1] in READ, f"{key} is validated but never read"


def test_detects_subscripts_only():
    source = ("cfg['sar']['nbits']\n"
              "x = {'t_step': 1}\n"
              "y = cfg.vref_out\n"
              "z = cfg[key]['rows']\n")
    assert subscripted_names(source) == {"sar", "nbits", "rows"}

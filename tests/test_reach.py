"""Every public function in src/xbarsim is run by some CLI kind.

A public def that no CLI kind runs answers no question the package is asked:
it is still kept, tested and documented, yet changes no output. Each kind
runs in one subprocess under sys.settrace, installed before `import xbarsim`
so that calls made at import time count: `op` and `energy` as JSON and text,
`smallsignal`, `sar`, `mc` as JSON and CSV, and `infer` at each fidelity.
Every public module- or class-level def, found by an AST scan, must have
been called, or be in ALLOWED with its reason. A def is matched by its file
and first line, which for a decorated def is its first decorator's, as its
code object has it; co_qualname would name it, but it is Python 3.11+.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xbarsim
from xbarsim.network import Fidelity

PACKAGE = Path(xbarsim.__file__).resolve().parent
DATA = Path(__file__).parent / "data"

# each public def that no CLI kind reaches, and why it stays
ALLOWED = {
    "crossbar.output_currents_nonideal":
        "the nodal solve: the nodal_tiles and infer_nonideal benchmark workloads "
        "call it, and infer reaches it once a config key sets the wire "
        "resistances (ROADMAP item 20 step 1)",
    "crossbar.NonIdealSpec.neuron_resistances":
        "read by output_currents_nonideal only, as above",
    "crossbar.current_excitation":
        "the nodal_tiles workload's current-driven tiles; the CLI reaches it with "
        "the nodal solve (ROADMAP item 20 step 1)",
    "neuron.transfer_curve":
        "bench/tracer.py patches it as network.transfer_curve until that tracer "
        "target is dropped (ROADMAP item 3)",
}

# the trace records the code object of every call: its file and first line
TRACER = """
import json, sys
reached = set()

def trace(frame, event, arg):
    reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.settrace(trace)
from xbarsim.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit("xbarsim " + " ".join(argv) + " failed")
sys.settrace(None)
print(json.dumps(sorted(reached)))
"""


def public_defs(source: str) -> dict[str, int]:
    """Each public module- or class-level def, by (class-qualified) name, at
    the line its code object starts on."""
    tree = ast.parse(source)
    scopes = [("", tree.body)] + [(f"{c.name}.", c.body) for c in tree.body
                                  if isinstance(c, ast.ClassDef) and not c.name.startswith("_")]
    return {prefix + d.name: min([d.lineno] + [x.lineno for x in d.decorator_list])
            for prefix, body in scopes for d in body
            if isinstance(d, ast.FunctionDef)
            and not d.name.startswith("_")}


def unreached(defs: dict, reached: set, allowed) -> list[str]:
    """The names in defs, each mapped to its (file, line), that the trace did
    not reach and that allowed does not name."""
    return sorted(name for name, at in defs.items() if at not in reached and name not in allowed)


DEFS = {f"{path.stem}.{name}": (str(path), line)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in public_defs(path.read_text(encoding="utf-8")).items()}


def cli_runs(tmp: Path) -> list[list[str]]:
    ref = str(DATA / "config_ref.json")
    runs = [["--config", ref, "--format", fmt, kind, "--out", str(tmp / f"{kind}.{fmt}")]
            for kind, fmt in [("op", "json"), ("op", "text"), ("energy", "json"),
                              ("energy", "text"), ("smallsignal", "json"),
                              ("sar", "json"), ("mc", "json"), ("mc", "csv")]]
    net = json.loads((DATA / "config_infer.json").read_text(encoding="utf-8"))
    for fidelity in Fidelity:
        net["network"]["fidelity"] = fidelity.value
        config = tmp / f"infer_{fidelity.value}.json"
        config.write_text(json.dumps(net), encoding="utf-8")
        runs.append(["--config", str(config), "infer",
                     "--out", str(tmp / f"infer_{fidelity.value}.out.json")])
    return runs


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-c", TRACER, json.dumps(cli_runs(tmp_path_factory.mktemp("reach")))],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return {(str(Path(f).resolve()), line) for f, line in json.loads(done.stdout)
            if f.endswith(".py") and Path(f).resolve().parent == PACKAGE}


def test_every_public_def_is_reached(reached):
    missed = unreached(DEFS, reached, ALLOWED)
    assert not missed, f"no CLI kind runs {', '.join(missed)}"


def test_allow_list_names_unreached_defs(reached):
    # an entry whose def is gone, or that a CLI kind now runs, is deleted
    stale = [n for n in ALLOWED if n not in DEFS or DEFS[n] in reached]
    assert not stale, f"allowed, but gone or reached: {', '.join(stale)}"


def test_detects_unreached_defs():
    source = ("def solve(): pass\n"
              "def _helper(): pass\n"
              "@cache\n"
              "def sweep(): pass\n"
              "class Spec:\n"
              "    @property\n"
              "    def size(self): pass\n"
              "    def _check(self): pass\n"
              "    def read(self): pass\n"
              "class _Cache:\n"
              "    def get(self): pass\n"
              "def legacy(): pass\n")
    lines = public_defs(source)
    assert lines == {"solve": 1, "sweep": 3, "Spec.size": 6, "Spec.read": 9, "legacy": 12}
    defs = {name: ("m.py", line) for name, line in lines.items()}
    # sweep's call was seen at its def line, not at its decorator's: a miss
    reached = {("m.py", 1), ("m.py", 4), ("m.py", 6), ("other.py", 9)}
    assert unreached(defs, reached, {}) == ["Spec.read", "legacy", "sweep"]
    assert unreached(defs, reached, {"legacy": "a reason"}) == ["Spec.read", "sweep"]

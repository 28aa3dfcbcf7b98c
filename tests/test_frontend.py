import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsim import experiments, network, reports
from xbarsim.cli import main
from xbarsim.config import (_LAYER, _SCHEMA, ConfigError, load_config, parse_config,
                            parse_engineering)
from xbarsim.experiments import ExperimentKind, _load_csv, run_experiment
from xbarsim.montecarlo import MismatchSpec
from xbarsim.network import Activation, Fidelity
from xbarsim.neuron import reference_params
from xbarsim.reports import (ReportFormat, UnsupportedFormatError,
                             canonical_json, config_digest, emit_report)
from xbarsim.sar import sar_calibrate

DATA = Path(__file__).parent / "data"
REF = DATA / "config_ref.json"


class TestEngineeringLiterals:
    @pytest.mark.parametrize("text,value", [
        ("5u", 5e-6), ("1m", 1e-3), ("500k", 500e3), ("2.5n", 2.5e-9),
        ("10f", 10e-15), ("-3p", -3e-12), ("1.5M", 1.5e6), ("2G", 2e9),
        ("1K", 1e3), ("1e3", 1e3), ("0.5", 0.5), ("-4", -4.0),
        (" 7u ", 7e-6), ("1.5e-2m", 1.5e-5),
    ])
    def test_accepted(self, text, value):
        assert parse_engineering(text) == pytest.approx(value, rel=1e-15)

    def test_plain_numbers_pass_through(self):
        assert parse_engineering(3) == 3.0
        assert parse_engineering(2.5) == 2.5

    def test_inf(self):
        assert parse_engineering("inf") == math.inf

    @pytest.mark.parametrize("bad", ["5 potato", "u5", "1.2.3", "", "5uu",
                                     "0x10", True, None, [1]])
    def test_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_engineering(bad)


class TestConfigValidation:
    def test_empty_config_is_full_default_tree(self):
        cfg = parse_config("{}")
        assert cfg["neuron"]["ib"] == 5e-6
        assert cfg["sar"]["nbits"] == 6
        assert cfg.provenance["neuron.ib"] == "default"

    def test_explicit_provenance(self):
        cfg = parse_config('{"neuron": {"ib": "6u"}}')
        assert cfg["neuron"]["ib"] == pytest.approx(6e-6)
        assert cfg.provenance["neuron.ib"] == "explicit"
        assert cfg.provenance["neuron.ib2"] == "default"

    def test_unknown_key_suggestion(self):
        with pytest.raises(ConfigError, match="did you mean 'neuron'"):
            parse_config('{"neurn": {}}')

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="neuron.vdd"):
            parse_config('{"neuron": {"vddd": 1.0}}')

    def test_syntax_error_location(self):
        with pytest.raises(ConfigError, match=r"line 2 column 13"):
            parse_config('{\n  "neuron": }')

    def test_missing_referenced_file(self):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config('{"crossbar": {"csv": "no_such_file.csv"}}')

    def test_invariants_checked(self):
        with pytest.raises(ConfigError, match="g_min"):
            parse_config('{"crossbar": {"g_min": "1m", "g_max": "1u"}}')
        with pytest.raises(ConfigError, match="format"):
            parse_config('{"output": {"format": "xml"}}')
        with pytest.raises(ConfigError, match="nbits"):
            parse_config('{"neuron": {"dac": {"nbits": 0}}}')
        # the SAR trims the input DAC, so it cannot have more bits than it
        with pytest.raises(ConfigError, match=r"^sar\.nbits: must be in \[1, neuron\.dac"):
            parse_config('{"sar": {"nbits": 8}}')
        parse_config('{"sar": {"nbits": 8}, "neuron": {"dac": {"nbits": 8}}}')

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config('{"mc": {"runs": 1.5}}')
        with pytest.raises(ConfigError, match="boolean"):
            parse_config('{"mc": {"calibration": "yes"}}')

    def test_parse_emit_parse_idempotent(self):
        cfg1 = load_config(REF)
        cfg2 = parse_config(canonical_json(cfg1.data), base_dir=REF.parent)
        assert cfg1.data == cfg2.data
        assert canonical_json(cfg1.data) == canonical_json(cfg2.data)

    def test_every_number_leaf_has_a_bound(self):
        def leaves(schema, path=""):
            for key, spec in schema.items():
                if isinstance(spec, dict):
                    yield from leaves(spec, f"{path}{key}.")
                elif spec[0] in ("eng", "int"):
                    yield path + key, spec

        numbers = dict(leaves({**_SCHEMA, "network.layers[i]": _LAYER}))
        for key, (kind, default, (message, ok)) in numbers.items():
            assert message.startswith("must ") and ok(default), key
            assert not ok(math.nan), key
        assert [k for k, (kind, _, (_, ok)) in numbers.items()
                if kind == "eng" and ok(math.inf)] == ["neuron.ro_b2"]

    def test_default_is_the_domain_preset(self):
        cfg = parse_config("{}")
        assert cfg.neuron_params() == reference_params()
        assert cfg.mismatch_spec() == MismatchSpec()

    @pytest.mark.parametrize("doc,kind", [
        ({"sar": {"grid_n": 1023, "grid_points": 5}}, "sar"),
        ({"network": {"bits": 1023, "n_inputs": 2,
                      "layers": [{"values": [[1.0, -0.5], [0.25, 0.75]]}]}}, "infer"),
    ])
    def test_largest_exponent_runs(self, tmp_path, capsys, doc, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["--config", str(cfg), kind]) == 0

    def test_digest_stable_and_sensitive(self):
        a = parse_config("{}")
        b = parse_config('{"neuron": {}}')
        c = parse_config('{"neuron": {"ib": "6u"}}')
        assert config_digest(a.data) == config_digest(b.data)
        assert config_digest(a.data) != config_digest(c.data)


# malformed documents, each with the key its ConfigError must name
MALFORMED = [
    ({"network": {"layers": [{"values": 5}]}}, "network.layers[0].values"),
    ({"network": {"layers": [{"values": [[1.0], 2.0]}]}}, "network.layers[0].values"),
    ({"network": {"layers": [{"csv": 5}]}}, "network.layers[0].csv"),
    ({"network": {"layers": [{"csv": "no_such.csv"}]}}, "network.layers[0].csv"),
    ({"network": {"layers": [{}]}}, "network.layers[0]: needs 'csv' or 'values'"),
    ({"network": {"layers": [5]}}, "network.layers[0]: expected an object"),
    ({"network": {"layers": [{"values": [[1.0]], "bias": 1}]}}, "network.layers[0].bias"),
    ({"network": {"layers": [{"values": [[1.0]], "activation": "relu"}]}},
     "network.layers[0].activation"),
    ({"network": {"layers": []}}, "network.layers"),
    ({"network": {"layers": {"values": [[1.0]]}}}, "network.layers"),
    ({"crossbar": {"values": [["1m", "2m"], ["3m"]]}}, "crossbar.values"),
    ({"crossbar": {"values": [[]]}}, "crossbar.values"),
    ({"crossbar": {"values": []}}, "crossbar.values"),
    ({"network": {"n_inputs": 0}}, "network.n_inputs"),
    ({"network": {"v_read": 0}}, "network.v_read"),
    ({"network": {"v_read": "-100m"}}, "network.v_read"),
    ({"network": {"fidelity": "exact"}}, "network.fidelity"),
    ({"output": {"format": 5}}, "output.format"),
    ({"preset": "other"}, "preset"),
    ({"network": {"g_min": 0}}, "network.g_min"),
    ({"network": {"g_min": "20u"}}, "network.g_min"),
    ({"sar": {"grid_points": 0}}, "sar.grid_points"),
    ({"energy": {"t_eval": -1}}, "energy.t_eval"),
    ({"energy": {"t_sar_step": -1}}, "energy.t_sar_step"),
    ({"energy": {"p_neuron": -1}}, "energy.p_neuron"),
    ({"energy": {"p_sar": -1}}, "energy.p_sar"),
    ({"energy": {"e_mac": -1}}, "energy.e_mac"),
    ({"energy": {"e_act": "-1p"}}, "energy.e_act"),
    ({"energy": {"amortize_over": 0}}, "energy.amortize_over"),
    ({"energy": {"amortize_over": -5}}, "energy.amortize_over"),
    ({"crossbar": {"cols": 0}}, "crossbar.cols"),
    ({"mismatch": {"sigma_beta_rel": -1}}, "mismatch.sigma_beta_rel"),
    ({"neuron": {"r_load": 0}}, "neuron.r_load"),
    ({"neuron": {"ro_b2": 0}}, "neuron.ro_b2"),
    ({"neuron": {"m1": {"vt": "inf"}}}, "neuron.m1.vt"),
    ({"neuron": {"m1": {"beta": "1e400"}}}, "neuron.m1.beta"),
    ({"sar": {"vref_in": "inf"}}, "sar.vref_in"),
    ({"mc": {"seed": -1}}, "mc.seed"),
    ({"neuron": {"ro_b2": math.nan}}, "neuron.ro_b2"),
    ({"energy": {"amortize_over": 2**53 + 1}}, "energy.amortize_over"),
    # a config fault, not a Newton failure with a NaN residual (exit 3)
    ({"neuron": {"vb3": "inf"}}, "neuron.vb3"),
    ({"neuron": {"vdd": "inf"}}, "neuron.vdd"),
    ({"neuron": {"ib": "inf"}}, "neuron.ib"),
    ({"neuron": {"vb3": math.nan}}, "neuron.vb3"),
    # checked for every kind, not only for the kinds that read them
    ({"neuron": {"vc": "inf"}}, "neuron.vc"),
    ({"mc": {"runs": 1}}, "mc.runs"),
    # 2**1024 and these literals overflow a float
    ({"network": {"bits": 1024}}, "network.bits"),
    ({"sar": {"grid_n": 1024}}, "sar.grid_n"),
    ({"energy": {"amortize_over": 10**400}}, "energy.amortize_over"),
    ({"neuron": {"ib": 10**400}}, "neuron.ib: number literal beyond the float range"),
    ({"neuron": {"ib": "1e999999k"}}, "neuron.ib: number literal beyond the float range"),
    # matrix cells must be finite, checked when the config is parsed
    ({"network": {"layers": [{"values": [["inf", 2]]}]}}, "network.layers[0].values"),
    ({"crossbar": {"values": [["1m", math.nan]]}}, "crossbar.values"),
    # counts that size an array or a loop are capped
    ({"sar": {"grid_points": 2**53 + 1}}, "sar.grid_points"),
    ({"network": {"n_inputs": 10**30}}, "network.n_inputs"),
    ({"mc": {"runs": 10**20}}, "mc.runs"),
    # digits outside ASCII, which float() and Decimal() would take
    ({"neuron": {"ib": "\uff15u"}}, "neuron.ib: cannot parse"),
    ({"neuron": {"ib": "\u0665"}}, "neuron.ib: cannot parse"),
    # keys that nothing read, deleted: a valid value is now an unknown key
    ({"preset": "reference"}, "preset"),
    ({"crossbar": {"rows": 4}}, "crossbar.rows"),
    ({"crossbar": {"cols": 4}}, "crossbar.cols"),
    ({"sar": {"t_step": "1u"}}, "sar.t_step"),
    ({"sar": {"vref_out": 0.95}}, "sar.vref_out"),
    # keys that changed no answer, deleted: no kind drives the output DAC's
    # code, and M5 is outside the solved network
    ({"neuron": {"dac_out": {"i_unit": "125n", "nbits": 6}}}, "neuron.dac_out"),
    ({"neuron": {"m5": {"lambda": 0.0}}}, "neuron.m5.lambda"),
]


def _never_called(*args, **kwargs):
    raise AssertionError("a capped count reached the Monte Carlo loop")


class TestMalformedConfigs:
    @pytest.mark.parametrize("doc,key", MALFORMED)
    def test_config_error_names_key(self, doc, key):
        with pytest.raises(ConfigError) as e:
            parse_config(json.dumps(doc))
        assert key in str(e.value)

    @pytest.mark.parametrize("doc,key", MALFORMED)
    def test_cli_exits_2(self, tmp_path, capsys, doc, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert main(["--config", str(cfg), "infer"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err

    def test_choices_come_from_the_enums(self):
        for fmt in ReportFormat:
            assert parse_config(json.dumps({"output": {"format": fmt.value}}))
        for fid in Fidelity:
            assert parse_config(json.dumps({"network": {"fidelity": fid.value}}))
        for act in Activation:
            layer = {"values": [[1.0]], "activation": act.value}
            assert parse_config(json.dumps({"network": {"layers": [layer]}}))
        with pytest.raises(SystemExit):
            main(["--format", "xml", "op"])

    def test_layer_digest_unchanged(self, tmp_path):
        # resolved layer entries keep their keys and values, so a valid
        # layered config hashes to a fixed digest; it and the default
        # config's digest move only when a key joins or leaves the schema
        (tmp_path / "w.csv").write_text("1,2\n")
        doc = {"network": {"layers": [{"values": [[1, "-0.5"], ["250m", 0.75]],
                                       "activation": "linear"},
                                      {"csv": "w.csv"}],
                           "fidelity": "circuit_nonideal", "n_inputs": 3},
               "output": {"format": "text"},
               "crossbar": {"values": [["1m", "2m"]]}}
        cfg = parse_config(json.dumps(doc), base_dir=tmp_path)
        assert cfg["network"]["layers"][1] == {"csv": "w.csv", "values": None,
                                               "activation": "threshold"}
        assert config_digest(cfg.data) == \
            "3af2f521279553014590f1957a23e41c06654090645b8e84c059558679ff8e3c"
        assert config_digest(parse_config("{}").data) == \
            "b9af5d5a3a3ea0982571f7c233920e02f4c11674f3af0891c79742f0fa3fd7be"


# data files that parse as config but hold bad contents, each with the kind
# that reads them and the text its ConfigError must hold: the key, and the
# reason where the key alone does not tell the cases apart
BAD_DATA = [
    ({"network": {"layers": [{"values": [[1, 2]]}, {"values": [[1, 2, 3]]}]}}, {},
     "infer", "network.layers[1]"),
    ({"network": {"layers": [{"csv": "w.csv"}]}}, {"w.csv": "inf,2\n"},
     "infer", "network.layers[0].csv: could not read 'inf'"),
    ({"network": {"layers": [{"csv": "w.csv"}]}}, {"w.csv": "x,y\n"},
     "infer", "network.layers[0].csv"),
    ({"network": {"layers": [{"csv": "w.csv"}]}}, {"w.csv": "1,nan\n"},
     "infer", "network.layers[0].csv"),
    ({"network": {"layers": [{"values": [[1, 2]]}, {"csv": "w.csv"}]}},
     {"w.csv": "1,2,3\n"}, "infer", "network.layers[1]"),
    ({"network": {"layers": [{"values": [[1, 2]]}], "inputs_csv": "x.csv"}},
     {"x.csv": "1,0,1\n"}, "infer", "network.inputs_csv"),
    ({"network": {"layers": [{"values": [[1, 2]]}], "inputs_csv": "x.csv"}},
     {"x.csv": "1,y\n"}, "infer", "network.inputs_csv"),
    ({"network": {"layers": [{"values": [[1, 2]]}], "inputs_csv": "x.csv"}},
     {"x.csv": "1,inf\n"}, "infer", "network.inputs_csv"),
    ({"crossbar": {"csv": "g.csv"}}, {"g.csv": "0.001,0.002\nx,y\n"},
     "energy", "crossbar.csv"),
    ({"crossbar": {"csv": "g.csv"}}, {"g.csv": "0.001,nan\n"},
     "energy", "crossbar.csv"),
    ({"network": {"layers": [{"csv": "w.csv"}]}}, {"w.csv": ""},
     "infer", "network.layers[0].csv: file holds no data rows"),
    ({"network": {"layers": [{"values": [[1, 2]]}], "inputs_csv": "x.csv"}},
     {"x.csv": "\n\n"}, "infer", "network.inputs_csv: file holds no data rows"),
    ({"crossbar": {"csv": "g.csv"}}, {"g.csv": " \n\t\n"},
     "energy", "crossbar.csv: file holds no data rows"),
    ({"crossbar": {"values": [["2", "1m"]]}}, {},
     "energy", "crossbar.values: conductance entries outside [g_min, g_max]"),
    ({"crossbar": {"csv": "g.csv"}}, {"g.csv": "2,0.001\n"},
     "energy", "crossbar.csv: conductance entries outside [g_min, g_max]"),
    # a data file holds plain numbers: no engineering literals, no header line
    ({"crossbar": {"csv": "g.csv"}}, {"g.csv": "1m,2m\n"},
     "energy", "crossbar.csv: could not read '1m' as a finite number at line 1, column 1"),
    ({"crossbar": {"csv": "g.csv"}}, {"g.csv": "g0,g1\n0.001,0.0005\n"},
     "energy", "crossbar.csv: could not read 'g0' as a finite number at line 1, column 1"),
    # lines count from 1 in the file, blank and comment lines included
    ({"crossbar": {"csv": "g.csv"}}, {"g.csv": "0.001,0.002\n0.003,x\n"},
     "energy", "crossbar.csv: could not read 'x' as a finite number at line 2, column 2"),
    ({"crossbar": {"csv": "g.csv"}}, {"g.csv": "0.001,0.0002\n\n# g\n0.0003\n"},
     "energy", "crossbar.csv: line 4 has 1 values, but line 1 has 2"),
    ({"network": {"layers": [{"csv": "w.csv"}]}}, {"w.csv": "# w\n1_0,2\n"},
     "infer", "network.layers[0].csv: could not read '1_0' as a finite number at line 2, "
     "column 1"),
]


class TestBadDataFiles:
    @staticmethod
    def _write(tmp_path, doc, files):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        return cfg

    @pytest.mark.parametrize("doc,files,kind,key", BAD_DATA)
    def test_config_error_names_key(self, tmp_path, doc, files, kind, key):
        cfg = load_config(self._write(tmp_path, doc, files))
        with pytest.raises(ConfigError) as e:
            run_experiment(cfg, ExperimentKind(kind))
        assert key in str(e.value)

    @pytest.mark.parametrize("doc,files,kind,key", BAD_DATA)
    def test_cli_exits_2(self, tmp_path, capsys, doc, files, kind, key):
        cfg = self._write(tmp_path, doc, files)
        assert main(["--config", str(cfg), kind]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err

    def test_savetxt_matrix_matches_inline_values(self, tmp_path):
        g = np.random.default_rng(12).uniform(1e-6, 1e-3, (4, 3))
        np.savetxt(tmp_path / "g.csv", g, delimiter=",")
        with open(tmp_path / "g.csv", "a") as f:
            f.write("  \n")  # a blank line is skipped, spaces or not
        from_csv = load_config(self._write(tmp_path, {"crossbar": {"csv": "g.csv"}}, {}))
        inline = parse_config(json.dumps({"crossbar": {"values": g.tolist()}}))
        assert run_experiment(from_csv, ExperimentKind.ENERGY).payload == \
            run_experiment(inline, ExperimentKind.ENERGY).payload


    @pytest.mark.parametrize("section,kind", [("crossbar", "energy"), ("layer", "infer")])
    def test_indented_comment_lines_are_skipped(self, tmp_path, section, kind):
        m = [[0.001, 0.0005], [0.0002, 0.0008]]
        text = ("  # note\n" + ",".join(map(repr, m[0])) + "\n\t# note\n"
                + ",".join(map(repr, m[1])) + "  # row\n \t #\n")

        def doc(entry):
            if section == "crossbar":
                return {"crossbar": entry}
            return {"network": {"layers": [entry], "n_inputs": 3}}

        from_csv = load_config(self._write(tmp_path, doc({"csv": "m.csv"}), {"m.csv": text}))
        inline = parse_config(json.dumps(doc({"values": m})))
        kind = ExperimentKind(kind)
        assert run_experiment(from_csv, kind).payload == run_experiment(inline, kind).payload


def numpy_reader(text: str) -> np.ndarray:
    """The matrix-file reader _load_csv replaced: np.loadtxt over the lines
    that are not blank once their '#' comment is cut, then the finite check.
    It raises ValueError."""
    lines = [ln for ln in text.splitlines() if ln.split("#", 1)[0].strip()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        m = np.loadtxt(lines, delimiter=",", ndmin=2)
    if m.size == 0 or not np.all(np.isfinite(m)):
        raise ValueError("no data rows or a non-finite value")
    return m


CELLS = st.sampled_from(["1", "-2.5e-3", "+.5", "5.", "1E+05", " 3 ", "\t4\xa0", "0",
                         "", " ", "inf", "-Infinity", "nan", "1e999", "1_0", "\uff11",
                         "0x1", "1 2", "1e", ".", "x", "1 # c"])
LINES = st.one_of(st.lists(CELLS | st.text("0123456789.eE+-_ \t\xa0#x", max_size=4),
                           min_size=1, max_size=3).map(",".join),
                  st.sampled_from(["", "  ", "# c", "#", "  # c", "\x0c"]))


class TestMatrixFileReader:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(LINES, max_size=4).map("\n".join))
    def test_same_files_and_values_as_numpy_reader(self, text):
        with tempfile.TemporaryDirectory() as d:
            (Path(d) / "m.csv").write_text(text, encoding="utf-8")
            try:
                want = numpy_reader((Path(d) / "m.csv").read_text(encoding="utf-8"))
            except ValueError:
                want = None
            try:
                got = _load_csv(parse_config("{}", base_dir=d), "m.csv", "k")
            except ConfigError as e:
                assert str(e).startswith("k: ")
                assert not any(w in str(e) for w in ("numpy", "float64", "usecols"))
                got = None
        if want is None or got is None:
            assert want is None and got is None
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestCanonicalJson:
    def test_sorted_and_stable(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_float_formatting(self):
        s = canonical_json({"x": 0.1})
        assert json.loads(s.replace('"', '"'))["x"] == 0.1

    def test_non_finite(self):
        assert canonical_json({"x": math.inf}) == '{"x":"inf"}'
        assert canonical_json({"x": math.nan}) == '{"x":"nan"}'

    # any code point: non-ASCII, control characters and lone surrogates,
    # which characters() leaves out unless asked for them by range
    @settings(max_examples=500, deadline=None)
    @given(st.text(st.one_of(st.characters(exclude_categories=()),
                             st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF,
                                           exclude_categories=()))))
    def test_strings_escaped_as_json_dumps(self, s):
        assert reports._fmt(s) == json.dumps(s, ensure_ascii=True)


class TestExperiments:
    def test_rerun_byte_identical(self):
        cfg = load_config(REF)
        a = emit_report(run_experiment(cfg, ExperimentKind.MC))
        b = emit_report(run_experiment(cfg, ExperimentKind.MC))
        assert a == b

    def test_seed_override_changes_output(self):
        cfg = load_config(REF)
        a = emit_report(run_experiment(cfg, ExperimentKind.MC, seed=1))
        b = emit_report(run_experiment(cfg, ExperimentKind.MC, seed=2))
        assert a != b

    def test_mc_runs_floor(self):
        cfg = load_config(REF)
        with pytest.raises(ConfigError, match="runs"):
            run_experiment(cfg, ExperimentKind.MC, runs=1)

    def test_mc_runs_ceiling(self, monkeypatch):
        # the argument is named, not mc.runs, which the caller did not set;
        # an uncapped count would start 10**20 runs
        monkeypatch.setattr(experiments, "run_mc", _never_called)
        cfg = load_config(REF)
        with pytest.raises(ConfigError, match=r"^runs: must be in \[2, 1000000\], got 10"):
            run_experiment(cfg, ExperimentKind.MC, runs=10**20)

    def test_json_round_trip(self):
        cfg = load_config(REF)
        rec = run_experiment(cfg, ExperimentKind.OP)
        doc = json.loads(emit_report(rec, ReportFormat.JSON))
        assert doc["kind"] == "op"
        assert doc["config_digest"] == config_digest(cfg.data)
        assert doc["payload"]["residual"] <= 1e-12

    def test_csv_requires_tabular_payload(self):
        cfg = load_config(REF)
        rec = run_experiment(cfg, ExperimentKind.OP)
        with pytest.raises(UnsupportedFormatError):
            emit_report(rec, ReportFormat.CSV)

    def test_mc_csv_header(self):
        cfg = load_config(REF)
        rec = run_experiment(cfg, ExperimentKind.MC)
        text = emit_report(rec, ReportFormat.CSV).decode()
        assert text.splitlines()[0] == "run_index,v_in_pre,v_in_post,code"

    def test_energy_text_has_ratio_line(self):
        cfg = load_config(REF)
        rec = run_experiment(cfg, ExperimentKind.ENERGY)
        text = emit_report(rec, ReportFormat.TEXT).decode()
        assert "analog/digital energy ratio:" in text

    def test_energy_baseline_flagged_assumption_dependent(self):
        cfg = load_config(REF)
        rec = run_experiment(cfg, ExperimentKind.ENERGY)
        assert rec.payload["baseline_provenance"]["assumption_dependent"] is True

    def test_sar_bound_holds(self):
        cfg = load_config(REF)
        rec = run_experiment(cfg, ExperimentKind.SAR)
        assert rec.payload["bound_holds"]
        assert rec.payload["max_abs_error"] <= rec.payload["bound"]

    def test_infer_with_inline_layers(self):
        cfg = parse_config(json.dumps({
            "network": {"layers": [{"values": [[1.0, -0.5], [0.25, 0.75]]}],
                        "n_inputs": 5, "fidelity": "ideal_math"},
        }))
        rec = run_experiment(cfg, ExperimentKind.INFER, seed=3)
        assert rec.payload["bit_agreement_with_ideal"] == 1.0
        assert len(rec.payload["output_bits"]) == 5
        text = emit_report(rec, ReportFormat.TEXT).decode("ascii")
        assert "output_bits = [[" in text
        assert "failures = []" in text

    def test_infer_chip_trims_with_sar_nbits(self, monkeypatch):
        # the chip's SAR makes sar.nbits decisions per neuron, as the mc kind's does
        widths = []

        def record(plant, vref, nbits):
            widths.append(nbits)
            return sar_calibrate(plant, vref, nbits)

        monkeypatch.setattr(network, "sar_calibrate", record)
        cfg = parse_config(json.dumps({
            "sar": {"nbits": 3},
            "network": {"layers": [{"values": [[1.0, -0.5], [0.25, 0.75]]}],
                        "n_inputs": 2, "fidelity": "circuit_nonideal"},
        }))
        run_experiment(cfg, ExperimentKind.INFER)
        assert widths == [3, 3]

    def test_infer_without_layers_is_config_error(self):
        with pytest.raises(ConfigError, match="layers"):
            run_experiment(parse_config("{}"), ExperimentKind.INFER)


class TestGoldenFiles:
    """Byte-for-byte comparisons against committed reference outputs."""

    @pytest.mark.parametrize("kind,fmt,golden", [
        ("op", "json", "golden_op.json"),
        ("sar", "json", "golden_sar.json"),
        ("energy", "text", "golden_energy.txt"),
        ("mc", "csv", "golden_mc.csv"),
        ("smallsignal", "json", "golden_smallsignal.json"),
        ("infer", "json", "golden_infer.json"),
    ])
    def test_cli_reproduces_golden(self, tmp_path, kind, fmt, golden):
        # infer runs its own two-layer net at circuit_nonideal, with over-bias failures
        config = DATA / "config_infer.json" if kind == "infer" else REF
        out = tmp_path / golden
        rc = main(["--config", str(config), "--format", fmt, kind,
                   "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (DATA / golden).read_bytes()


class TestCliExitCodes:
    def test_ok(self, tmp_path, capsys):
        rc = main(["--config", str(REF), "op", "--out", str(tmp_path / "r.json")])
        assert rc == 0

    def test_default_config_stdout(self, capsys):
        assert main(["op"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "op"

    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"neuron": {"ib": "5 potato"}}')
        assert main(["--config", str(bad), "op"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"neuron": {"vddd": 1.0}}')
        assert main(["--config", str(bad), "op"]) == 2

    def test_solver_failure_is_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"neuron": {"vb3": 0.0}}')
        assert main(["--config", str(cfg), "op"]) == 3
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [
        b'{"neuron": {"ib": 1}}\xff', b"[" * 100_000 + b"]" * 100_000,
        b'{"mc": {"seed": 1' + b"0" * 5000 + b"}}",
    ], ids=["not-utf8", "nested-too-deep", "5001-digit-integer"])
    def test_unreadable_config_is_2(self, tmp_path, capsys, raw):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert main(["--config", str(bad), "op"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--runs", "1")])
    def test_bad_flag_names_itself(self, capsys, flag, value):
        with pytest.raises(SystemExit) as e:
            main(["mc", flag, value])
        assert e.value.code == 2
        assert f"argument {flag}: must be >= " in capsys.readouterr().err

    def test_runs_flag_is_capped(self, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "run_mc", _never_called)
        with pytest.raises(SystemExit) as e:
            main(["mc", "--runs", str(10**20)])
        assert e.value.code == 2
        assert "argument --runs: must be <= 1000000, got 10" in capsys.readouterr().err

    def test_missing_config_file_is_4(self, capsys):
        assert main(["--config", "/no/such/config.json", "op"]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_unwritable_output_is_4(self, capsys):
        assert main(["op", "--out", "/no/such/dir/out.json"]) == 4

    def test_flags_accepted_after_subcommand(self, tmp_path):
        out = tmp_path / "r.json"
        assert main([str("mc"), "--config", str(REF), "--runs", "3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["n_runs"] == 3

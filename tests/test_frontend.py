import json
import math
from pathlib import Path

import pytest

from xbarsim.cli import main
from xbarsim.config import (ConfigError, load_config, parse_config,
                            parse_engineering)
from xbarsim.experiments import ExperimentKind, run_experiment
from xbarsim.network import Activation, Fidelity
from xbarsim.reports import (ReportFormat, UnsupportedFormatError,
                             canonical_json, config_digest, emit_report)

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
        cfg2 = parse_config(cfg1.to_json(), base_dir=REF.parent)
        assert cfg1.data == cfg2.data
        assert cfg1.to_json() == cfg2.to_json()

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
]


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
        # resolved layer entries keep their keys and values, so the digest
        # of a valid layered config is the one recorded before the layer
        # entries were validated through the schema walker
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
            "60b6ce2af3ba07c4b3477c3673ec9f3e02007b260bcd8537d4a715c6baf664d5"
        assert config_digest(parse_config("{}").data) == \
            "81fd1570f4b7a1ebe44e5957bf820d5a87c9bf366ce98aeed1fbbc7f3ee317aa"


class TestCanonicalJson:
    def test_sorted_and_stable(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_float_formatting(self):
        s = canonical_json({"x": 0.1})
        assert json.loads(s.replace('"', '"'))["x"] == 0.1

    def test_non_finite(self):
        assert canonical_json({"x": math.inf}) == '{"x":"inf"}'
        assert canonical_json({"x": math.nan}) == '{"x":"nan"}'


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
    ])
    def test_cli_reproduces_golden(self, tmp_path, kind, fmt, golden):
        out = tmp_path / golden
        rc = main(["--config", str(REF), "--format", fmt, kind,
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

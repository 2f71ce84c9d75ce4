import collections
import json
import math

import numpy as np
import pytest

from collisim import __version__, qcore
from collisim.cli import ConfigError, _render_csv, _render_json, main, parse_config


def vacuum_config(**overrides):
    doc = {
        "scenario": "spontaneous_emission",
        "field": {"kind": "vacuum", "gamma": 1.0, "t_final": 1.0, "n_steps": 1000},
        "output": "csv",
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_vacuum_config():
    cfg = parse_config(json.dumps(vacuum_config()))
    assert cfg.scenario == "spontaneous_emission"
    assert cfg.field.gamma == 1.0
    assert cfg.field.n_steps == 1000
    assert cfg.output == "csv"


def test_parse_rejects_negative_gamma():
    doc = vacuum_config()
    doc["field"]["gamma"] = -1.0
    with pytest.raises(ConfigError, match="gamma must be positive"):
        parse_config(json.dumps(doc))


def test_parse_rejects_unknown_key():
    doc = vacuum_config()
    doc["field"]["gama"] = 1.0
    with pytest.raises(ConfigError, match="gama"):
        parse_config(json.dumps(doc))
    with pytest.raises(ConfigError, match="extra"):
        parse_config(json.dumps(vacuum_config(extra=1)))


def test_parse_reports_json_error_location():
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        parse_config('{"scenario": }')


def test_parse_rejects_scenario_kind_mismatch():
    doc = vacuum_config()
    doc["field"]["kind"] = "coherent"
    doc["field"]["z"] = 3.0
    with pytest.raises(ConfigError, match="not valid for scenario"):
        parse_config(json.dumps(doc))


def test_parse_rejects_coherent_fields_on_vacuum():
    doc = vacuum_config()
    doc["field"]["z"] = 1.0
    with pytest.raises(ConfigError, match="coherent"):
        parse_config(json.dumps(doc))


def test_parse_requires_n_list_for_convergence():
    doc = vacuum_config(scenario="convergence")
    with pytest.raises(ConfigError, match="n_list"):
        parse_config(json.dumps(doc))
    doc["n_list"] = [100, 200]
    with pytest.raises(ConfigError, match="at least 3"):
        parse_config(json.dumps(doc))


def test_parse_accepts_custom_system():
    doc = vacuum_config()
    doc["field"]["n_steps"] = 10
    doc["field"]["system"] = {
        "h_sys": [[0, 0], [0, 0]],
        "coupling": [[0, 1], [0, 0]],
        "rho0": [[0, 0], [0, 1]],
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.field.rho0.data[1, 1] == 1.0


def test_parse_rejects_invalid_rho0():
    doc = vacuum_config()
    doc["field"]["system"] = {
        "h_sys": [[0, 0], [0, 0]],
        "coupling": [[0, 1], [0, 0]],
        "rho0": [[0.5, 0], [0, 0.2]],
    }
    with pytest.raises(ConfigError, match="rho0|trace"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("h_sys", [[[0, 1], [0, 0]], [[0, 0.01], [0, 0]]])
@pytest.mark.parametrize("scenario", ["spontaneous_emission", "single_photon"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_non_hermitian_h_sys_exits_one(tmp_path, capsys, command, scenario, h_sys):
    # a non-Hermitian h_sys used to run and fail the trace check (exit 2)
    doc = single_photon_config(tmp_path, 10)  # writes sp.csv
    if scenario == "spontaneous_emission":
        doc = vacuum_config(out_path=doc["out_path"])
    doc["field"]["system"] = {"h_sys": h_sys, "coupling": [[0, 1], [0, 0]],
                              "rho0": [[0, 0], [0, 1]]}
    assert main([command, "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "h_sys is not Hermitian" in err and "Traceback" not in err
    assert not (tmp_path / "sp.csv").exists()


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_vacuum_run_writes_expected_csv(tmp_path, capsys):
    out = tmp_path / "vac.csv"
    cfg_path = write_config(tmp_path, vacuum_config(out_path=str(out)))
    assert main(["run", "--config", cfg_path]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"# collisim {__version__}"
    assert lines[1].startswith("# config: ")
    assert lines[2].startswith("# meta: ")
    header = lines[3].split(",")
    assert header[:2] == ["step", "t"]
    assert "excited_population_re" in header
    last = lines[-1].split(",")
    rho_ee = float(last[header.index("excited_population_re")])
    assert abs(rho_ee - math.exp(-1.0)) < 5e-3


def test_convergence_run_emits_slope_json(tmp_path):
    doc = vacuum_config(scenario="convergence", output="json")
    doc["field"]["n_steps"] = 100
    doc["n_list"] = [50, 100, 200]
    out = tmp_path / "conv.json"
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert -1.3 <= report["meta"]["fitted_slope"] <= -0.7
    assert report["version"] == __version__
    assert report["config"]["scenario"] == "convergence"
    assert [row["n_steps"] for row in report["rows"]] == [50, 100, 200]


def test_json_output_encodes_complex_as_re_im(tmp_path):
    doc = vacuum_config(output="json")
    doc["field"]["n_steps"] = 20
    out = tmp_path / "vac.json"
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    first = report["rows"][0]["excited_population"]
    assert set(first) == {"re", "im"}
    assert first["re"] == pytest.approx(1.0)


# an int, a real and a complex column, with a signed zero
RENDER_COLUMNS = [("step", np.arange(3)), ("t", np.array([0.0, 0.5, 1.0])),
                  ("pop", np.array([1.0 + 0j, 0.1 - 2.5e-17j, complex(-0.0, 1 / 3)]))]


def test_csv_rows_are_rendered_to_the_exact_bytes():
    cfg = parse_config(json.dumps(vacuum_config()))
    assert _render_csv(cfg, RENDER_COLUMNS, {"dt": 0.5}).split("\n") == [
        f"# collisim {__version__}",
        "# config: " + json.dumps(cfg.echo, sort_keys=True),
        '# meta: {"dt": 0.5}',
        "step,t,pop_re,pop_im",
        "0,0.0000000000000000e+00,1.0000000000000000e+00,0.0000000000000000e+00",
        "1,5.0000000000000000e-01,1.0000000000000001e-01,-2.4999999999999999e-17",
        "2,1.0000000000000000e+00,-0.0000000000000000e+00,3.3333333333333331e-01",
        "",
    ]


def test_json_rows_are_rendered_to_the_exact_bytes():
    cfg = parse_config(json.dumps(vacuum_config()))
    text = _render_json(cfg, RENDER_COLUMNS, {"dt": 0.5})
    rows = [
        '{"pop": {"im": 0.0, "re": 1.0}, "step": 0, "t": 0.0}',
        '{"pop": {"im": -2.5e-17, "re": 0.1}, "step": 1, "t": 0.5}',
        '{"pop": {"im": 0.3333333333333333, "re": -0.0}, "step": 2, "t": 1.0}',
    ]
    expected = json.dumps({"config": cfg.echo, "meta": {"dt": 0.5}, "rows": "ROWS",
                           "version": __version__}, sort_keys=True, indent=2)
    indented = json.dumps([json.loads(row) for row in rows], sort_keys=True, indent=2)
    assert text == expected.replace('"ROWS"', indented.replace("\n", "\n  ")) + "\n"
    assert '"re": -0.0' in text and '"step": 2,' in text  # ints stay ints, -0.0 keeps its sign


def test_missing_output_directory_exits_one(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, vacuum_config(out_path=str(tmp_path / "no_such_dir" / "x.csv"))
    )
    assert main(["run", "--config", cfg_path]) == 1
    assert "no_such_dir" in capsys.readouterr().err


def test_bad_config_exits_one(tmp_path, capsys):
    doc = vacuum_config()
    doc["field"]["gamma"] = -2.0
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path]) == 1
    assert "gamma" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1


@pytest.mark.parametrize("gamma", [1e20, 1e100])
def test_numeric_blowup_exits_two(tmp_path, capsys, gamma):
    # 1e20 breaks the trace at step 1; 1e100 makes the state non-finite there
    doc = vacuum_config()
    doc["field"].update(gamma=gamma, n_steps=10)
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "numeric failure" in err and "step 1:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_max_state_error_is_the_maximum_of_the_distance_column(tmp_path, monkeypatch):
    calls = []
    distances = qcore.trace_distances
    monkeypatch.setattr(qcore, "trace_distances", lambda a, b: calls.append(1) or distances(a, b))
    doc = vacuum_config()
    doc["field"]["n_steps"] = 300
    out = tmp_path / "vac.csv"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert len(calls) == 1  # the CM-vs-ME distance series is computed once
    lines = out.read_text().splitlines()
    meta = json.loads(lines[2][len("# meta: "):])
    column = lines[3].split(",").index("trace_distance_cm_vs_me")
    assert meta["max_state_error"] == max(float(row.split(",")[column]) for row in lines[4:])


def single_photon_config(tmp_path, n_steps):
    return {
        "scenario": "single_photon",
        "field": {
            "kind": "single_photon",
            "gamma": 1.0,
            "t_final": 6.0,
            "n_steps": n_steps,
            "envelope": {"type": "gaussian", "center": 3.0, "width": 1.0},
        },
        "out_path": str(tmp_path / "sp.csv"),
    }


def test_twenty_step_photon_run_writes_every_step(tmp_path, capsys):
    # 2 * 2^20 joint amplitudes once exceeded the cap; the sector path writes all rows
    cfg_path = write_config(tmp_path, single_photon_config(tmp_path, 20))
    assert main(["run", "--config", cfg_path]) == 0
    lines = (tmp_path / "sp.csv").read_text().splitlines()
    header = lines[3].split(",")
    rows = [row.split(",") for row in lines[4:]]
    assert [int(row[0]) for row in rows] == list(range(21))
    for name in ("excited_population_a_re", "excited_population_b_re"):
        column = [float(row[header.index(name)]) for row in rows]
        assert all(-1e-12 <= p <= 1.0 + 1e-12 for p in column)


def test_overflowing_photon_envelope_exits_one(tmp_path, capsys):
    # finite config values whose spectral sum overflows used to fail at step 1 with exit 2
    doc = single_photon_config(tmp_path, 10)
    doc["field"]["envelope"] = {"type": "tabulated", "omega": [0, 0.001], "psi": [1e308, 1e308]}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "envelope amplitudes must have a finite total weight" in err
    assert "Traceback" not in err and not (tmp_path / "sp.csv").exists()


@pytest.mark.parametrize("omega", [0.0, 0.7])
def test_bloch_run_builds_no_value_type_per_step(tmp_path, monkeypatch, omega):
    # the bath, the drive table and the ME table are (N, d, d) arrays, not one
    # validated DensityMatrix or Operator per step
    counts = []
    for n_steps in (400, 4000):
        built = collections.Counter()
        for cls in (qcore.Operator, qcore.DensityMatrix):
            check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, check=check: built.update([type(self)]) or check(self))
        field = {"kind": "coherent", "gamma": 1.0, "t_final": 2.0, "n_steps": n_steps,
                 "z": 3.0, "omega": omega, "d_anc": 12}
        doc = {"scenario": "bloch", "field": field, "output": "json"}
        out = str(tmp_path / "bloch.json")
        assert main(["run", "--config", write_config(tmp_path, doc), "--out", out]) == 0
        monkeypatch.undo()
        counts.append(built)
    assert counts[0] == counts[1]
    assert counts[0][qcore.DensityMatrix] < 10 and counts[0][qcore.Operator] < 50


@pytest.mark.parametrize("command", ["run", "validate"])
def test_large_photon_config_exits_zero(tmp_path, capsys, command):
    # a dense joint state would need 2^100 amplitudes; the sector path needs none
    cfg_path = write_config(tmp_path, single_photon_config(tmp_path, 100))
    assert main([command, "--config", cfg_path]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "sp.csv").exists() == (command == "run")


def test_validate_subcommand(tmp_path, capsys):
    cfg_path = write_config(tmp_path, vacuum_config())
    assert main(["validate", "--config", cfg_path]) == 0
    assert "config OK" in capsys.readouterr().out
    bad = write_config(tmp_path, vacuum_config(extra=1), name="bad.json")
    assert main(["validate", "--config", bad]) == 1


def test_identical_configs_give_byte_identical_outputs(tmp_path):
    doc = vacuum_config(output="json")
    doc["field"]["n_steps"] = 200
    cfg_path = write_config(tmp_path, doc)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg_path, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_format_override(tmp_path):
    doc = vacuum_config()
    doc["field"]["n_steps"] = 20
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "o.json"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--format", "json"]) == 0
    json.loads(out.read_text())  # parses as JSON despite csv in config

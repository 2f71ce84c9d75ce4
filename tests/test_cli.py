import argparse
import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import collisim
from collisim import __version__, cli, qcore, render, scenarios
from collisim.cli import ConfigError, main, parse_config
from collisim.render import ROW_BLOCK, _render_csv, _render_json


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


@pytest.mark.parametrize("scenario, kind", [
    ("spontaneous_emission", "vacuum"),
    ("bloch", "coherent"),
    ("single_photon", "single_photon"),
    ("convergence", "vacuum"),
])
def test_parse_defaults_the_field_kind_per_scenario(scenario, kind):
    doc = vacuum_config(scenario=scenario)
    del doc["field"]["kind"]
    if scenario == "single_photon":
        doc["field"]["envelope"] = {"type": "gaussian", "center": 0.5, "width": 0.2}
    if scenario == "convergence":
        doc["n_list"] = [100, 200, 400]
    assert parse_config(json.dumps(doc)).field.kind == kind


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


def test_bloch_json_artifact_is_json_dumps_of_its_document(tmp_path):
    # 601 rows cross two ROW_BLOCK edges of the real Bloch path
    field = {"kind": "coherent", "gamma": 1.0, "t_final": 1.0, "n_steps": 600, "z": 1.5,
             "omega": 0.7, "d_anc": 6}
    doc = {"scenario": "bloch", "field": field, "output": "json"}
    out = tmp_path / "bloch.json"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    text = out.read_text()
    report = json.loads(text)
    assert len(report["rows"]) == 601 and report["rows"][600]["step"] == 600
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_vacuum_csv_artifact_is_a_per_row_render_of_its_columns(tmp_path):
    # 601 rows cross two ROW_BLOCK edges of the real vacuum path; each row is rendered here
    # one cell at a time, as format() of its numpy scalar
    doc = vacuum_config()
    doc["field"]["n_steps"] = 600
    out = tmp_path / "vac.csv"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    columns, _ = cli._execute(parse_config(json.dumps(doc)))
    flat = []
    for _, arr in columns:
        flat += [arr.real, arr.imag] if np.iscomplexobj(arr) else [arr]
    rows = [",".join(("{}" if col.dtype.kind in "iu" else "{:.16e}").format(col[k]) for col in flat)
            for k in range(601)]
    assert out.read_text().split("\n")[4:] == rows + [""]


# an int, a real and a complex column, with a signed zero
RENDER_COLUMNS = [("step", np.arange(3)), ("t", np.array([0.0, 0.5, 1.0])),
                  ("pop", np.array([1.0 + 0j, 0.1 - 2.5e-17j, complex(-0.0, 1 / 3)]))]


def test_csv_rows_are_rendered_to_the_exact_bytes():
    cfg = parse_config(json.dumps(vacuum_config()))
    assert "".join(_render_csv(cfg, RENDER_COLUMNS, {"dt": 0.5})).split("\n") == [
        f"# collisim {__version__}",
        "# config: " + json.dumps(cfg.echo, sort_keys=True),
        '# meta: {"dt": 0.5}',
        "step,t,pop_re,pop_im",
        "0,0.0000000000000000e+00,1.0000000000000000e+00,0.0000000000000000e+00",
        "1,5.0000000000000000e-01,1.0000000000000001e-01,-2.4999999999999999e-17",
        "2,1.0000000000000000e+00,-0.0000000000000000e+00,3.3333333333333331e-01",
        "",
    ]


def test_csv_columns_render_as_rows_of_numpy_scalars():
    # the renderer writes each row as format() of its numpy scalars would
    cfg = parse_config(json.dumps(vacuum_config()))
    inf, nan = math.inf, math.nan
    columns = [("t", np.array([0.5, nan, -inf, -0.0, inf])), ("b", np.array([7, -1, 0, 2**40, 3])),
               ("u", np.arange(5, dtype=np.uint8)),
               ("a", np.array([complex(inf, nan), 1e-300 - 1j, complex(-inf, 2.5), -0.0j,
                               complex(-0.0, -0.0)]))]
    flat = []
    for _, arr in columns:
        flat += [arr.real, arr.imag] if np.iscomplexobj(arr) else [arr]
    rows = [",".join(("{}" if col.dtype.kind in "iu" else "{:.16e}").format(col[k]) for col in flat)
            for k in range(5)]
    assert "".join(_render_csv(cfg, columns, {})).split("\n")[4:] == rows + [""]
    negative_zero = "-0.0000000000000000e+00"
    assert rows[3] == ",".join([negative_zero, "1099511627776", "3", negative_zero, negative_zero])
    assert "nan" in rows[1] and "-inf" in rows[2]
    empty = "".join(_render_csv(cfg, [("step", np.arange(0)), ("x", np.zeros(0, dtype=complex))],
                                {}))
    assert empty.split("\n")[3:] == ["step,x_re,x_im", ""]


def test_json_rows_are_rendered_to_the_exact_bytes():
    cfg = parse_config(json.dumps(vacuum_config()))
    text = "".join(_render_json(cfg, RENDER_COLUMNS, {"dt": 0.5}))
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
    inf, nan = math.inf, math.nan
    cases = [  # (columns, meta): columns out of key order, mixed kinds, lists and non-finite cells
        (RENDER_COLUMNS, {"dt": 0.5}),
        ([("t", np.array([0.5, nan, -inf])), ("b", np.array([7, -1, 0])),
          ("a", np.array([complex(inf, nan), 1e-300 - 1j, complex(-inf, 2.5)]))],
         {"revival_steps": [3, 5], "fitted_slope": -0.99, "z": nan}),
        ([("step", np.arange(0)), ("x", np.zeros(0, dtype=complex))], {"revival_steps": []}),
    ]
    for columns, meta in cases:
        cells = [[{"re": c.real, "im": c.imag} if isinstance(c, complex) else c for c in v.tolist()]
                 for _, v in columns]
        doc = {"version": __version__, "config": cfg.echo, "meta": meta,
               "rows": [dict(zip([name for name, _ in columns], row)) for row in zip(*cells)]}
        text = "".join(_render_json(cfg, columns, meta))
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    text = "".join(_render_json(cfg, *cases[1]))
    assert "NaN" in text and "-Infinity" in text


def test_column_names_never_enter_the_format():
    # CSV names go into the header alone; JSON names go into the row template, escaped for %
    cfg = parse_config(json.dumps(vacuum_config()))
    names = ["%d", "{0}", '"%s"}{', "50%"]
    columns = list(zip(names, [values for _, values in RENDER_COLUMNS] + [np.arange(3)]))
    assert "".join(_render_csv(cfg, columns, {})).split("\n")[3:] == [
        '%d,{0},"%s"}{_re,"%s"}{_im,50%',
        "0,0.0000000000000000e+00,1.0000000000000000e+00,0.0000000000000000e+00,0",
        "1,5.0000000000000000e-01,1.0000000000000001e-01,-2.4999999999999999e-17,1",
        "2,1.0000000000000000e+00,-0.0000000000000000e+00,3.3333333333333331e-01,2",
        "",
    ]
    cells = [[{"re": c.real, "im": c.imag} if isinstance(c, complex) else c for c in v.tolist()]
             for _, v in columns]
    doc = {"version": __version__, "config": cfg.echo, "meta": {},
           "rows": [dict(zip(names, row)) for row in zip(*cells)]}
    text = "".join(_render_json(cfg, columns, {}))
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("n", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 5 * ROW_BLOCK // 2])
def test_rows_rendered_in_blocks_are_the_whole_artifact(n):
    # ROW_BLOCK rows a block: the joined blocks are the bytes of the whole text, at every row
    # count around a block's edge, with int, real, complex, signed-zero and non-finite cells
    cfg = parse_config(json.dumps(vacuum_config()))
    rng, k = np.random.default_rng(n), np.arange(n)
    real = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    real[k % 7 == 3] = -0.0
    real[k % ROW_BLOCK == ROW_BLOCK - 1] = math.nan  # last row of each block
    real[(k % ROW_BLOCK == 0) & (k > 0)] = -math.inf  # first row of the next
    cplx = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cplx[k % 5 == 1] = complex(math.inf, -0.0)
    count = rng.integers(-2**40, 2**40, n)
    columns = [("step", k), ("z", cplx), ("count", count), ("a", real)]
    meta = {"dt": 0.5, "revival_steps": [1, 2]}
    blocks = list(_render_csv(cfg, columns, meta))
    assert len(blocks) == 1 + -(-n // ROW_BLOCK)
    flat = [k, cplx.real, cplx.imag, count, real]
    rows = [",".join(("{}" if col.dtype.kind in "iu" else "{:.16e}").format(col[i]) for col in flat)
            + "\n" for i in range(n)]
    assert "".join(blocks).split("\n", 3)[3] == "step,z_re,z_im,count,a\n" + "".join(rows)
    blocks = list(_render_json(cfg, columns, meta))
    assert len(blocks) == (1 if n == 0 else 2 + -(-n // ROW_BLOCK))
    cells = [[{"re": c.real, "im": c.imag} if isinstance(c, complex) else c for c in v.tolist()]
             for _, v in columns]
    doc = {"version": __version__, "config": cfg.echo, "meta": meta,
           "rows": [dict(zip([name for name, _ in columns], row)) for row in zip(*cells)]}
    assert "".join(blocks) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def per_row_csv(columns, n):
    # each row rendered one cell at a time, as format() of its numpy scalar
    flat = []
    for _, arr in columns:
        flat += [arr.real, arr.imag] if np.iscomplexobj(arr) else [arr]
    return [",".join(("{}" if col.dtype.kind in "iu" else "{:.16e}").format(col[k]) for col in flat)
            for k in range(n)]


def dumped_json(cfg, columns, meta):
    cells = [[{"re": c.real, "im": c.imag} if isinstance(c, complex) else c for c in v.tolist()]
             for _, v in columns]
    doc = {"version": __version__, "config": cfg.echo, "meta": meta,
           "rows": [dict(zip([name for name, _ in columns], row)) for row in zip(*cells)]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def templated(col):
    # whether the block writer writes the column once, into the row every block starts from,
    # instead of into a slot per row: given _PYTHON_BELOW copies, cells enough for the kernels,
    # no kernel receives a templated column, and Python only its first cell, once per copy
    calls = []

    def recording(kind):
        def fill(cells, cols):
            calls.append(None)
            return kind.fill(cells, cols)

        def python(values):
            calls.append(len(values))
            return kind.python(values)
        return kind._replace(fill=fill, python=python)

    parts = [p for c in render._real_columns(col).values() for p in (c, b",")]
    with mock.patch.object(render, "_INT", recording(render._INT)):
        "".join(render._blocks(parts * render._PYTHON_BELOW, len(col), recording(render._CSV)))
    return set(calls) == {1}


def csv_blocks(cols):
    # the CSV rows of real columns, through the block writer
    parts = [part for col in cols for part in (col, b",")][:-1] + [b"\n"]
    return "".join(render._blocks(parts, len(cols[0]), render._CSV))


@pytest.mark.parametrize("n", [0, 1, 3, ROW_BLOCK + 1])
def test_constant_columns_render_as_their_per_row_reference(n):
    # constant columns go into the row template once, to the bytes of the per-row CSV render and
    # of json.dumps; a column is constant only if every cell has the first cell's bits
    cfg = parse_config(json.dumps(vacuum_config()))
    inf, nan = math.inf, math.nan
    zero, signed = np.zeros(n), np.zeros(n)
    signed[n // 2:n // 2 + 1] = -0.0
    payload = np.full(n, nan)
    payload.view(np.uint64)[n - 1:] |= 1  # a NaN of another payload in the last row
    constant = [("zero", zero), ("nan", np.full(n, nan)), ("inf", np.full(n, inf)),
                ("minus_inf", np.full(n, -inf)), ("seven", np.full(n, 7)),
                ("pop", np.full(n, 0.25 + 0j))]
    varying = [("step", np.arange(n)), ("signed", signed), ("payload", payload),
               ("t", np.arange(n) * 0.1)]
    if n:
        assert all(templated(col) for _, col in constant)
        assert all(templated(col) == (n == 1) for _, col in varying)  # one row is constant
    for columns in (constant + varying, constant, varying[1:2], varying[2:3]):
        meta = {"dt": 0.5}
        assert "".join(_render_csv(cfg, columns, meta)).split("\n")[4:] == per_row_csv(
            columns, n) + [""]
        assert "".join(_render_json(cfg, columns, meta)) == dumped_json(cfg, columns, meta)
    text = "".join(_render_json(cfg, constant, {}))
    assert n == 0 or all(f'"{name}": {cell}' in text for name, cell in [
        ("nan", "NaN"), ("inf", "Infinity"), ("minus_inf", "-Infinity"), ("seven", "7"),
        ("zero", "0.0")])


def _near(x):
    return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]


# one cell of each class that the vectorized %.16e leaves to Python: signed zeros, subnormals,
# |x| at and past 1e-280 and 1e280, powers of ten and their neighbours (where log10 is one off),
# 17-digit carries (1e-14 lies below 10**-14 and rounds up to it), an exact tie at the 17th digit
# ((2**53 - 1) / 4 = 2251799813685247.75), near ties (the fraction past the 17th digit is 1/2
# + 2.2e-16, - 9.0e-17 and + 1.2e-17) and the non-finite values
PYTHON_CELLS = ([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, math.inf,
                 -math.inf, math.nan, 9.9999999999999999e-5, 1e-14, 1e-243, 1e98, -1e-175,
                 2251799813685247.75, -2251799813685247.75,
                 1.0501678632788782e-07, 2.460469286850939e-10, -6.83280278535067e-11]
                + [v for x in (1e-280, 1e280, -1e-280, 1e-281, 1e281) for v in _near(x)]
                + [v for k in (-300, -100, -23, -5, -1, 0, 1, 16, 17, 22, 23, 100, 300)
                   for v in _near(10.0**k)])


def test_vectorized_scientific_cells_are_those_of_percent_16e():
    # a seeded sweep of raw 64-bit patterns and the pinned cells of each class left to Python,
    # in one float column: the kernel decides most raw patterns, and every row is '%.16e' % x
    rng = np.random.default_rng(28)
    raw = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    assert render._scientific(raw)[2].mean() > 0.85
    undecided = ~render._scientific(np.array(PYTHON_CELLS))[2]
    assert undecided.sum() >= 45  # most pinned cells are left to Python, the rest are decided
    column = np.concatenate([raw, PYTHON_CELLS, -raw[:1000]])
    assert "".join(csv_blocks([column])) == "".join("%.16e\n" % x for x in column.tolist())


@settings(max_examples=80, deadline=None)
@given(cells=st.lists(st.floats(), min_size=render._PYTHON_BELOW, max_size=ROW_BLOCK + 40),
       ints=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=1))
def test_any_doubles_and_ints_render_as_percent_16e_and_percent_d(cells, ints):
    # blocks large enough for the vector route, any doubles beside any int64s
    column, count = np.array(cells), np.resize(np.array(ints, dtype=np.int64), len(cells))
    count[::7] = np.arange(len(count[::7])) - 3
    text = "".join(csv_blocks([count, column]))
    assert text == "".join("%d,%.16e\n" % row for row in zip(count.tolist(), column.tolist()))


def json_blocks(cols):
    # the JSON cells of real columns, one row a line, through the block writer
    parts = [part for col in cols for part in (col, b",")][:-1] + [b"\n"]
    return "".join(render._blocks(parts, len(cols[0]), render._JSON))


# cells of the classes that the vectorized repr leaves to Python, and of the layouts where repr
# switches: powers of two and their neighbours (the gap below a power of two is half the gap
# above), the fixed/scientific switches at 1e16 and 1e-4, the widest exponents and the largest
# 16-digit mantissas, the smallest subnormal, signed zeros and the non-finite values
JSON_PYTHON_CELLS = ([v for k in (-1022, -60, -3, -1, 0, 1, 3, 52, 53, 60, 1023)
                      for v in _near(2.0**k)]
                     + [1e16, 9999999999999998.0, 1e-4, 1e-5, 9.999999999999999e-05,
                        9.999999999999999e22, 1.7976931348623157e308, 2.2250738585072014e-308,
                        5e-324, 0.0, -0.0, math.nan, math.inf, -math.inf, 10.0, 0.1, 123.0,
                        9007199254740993.0, 1e15, 0.30000000000000004, -1.5e-7])


def test_vectorized_repr_cells_are_those_of_json_dumps():
    # a seeded sweep of raw 64-bit patterns and the pinned cells, in one float column: the
    # kernel decides most raw patterns, and every row is json.dumps of its cell, the repr of a
    # finite one
    rng = np.random.default_rng(29)
    raw = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    assert render._shortest(raw)[3].mean() > 0.85
    decided = render._shortest(np.array(JSON_PYTHON_CELLS))[3]
    assert 0 < decided.sum() < len(JSON_PYTHON_CELLS) - 30  # most go to Python, some are decided
    column = np.concatenate([raw, JSON_PYTHON_CELLS, -raw[:1000]])
    assert json_blocks([column]) == "".join(json.dumps(x) + "\n" for x in column.tolist())
    i = JSON_PYTHON_CELLS.index(1e16)
    assert json_blocks([np.array(JSON_PYTHON_CELLS)]).split("\n")[i:i + 4] == [
        "1e+16", "9999999999999998.0", "0.0001", "1e-05"]


@settings(max_examples=80, deadline=None)
@given(cells=st.lists(st.floats(), min_size=render._PYTHON_BELOW, max_size=ROW_BLOCK + 40),
       ints=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=1))
def test_any_doubles_and_ints_render_as_json_dumps(cells, ints):
    # blocks large enough for the vector route, any doubles beside any int64s
    column, count = np.array(cells), np.resize(np.array(ints, dtype=np.int64), len(cells))
    count[::7] = np.arange(len(count[::7])) - 3
    assert json_blocks([count, column]) == "".join(
        f"{v},{json.dumps(x)}\n" for v, x in zip(count.tolist(), column.tolist()))


@pytest.mark.parametrize("n", [2, 2 * ROW_BLOCK + 7])
def test_cells_left_to_python_render_as_their_per_row_reference(n):
    # every class of cell that goes to Python, at ROW_BLOCK edges, and ints past the digit
    # routine's 10**17: int64 -2**63 and 2**63 - 1, uint64 2**64 - 1, in both formats; the int
    # columns stay separate arrays, as numpy stacks int64 beside uint64 as floats
    cfg = parse_config(json.dumps(vacuum_config()))
    rng = np.random.default_rng(n)
    edges = [e for e in (0, ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK - 1, 2 * ROW_BLOCK, n - 1)
             if e < n]
    floats = rng.standard_normal((-(-len(PYTHON_CELLS) // len(edges)), n))
    floats *= 10.0 ** rng.integers(-20, 20, floats.shape)
    for i, cell in enumerate(PYTHON_CELLS):
        floats[i // len(edges), edges[i % len(edges)]] = cell
    signed = rng.integers(-10**18, 10**18, n)
    signed[edges] = [-2**63, 2**63 - 1, -10**17, 10**17 - 1, -(10**17 - 1), 10**17][:len(edges)]
    unsigned = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    unsigned[edges] = [2**64 - 1, 0, 2**63, 10**17, 10**17 - 1, 1][:len(edges)]
    pop = floats[0].astype(complex)
    pop.imag = floats[1]
    columns = ([("step", np.arange(n)), ("signed", signed), ("unsigned", unsigned), ("pop", pop)]
               + [(f"x{i}", col) for i, col in enumerate(floats[2:])])
    assert "".join(_render_csv(cfg, columns, {})).split("\n")[4:] == per_row_csv(columns, n) + [""]
    assert "".join(_render_json(cfg, columns, {})) == dumped_json(cfg, columns, {})


@pytest.mark.parametrize("scenario", ["convergence", "bloch"])
def test_convergence_and_bloch_csv_artifacts_are_per_row_renders(tmp_path, scenario):
    field = {"kind": "coherent", "gamma": 1.0, "t_final": 1.0, "n_steps": 600, "z": 1.5,
             "omega": 0.7, "d_anc": 6}
    doc = {"scenario": scenario, "field": field, "output": "json"}
    if scenario == "convergence":
        doc["n_list"] = [100, 200, 400, 800]
    out = tmp_path / "artifact.csv"
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path, "--out", str(out), "--format", "csv"]) == 0
    columns, _ = cli._execute(parse_config(json.dumps(doc)))
    rows = per_row_csv(columns, len(columns[0][1]))
    assert len(rows) == (4 if scenario == "convergence" else 601)
    assert out.read_text().split("\n")[4:] == rows + [""]


@pytest.mark.parametrize("case", ["bloch", "bloch_drive", "convergence", "spontaneous_emission",
                                  "single_photon"])
def test_json_artifacts_are_json_dumps_of_their_columns(tmp_path, case):
    # the real paths of every scenario, the benchmark's Bloch run among them, against json.dumps
    # of a document built from the run's columns
    field = {"kind": "coherent", "gamma": 1.0, "t_final": 1.0, "n_steps": 600, "z": 1.5,
             "omega": 0.7, "d_anc": 6}
    doc = {"scenario": case, "field": field, "output": "csv"}
    if case == "bloch_drive":
        doc["scenario"] = "bloch"
        field.update(t_final=2.0, n_steps=4000, z=3.0, d_anc=12)
        del field["omega"]
    elif case == "convergence":
        doc["n_list"] = [100, 200, 400, 800]
    elif case == "spontaneous_emission":
        doc["field"] = vacuum_config()["field"]
    elif case == "single_photon":
        doc = single_photon_config(tmp_path, 2_000)
    out = tmp_path / "artifact.json"
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path, "--out", str(out), "--format", "json"]) == 0
    cfg = parse_config(json.dumps(doc))
    columns, meta = cli._execute(cfg)
    assert out.read_text() == dumped_json(cfg, columns, meta)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_float_columns_of_other_dtypes_render_as_their_float64_cast(fmt):
    # a 16-byte longdouble column once raised TypeError ('u16' is no dtype); float32 and
    # longdouble cells are written as the float64 they cast to, complex parts alike; a bool
    # column, varying or constant, is written as its float in CSV and as true or false in JSON
    cfg = parse_config(json.dumps(vacuum_config()))
    n = 300  # past _PYTHON_BELOW cells in a block, so the kernels see them too
    rng = np.random.default_rng(5)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    wide = values.astype(np.longdouble) / 3
    pop = (values + 1j * values).astype(np.complex64)
    flags = [("flag", np.arange(n) % 3 == 0), ("on", np.ones(n, bool))]
    columns = [("step", np.arange(n)), ("single", values.astype(np.float32)), ("wide", wide),
               ("const", np.full(n, wide[0])), ("pop", pop)] + flags
    cast = [("step", np.arange(n)), ("single", values.astype(np.float32).astype(float)),
            ("wide", wide.astype(float)), ("const", np.full(n, float(wide[0]))),
            ("pop", pop.astype(complex))] + flags
    for rows in (n, 3):  # the kernels' route and the Python route
        table = [(name, col[:rows]) for name, col in columns]
        reference = [(name, col[:rows]) for name, col in cast]
        if fmt == "csv":
            assert "".join(_render_csv(cfg, table, {})).split("\n")[4:] == per_row_csv(
                reference, rows) + [""]
        else:
            assert "".join(_render_json(cfg, table, {})) == dumped_json(cfg, reference, {})


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writing_an_artifact_holds_a_block_not_the_file(tmp_path, monkeypatch, fmt):
    # rendering and writing 20,001 rows traces less than a quarter of the file they write: the
    # text of one block of rows is held at a time, not the whole artifact
    doc = single_photon_config(tmp_path, 20_000)
    doc["output"] = fmt
    execute = cli._execute

    def execute_then_trace(cfg):
        result = execute(cfg)
        tracemalloc.start()
        return result

    monkeypatch.setattr(cli, "_execute", execute_then_trace)
    try:
        path = cli.run(parse_config(json.dumps(doc)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = Path(path).read_text()
    if fmt == "csv":
        lines = text.splitlines()
        assert len(lines) == 4 + 20_001 and lines[-1].startswith("20000,")
    else:
        rows = json.loads(text)["rows"]
        assert len(rows) == 20_001 and rows[-1]["step"] == 20_000
    assert peak < os.path.getsize(path) / 4


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


@pytest.mark.parametrize("command", ["run", "validate"])
def test_config_that_is_not_utf8_exits_one(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'\xff\xfe{"scenario": 1}')
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_config_nested_too_deeply_exits_one(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_text('{"scenario": ' + "[" * 200_000 + "]" * 200_000 + "}")
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "nested too deeply" in err and "Traceback" not in err


@pytest.mark.parametrize("gamma", [1e20, 1e100, 1.7e308])
def test_numeric_blowup_exits_two(tmp_path, capsys, gamma):
    # 1e20 breaks the trace at step 1; 1e100 makes the state non-finite there, and so does
    # 1.7e308, whose gamma / dt overflows to g = inf, without a warning
    doc = vacuum_config()
    doc["field"].update(gamma=gamma, n_steps=10)
    cfg_path = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "numeric failure" in err and "step 1:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()
    # the file is opened only once the run has succeeded: a failed run leaves one in place as it was
    (tmp_path / "x.csv").write_bytes(b"old artifact\n")
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x.csv")]) == 2
    assert (tmp_path / "x.csv").read_bytes() == b"old artifact\n"


@pytest.mark.parametrize("scenario, field", [
    ("spontaneous_emission", {"n_steps": 10**15}),  # a 56.8 PiB state stack
], ids=["state_stack"])
def test_run_that_cannot_allocate_exits_one(tmp_path, capsys, scenario, field):
    # the request is beyond any 47-bit address space, so it fails at once and touches nothing
    doc = vacuum_config(scenario=scenario)
    doc["field"].update(field)
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "PiB" in err
    assert "Traceback" not in err and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_repeated_step_count_exits_one(tmp_path, capsys, command):
    # validate applies the rule that the run applies, with the same message
    doc = vacuum_config(scenario="convergence", n_list=[100, 100, 200],
                        out_path=str(tmp_path / "x.csv"))
    assert main([command, "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err == "error: n_list: need at least 3 distinct step counts, got [100, 100, 200]\n"


def field_with(**keys):
    return lambda doc: doc["field"].update(keys) or doc


def config_with(**keys):
    return lambda doc: doc.update(keys) or doc


def coherent(**keys):
    return config_with(scenario="bloch", field=dict(vacuum_config()["field"], kind="coherent",
                                                    **keys))


def photon(envelope):
    field = {"kind": "single_photon", "gamma": 1.0, "t_final": 6.0, "n_steps": 10}
    if envelope is not None:
        field["envelope"] = envelope
    return config_with(scenario="single_photon", field=field)


def system(**matrices):
    return field_with(system=dict({"h_sys": [[0, 0], [0, 0]], "coupling": [[0, 1], [0, 0]],
                                   "rho0": [[0, 0], [0, 1]]}, **matrices))


def tabulated(omega, psi):
    return photon({"type": "tabulated", "omega": omega, "psi": psi})


TOO_LARGE = "a run would form arrays too large for numpy to index"
GAUSSIAN = {"type": "gaussian", "center": 3.0, "width": 1.0}

# each a config that once passed validate and then failed its run, or raised a traceback
READER_HOLES = {
    "z_nan": (coherent(z=math.nan), "field.z must be finite"),
    "coupling_infinity": (system(coupling=[[0, math.inf], [0, 0]]),
                          "field.system.coupling[0][1] must be finite"),
    "psi_number": (tabulated([0.0, 1.0], 3), "field.envelope needs 'omega' and 'psi' arrays"),
    "omega_number": (tabulated(5, [1, 1]), "field.envelope needs 'omega' and 'psi' arrays"),
    "omega_null": (tabulated(None, [1, 1]), "field.envelope needs 'omega' and 'psi' arrays"),
    "gamma_int_past_float": (field_with(gamma=10**400), "gamma must be finite"),
    "h_sys_int_past_float": (system(h_sys=[[10**400, 0], [0, 0]]),
                             "field.system.h_sys[0][0] must be finite"),
    "n_steps_1e30": (field_with(n_steps=10**30),
                     f"n_steps with d_anc 2 at system dimension 2: {TOO_LARGE}"),
    "d_anc_1e30": (field_with(d_anc=10**30),
                   f"n_steps with d_anc {10**30} at system dimension 2: {TOO_LARGE}"),
    "n_list_entry_1e30": (config_with(scenario="convergence", n_list=[100, 200, 10**30]),
                          f"max(n_list) with d_anc 2 at system dimension 2: {TOO_LARGE}"),
    # 8 d^2 (n_steps + 1) entries, the bound on a run's per-step arrays, reach 2^59 here
    "photon_steps_2pow54": (lambda doc: field_with(n_steps=2**54 - 1)(photon(GAUSSIAN)(doc)),
                            f"n_steps with d_anc 2 at system dimension 2: {TOO_LARGE}"),
}


@pytest.mark.parametrize("case", READER_HOLES)
@pytest.mark.parametrize("command", ["run", "validate"])
def test_config_reader_holes_exit_one(tmp_path, capsys, command, case):
    edit, message = READER_HOLES[case]
    doc = edit(vacuum_config(out_path=str(tmp_path / "x.csv")))
    assert main([command, "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


# finite entries near the largest double, whose checks overflow to inf and fail without a
# numpy warning on the way
NEAR_MAX = {"re": 1e308, "im": 1e308}
OVERFLOWING_CHECKS = {
    "h_sys_diagonal": (system(h_sys=[[{"re": -1, "im": 1e308}, 0], [0, 0]]),
                       "h_sys is not Hermitian"),
    "rho0_entry": (system(rho0=[[NEAR_MAX, 0], [0, 0]]),
                   "field.system: not a density matrix: Hermiticity deviation inf, trace "
                   "1e+308+1e+308j, min eigenvalue 0.000e+00 (floor -1e-09)"),
    "z": (coherent(z=NEAR_MAX), "truncation guard: max |xi_n|^2 = inf >= d/4 = 2.0; increase "
          "the ancilla dimension (need d > inf)"),
}


# a phase omega t that overflows a double at a step time a run forms: both commands stop on the
# input, where a run once went on through numpy warnings to a NaN state.  Row 147's last step
# time, 147 * (10 / 147), rounds past t_final = 10, where omega t_final alone is still finite
OVERFLOWING_PHASES = {
    "bloch": (coherent(gamma=1e-300, t_final=1e12, n_steps=1, z=0, omega=1e300),
              "omega * t overflows: omega 1e+300 at t = 1000000000000.0"),
    "convergence": (config_with(scenario="convergence", n_list=[1, 2, 3], field=dict(
        vacuum_config()["field"], kind="coherent", t_final=1e300, z=1.0, omega=1e10)),
        "omega * t overflows: omega 1e+10 at t = 1e+300"),
    "convergence_row": (config_with(scenario="convergence", n_list=[1, 2, 147], field=dict(
        vacuum_config()["field"], kind="coherent", t_final=10.0, n_steps=1, z=1.0,
        omega=1.7976931348623158e307)),
        "omega * t overflows: omega 1.79769e+307 at t = 10.000000000000002"),
}


@pytest.mark.parametrize("case", OVERFLOWING_PHASES)
@pytest.mark.parametrize("command", ["run", "validate"])
def test_phases_that_overflow_exit_one_without_a_warning(tmp_path, capsys, command, case):
    edit, message = OVERFLOWING_PHASES[case]
    doc = edit(vacuum_config(out_path=str(tmp_path / "x.csv")))
    assert main([command, "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("case", OVERFLOWING_CHECKS)
def test_checks_that_overflow_exit_one_without_a_warning(tmp_path, capsys, case):
    edit, message = OVERFLOWING_CHECKS[case]
    doc = edit(vacuum_config(out_path=str(tmp_path / "x.csv")))
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_static_study_runs_each_step_count_on_its_own_grid(tmp_path):
    # [100, 101, 103] share no grid short of 1,040,300 substeps, where a reference once drifted
    # past the trace tolerance (vacuum; coherent z = 3, d_anc 12) or took 190 MiB (coherent
    # z = 1); each step count's own reference keeps the study small, static or moving drive
    coherent_field = {"kind": "coherent", "omega": 0.7}
    for field in ({}, dict(coherent_field, z=1.0), dict(coherent_field, z=3.0, d_anc=12)):
        doc = vacuum_config(scenario="convergence", n_list=[100, 101, 103])
        doc["field"].update(field)
        out = tmp_path / "conv.csv"
        tracemalloc.start()
        try:
            assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        meta = json.loads(out.read_text().splitlines()[2][len("# meta: "):])
        assert -1.2 <= meta["fitted_slope"] <= -0.8
        assert peak < 2**20


def test_generator_accuracy_warning_is_one_line(tmp_path, capsys, monkeypatch):
    # a system frequency of 5 against g = 1: the run warns, on one line, and exits 0, also
    # where warnings are errors, as they are in this test suite
    doc = vacuum_config(out_path=str(tmp_path / "x.csv"))
    doc["field"].update(t_final=10, n_steps=10)
    doc = system(h_sys=[[0, 0], [0, 5]])(doc)
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == (
        "warning: system frequency scale 5 is not small against the coupling (g = 1); "
        "the extracted generator may be inaccurate\n")
    # any other warning keeps the filters in force: here it is still an error
    monkeypatch.setattr(scenarios, "spontaneous_emission_run",
                        lambda cfg: warnings.warn("overflow encountered", RuntimeWarning))
    with pytest.raises(RuntimeWarning, match="overflow encountered"):
        main(["run", "--config", write_config(tmp_path, doc)])


@pytest.mark.parametrize("command", ["run", "validate"])
def test_integer_of_more_digits_than_python_converts_exits_one(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_text('{"scenario": ' + "1" * 5000 + "}")
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# one config per ConfigError the parser or the run raises
CONFIG_ERRORS = {
    "gamma_string": (field_with(gamma="fast"), "gamma must be a number"),
    "gamma_nan": (field_with(gamma=math.nan), "gamma must be finite"),
    "n_steps_bool": (field_with(n_steps=True), "n_steps must be an integer"),
    "n_steps_zero": (field_with(n_steps=0), "n_steps must be >= 1"),
    "z_without_im": (coherent(z={"re": 1.0}), "field.z must have both 're' and 'im'"),
    "z_string": (coherent(z="1+1j"), "field.z must be a number or a {re, im} object"),
    "h_sys_empty": (system(h_sys=[]),
                    "field.system.h_sys must be a non-empty matrix (list of rows)"),
    "h_sys_not_square": (system(h_sys=[[0, 0]]), "field.system.h_sys must be square"),
    "envelope_list": (photon([]), "field.envelope must be an object"),
    "envelope_without_width": (photon({"type": "gaussian", "center": 1.0}),
                               "missing required key field.envelope.width"),
    "envelope_ragged": (tabulated([0.0, 1.0], [1.0]), "field.envelope: spectrum needs "
                        "matching 1-d omega and amplitude arrays"),
    "envelope_type": (photon({"type": "lorentzian"}),
                      "field.envelope.type must be 'gaussian' or 'tabulated'"),
    "field_list": (config_with(field=[]), "'field' must be an object"),
    "kind_thermal": (field_with(kind="thermal"),
                     "field.kind must be one of vacuum, coherent, single_photon"),
    "no_t_final": (lambda doc: doc["field"].pop("t_final") and doc,
                   "missing required key field.t_final"),
    "photon_without_envelope": (photon(None), "single-photon fields need field.envelope"),
    "envelope_on_vacuum": (field_with(envelope={"type": "gaussian", "center": 1, "width": 1}),
                           "'envelope' applies only to single-photon fields"),
    "d_anc_one": (field_with(d_anc=1), "d_anc must be >= 2"),
    "system_list": (field_with(system=[]), "field.system must be an object"),
    "system_without_rho0": (field_with(system={"h_sys": [[0]], "coupling": [[0]]}),
                            "missing required key field.system.rho0"),
    "config_list": (lambda doc: [doc], "config must be a JSON object"),
    "scenario_unknown": (config_with(scenario="decay"), "scenario must be one of "
                         "spontaneous_emission, bloch, single_photon, convergence"),
    "no_field": (lambda doc: doc.pop("field") and doc, "missing required key 'field'"),
    "output_xml": (config_with(output="xml"), "output must be 'csv' or 'json'"),
    "out_path_number": (config_with(out_path=3), "out_path must be a string"),
    "n_list_string": (config_with(scenario="convergence", n_list="100"),
                      "n_list must be a list of step counts"),
    "fixed_g_outside_convergence": (config_with(fixed_g=3.0),
                                    "'n_list' and 'fixed_g' apply only to convergence runs"),
    "no_output_path": (lambda doc: doc.pop("out_path") and doc,
                       "no output path: set 'out_path' in the config or pass --out"),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_config_error_exits_one_with_its_message(tmp_path, capsys, case):
    edit, message = CONFIG_ERRORS[case]
    doc = edit(vacuum_config(out_path=str(tmp_path / "x.csv")))
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_convergence_run_with_fixed_g_is_the_study_with_fixed_g(tmp_path):
    doc = vacuum_config(scenario="convergence", output="json", n_list=[50, 100, 200], fixed_g=3)
    out = tmp_path / "conv.json"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    field = parse_config(json.dumps(doc)).field
    study = scenarios.convergence_study(field, [50, 100, 200], fixed_g=3.0)
    assert report["meta"]["fixed_g"] == 3.0 and report["meta"]["fitted_slope"] == study.slope
    assert report["rows"] == [{"n_steps": row.n_steps, "dt": row.dt,
                               "max_state_error": row.max_state_error,
                               "endpoint_observable_error": row.endpoint_observable_error}
                              for row in study.rows]


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


def test_a_tabulated_envelope_times_a_power_of_two_writes_the_same_rows(tmp_path, capsys):
    # |psi|^2 of psi * 2**700 overflows a double; its amplitudes are scaled by a power of two
    # before their weight is formed, so the run writes psi's rows, to the bit
    rows = []
    for scale in (1.0, 2.0**700):
        doc = single_photon_config(tmp_path, 12)
        doc["field"]["envelope"] = {"type": "tabulated", "omega": [-1.0, -0.5, 0.0, 0.5],
                                    "psi": [0.3 * scale, {"re": 0.0, "im": scale}, -0.7 * scale,
                                            1e-3 * scale]}
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
        rows.append((tmp_path / "sp.csv").read_text().splitlines()[4:])
    assert len(rows[0]) == 13 and rows[0] == rows[1]
    doc["field"].update(gamma=1.0, t_final=1e12, n_steps=1)  # the amplitudes' weight is inf
    doc["field"]["envelope"].update(omega=[-1.0, 0.0, 1.0], psi=[1e300, {"re": 0.0, "im": 1.0},
                                                                 1e-300])
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("center, width, code", [
    (3.0, 1e-300, 0),    # the bin at t = 3 alone
    (3.1, 1e-300, 1),    # no bin within the envelope: identically zero
    (3.0, 1e-160, 0),
    (1e200, 1.0, 1),
])
def test_extreme_gaussian_envelope_exits_cleanly(tmp_path, capsys, center, width, code):
    # the exponent's overflow and underflow are its limits, 0 or 1, not warnings (here errors)
    doc = single_photon_config(tmp_path, 12)
    doc["field"]["envelope"].update(center=center, width=width)
    assert main(["run", "--config", write_config(tmp_path, doc)]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else "error: envelope is identically zero\n")
    if code == 0:
        rows = (tmp_path / "sp.csv").read_text().splitlines()[4:]
        assert len(rows) == 13


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


def test_the_one_parser_carries_nothing_from_call_to_call(tmp_path, capsys):
    # one parser, built at import, parses every call in the process: no option, usage error or
    # command of one call reaches the next
    doc = vacuum_config(out_path=str(tmp_path / "own.csv"))
    doc["field"]["n_steps"] = 20
    cfg_path, out = write_config(tmp_path, doc), tmp_path / "o.json"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--format", "json"]) == 0
    json.loads(out.read_text())
    assert main(["validate", "--config", cfg_path]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
    assert main(["run", "--config", cfg_path]) == 0  # the config's path and format: csv
    assert (tmp_path / "own.csv").read_text().startswith(f"# collisim {__version__}\n")
    assert main(["validate", "--config", cfg_path]) == 0
    captured = capsys.readouterr()
    assert captured.out == (f"wrote {out}\nconfig OK: scenario spontaneous_emission\n"
                            f"wrote {tmp_path / 'own.csv'}\n"
                            "config OK: scenario spontaneous_emission\n")
    assert captured.err.endswith("error: the following arguments are required: --config\n")


def test_a_call_builds_no_parser_and_no_emitter(tmp_path, monkeypatch):
    # the parser and the default emitter are built once per process, not once per call
    def refuse(*args, **kwargs):
        raise AssertionError("a call built an argument parser")
    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    assert main(["validate", "--config", write_config(tmp_path, vacuum_config())]) == 0
    field = parse_config(json.dumps(vacuum_config())).field
    assert all(a is b for a, b in zip((field.h_sys, field.coupling, field.rho0),
                                      scenarios.default_emitter()))


def test_validate_and_run_never_import_scipy(tmp_path):
    # scipy is only the tests' oracle: a fresh collisim process runs on numpy alone
    doc = vacuum_config()
    doc["field"]["n_steps"] = 20
    cfg, out = write_config(tmp_path, doc), str(tmp_path / "vac.csv")
    script = ("import sys\nfrom collisim.cli import main\n"
              f"codes = main(['validate', '--config', {cfg!r}]), "
              f"main(['run', '--config', {cfg!r}, '--out', {out!r}])\n"
              "print(codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    src = str(Path(collisim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "(0, 0) []"


# ---------------------------------------------------------------------------
# any config document
# ---------------------------------------------------------------------------

EXTREMES = st.sampled_from([1e-300, 1e-12, 0.37, 1.0, 3.0, 40.0, 1e12, 1e300])


@st.composite
def config_documents(draw):
    """A config of any scenario and field kind, small step counts and extreme numbers."""
    scenario = draw(st.sampled_from(cli.SCENARIOS))
    kind = draw(st.sampled_from(["vacuum", "coherent", "single_photon"]))
    field = {"kind": kind, "gamma": draw(EXTREMES), "t_final": draw(EXTREMES),
             "n_steps": draw(st.integers(1, 8))}
    if draw(st.booleans()):
        field["d_anc"] = draw(st.sampled_from([2, 3, 12, 171, 172, 200]))
    if kind == "coherent":
        field["z"] = {"re": draw(st.sampled_from([0.0, 0.5, -3.0, 1e3, 1e150])),
                      "im": draw(st.sampled_from([0.0, 1e-300, 2.0]))}
        field["omega"] = draw(st.sampled_from([0.0, 0.7, -1e6, 1e300]))
    if kind == "single_photon":
        field["envelope"] = draw(st.sampled_from([
            {"type": "gaussian", "center": draw(EXTREMES), "width": draw(EXTREMES)},
            {"type": "tabulated", "omega": [-1.0, 0.0, 1.0],
             "psi": [draw(EXTREMES), {"re": 0.0, "im": 1.0}, 1e-300]}]))
    doc = {"scenario": scenario, "field": field,
           "output": draw(st.sampled_from(sorted(render.WRITERS)))}
    if scenario == "convergence":
        doc["n_list"] = draw(st.lists(st.integers(1, 8), min_size=2, max_size=4))
    return doc


@settings(max_examples=60, deadline=None)
@example(doc={"scenario": "bloch", "output": "csv", "field": {
    "kind": "coherent", "gamma": 1.0, "t_final": 1.0, "n_steps": 2, "z": 0.5, "d_anc": 172}})
@given(doc=config_documents())
def test_any_config_document_ends_in_an_exit_code(tmp_path_factory, doc):
    # d_anc = 172 used to pass validate and then end run in an OverflowError traceback.  main
    # runs as from the command line, where a numpy warning is a printed line, not an exception
    work = tmp_path_factory.mktemp("doc")
    path = write_config(work, doc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        codes = [main(["validate", "--config", path]),
                 main(["run", "--config", path, "--out", str(work / "artifact")])]
    assert codes[0] in (0, 1) and codes[1] in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()

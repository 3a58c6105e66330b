"""CLI behavior: parsing, schema, determinism, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import pickle
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlrouter import analytics, cli, protocols
from nlrouter.cli import CliError, build_parser, main, parse_phi_spec, parse_pi_expr


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAngleGrammar:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi", math.pi),
            ("pi/3", math.pi / 3),
            ("2*pi/3", 2 * math.pi / 3),
            ("0.875", 0.875),
            ("-1/11", -1.0 / 11.0),
            ("-pi", -math.pi),
        ],
    )
    def test_expressions(self, text, value):
        assert parse_pi_expr(text) == pytest.approx(value, abs=1e-15)

    def test_range(self):
        grid = parse_phi_spec("0:pi:5")
        assert len(grid) == 5
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(math.pi)

    def test_range_ends_exactly_on_its_stop(self):
        # -1 + 1.3 * 9 / 9 rounds to 0.30000000000000004
        grid = parse_phi_spec("-1:0.3:10")
        assert (len(grid), grid[0], grid[-1]) == (10, -1.0, 0.3)

    @pytest.mark.parametrize("text", ["", "pi:pi", "0:pi:1", "0:pi:x", "two*pi"])
    def test_bad_inputs(self, text):
        with pytest.raises(CliError):
            parse_phi_spec(text)


class TestSweep:
    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--protocol", "bm", "--phi", "pi/3", "--odb", "30", "--pde", "0.98")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "phi,od_b,p_de,phi1,protocol,engine,probability,status"
        cells = lines[1].split(",")
        assert cells[4] == "bm" and cells[5] == "formula" and cells[7] == "ok"
        assert float(cells[6]) == pytest.approx(0.670082513260689, abs=1e-12)

    def test_both_engine_has_delta_and_footer(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--protocol", "ghz", "--phi", "pi/3", "--odb", "30", "--engine", "both")
        assert code == 0
        lines = out.strip().split("\n")
        assert "probability_sim" in lines[0] and "abs_delta" in lines[0]
        assert lines[-1].startswith("# max_abs_delta = ")
        assert float(lines[-1].split("=")[1]) < 1e-10

    def test_unreachable_rows_kept(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--protocol", "bm", "--phi", "pi", "--odb", "8")
        assert code == 0
        row = out.strip().split("\n")[1]
        assert row.endswith(",unreachable")
        assert row.split(",")[6] == ""

    def test_an_engine_fault_at_a_reachable_point_exits_2_and_writes_nothing(self, capsys, monkeypatch, tmp_path):
        real = protocols.run_bell_measurement

        def faulty(phi, *args):
            if phi == math.pi / 3:
                raise ValueError("engine fault")
            return real(phi, *args)

        monkeypatch.setattr(protocols, "run_bell_measurement", faulty)
        out_path = tmp_path / "out.csv"
        argv = ["sweep", "--protocol", "bm", "--phi", "0:pi:4", "--engine", "sim", "--out", str(out_path)]
        code, out, err = run_cli(capsys, *argv, "--odb", "30")  # phi = pi/3 is the second of four rows
        assert (code, out, err) == (2, "", "nlrouter: numerical error: engine fault\n")
        assert not out_path.exists()
        assert run_cli(capsys, *argv, "--odb", "1") == (0, "", "")  # beyond od_b/4 from phi = pi/3 on
        assert [r.split(",")[-1] for r in out_path.read_text().splitlines()[1:]] == ["ok"] + ["unreachable"] * 3

    @pytest.mark.parametrize("protocol", ["cnot", "factorization"])
    def test_composite_protocols_match_their_simulation(self, capsys, protocol):
        code, out, _ = run_cli(capsys, "sweep", "--protocol", protocol, "--phi", "0:pi:5", "--odb", "30,inf", "--pde", "0.9", "--phi1-ratio=-1/11", "--engine", "both", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [r["status"] for r in doc["records"]] == ["ok"] * 10
        assert doc["max_abs_delta"] < 1e-10

    def test_router_emits_three_rows_per_point(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--protocol", "router", "--phi", "pi/2", "--odb", "inf")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert [r.split(",")[4] for r in rows] == ["router-uu", "router-uw", "router-ww"]
        assert [float(r.split(",")[6]) for r in rows] == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--protocol", "bm", "--phi", "pi/3", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert records[0]["protocol"] == "bm"
        assert records[0]["od_b"] == "inf"
        assert records[0]["probability"] == pytest.approx(0.71875)

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"protocol": "ghz", "phi": "pi", "odb": "inf"}))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[4] == "ghz"

    def test_config_file_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"protocl": "ghz", "phi": "pi/3"}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("nlrouter: error: unknown config field 'protocl'") and err.count("\n") == 1

    def test_detuned_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--protocol", "bm", "--phi", "pi/3", "--odb", "30",
            "--pde", "0.98", "--phi1-ratio=-1/11", "--engine", "both",
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[3]) == pytest.approx(-math.pi / 33)
        assert float(row[6]) == pytest.approx(0.671880371880849, abs=1e-12)

    def test_multi_point_both_engine_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--protocol", "ghz", "--phi", "0:pi:4", "--engine", "both")
        assert code == 0
        assert len(out.strip().split("\n")) == 6  # header + 4 rows + footer


class TestSweepOutput:
    def test_csv_sweep_memory_per_row(self, tmp_path):
        # one formatted line per row is held until the write; the output itself is 53 bytes a row
        argv = ["sweep", "--protocol", "bm", "--phi", "0:pi:4096", "--odb", "30,60,inf", "--pde", "0.98"]
        main(["sweep", "--protocol", "bm", "--phi", "0:pi:2", "--odb", "30", "--out", str(tmp_path / "warm.csv")])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = 4096 * 3
        assert len((tmp_path / "out.csv").read_text().splitlines()) == rows + 1
        assert (peak - base) / rows < 250

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_raising_row_writes_nothing(self, tmp_path, monkeypatch, fmt):
        formula, calls = cli._FORMULA["bm"], []

        def failing(*args):
            calls.append(args)
            if len(calls) == 100:
                raise RuntimeError("row 100")
            return formula(*args)

        monkeypatch.setitem(cli._FORMULA, "bm", failing)
        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError, match="row 100"):
            main(["sweep", "--protocol", "bm", "--phi", "0:pi:128", "--format", fmt, "--out", str(target)])
        assert len(calls) == 100
        assert not target.exists()

    @pytest.mark.parametrize("engine", ["formula", "simulator", "both"])
    @pytest.mark.parametrize("protocol", ["bm", "router"])
    def test_a_csv_line_is_its_cells_joined(self, protocol, engine):
        # an ok row's line comes from one format string, the others' cell by cell
        points = [cli.SweepPoint(phi, od_b, 0.98, -phi / 11.0) for phi in (0.0, 1e-300, 1.0, math.pi) for od_b in (3.0, 30.0, math.inf)]
        rows = [r for pt in points for r in cli._sweep_point_rows(protocol, engine, pt)]
        assert {r["status"] for r in rows} == {"ok", "unreachable"}
        lines = cli._render_sweep(rows, engine, "csv").split("\n")
        header = lines[0].split(",")
        assert lines[1:len(rows) + 1] == [",".join(cli._cell(r[k]) for k in header) for r in rows]

    def test_sweep_point_record(self):
        pt = cli.SweepPoint(phi=1.0, od_b=30.0, p_de=0.98, phi1=-0.5)
        assert cli.SweepPoint._fields == ("phi", "od_b", "p_de", "phi1")
        assert repr(pt) == "SweepPoint(phi=1.0, od_b=30.0, p_de=0.98, phi1=-0.5)"
        assert pickle.loads(pickle.dumps(pt)) == pt
        assert pt == (1.0, 30.0, 0.98, -0.5)  # a named tuple equals the plain tuple of its values
        with pytest.raises(AttributeError):
            pt.phi = 0.0


class TestOtherCommands:
    def test_circle_branch_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, "circle", "--odb", "8", "--points", "3")
        assert code == 0
        rows = [r.split(",") for r in out.strip().split("\n")[1:]]
        at_zero = {r[2]: float(r[3]) for r in rows if float(r[0]) == 0.0}
        assert at_zero["lower"] == pytest.approx(0.0, abs=1e-12)
        assert at_zero["upper"] == pytest.approx(8.0, abs=1e-12)

    def test_circle_reaches_its_last_point(self, capsys):
        # -r + 2r * 780 / 780 rounds above r = od_b/4 here, which the circle refused as unreachable
        od = 49.631642914046886
        code, out, err = run_cli(capsys, "circle", "--odb", repr(od), "--points", "781")
        assert (code, err) == (0, "")
        lower = [r for r in out.splitlines()[1:] if r.split(",")[2] == "lower"]
        assert len(lower) == 781 and lower[-1].split(",")[0] == cli._fmt(od / 4.0)

    def test_opt_phase_footer(self, capsys):
        code, out, _ = run_cli(capsys, "opt-phase", "--protocol", "ghz", "--odb", "60:500:4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "od_b,phi_opt,p_opt"
        assert any(l.startswith("# infidelity_exponent") for l in lines)
        assert any(l.startswith("# phase_gap_exponent") for l in lines)

    @pytest.mark.parametrize(
        "odb, rows",
        [
            ("100", ["100,2.45588821097,0.933956846664"]),
            ("inf", ["inf,3.14159265323,1"]),
            ("60,60", ["60,2.33121300513,0.900989685518"] * 2),
            ("100,inf", ["100,2.45588821097,0.933956846664", "inf,3.14159265323,1"]),
        ],
    )
    def test_opt_phase_without_two_distinct_finite_depths_prints_no_exponent(self, capsys, odb, rows):
        code, out, err = run_cli(capsys, "opt-phase", "--odb", odb)
        assert (code, err) == (0, "")
        assert out == "\n".join(["od_b,phi_opt,p_opt"] + rows) + "\n"

    def test_selftest(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "selftest ok" in out

    def test_selftest_fails_on_a_wrong_formula(self, capsys, monkeypatch):
        spec = cli.PROTOCOL_TABLE["ghz"]
        monkeypatch.setitem(cli.PROTOCOL_TABLE, "ghz", dataclasses.replace(spec, formula=lambda *a: spec.formula(*a) + 1e-9))
        code, out, err = run_cli(capsys, "selftest")
        assert (code, err) == (2, "selftest FAILED\n")
        assert "selftest ok" not in out


class TestProtocolTable:
    def test_the_cli_indexes_the_library_table(self):
        sweep = build_parser()._subparsers._group_actions[0].choices["sweep"]
        choices = next(a.choices for a in sweep._actions if a.dest == "protocol")
        assert tuple(choices) == tuple(p.alias for p in analytics.PROTOCOLS)
        for p in analytics.PROTOCOLS:
            assert cli.PROTOCOL_TABLE[p.alias] is p
            assert cli._FORMULA[p.alias] is p.formula

    def test_the_optimiser_takes_each_protocol_with_a_detection_efficiency(self):
        names = {"bell_measurement", "evl_bell_measurement", "ghz", "cnot", "factorization"}
        assert {p.name for p in analytics.PROTOCOLS} == names | {"router"}
        for name in names:
            assert analytics.find_optimal_phase(name, 100.0).protocol == name
        with pytest.raises(ValueError, match="unknown protocol 'router'"):
            analytics.find_optimal_phase("router", 100.0)


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--protocol", "warp-drive"])
        assert exc.value.code == 1

    def test_bad_angle_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--phi", "three*pi")
        assert code == 1
        assert "angle expression" in err

    def test_io_error_is_three(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code, _, err = run_cli(capsys, "sweep", "--phi", "pi/3", "--out", str(target))
        assert code == 3
        assert "cannot write" in err

    @pytest.mark.parametrize("via", ["--out", "--config"])
    def test_a_nul_byte_in_the_output_path_is_an_io_error(self, capsys, tmp_path, via):
        # open() refuses the path with ValueError, which once exited 2 as a numerical error
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phi": "pi/3", "out": "a\u0000b"}))
        argv = ["--phi", "pi/3", "--out", "a\0b"] if via == "--out" else ["--config", str(cfg)]
        assert run_cli(capsys, "sweep", *argv) == (3, "", "nlrouter: error: cannot write a\0b: embedded null byte\n")

    def test_detuned_ancilla_protocol_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--protocol", "evl", "--phi", "pi/3", "--phi1-ratio", "0.1")
        assert code == 1
        assert "no detuned variant" in err

    @pytest.mark.parametrize(
        "content, code, message",
        [
            (None, 3, "cannot read config: [Errno 2] No such file or directory"),
            (b"{", 1, "bad config file: Expecting property name enclosed in double quotes"),
            (b"\xff{}", 1, "bad config file: 'utf-8' codec can't decode byte 0xff in position 0"),
            (b'{"odb": ' + b"9" * 5000 + b"}", 1, "bad config file: Exceeds the limit (4300 digits) for integer string conversion"),
            (b"[]", 1, "config file must hold a JSON object"),
            (b'{"phi": true}', 1, "config field 'phi' must be a string or a number"),
            (b'{"odb": [30]}', 1, "config field 'odb' must be a string or a number"),
            (b'{"protocol": "warp"}', 1, "unknown protocol 'warp'; choose from bm, evl, ghz, cnot, factorization, router"),
            (b'{"engine": "x"}', 1, "unknown engine 'x'"),
            (b'{"format": "xml"}', 1, "unknown format 'xml'"),
        ],
        ids=["missing", "malformed", "not-utf-8", "long-integer", "array", "true", "list", "protocol", "engine", "format"],
    )
    def test_a_bad_config_file_is_refused(self, tmp_path, capsys, content, code, message):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_bytes(content)
        got, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert (got, out) == (code, "")
        assert err.startswith(f"nlrouter: error: {message}") and err.count("\n") == 1

    def test_a_one_point_circle_is_refused(self, capsys):
        assert run_cli(capsys, "circle", "--points", "1") == (1, "", "nlrouter: error: --points must be >= 2\n")

    def test_numeric_config_value_is_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"protocol": "bm", "phi": "pi/3", "odb": 30, "pde": 0.98}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert (code, err) == (0, "")
        _, expected, _ = run_cli(capsys, "sweep", "--phi", "pi/3", "--odb", "30", "--pde", "0.98")
        assert out == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--odb", "abc"],
            ["sweep", "--pde", "1.5"],
            ["sweep", "--pde=-0.5"],
            ["sweep", "--odb", "0"],
            ["sweep", "--odb=-5"],
            ["sweep", "--odb", "nan"],
            ["sweep", "--phi", "nan"],
            ["sweep", "--phi", "0:inf:3"],
            ["sweep", "--phi", "pi/3", "--phi1-ratio", "nan"],
            ["opt-phase", "--odb", "0:10:3"],
            ["opt-phase", "--odb", "60:2000:x"],
            ["opt-phase", "--odb", "60:inf:3"],
            ["opt-phase", "--odb", "1e-300:1e300:3"],
            ["opt-phase", "--odb", "1e300:1e-300:3"],
            ["opt-phase", "--odb", "abc"],
            ["opt-phase", "--odb", "100", "--pde", "1.5"],
            ["circle", "--odb", "nan"],
            ["sweep", "--phi", "0:pi:1000001"],
            ["sweep", "--phi", "0:pi:1000000000"],
            ["opt-phase", "--odb", "60:2000:1000001"],
            ["opt-phase", "--odb", "60:2000:1000000000"],
            ["sweep", "--phi", "0:pi:1000000", "--odb", "30,60"],
            ["circle", "--odb", "3.5,inf"],
            ["circle", "--odb", "inf,3.5"],
            ["circle", "--points", "1000001"],
            ["circle", "--points", "600000", "--odb", "3.5,8"],
            ["sweep", "--odb", "1e308"],
            ["opt-phase", "--odb", "1e308"],
            ["circle", "--odb", "1e308"],
            ["circle", "--odb", "3.5,1e308"],
        ],
    )
    def test_bad_value_is_one_line_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("nlrouter: error: ") and err.count("\n") == 1

    def test_largest_finite_od_b_is_accepted(self, capsys):
        # (od_b/4)^2 overflows above about 5.36e154; 5e154 stays a valid operating point
        for argv in (["sweep", "--phi", "pi/3", "--odb", "5e154", "--engine", "both"], ["opt-phase", "--odb", "5e154"],
                     ["circle", "--odb", "5e154", "--points", "3"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            rows = [line for line in out.splitlines()[1:] if not line.startswith("#")]
            assert rows and not any("nan" in row or "inf" in row for row in rows)
            assert all(0.0 <= p <= 1.0 for p in _ok_probabilities(out))

    def test_sweep_grid_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_POINTS", 6)
        code, out, err = run_cli(capsys, "sweep", "--phi", "0:pi:3", "--odb", "30,60", "--pde", "0.98")
        assert (code, err) == (0, "")
        assert len([line for line in out.splitlines() if not line.startswith("#")]) == 1 + 6
        code, out, err = run_cli(capsys, "sweep", "--phi", "0:pi:3", "--odb", "30,60", "--pde", "0.9,1")
        assert (code, out) == (1, "")
        assert err == "nlrouter: error: sweep grid has 12 points; at most 6 are allowed\n"

    def test_range_point_cap_is_inclusive(self):
        grid = parse_phi_spec("0:pi:1000000")
        assert (len(grid), grid[0], grid[-1]) == (1_000_000, 0.0, math.pi)
        with pytest.raises(CliError, match="at most 1000000") as exc:
            parse_phi_spec("0:pi:1000001")
        assert exc.value.code == 1


_SWEEP_VALUES = {
    "--protocol": ["bm", "evl", "ghz", "cnot", "router", "warp"],
    "--phi": ["pi/3", "0:pi:3", "2.9", "-pi", "1e300", "nan", "inf", "three", "0:pi:x"],
    "--odb": ["30", "inf", "8,inf", "1e-300", "1e308", "0", "-5", "nan", "abc", "30,"],
    "--pde": ["0.98", "1", "0", "0.5,1", "1.5", "-0.5", "nan", "abc"],
    "--phi1-ratio": ["0", "-1/11", "0.1", "nan", "inf", "x"],
    "--engine": ["formula", "both", "sim"],
    "--format": ["csv", "json"],
}
_OPT_VALUES = {
    "--protocol": ["bm", "evl", "ghz", "cnot"],
    "--odb": ["100", "5", "60:500:3", "60,inf", "100,100", "0:10:3", "60:2000:x", "60:inf:3", "1:2", "abc", "-5", "nan", "1e308"],
    "--pde": ["1", "0.9", "1.5", "abc", "nan"],
}


def _argv(command, values):
    options = st.fixed_dictionaries({flag: st.none() | st.sampled_from(vals) for flag, vals in values.items()})
    return options.map(lambda opts: [command] + [f"{k}={v}" for k, v in opts.items() if v is not None])


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue()


def _ok_probabilities(text):
    if text.startswith("["):
        records = json.loads(text)
    elif text.startswith("{"):
        records = json.loads(text)["records"]
    else:
        records = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
    for rec in records:
        if rec.get("status", "ok") == "ok":
            for key in ("probability", "probability_sim", "p_opt"):
                if rec.get(key) is not None:
                    yield float(rec[key])


class TestArgvProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.one_of(_argv("sweep", _SWEEP_VALUES), _argv("opt-phase", _OPT_VALUES)))
    @example(["sweep", "--phi=pi/3", "--odb=1e308"])  # (od_b/4)^2 overflows: nan marked ok, unless refused
    @example(["sweep", "--protocol=router", "--phi=pi/3", "--odb=1e308"])
    @example(["opt-phase", "--odb=1e308"])
    def test_exit_code_and_probability_range(self, argv):
        code, out = _run_quietly(argv)
        assert code in (0, 1, 2, 3)
        assert all(0.0 <= p <= 1.0 for p in _ok_probabilities(out))


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "sweep", "--protocol", "bm", "--phi", "0:pi:7", "--odb", "30,inf",
                "--pde", "0.9,1", "--engine", "both", "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert b"\r" not in paths[0].read_bytes()

    def test_row_order_is_phi_major(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--protocol", "ghz", "--phi", "0:pi:3", "--odb", "30,inf", "--pde", "0.9,1")
        rows = [r.split(",") for r in out.strip().split("\n")[1:]]
        keys = [(float(r[0]), r[1], float(r[2])) for r in rows]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1] != "30", k[2] != 0.9))

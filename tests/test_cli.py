import csv
import itertools
import json
import os
import re
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fthub import cli, lattice
from fthub.qpe import hubbard_step


def run_cli(args):
    return cli.main(args)


class TestTable2:
    def test_writes_and_passes(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run_cli(["table2", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        w_rows = [r for r in rows if r["quantity"] == "w_tile"]
        assert len(w_rows) == 16
        assert all(abs(int(r["diff"])) <= 1 for r in rows)
        gate_rows = [r for r in rows if r["quantity"] != "w_tile"]
        assert all(int(r["diff"]) == 0 for r in gate_rows)

    def test_spot_values(self, tmp_path):
        out = tmp_path / "table.csv"
        run_cli(["table2", "--out", str(out)])
        rows = list(csv.DictReader(out.open()))
        by_key = {(r["model"], r["quantity"], r["alpha"], r["N"]): r for r in rows}
        assert by_key[("hubbard", "n_rot", "N/4-1", "200")]["computed"] == "144"
        assert by_key[("hubbard", "n_t", "N/4-1", "200")]["computed"] == "6704"
        assert by_key[("extended_hubbard", "n_rot", "0", "288")]["computed"] == "3456"

    def test_json_format(self, tmp_path):
        out = tmp_path / "table.json"
        assert run_cli(["table2", "--out", str(out), "--format", "json"]) == 0
        rows = json.loads(out.read_text())
        assert any(r["quantity"] == "w_tile" for r in rows)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["table2", "--out", str(a)])
        run_cli(["table2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestQpe:
    def test_sweep_columns(self, tmp_path):
        out = tmp_path / "qpe.csv"
        assert run_cli(["qpe", "--L", "6", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        methods = {r["method"] for r in rows}
        assert methods == {"trotter", "qubitized"}
        assert {r["eps_rule"] for r in rows} == {"fixed", "extensive"}

    def test_empty_sweep_header_only(self, tmp_path):
        out = tmp_path / "qpe.csv"
        assert run_cli(["qpe", "--L", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("method,")

    def test_empty_sweep_header_matches_full_sweep(self, capsys):
        assert run_cli(["qpe", "--L", "2"]) == 0
        empty = capsys.readouterr().out.splitlines()
        assert run_cli(["qpe", "--L", "4"]) == 0
        full = capsys.readouterr().out.splitlines()
        assert empty == full[:1]
        assert full[0].endswith(",eps_rule")

    @pytest.mark.parametrize("eps,code", [("1e-200", 0), ("1e-201", 2)])
    def test_extreme_eps_raises_no_warning(self, capsys, eps, code):
        # the x grid overflows here; that is no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["qpe", "--L", "8", "--eps", eps]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else
                       f"error: eps={float(eps)!r} is out of range: the T "
                       "count is not a finite number\n")


# JSON site values that are no 64-bit integer
BAD_SITES = {"float site": 1.0, "string site": "1", "bool site": True,
             "null site": None, "list site": [1], "int64-overflow site": 2**70}


class TestSmallCommands:
    def test_lattice_json(self, tmp_path):
        out = tmp_path / "lat.json"
        assert run_cli(["lattice", "--L", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "periodic_hex"
        assert len(doc["sites"]) == 32

    def test_fragment_lattice(self, tmp_path):
        out = tmp_path / "frag.json"
        code = run_cli(["lattice", "--lattice", "hex_fragment",
                        "--cells", "[[0,0]]", "--out", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["sites"]) == 6

    def test_cover_json(self, tmp_path):
        out = tmp_path / "cover.json"
        assert run_cli(["cover", "--L", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [s["color"] for s in doc["sections"]] == ["blue", "red", "gold"]

    def test_bounds_json(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert run_cli(["bounds", "--L", "4", "--model", "hubbard",
                        "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["w_tile"] == pytest.approx(doc["w_so2"] + doc["w_h"])

    def test_gates_json(self, tmp_path):
        out = tmp_path / "gates.json"
        assert run_cli(["gates", "--L", "4", "--model", "extended_hubbard",
                        "--alpha", "N-1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_rot"] == 72
        assert doc["n_t"] == 1808

    @pytest.mark.parametrize("model", ["hubbard", "extended_hubbard", "ppp"])
    @pytest.mark.parametrize("alpha", ["0", "N/4-1", "N/2-1", "N-1"])
    def test_periodic_gates_are_the_qpe_step(self, capsys, model, alpha):
        assert run_cli(["gates", "--L", "6", "--model", model,
                        "--alpha", alpha]) == 0
        assert capsys.readouterr().out == hubbard_step(72, model, alpha).to_json() + "\n"

    @pytest.mark.parametrize("command", ["cover", "gates"])
    @pytest.mark.parametrize("l", range(4, 11))
    def test_square_fragment_covers_at_every_size(self, capsys, command, l):
        assert run_cli([command, "--lattice", "square_fragment",
                        "--L", str(l)]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out) and err == ""

    def test_ppp_gates_take_the_quarter_rule(self, capsys):
        assert run_cli(["gates", "--model", "ppp", "--L", "4",
                        "--alpha", "N/4-1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["hwp_m"], doc["alpha"]) == (8, 7)

    @pytest.mark.parametrize("argv,message", [
        (["lattice", "--cells", "[[0,0]]"], "periodic_hex reads no --cells"),
        (["cover", "--lattice", "periodic_hex", "--cells", "[[0,0]]"],
         "periodic_hex reads no --cells"),
        (["bounds", "--lattice", "square_fragment", "--cells", "[[0,0]]"],
         "square_fragment reads no --cells"),
        (["gates", "--cells", "[[0,0]]"], "periodic_hex reads no --cells"),
        (["lattice", "--lattice", "hex_fragment", "--L", "4"],
         "hex_fragment reads no --L"),
        (["gates", "--lattice", "hex_fragment", "--L", "6"],
         "hex_fragment reads no --L"),
        (["gates", "--lattice", "periodic_hex", "--cover", "/nonexistent"],
         "periodic_hex reads no --cover"),
    ])
    def test_unread_lattice_flag_exit_2(self, capsys, argv, message):
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("case,message", [
        ("sites", "sections[0].tiles[0].sites must be a list"),
        ("kind", "sections[1].tiles[2].kind must be a string"),
        ("color", "sections[1].color must be a string"),
        ("top-level list", "sections must be a list"),
        ("sections", "sections must be a list"),
    ] + [(case, "sections[0].tiles[1].sites must be a list of integers")
         for case in BAD_SITES])
    def test_malformed_cover_document_exit_2(self, capsys, tmp_path,
                                             hexagon_cover, case, message):
        from fthub.tiling import cover_to_json
        doc = json.loads(cover_to_json(hexagon_cover))
        if case in BAD_SITES:
            doc["sections"][0]["tiles"][1]["sites"][1] = BAD_SITES[case]
        elif case == "sites":
            doc["sections"][0]["tiles"][0]["sites"] = 5
        elif case == "kind":
            doc["sections"][1]["tiles"][2]["kind"] = ["S1"]
        elif case == "color":
            del doc["sections"][1]["color"]
        elif case == "sections":
            doc["sections"] = 3
        else:
            doc = doc["sections"]
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["gates", "--lattice", "hex_fragment",
                        "--cover", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("command", ["bounds", "gates"])
    @pytest.mark.parametrize("flag,message", [
        ("--cover", "error: cover document is not JSON: Expecting value"),
        ("--cells", "error: --cells is not JSON: Expecting value"),
    ])
    def test_input_that_is_not_json_exit_2(self, capsys, tmp_path, command,
                                           flag, message):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        value = str(path) if flag == "--cover" else path.read_text()
        assert run_cli([command, "--lattice", "hex_fragment",
                        f"{flag}={value}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("flags,message", [
        (["--model", "extended_hubbard"], "costs only the hubbard model"),
        (["--model", "ppp"], "costs only the hubbard model"),
        (["--alpha", "N-1"], "--alpha must be 0"),
    ])
    def test_fragment_gates_reject_what_they_cannot_cost(self, capsys, flags,
                                                         message):
        assert run_cli(["gates", "--lattice", "hex_fragment"] + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L=6\nmodel=extended_hubbard\n")
        out = tmp_path / "bounds.json"
        assert run_cli(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # N = 72 extended run
        assert doc["w_tile"] == pytest.approx(2752.2, abs=0.1)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L=6\n")
        out = tmp_path / "lat.json"
        assert run_cli(["lattice", "--config", str(cfg), "--L", "8",
                        "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["sites"]) == 128

    def test_flag_equal_to_default_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L=8\n")
        out = tmp_path / "lat.json"
        assert run_cli(["lattice", "--L", "4", "--config", str(cfg),
                        "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["sites"]) == 32

    def test_config_value_outside_choices_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lattice=foo\n")
        assert run_cli(["lattice", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid choice: 'foo'" in err

    def test_config_format_checked(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=xml\n")
        out = tmp_path / "table.csv"
        assert run_cli(["table2", "--config", str(cfg), "--out", str(out)]) == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("no equals sign here\n")
        assert run_cli(["bounds", "--config", str(cfg)]) == 2

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("foo=1\n")
        assert run_cli(["bounds", "--config", str(cfg)]) == 2
        assert "error: unknown config key 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--tau", "nan"), ("--U", "inf"),
                                            ("--V", "-inf")])
    def test_nonfinite_bounds_input_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bounds.json"
        assert run_cli(["bounds", "--model", "extended_hubbard",
                        f"{flag}={value}", "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_bounds_exit_2(self, tmp_path, capsys):
        out = tmp_path / "bounds.json"
        assert run_cli(["bounds", "--tau", "1e200", "--out", str(out)]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_alpha_rule_exit_2(self, capsys):
        assert run_cli(["gates", "--alpha", "foo"]) == 2
        assert "unknown alpha rule" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["qpe", "--L", "4", "--eps", "1e-320"], "is out of range"),
        (["qpe", "--L", "4", "--eps", "nan"], "eps must be finite"),
        (["qpe", "--L", "4", "--eps", "inf"], "eps must be finite"),
        (["qpe", "--L", "4", "--theta", "-3"], "theta must be >= 1"),
        (["qpe", "--L", "4", "--gamma", "0"], "gamma must be >= 1"),
        (["gates", "--L", "-2"], "periodic hex needs"),
        (["gates", "--L", "0"], "periodic hex needs"),
        (["qpe", "--L", "4", "--eps", "1e6"], "is out of range"),
        (["qpe", "--L", "4", "--eps", "50"], "is out of range"),
        (["qpe", "--L", "4", "--alpha", "0,foo"], "unknown alpha rule 'foo'"),
        (["qpe", "--L", "2", "--eps", "nan"], "eps must be finite"),
        (["qpe", "--L", "2", "--theta", "0"], "theta must be >= 1"),
        (["qpe", "--L", "2", "--gamma", "-3"], "gamma must be >= 1"),
        (["qpe", "--L", "2", "--alpha", "foo", "--eps", "nan"],
         "unknown alpha rule 'foo'"),
        (["qpe", "--L", "2", "--tau", "-1"], "tau must be positive"),
        (["qpe", "--L", "4", "--tau", "-1"], "tau must be positive"),
        (["qpe", "--L", "2", "--tau", "0"], "tau must be positive"),
        (["qpe", "--L", "4", "--tau", "0"], "tau must be positive"),
        (["gates", "--L", "3"],
         "three-section S2 cover needs even lattice dimensions"),
        (["gates", "--L", "5", "--model", "ppp"],
         "three-section S2 cover needs even lattice dimensions"),
        (["qpe", "--L", "2", "--model", "ppp"],
         "no error-norm bound is implemented for the ppp model"),
        (["qpe", "--L", "4", "--model", "ppp"],
         "no error-norm bound is implemented for the ppp model"),
        # the on-site model reads no V, but qpe checks it as bounds does
        *[(["qpe", "--model", "hubbard", "--L", l, "--V", v], message)
          for l in ("2", "8")
          for v, message in (("-1", "interaction strengths must be "
                                    "nonnegative"),
                             ("nan", "model parameters must be finite"),
                             ("inf", "model parameters must be finite"))],
    ])
    def test_bad_qpe_and_gates_input_exit_2(self, capsys, argv, message):
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("command", ["lattice", "cover", "gates",
                                         "bounds"])
    @pytest.mark.parametrize("cells,message", [
        ("5", "non-empty list of hexagon cells"),
        ("null", "non-empty list of hexagon cells"),
        ("[]", "non-empty list of hexagon cells"),
        ('{"0": 0}', "non-empty list of hexagon cells"),
        ('[["a","b"]]', "is not a pair of integers"),
        ("[[0.5,0]]", "is not a pair of integers"),
        ("[[true,0]]", "is not a pair of integers"),
        ("[[0,0,0]]", "is not a pair of integers"),
        ("[0,0]", "is not a pair of integers"),
        ("[[0,0", "Expecting"),
    ])
    def test_bad_cells_exit_2(self, capsys, command, cells, message):
        assert run_cli([command, "--lattice", "hex_fragment",
                        f"--cells={cells}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_bad_flag_value_returns_2(self, capsys):
        assert run_cli(["bounds", "--tau", "abc"]) == 2
        assert "invalid float value" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["hubbard", "extended_hubbard"])
    def test_square_fragment_bounds_exit_2_before_the_cover(
            self, monkeypatch, capsys, model):
        def refuse(*_args):
            raise AssertionError("cover built")
        monkeypatch.setattr(cli, "_build_cover", refuse)
        assert run_cli(["bounds", "--lattice", "square_fragment",
                        "--model", model]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "square_fragment" in err

    def test_invalid_model_lattice_combo_exit_2(self, tmp_path):
        out = tmp_path / "x.json"
        code = run_cli(["bounds", "--lattice", "hex_fragment",
                        "--cells", "[[0,0]]", "--model", "ppp",
                        "--out", str(out)])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["lattice"], ["cover"], ["bounds"], ["gates"], ["qpe"],
        ["lattice", "--lattice", "square_fragment"]])
    def test_oversized_lattice_exit_2_before_allocating(self, capsys, argv):
        # 10^10 sites or more: the size is refused from the site count and
        # the machine's memory, before any array is allocated
        tracemalloc.start()
        try:
            code = run_cli(argv + ["--L", "100000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sites needs at least" in err
        assert peak < 2**20

    def test_bloch_stack_beyond_memory_exit_2_before_allocating(
            self, monkeypatch, capsys):
        # at L = 2 (mod 4) the section blocks form a (3, L/2, 4L, 4L) stack,
        # 128 MiB at L = 62; at L = 64 they are small.  The lattice and its
        # cover take about 2 MiB before the stack is sized
        monkeypatch.setattr(lattice, "physical_memory", lambda: 64 * 2**20)
        tracemalloc.start()
        try:
            code = run_cli(["bounds", "--L", "62"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: a Bloch block stack of shape "
                              "(3, 31, 248, 248) needs at least")
        assert err.count("\n") == 1
        assert peak < 4 * 2**20
        assert run_cli(["bounds", "--L", "64", "--out", os.devnull]) == 0

    @pytest.mark.parametrize("l", [22, 26])
    def test_bloch_memory_figure_covers_the_peak(self, monkeypatch, l):
        # the checked figure counts the commutator arrays of the section
        # sums, not the block stack alone (about 0.6 of the traced peak)
        from fthub import freefermion
        figures = []

        def recording(n_bytes, what):
            figures.append(n_bytes)
            lattice.check_memory(n_bytes, what)

        monkeypatch.setattr(freefermion, "check_memory", recording)
        tracemalloc.start()
        try:
            code = run_cli(["bounds", "--L", str(l), "--model",
                            "extended_hubbard", "--out", os.devnull])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert max(figures) >= peak

    def test_bloch_workspace_beyond_memory_exit_2_before_allocating(
            self, monkeypatch, capsys):
        # at L = 62 the (3, 31, 248, 248) stack alone (137 MB) fits in
        # 180 MiB, but with the commutator arrays the work peaks near 205 MiB
        monkeypatch.setattr(lattice, "physical_memory", lambda: 180 * 2**20)
        tracemalloc.start()
        try:
            code = run_cli(["bounds", "--L", "62"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: a Bloch block stack of shape "
                              "(3, 31, 248, 248) needs at least")
        assert err.count("\n") == 1
        assert peak < 4 * 2**20


# the options every subcommand took before each took only what it reads
SHARED_FLAGS = ("lattice", "L", "cells", "cover", "model", "U", "V", "tau",
                "eps", "alpha", "theta", "gamma", "format")
READS = {
    "table2": {"format"},
    "qpe": {"L", "model", "U", "V", "tau", "eps", "alpha", "theta", "gamma"},
    "bounds": {"lattice", "L", "cells", "cover", "model", "U", "V", "tau"},
    "gates": {"lattice", "L", "cells", "cover", "model", "alpha"},
    "lattice": {"lattice", "L", "cells"},
    "cover": {"lattice", "L", "cells"},
    "verify": {"level"},
}


class TestFlagContract:
    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, reads in READS.items()
        for flag in SHARED_FLAGS if flag not in reads])
    def test_unread_flag_exit_2(self, capsys, command, flag):
        assert run_cli([command, f"--{flag}=1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command", sorted(READS))
    def test_help_lists_exactly_the_read_flags(self, capsys, command):
        assert run_cli([command, "--help"]) == 0
        flags = set(re.findall(r"--(\w+)", capsys.readouterr().out))
        assert flags == READS[command] | {"config", "out", "help"}

    def test_readme_flag_table_is_the_parser(self):
        lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| subcommand | flags (default) |") + 2
        documented = {}
        for line in itertools.takewhile(lambda s: s.startswith("|"),
                                        lines[start:]):
            _, names, flags, _ = line.split("|")
            for name in re.findall(r"`(\w+)`", names):
                documented[name] = tuple(re.findall(r"`--(\w+)`", flags))
        assert documented == {name: options
                              for name, (_, options) in cli.COMMANDS.items()}

    def test_other_subcommands_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps=0.1\n")
        assert run_cli(["bounds", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unknown config key 'eps'" in err

    def test_shared_parser_keeps_no_state(self, tmp_path, capsys, monkeypatch):
        gates_cfg = tmp_path / "gates.cfg"
        gates_cfg.write_text("model=extended_hubbard\nalpha=N/4-1\nL=6\n")
        qpe_cfg = tmp_path / "qpe.cfg"
        qpe_cfg.write_text("model=extended_hubbard\nalpha=0\nL=6\neps=0.1\n")
        # a --config call, explicit flags, a bad flag, then the defaults
        calls = [["gates", "--config", str(gates_cfg)],
                 ["gates", "--alpha", "N/2-1", "--L", "8"],
                 ["gates", "--eps", "0.1"],
                 ["gates"],
                 ["qpe", "--config", str(qpe_cfg)],
                 ["qpe", "--alpha", "N-1", "--L", "4"],
                 ["qpe", "--lattice", "periodic_hex"],
                 ["qpe"]]

        def outputs():
            seen = []
            for argv in calls:
                code = run_cli(argv)
                seen.append((code, *capsys.readouterr()))
            return seen

        assert cli.build_parser() is cli.build_parser()
        shared = outputs()
        assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0, 2, 0]
        # each call again, each with a parser of its own
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert shared == outputs()


class TestVerify:
    def test_fast_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run_cli(["verify", "--level", "fast", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["all_pass"] is True
        assert doc["n_checks"] > 10

    def test_fault_injection_fails(self, tmp_path, monkeypatch):
        # corrupting a bound constant must surface as a named failing check
        import fthub.oracle as oracle
        real = oracle.verify_ff_norm

        def corrupted(lattice, tau=1.0):
            report = real(lattice, tau)
            report["bound"] = report["bound"] * 0.5
            report["pass"] = abs(report["exact"] - report["bound"]) <= 1e-8
            return report

        monkeypatch.setattr(oracle, "verify_ff_norm", corrupted)
        out = tmp_path / "verify.json"
        assert run_cli(["verify", "--level", "fast", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        failing = [r["check"] for r in doc["reports"] if not r["pass"]]
        assert "ff_norm" in failing

    def test_full_pass_values_are_json_booleans(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run_cli(["verify", "--level", "full", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_checks"] == len(doc["reports"]) == 105
        # numpy bounds and deviations once made some of them 1.0
        assert all(r["pass"] is True for r in doc["reports"])

    def test_forced_failure_writes_false(self, tmp_path, monkeypatch):
        # a doubled on-site term breaks the on-site chemical shift, whose
        # deviation is a numpy float
        import fthub.oracle as oracle
        real = oracle.jw_onsite
        monkeypatch.setattr(oracle, "jw_onsite",
                            lambda lattice, u: real(lattice, 2 * u))
        out = tmp_path / "verify.json"
        assert run_cli(["verify", "--level", "fast", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert all(type(r["pass"]) is bool for r in doc["reports"])
        failing = {r["check"] for r in doc["reports"] if r["pass"] is False}
        assert failing == {"chemical_shift_onsite"}
        assert doc["all_pass"] is False


# JSON documents of the shape of a cell list, and near misses of it
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3), max_leaves=8)


class TestFuzz:
    @given(st.sampled_from(["gates", "bounds"]),
           st.sampled_from(["--alpha", "--tau", "--U"]),
           st.one_of(st.text(max_size=12),
                     st.sampled_from(["0", "N-1", "N/4-1", "-1", "1e308",
                                      "1e200", "nan", "-inf", "0.5"])))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_main_never_raises(self, capsys, command, flag, value):
        code = run_cli([command, "--L", "4", f"{flag}={value}"])
        capsys.readouterr()
        assert code in (0, 1, 2)

    @given(st.sampled_from(["lattice", "cover", "gates", "bounds"]),
           st.one_of(st.text(max_size=12), JSON_VALUES.map(json.dumps)))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cells_never_raise(self, capsys, command, cells):
        code = run_cli([command, "--lattice", "hex_fragment",
                        f"--cells={cells}"])
        capsys.readouterr()
        assert code in (0, 1, 2)

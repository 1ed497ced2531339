import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heckework import CoxeterSystem, InfiniteGroupError
from heckework.cache import MAGIC, SCHEMA_VERSION, CacheStore
from heckework.cells import CellData
from heckework.cli import build_system, main, make_parser
from heckework.eqvb import KRing, standard_pairs
from heckework.hecke import HeckeAlgebra, KLTable
from heckework.idealmod import IdealModel
from heckework.invmod import InvolutionModule
from heckework.laurent import LaurentPoly
from heckework.report import Check, Report

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_kl_single_entry(capsys):
    code, data = run_json(capsys, "kl", "--type", "A3", "--y", "2", "--w", "2132")
    assert code == 0
    assert data["entries"] == [
        {"y": "2", "w": "2132", "P": {"pretty": "u+1", "v": {"0": 1, "2": 1}}}
    ]


def test_kl_of_a_long_element_needs_no_deep_stack():
    # the KL fill is iterative, with no stack frame per length: P_{1,w}
    # with l(w) = 200 runs under a 150-frame limit
    code = ("import sys\nfrom heckework import cli\nsys.setrecursionlimit(150)\n"
            "sys.exit(cli.main(['kl', '--type', 'Dinf',"
            " '--y', '1', '--w', '12' * 100]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert len(json.loads(proc.stdout)["entries"]) == 1


KL_CASES = [
    ["--type", "A1"],
    ["--type", "A2"],
    ["--type", "A3"],
    ["--type", "B3"],
    ["--type", "G2"],
    ["--type", "I2(7)"],
    ["--type", "Dinf", "--max-len", "6"],
    ["--type", "Dinf", "--max-len", "0"],
    ["--type", "A3", "--y", "2", "--w", "2132"],
    ["--type", "A3", "--y", "2132", "--w", "2"],
    ["--type", "A3", "--y", "", "--w", "2132"],  # "" is e, as "e" is
]


def test_kl_full_table(capsys):
    # `kl` renders its own text: it must be what json.dumps(sort_keys=True,
    # indent=2) makes of it, list every pair once in (len w, w, len y, y)
    # order, and pair each label with its own P
    for argv in KL_CASES:
        code, out = run(capsys, "kl", *argv)
        assert code == 0, argv
        data = json.loads(out)
        assert out == json.dumps(data, sort_keys=True, indent=2) + "\n", argv
        entries = data["entries"]
        keys = [(len(e["w"]), e["w"], len(e["y"]), e["y"]) for e in entries]
        assert keys == sorted(set(keys)), argv
        args = make_parser().parse_args(["kl", *argv])
        system = build_system(args)
        assert data["system"] == system.describe()
        if args.y is None:
            els = system.elements(max_len=args.max_len)
            assert len(entries) == sum(len(system.lower_interval(w)) for w in els)
        table = KLTable(system)
        for e in entries:
            p = table.p(system.element(e["y"]), system.element(e["w"])).subst_v_to_u()
            assert e["P"] == {"pretty": p.pretty(), **p.to_json()}, (argv, e)


def test_kl_b4_stdout_matches_the_benchmark_reference(tmp_path, capsys):
    # the kl-B4 workload of perfbench, cold then warm: both print the
    # recorded bytes, and the warm call leaves the cache file as it was
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    argv = ["kl", "--matrix", "1,4,2,2;4,1,3,2;2,3,1,3;2,2,3,1", "--cache-dir", str(tmp_path)]
    code, cold = run(capsys, *argv)
    filled = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code2, warm = run(capsys, *argv)
    assert code == code2 == 0
    digest = ref["sha256"]["kl-B4"]
    assert hashlib.sha256(cold.encode()).hexdigest() == digest
    assert hashlib.sha256(warm.encode()).hexdigest() == digest
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == filled


def _fail_on_call(monkeypatch, cls, name, n, exc):
    """Make the n-th call of cls.name raise exc; the earlier calls run."""
    real, calls = getattr(cls, name), []

    def patched(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, name, patched)
    return calls


def test_kl_failure_in_the_fill_writes_nothing(capsys, monkeypatch):
    # the whole table is filled before the first byte: A4 has 120 columns
    calls = _fail_on_call(monkeypatch, KLTable, "column", 50, AssertionError("column 50"))
    code = main(["kl", "--type", "A4"])
    captured = capsys.readouterr()
    assert (code, captured.out, len(calls)) == (3, "", 50)
    assert "internal error: AssertionError: column 50" in captured.err


def test_kl_cache_write_failure_writes_nothing(tmp_path, capsys, monkeypatch):
    # the cache is written before the first byte of stdout, one column at a
    # time into a temporary file: a write that fails partway leaves stdout
    # empty, the old file as it was and no temporary file
    import heckework.cache as cache

    argv = ["kl", "--type", "A4", "--cache-dir", str(tmp_path)]
    run(capsys, *argv)
    (path,) = tmp_path.iterdir()
    old = path.read_bytes()[:-1]  # a torn tail, which the next call replaces
    path.write_bytes(old)
    writes, real_open = [], open

    class FullDisk(io.FileIO):
        def write(self, b):
            writes.append(len(b))
            if len(writes) == 30:
                raise OSError("disk full")
            return super().write(b)

    monkeypatch.setattr(cache, "open", lambda file, mode="r": (
        FullDisk(file, "w") if "w" in mode else real_open(file, mode)), raising=False)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, len(writes)) == (2, "", 30)
    assert "usage error: disk full" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_bytes() == old


class _WriteLog(io.StringIO):
    """A text stdout that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


def test_kl_writes_the_table_in_column_chunks(monkeypatch):
    # the text is never joined into one string: one write per column
    log = _WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert main(["kl", "--type", "A4"]) == 0
    text = log.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e1c82a0f7a44f1e6c98a32236dd9bc48e0bfef0aff907619c0165faf74badb29")
    assert len(log.sizes) > 100
    assert max(log.sizes) <= len(text) / 10


class _ClosedAfterOneWrite(io.StringIO):
    """A text stdout on the descriptor fd whose reader goes away after the
    first write."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, s):
        if self.tell():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(s)

    def fileno(self):
        return self.fd


def test_a_reader_that_closes_stdout_early_keeps_the_exit_code(tmp_path, capsys, monkeypatch):
    import heckework.cli as cli

    with open(tmp_path / "out", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedAfterOneWrite(fh.fileno()))
        assert main(["kl", "--type", "A4"]) == 0
        monkeypatch.setattr(sys, "stdout", _ClosedAfterOneWrite(fh.fileno()))
        monkeypatch.setattr(cli, "count_check",
                            lambda kr, name: Report("planted", name, [Check("planted", False)]))
        assert main(["eqvb"]) == 1
    assert capsys.readouterr().err == ""


def test_kl_into_a_pipe_closed_after_one_line():
    # `heckework kl --type A4 | head -1`: the 0.5 MB table cannot fit in the
    # pipe, so the writer meets the closed pipe; neither that write nor the
    # flush at interpreter exit may turn it into an error
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "heckework.cli", "kl", "--type", "A4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_group_builds_only_the_system(capsys, monkeypatch):
    # no KL table is built for group, and its bytes are the recorded ones
    def refuse(*args, **kwargs):
        raise AssertionError("group built a KL table")

    monkeypatch.setattr(KLTable, "__init__", refuse)
    code, out = run(capsys, "group", "--type", "A2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cbbe1cf2a419cbf4f7641b43a9ed4fdf88e46aa8789514ced34dd9d9011516a5")


NON_KL_CALLS = {
    "group": ["group", "--type", "A2"],
    "cells": ["cells", "--type", "A2"],
    "jring": ["jring", "--type", "A2"],
    "invmod": ["invmod", "--type", "A2"],
    "conj34": ["conj34", "--type", "A2"],
    "pi": ["pi", "--type", "A2"],
    "eqvb": ["eqvb"],
    "verify-all": ["verify-all", "--type", "A2"],
}


@pytest.mark.parametrize("argv", NON_KL_CALLS.values(), ids=NON_KL_CALLS.keys())
def test_cache_dir_outside_kl_is_a_usage_error(tmp_path, capsys, argv):
    cache = tmp_path / "cache"
    assert run(capsys, *argv, "--cache-dir", str(cache)) == (2, "")
    assert not cache.exists()


@pytest.mark.parametrize("argv", [
    ["--type", "A3", "--y", "1"],
    ["--type", "A3", "--y", "1", "--w", "4"],
    ["--type", "Dinf"],
], ids=["y-without-w", "w-out-of-range", "infinite-without-max-len"])
def test_a_kl_usage_error_creates_no_cache_dir(tmp_path, capsys, argv):
    cache = tmp_path / "cache"
    assert run(capsys, "kl", *argv, "--cache-dir", str(cache)) == (2, "")
    assert not cache.exists()


def test_only_kl_declares_cache_dir():
    parser = make_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == {"kl", *NON_KL_CALLS}
    assert "--cache-dir" not in parser._option_string_actions
    assert [name for name, sp in commands.choices.items()
            if "--cache-dir" in sp._option_string_actions] == ["kl"]


_E_CELL, _CELL_OF_1 = "<cell-data: the cell of e>", "<cell-data: the cell of 1>"
_GAMMA_CONFIG, _CACHE_DIR = "<gamma-config>", "<cache-dir>"
_FILES = {
    _E_CELL: {"cells": [{"index": 0, "gamma_rank": 0, "subgroups": [[]]}]},
    _CELL_OF_1: {"cells": [{"representative": "1", "gamma_rank": 1, "subgroups": [[], []]}]},
    _GAMMA_CONFIG: {"rank": 1, "subgroups": [[]]},
}
_RANK_2 = ("1,3;3,1", "1,4;4,1")

# every (subcommand, option) the parser accepts: a call, and the option's
# two settings (None: left out, True: a flag given) that make two calls
OPTION_CASES = {
    ("group", "--type"): (["group"], "A2", "B2"),
    ("group", "--matrix"): (["group"], *_RANK_2),
    ("group", "--star"): (["group", "--type", "A3"], None, "321"),
    ("group", "--max-len"): (["group", "--type", "A3"], None, "2"),
    ("kl", "--type"): (["kl"], "A2", "B2"),
    ("kl", "--matrix"): (["kl"], *_RANK_2),
    ("kl", "--max-len"): (["kl", "--type", "A3"], None, "2"),
    ("kl", "--y"): (["kl", "--type", "A3", "--w", "2132"], "2", "1"),
    ("kl", "--w"): (["kl", "--type", "A3", "--y", "2"], "2132", "213"),
    ("kl", "--cache-dir"): (["kl", "--type", "A2"], None, _CACHE_DIR),
    ("cells", "--type"): (["cells"], "A2", "B2"),
    ("cells", "--matrix"): (["cells"], *_RANK_2),
    ("cells", "--pretty"): (["cells", "--type", "A2"], None, True),
    ("jring", "--type"): (["jring"], "A2", "B2"),
    ("jring", "--matrix"): (["jring"], *_RANK_2),
    ("jring", "--star"): (["jring", "--type", "A3"], None, "321"),
    ("jring", "--pretty"): (["jring", "--type", "A2"], None, True),
    ("jring", "--struct"): (["jring", "--type", "A2"], None, True),
    ("invmod", "--type"): (["invmod"], "A2", "B2"),
    ("invmod", "--matrix"): (["invmod"], *_RANK_2),
    # the checks pass either way: the star shows in the tables
    ("invmod", "--star"): (["invmod", "--type", "A2", "--tables"], None, "21"),
    ("invmod", "--pretty"): (["invmod", "--type", "A2"], None, True),
    ("invmod", "--tables"): (["invmod", "--type", "A2"], None, True),
    ("conj34", "--type"): (["conj34"], "A2", "B2"),
    ("conj34", "--matrix"): (["conj34"], *_RANK_2),
    ("conj34", "--star"): (["conj34", "--type", "A2"], None, "21"),
    ("conj34", "--max-len"): (["conj34", "--type", "Dinf"], "5", "6"),
    ("conj34", "--pretty"): (["conj34", "--type", "A2"], None, True),
    ("pi", "--type"): (["pi"], "A2", "B2"),
    ("pi", "--matrix"): (["pi"], *_RANK_2),
    ("pi", "--max-len"): (["pi", "--type", "Dinf"], "5", "6"),
    ("pi", "--pretty"): (["pi", "--type", "A2"], None, True),
    ("eqvb", "--type"): (["eqvb", "--cell-data", _E_CELL], "A2", "B2"),
    ("eqvb", "--matrix"): (["eqvb", "--cell-data", _E_CELL], *_RANK_2),
    # B2's cell of 1 holds four involutions and two twisted by 21: exit 1
    ("eqvb", "--star"): (["eqvb", "--type", "B2", "--cell-data", _CELL_OF_1], None, "21"),
    ("eqvb", "--pretty"): (["eqvb"], None, True),
    ("eqvb", "--gamma-config"): (["eqvb"], None, _GAMMA_CONFIG),
    ("eqvb", "--cell-data"): (["eqvb", "--type", "B2"], _E_CELL, _CELL_OF_1),
    ("verify-all", "--type"): (["verify-all"], "A1", "A2"),
    ("verify-all", "--matrix"): (["verify-all"], *_RANK_2),
    ("verify-all", "--star"): (["verify-all", "--type", "A2"], None, "21"),
    ("verify-all", "--pretty"): (["verify-all", "--type", "A2"], None, True),
}


def test_the_option_cases_are_every_option_the_parser_accepts():
    (commands,) = [a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {(name, a.option_strings[-1]) for name, sp in commands.choices.items()
                for a in sp._actions if not isinstance(a, argparse._HelpAction)}
    assert accepted == set(OPTION_CASES) and len(accepted) == 42


@pytest.mark.parametrize("command, option", OPTION_CASES, ids=map(" ".join, OPTION_CASES))
def test_every_accepted_option_changes_stdout(tmp_path, capsys, command, option):
    # the two calls differ only in the option, and print different stdout;
    # --cache-dir prints the same and writes its file instead
    argv, *settings = OPTION_CASES[command, option]
    paths = {name: tmp_path / str(i) for i, name in enumerate([*_FILES, _CACHE_DIR])}
    for name, data in _FILES.items():
        paths[name].write_text(json.dumps(data))
    outs = []
    for value in settings:
        extra = [] if value is None else [option] if value is True else [option, value]
        code, out = run(capsys, *(str(paths.get(a, a)) for a in argv + extra))
        assert code in (0, 1) and out, (argv, extra)
        outs.append(out)
    if option == "--cache-dir":
        assert outs[0] == outs[1] and len(list(paths[_CACHE_DIR].iterdir())) == 1
    else:
        assert outs[0] != outs[1]


@pytest.mark.parametrize("argv", [
    # the options no subcommand reads any more
    ["group", "--type", "A2", "--pretty"],
    ["kl", "--type", "A3", "--pretty"],
    ["kl", "--type", "A3", "--star", "321"],
    ["cells", "--type", "A3", "--star", "321"],
    ["pi", "--type", "A2", "--star", "21"],
    ["cells", "--type", "Dinf", "--max-len", "3"],
    ["jring", "--type", "Dinf", "--max-len", "3"],
    ["invmod", "--type", "Dinf", "--max-len", "3"],
    ["verify-all", "--type", "Dinf", "--max-len", "3"],
    ["eqvb", "--max-len", "3"],
    # combinations that would drop an input
    ["group", "--type", "A2", "--matrix", "1,4;4,1"],
    ["kl", "--matrix", "1,4;4,1", "--type", "A2"],
    ["eqvb", "--type", "B3"],
    ["eqvb", "--matrix", "1,3;3,1"],
    ["eqvb", "--star", "21"],
    ["jring", "--type", "A2", "--struct", "--pretty"],
    ["invmod", "--type", "A2", "--pretty", "--tables"],
    ["conj34", "--type", "Dinf", "--max-len", "5", "--pretty"],
    ["kl", "--type", "A3", "--y", "2", "--w", "2132", "--max-len", "1"],
    ["kl", "--type", "A2", "--cache-dir", ""],
    # an infinite system with no window
    ["conj34", "--type", "Dinf"],
    ["pi", "--type", "Dinf"],
    # no system
    ["cells"],
    ["verify-all", "--star", "21"],
    ["group", "--max-len", "2"],
    # a parse error of argparse's own
    ["group", "--type", "A2", "--max-len", "x"],
    [],
])
def test_an_unread_option_or_a_dropped_input_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["conj34", "pi"])
def test_an_infinite_system_without_a_window_is_told_to_pass_max_len(capsys, command):
    assert main([command, "--matrix", "1,3,3;3,1,3;3,3,1"]) == 2
    assert "--max-len" in capsys.readouterr().err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kl", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: heckework kl")


def test_group_listing(capsys):
    code, data = run_json(capsys, "group", "--type", "A2")
    assert code == 0
    assert [e["w"] for e in data["elements"]] == ["e", "1", "2", "12", "21", "121"]
    assert data["twisted_involutions"] == ["e", "1", "2", "121"]


def test_group_with_star(capsys):
    code, data = run_json(capsys, "group", "--type", "A3", "--star", "321")
    assert code == 0
    # s1 alone is not *-twisted (1* = 3 != 1^-1), but s1 s3 is (13* = 13 = 13^-1)
    assert "1" not in data["twisted_involutions"]
    assert "13" in data["twisted_involutions"]


def test_cells_command(capsys):
    code, data = run_json(capsys, "cells", "--type", "A2")
    assert code == 0
    assert data["passed"] is True
    assert data["distinguished_involutions"] == ["e", "1", "2", "121"]
    assert data["a_values"]["121"] == 3


def test_jring_command(capsys):
    code, data = run_json(capsys, "jring", "--type", "A2")
    assert code == 0
    assert data["passed"] is True
    assert {"x": "12", "y": "21", "z": "1", "gamma": 1} in data["gamma"]


def test_invmod_command(capsys):
    code, data = run_json(capsys, "invmod", "--type", "B2", "--tables")
    assert code == 0
    assert data["passed"] is True
    assert any(e["beta"] for e in data["beta"])


def test_conj34_a2_emits_x_table(capsys):
    code, data = run_json(capsys, "conj34", "--type", "A2")
    assert code == 0
    assert data["passed"] is True
    assert data["ideal_dimension"] == 4
    by_w = {e["w"]: e["terms"] for e in data["x_elements"]}
    assert set(by_w) == {"e", "1", "2", "121"}
    x1 = {t["x"]: t["coeff"]["pretty"] for t in by_w["1"]}
    assert x1 == {"1": "1-u^{-1}", "12": "u^{-1}-u^{-2}", "121": "u^{-2}-u^{-3}"}


def test_conj34_dinf_truncated(capsys):
    code, data = run_json(
        capsys, "conj34", "--type", "Dinf", "--max-len", "5"
    )
    assert code == 0
    by_w = {e["w"]: e for e in data["x_elements"]}
    assert by_w["121"]["exact_up_to_length"] == 5
    terms = {t["x"] for t in by_w["121"]["terms"]}
    assert terms == {"12", "121", "1212", "12121"}


def test_a_nontrivial_star_skips_the_specialization(capsys):
    # the constant `skipped-nontrivial-star` marker is the whole
    # specialization report, because pi is stated for * = 1 only
    code, data = run_json(capsys, "verify-all", "--type", "A3", "--star", "321")
    assert code == 0
    (spec,) = [r for r in data["reports"] if r["suite"] == "specialization"]
    assert [c["id"] for c in spec["checks"]] == ["skipped-nontrivial-star"]
    flip = CoxeterSystem.from_label("A3", star=[2, 1, 0])
    with pytest.raises(ValueError, match="stated for"):
        IdealModel(InvolutionModule(HeckeAlgebra(flip))).pi_map()


def test_an_unwidened_window_is_an_internal_error(capsys, monkeypatch):
    # every X_w built only to the module's window is inexact at its top
    # length, and the half step that divides it fails: a fault of the
    # program, not of the call
    init = IdealModel.__init__

    def unwidened(self, invmod):
        init(self, invmod)
        self._window = dict.fromkeys(self._window, self.max_len)

    monkeypatch.setattr(IdealModel, "__init__", unwidened)
    assert main(["conj34", "--type", "Dinf", "--max-len", "9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: InexactDivision: not divisible")


def test_pi_command_dinf(capsys):
    code, data = run_json(capsys, "pi", "--type", "Dinf", "--max-len", "12")
    assert code == 0
    assert data["passed"] is True
    fibers = {f["w"]: f["fiber"] for f in data["fibers"]}
    assert fibers["12121"] == ["121"]
    assert fibers["121"] == ["12"]


def test_pi_command_a3(capsys):
    code, data = run_json(capsys, "pi", "--type", "A3")
    assert code == 0
    fibers = {f["w"]: f["fiber"] for f in data["fibers"]}
    assert fibers["2132"] == ["213"]


def test_eqvb_library(capsys):
    code, data = run_json(capsys, "eqvb")
    assert code == 0
    assert data["passed"] is True
    assert len(data["pairs"]) >= 10


def test_eqvb_cell_data(tmp_path, capsys):
    cfg = tmp_path / "celldata.json"
    cfg.write_text(
        json.dumps(
            {
                "cells": [
                    {"representative": "1", "gamma_rank": 1, "subgroups": [[], []]}
                ]
            }
        )
    )
    code, data = run_json(
        capsys, "eqvb", "--type", "B2", "--cell-data", str(cfg)
    )
    assert code == 0
    assert data["passed"] is True


def test_eqvb_cell_data_mismatch_exit_code(tmp_path, capsys):
    cfg = tmp_path / "celldata.json"
    cfg.write_text(
        json.dumps(
            {
                "cells": [
                    {"representative": "1", "gamma_rank": 2,
                     "subgroups": [[], []]}
                ]
            }
        )
    )
    code, out = run(capsys, "eqvb", "--type", "B2", "--cell-data", str(cfg))
    assert code == 1  # check failure, not a crash
    data = json.loads(out)
    assert data["passed"] is False


@pytest.mark.parametrize("entry, failed", [
    ({"representative": "1", "gamma_rank": 1, "subgroups": [[]]},
     [("left-cell-count", {"supplied": 1, "actual": 2}),
      ("kbar-rank-matches", {"rank": 2, "involutions": 4})]),
    ({"representative": "1", "gamma_rank": 0, "subgroups": [[], []]},
     [("dimension-consistency", {"expected": 2, "involutions": 4}),
      ("kbar-rank-matches", {"rank": 2, "involutions": 4})]),
], ids=["one-subgroup-list", "gamma-rank-0"])
def test_wrong_cell_data_fails_its_checks_with_witnesses(tmp_path, capsys, entry, failed):
    # B2's cell of 1 has two left cells and four twisted involutions.  No
    # file fails kbar-rank-matches alone: by the rank formula its rank is
    # 2^r times the number of subgroup lists, which is the involution count
    # whenever left-cell-count and dimension-consistency both hold
    path = tmp_path / "cells.json"
    path.write_text(json.dumps({"cells": [entry]}))
    code, data = run_json(capsys, "eqvb", "--type", "B2", "--cell-data", str(path))
    got = [(c["id"], c["witness"]) for r in data["reports"]
           for c in r["checks"] if not c["pass"]]
    assert (code, got) == (1, failed)


def test_a_lost_x_orbit_fails_rank_formula_alone(capsys, monkeypatch):
    # the last of two or more orbits of X dropped after the ring is built:
    # only the count reads x_orbits, so rank-formula fails on the eight
    # library sets with more than one orbit, and nothing else does
    built = KRing.__init__

    def planted(self, gs):
        built(self, gs)
        self.x_orbits = self.x_orbits[:-1] or self.x_orbits

    monkeypatch.setattr(KRing, "__init__", planted)
    code, data = run_json(capsys, "eqvb")
    got = [(r["system"], c["id"], c["witness"]) for r in data["reports"]
           for c in r["checks"] if not c["pass"]]
    assert code == 1 and {check for _, check, _ in got} == {"rank-formula"}
    assert [name for name, _, _ in got] == [
        "trivial-3pt", "trivial-5pt", "z2-two-fixed-plus-regular", "z2-three-fixed",
        "z2-two-regular", "v4-three-lines", "v4-line-plus-point", "v4-mixed"]
    assert got[0][2] == {"expected": 2, "rank": 3}


def test_verify_all_a2(capsys):
    code, data = run_json(capsys, "verify-all", "--type", "A2")
    assert code == 0
    assert data["passed"] is True
    suites = {r["suite"] for r in data["reports"]}
    assert {"kl-oracle", "cells", "jring", "invmod", "conj-eta",
            "specialization", "eqvb-count"} <= suites


def test_the_cell_path_never_reads_h_struct(capsys, monkeypatch):
    # CellData reads the structure constants itself, one left cell per
    # column; only jring --struct asks h_struct for the table
    def refuse(self, x, y):
        raise AssertionError("h_struct called on the cell path")

    monkeypatch.setattr(HeckeAlgebra, "h_struct", refuse)
    for argv in (["verify-all", "--type", "B2"], ["jring", "--type", "B2"],
                 ["cells", "--type", "B3"]):
        assert run(capsys, *argv)[0] == 0, argv


def test_verify_all_parallel_deterministic(capsys):
    # verify-all runs serially: repeated runs print the same report, and the
    # former --jobs option is a usage error rather than silently ignored.
    code1, out1 = run(capsys, "verify-all", "--type", "A2")
    code2, out2 = run(capsys, "verify-all", "--type", "A2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert main(["verify-all", "--type", "A2", "--jobs", "4"]) == 2


def test_usage_errors(capsys):
    assert main(["kl"]) == 2  # no system given
    assert main(["kl", "--type", "A2", "--y", "1"]) == 2  # --y without --w
    assert main(["nonsense"]) == 2
    assert main(["group", "--type", "Z9"]) == 2
    assert main(["conj34", "--type", "Dinf"]) == 2  # needs --max-len
    assert main(["verify-all", "--type", "A2", "--json"]) == 2  # JSON is the default


_AFFINE_A3 = "1,3,2,3;3,1,3,2;2,3,1,3;3,2,3,1"


def test_affine_a3_is_known_infinite(capsys):
    # finiteness is read off the matrix: cells stops before enumerating, and
    # --max-len is accepted as the window of an infinite system
    system = build_system(make_parser().parse_args(["cells", "--matrix", _AFFINE_A3]))
    with pytest.raises(InfiniteGroupError):
        CellData(HeckeAlgebra(system))
    assert len(system._elts) == 1 + 4  # the identity and the generators
    assert main(["cells", "--matrix", _AFFINE_A3]) == 2
    assert "requires a finite group" in capsys.readouterr().err
    assert main(["conj34", "--matrix", _AFFINE_A3, "--max-len", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    words = [e["w"] for e in data["x_elements"]]
    assert words[:5] == ["e", "1", "2", "3", "4"]
    assert max(len(w) for w in words) == 3
    assert all("exact_up_to_length" in e for e in data["x_elements"])
    assert main(["pi", "--matrix", _AFFINE_A3, "--max-len", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


_NO_CELLS = {"gamma": 1}
_NO_GAMMA_RANK = {"cells": [{"representative": "1", "subgroups": [[], []]}]}
_BAD_INDEX = {"cells": [{"index": 99, "gamma_rank": 1, "subgroups": [[], []]}]}
_BOOL_INDEX = {"cells": [{"index": True, "gamma_rank": 1, "subgroups": [[], []]}]}
_STR_GAMMA_RANK = {"cells": [{"representative": "1", "gamma_rank": "x", "subgroups": [[], []]}]}
_INT_SUBGROUPS = {"cells": [{"representative": "1", "gamma_rank": 1, "subgroups": 5}]}


@pytest.mark.parametrize(
    "argv, config",
    [
        (["eqvb", "--type", "B2", "--cell-data"], _NO_CELLS),
        (["eqvb", "--type", "B2", "--cell-data"], _NO_GAMMA_RANK),
        (["eqvb", "--type", "B2", "--cell-data"], _BAD_INDEX),
        (["eqvb", "--type", "B2", "--cell-data"], _BOOL_INDEX),
        (["eqvb", "--type", "B2", "--cell-data"], _STR_GAMMA_RANK),
        (["eqvb", "--type", "B2", "--cell-data"], _INT_SUBGROUPS),
        (["eqvb", "--gamma-config"], {"rank": 1}),
        # generators outside (Z/2)^1, and a bool rank, as --cell-data rejects them
        (["eqvb", "--gamma-config"], {"rank": 1, "subgroups": [[5]]}),
        (["eqvb", "--gamma-config"], {"rank": 1, "subgroups": [[-1]]}),
        (["eqvb", "--gamma-config"], {"rank": 1, "subgroups": [[3]]}),
        (["eqvb", "--gamma-config"], {"rank": True, "subgroups": [[]]}),
        (["eqvb", "--gamma-config"], {"rank": True, "points": 2, "action": [[0, 1], [1, 0]]}),
        (["eqvb", "--gamma-config"], {"rank": 0, "points": True, "action": [[0]]}),
        (["group", "--type", "A2", "--max-len", "-1"], None),
        # --max-len truncates only the module basis, never a finite W
        (["invmod", "--type", "A3", "--max-len", "2"], None),
        (["conj34", "--type", "A3", "--max-len", "5"], None),
        (["pi", "--type", "A3", "--max-len", "2"], None),
        (["verify-all", "--type", "B2", "--max-len", "3"], None),
        (["cells", "--type", "A3", "--max-len", "2"], None),
        (["jring", "--type", "A2", "--max-len", "1"], None),
        # a label of I2 spells its bond in digits, or as I2(inf) or I2inf;
        # --matrix rows are joined by ';'
        (["group", "--type", "I2 inf"], None),
        (["group", "--matrix", "1,3,3,1"], None),
        (["group", "--matrix", "1 3 3 1"], None),
    ],
    ids=["cell-data-no-cells", "cell-data-no-gamma-rank", "cell-data-index-99",
         "cell-data-index-true", "cell-data-gamma-rank-str", "cell-data-subgroups-int",
         "gamma-config-no-subgroups", "gamma-config-generator-5",
         "gamma-config-generator-minus-1", "gamma-config-generator-3", "gamma-config-rank-true",
         "gamma-config-action-rank-true", "gamma-config-action-points-true",
         "negative-max-len", "invmod-finite-max-len",
         "conj34-finite-max-len", "pi-finite-max-len", "verify-all-finite-max-len",
         "cells-finite-max-len", "jring-finite-max-len", "label-i2-space-inf",
         "matrix-flat-commas", "matrix-flat-spaces"],
)
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + [str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


@pytest.mark.parametrize("rank, subgroups", [(6, [[]]), (64, [[]]), (64, []),
                                             (2, [[], [], [], [1, 2]]), (5, [])])
@pytest.mark.parametrize("flag", ["--gamma-config", "--cell-data"])
def test_oversized_gamma_set_is_refused_before_any_table(
        tmp_path, capsys, monkeypatch, flag, rank, subgroups):
    # |Gamma| + |X| above GAMMA_LIMIT exits 2, and no GammaSet or KRing is
    # built (either would exit 3 here; the built-in library is left out)
    import heckework.cli as cli
    import heckework.eqvb as eqvb

    def built(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "standard_pairs", list)
    monkeypatch.setattr(eqvb.GammaSet, "__init__", built)
    monkeypatch.setattr(cli, "KRing", built)
    monkeypatch.setattr(eqvb, "KRing", built)
    if flag == "--gamma-config":
        config, argv = {"rank": rank, "subgroups": subgroups}, ["eqvb"]
    else:
        config = {"cells": [{"representative": "1", "gamma_rank": rank, "subgroups": subgroups}]}
        argv = ["eqvb", "--type", "B2"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(argv + [flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "too large" in captured.err


def test_oversized_action_table_is_refused(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"rank": 64, "points": 1, "action": []}))
    assert main(["eqvb", "--gamma-config", str(path)]) == 2
    assert "too large" in capsys.readouterr().err


def test_gamma_limit_admits_its_bound_and_the_library(tmp_path, capsys):
    from heckework.cli import GAMMA_LIMIT
    from heckework.eqvb import standard_pairs

    assert all((1 << gs.rank) + gs.size <= GAMMA_LIMIT for _, gs in standard_pairs())
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"rank": 2, "subgroups": [[], [], []]}))  # 4 + 12
    assert main(["eqvb", "--gamma-config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pairs"][0]["points"] == 12


def _cells_entry(index):
    return {"cells": [{"index": index, "gamma_rank": 0, "subgroups": [[]]}]}


def _trivial_action(rank, points):
    return {"rank": rank, "points": points, "action": [list(range(points))] * (1 << rank)}


@pytest.mark.parametrize("argv, config, code", [
    # B2 has three two-sided cells, so 0 and 2 name one and 3 names none
    (["eqvb", "--type", "B2", "--cell-data"], _cells_entry(0), 0),
    (["eqvb", "--type", "B2", "--cell-data"], _cells_entry(2), 0),
    (["eqvb", "--type", "B2", "--cell-data"], _cells_entry(3), 2),
    # the least rank, generator and point count
    (["eqvb", "--gamma-config"], {"rank": 0, "subgroups": [[]]}, 0),
    (["eqvb", "--gamma-config"], {"rank": 1, "subgroups": [[0]]}, 0),
    (["eqvb", "--gamma-config"], _trivial_action(0, 0), 0),
    # |Gamma| + |X| at GAMMA_LIMIT = 16 and at 17, for an action table and
    # for coset spaces of proper subgroups: 4 + (4 + 4 + 2 + 1 + 1), and one
    # more point, Gamma/Gamma
    (["eqvb", "--gamma-config"], _trivial_action(2, 12), 0),
    (["eqvb", "--gamma-config"], _trivial_action(2, 13), 2),
    (["eqvb", "--gamma-config"], {"rank": 2, "subgroups": [[], [], [1], [1, 2], [1, 2]]}, 0),
    (["eqvb", "--gamma-config"], {"rank": 2, "subgroups": [[], [], [1], [1, 2], [1, 2], [1, 2]]},
     2),
], ids=["cell-data-index-0", "cell-data-last-index", "cell-data-index-n-cells",
        "gamma-config-rank-0", "gamma-config-generator-0", "gamma-config-points-0",
        "action-at-limit", "action-past-limit", "subgroups-at-limit", "subgroups-past-limit"])
def test_config_boundaries(tmp_path, capsys, monkeypatch, argv, config, code):
    # the built-in library is left out: only the file is read and checked
    import heckework.cli as cli

    monkeypatch.setattr(cli, "standard_pairs", list)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(argv + [str(path)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ") == (code == 2)


def test_layer_trace_targets_resolve():
    # perfbench/layertrace.py wraps these names from outside; a rename in
    # src/ would otherwise only show up when the trace runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace_targets", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.TARGETS
    for module, attr_path, _, _ in layertrace.TARGETS:
        obj = importlib.import_module("heckework." + module)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), (module, attr_path)


def test_matrix_and_star_flags(capsys):
    code, data = run_json(
        capsys, "group", "--matrix", "1,3;3,1", "--star", "21"
    )
    assert code == 0
    assert data["twisted_involutions"] == ["e", "12", "21", "121"]


def test_cache_warm_equals_cold(tmp_path, capsys):
    args = ["kl", "--type", "A3", "--cache-dir", str(tmp_path)]
    code1, out1 = run(capsys, *args)
    assert code1 == 0
    assert any(tmp_path.iterdir())
    code2, out2 = run(capsys, *args)
    assert code2 == 0
    assert out1 == out2


def _write_table(path, records):
    path.write_bytes(MAGIC + struct.pack("<I", SCHEMA_VERSION) + b"".join(
        struct.pack("<I", len(k)) + k + struct.pack("<I", len(v)) + v
        for k, v in records.items()
    ))


def _rewrite_values(path, value):
    """Rewrite a table file with every record's value replaced by value(key,
    value); return the records it held."""
    records = CacheStore(path.parent).load_table(*path.stem.split("-", 1))
    _write_table(path, {k: value(k, v) for k, v in records.items()})
    return records


def _records(blob):
    """The (key, value) records of whole framed records, in file order."""
    out, pos = [], 0
    while pos < len(blob):
        (klen,) = struct.unpack_from("<I", blob, pos)
        (vlen,) = struct.unpack_from("<I", blob, pos + 4 + klen)
        out.append((blob[pos + 4 : pos + 4 + klen], blob[pos + 8 + klen : pos + 8 + klen + vlen]))
        pos += 8 + klen + vlen
    return out


@pytest.mark.parametrize(
    "value, pair, n_records",
    [(lambda k, v: v.replace(b'"0": 1', b'"0": 7'), ["2", "2132"], 55),
     (lambda k, v: b"not json", ["2", "2132"], 55),
     # ([], 121) edited from 1 to 1+u: well formed and within the degree bound
     (lambda k, v: b'{"v": {"0": 1, "1": 1}}' if k == b"[[], [0, 1, 0]]" else v,
      ["e", "121"], 13)],
    ids=["constant-term-7", "not-json", "well-formed-wrong-value"],
)
def test_bad_cache_records_are_recomputed(tmp_path, capsys, value, pair, n_records):
    # kl prints its cache-free text whatever the file holds, and replaces a
    # file of bad records by the true records of the columns it filled,
    # byte for byte what the same call writes to an empty directory
    argv = ["kl", "--type", "A3", "--y", pair[0], "--w", pair[1]]
    full = ["kl", "--type", "A3", "--cache-dir", str(tmp_path / "d")]
    plain = [run(capsys, "kl", "--type", "A3"), run(capsys, *argv)]
    assert run(capsys, *full) == plain[0]
    (path,) = (tmp_path / "d").iterdir()
    good = _rewrite_values(path, value)
    assert run(capsys, *argv, "--cache-dir", str(tmp_path / "d")) == plain[1]
    assert run(capsys, *argv, "--cache-dir", str(tmp_path / "fresh")) == plain[1]
    blob = path.read_bytes()
    assert blob == (tmp_path / "fresh" / path.name).read_bytes()
    fixed = _records(blob[len(MAGIC) + 4 :])
    assert len(fixed) == len(dict(fixed)) == n_records
    assert all(good[k] == v for k, v in fixed)
    # a call over the whole table writes every true record, and the call
    # after it writes nothing
    assert run(capsys, *full) == plain[0]
    assert CacheStore(path.parent).load_table(*path.stem.split("-", 1)) == good
    blob = path.read_bytes()
    assert run(capsys, *full) == plain[0]
    assert path.read_bytes() == blob


def test_verify_all_fails_recursion_equals_solver_on_a_wrong_kl_value(capsys, monkeypatch):
    # P_{2,2132} = u+1 served as 2u+1: the kl-oracle suite catches it with
    # the (y, w) witness, and no other check reads the wrong value
    real = KLTable.p

    def wrong(self, y, w):
        got = real(self, y, w)
        if (str(y), str(w)) == ("2", "2132"):
            got = got + LaurentPoly.monomial(1)
        return got

    monkeypatch.setattr(KLTable, "p", wrong)
    code, data = run_json(capsys, "verify-all", "--type", "A3")
    assert code == 1
    failed = [
        (r["suite"], c["id"], c["witness"])
        for r in data["reports"] for c in r["checks"] if not c["pass"]
    ]
    assert failed == [("kl-oracle", "recursion-equals-solver", ["2", "2132"])]


_CELL_DATA = "<cell-data file>"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["cells", "--type", "B3"],
         "0f2bad20fb1d1c7d0af5697d877b018024dcf4a30e31ddf5fd51ee50abc9c39c"),
        (["cells", "--type", "A4"],
         "6d216e7df11eb4680decbfbc145ba98164fe3be09cb217ab62eec9b3374d3a53"),
        (["invmod", "--type", "B3", "--tables"],
         "b9abdd3dab837d221821b843a75c91c1fa753c8d9ec2c473450b293983fad391"),
        (["verify-all", "--type", "B3"],
         "214dbf2f8c72c4799f9d2d5ff5fc512b2e33ae52351831c913322f5f8b46a6c4"),
        (["conj34", "--type", "B3"],
         "f47dc50a42125b2ddffd0a52902af516de175bb2af8c985d8792121eddfcae30"),
        # the truncated completion: X_v is trimmed to the window before the
        # half step divides, so no quotient past it is ever formed
        (["conj34", "--type", "Dinf", "--max-len", "9"],
         "15924c4de960ef11db8ab2ab5a6bdd56e707134e875995a497a5476d332a21c9"),
        (["eqvb"],
         "644ea93e600845effe0ce842797977879309ec5a46fcf7e3dcd0ec489211b06f"),
        (["jring", "--type", "A3", "--struct"],
         "424b242e7e46f5c4a6c9525069f602cdec9856158591b8bc70cd91f903d1785d"),
        (["invmod", "--type", "A2", "--star", "21", "--tables"],
         "75c08f3d869a7ffd8f51976795b1f4e0f15bdc497df3672b6a3405459938032e"),
        (["kl", "--type", "B3"],
         "834d8a9903a533d4b7d8023b98535b2958cdde40211a0f5c64b7bf7ce82832a8"),
        (["kl", "--type", "A4"],
         "e1c82a0f7a44f1e6c98a32236dd9bc48e0bfef0aff907619c0165faf74badb29"),
        (["kl", "--type", "A5"],
         "39a4e9d437a7562385017eacd7f09262ea86fe7a21a158c8d962e79cc816f541"),
        (["verify-all", "--type", "A3"],
         "3bb7168be81b7dd4fc660b36cb43436602648e166f72342261e5e1e336607e5f"),
        (["verify-all", "--type", "A3", "--star", "321"],
         "32f0ad210c9a2910d5ec734aa70718cd6f19c572cefeb8d4d6ab36f436d7f728"),
        (["cells", "--type", "G2"],
         "7d6e6c90e5f37a17dba0c30848c604b4f8f21f85d61965fc71b6811948b8d9aa"),
        (["cells", "--type", "I2(5)"],
         "a93a2fdab4242cfea9d74fc163617a11e4e65cae64b5e0ff8c12a8bcd3ba65d2"),
        (["jring", "--type", "B2"],
         "8f3bfcef1a9f17a8102d2e03f75653db00d6cc7ee30f909571e14364a9efa4d3"),
        (["eqvb", "--type", "B2", "--cell-data", _CELL_DATA],
         "c432c88923cc2eb77d758d9742070e3616d9a9ca7e3ab73e594534665472b6b8"),
        (["verify-all", "--type", "G2"],
         "5459fae4d5efea4852b1dbdbdea371dabc9bebb49b6d7b5eca31226230113f67"),
        (["kl", "--type", "G2"],
         "5c8cf8421ff89b796e91a293da746f2b70ece6f1e4394d389a1280ed514ea258"),
        (["jring", "--type", "B3"],
         "5a5a2546a62dc0d2536419b33183ee6c937619fba163adcbc87eb6a2a09e1aa8"),
        (["jring", "--type", "I2(5)"],
         "c52fdb5ce00189362d359a0c9ee8de8bda9baa9295794d8b788de2cc977ffab4"),
        (["jring", "--type", "B2", "--struct"],
         "4e2acbba8aa79600cb7e98946868c3c5b72bae250f49320127f053dab2ef95b1"),
        (["jring", "--type", "B3", "--struct"],
         "efbc0555d38331bfb475abf5ea80fce5676840a8256d90a5b8c2e3157fb4b146"),
        (["invmod", "--matrix", "1,3,2,2;3,1,3,3;2,3,1,2;2,3,2,1"],
         "d094b1a2c77ea21af1174808e0f7b4ce5d68e845ad9ac3da9525c40dc20f0318"),
        (["invmod", "--type", "A3", "--tables"],
         "dc85a2d46b2c76e920e26d128e3dba598b8aada2672a748b660dcebe963337ee"),
        (["cells", "--matrix", "1,3,2,2,2;3,1,3,2,2;2,3,1,3,3;2,2,3,1,2;2,2,3,2,1"],
         "50428a1250fbf68de49bf4ffa1c00cedaf9616f55f3f0965b1fd1285c370b3da"),
        (["cells", "--matrix", "1,3,2,2;3,1,4,2;2,4,1,3;2,2,3,1"],
         "edc05b1d5591047dc0471261588985212ec48ab8fb94c24be0fbe1fbb53b5be8"),
        (["pi", "--type", "Dinf", "--max-len", "12"],
         "7340ebbce1521de6479dc9e4c38dee6f2ad45b549a745ce5c75bbe79b9743fe3"),
        (["conj34", "--matrix", "1,3,3;3,1,3;3,3,1", "--max-len", "4"],
         "8172b9bf10321b77ea7553613b368faa460d9b81aacf773c3292f323f9550927"),
        (["pi", "--matrix", "1,3,3;3,1,3;3,3,1", "--max-len", "5"],
         "6f8bebdcae56ae5d0b1470c1dad4347620b201990cc0e7761bee90138da55613"),
        (["kl", "--type", "A4", "--y", "2", "--w", "1213214321"],
         "0398be30f76a595807735f9009e7a5fc87fe4293147484ca6442ad6612f2df16"),
        (["jring", "--matrix", "1,3,2,2;3,1,3,3;2,3,1,2;2,3,2,1"],
         "4d80f91143b63325886d466cb354e567ecbfb37262407b13e10422bff7bb4b05"),
        (["jring", "--matrix", "1,4,2,2;4,1,3,2;2,3,1,3;2,2,3,1"],
         "40633246da7c2d5f4f59c1d8f73d202dcf202e6f887d552730e7185287044ae5"),
        (["conj34", "--type", "Dinf", "--max-len", "20"],
         "1ea01cef9414edeb739d09a9c03fad4c7fbda20c5a3de52f014c97011c594238"),
        (["pi", "--type", "Dinf", "--max-len", "20"],
         "4acbb27159f687e3ece1341aaa4c155c9c84b4c7aa409776d54d7f7e71965564"),
        (["conj34", "--matrix", "1,3,3;3,1,3;3,3,1", "--max-len", "7"],
         "26dab8ed4e90850a364542a23063117b60f590fed4231528599e45d08209b34e"),
        # affine C2, the only window pin with a bond of 4
        (["conj34", "--matrix", "1,4,2;4,1,4;2,4,1", "--max-len", "6"],
         "84b2e0e0f7407e5ff1f81ee909bb34199942801eb526061d9beffa0ad8e8c12c"),
    ],
    ids=["cells-B3", "cells-A4", "invmod-B3-tables", "verify-all-B3", "conj34-B3", "conj34-Dinf-9",
         "eqvb", "jring-A3-struct", "invmod-A2-star-tables", "kl-B3", "kl-A4", "kl-A5",
         "verify-all-A3", "verify-all-A3-star-321", "cells-G2", "cells-I2(5)", "jring-B2",
         "eqvb-B2-cell-data", "verify-all-G2", "kl-G2", "jring-B3", "jring-I2(5)",
         "jring-B2-struct", "jring-B3-struct", "invmod-D4", "invmod-A3-tables", "cells-D5",
         "cells-F4", "pi-Dinf-12", "conj34-affine-A2-4", "pi-affine-A2-5", "kl-A4-one-pair",
         "jring-D4", "jring-B4", "conj34-Dinf-20", "pi-Dinf-20", "conj34-affine-A2-7",
         "conj34-affine-C2-6"],
)
def test_b3_stdout_is_unchanged(tmp_path, capsys, argv, digest):
    # cells and invmod recorded from the T-basis route, before the generator
    # recursion (cells-A4 with the boolean-matrix closure); verify-all and
    # conj34 while division and gcd still ran over Q; eqvb, jring --struct
    # and invmod with a nontrivial star before the K-ring tables were built
    # once and h_struct and f_constants shared one recursion; kl before the
    # LaurentPoly fast paths and the shared KL values; verify-all A3, cells
    # G2 and I2(5), jring B2 and eqvb --cell-data before the cell partition
    # was folded into CellData; verify-all and kl G2 while rank 2 with bonds
    # in {2, 3, 4, 6, inf} still ran on the matrix model; jring B3 and I2(5)
    # while gamma was read off the h_struct memo; jring B2 and B3 --struct
    # before the structure constants moved off the h_struct memo; invmod D4
    # and A3 --tables while beta was read off the f_constants memo; cells D5
    # and F4 while the preorders were closed by Warshall's algorithm; pi on
    # Dinf and affine A2, conj34 on affine A2 and kl A4 at one pair while
    # HeckeAlgebra still forwarded to the T-basis actions; jring D4 and B4
    # while its checks rebuilt the gamma table pair by pair; conj34 and pi on
    # Dinf at 20 and conj34 on affine A2 at 7 and affine C2 at 6 while each
    # X_w was memoized per (w, window) and tagged with its window
    if _CELL_DATA in argv:
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(
            {"cells": [{"representative": "1", "gamma_rank": 1, "subgroups": [[], []]}]}))
        argv = [str(path) if a == _CELL_DATA else a for a in argv]
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    # WORKBENCH_CACHE is ignored: --cache-dir is the one way to name the cache
    plain = run(capsys, "kl", "--type", "A2")
    monkeypatch.setenv("WORKBENCH_CACHE", str(tmp_path))
    assert run(capsys, "kl", "--type", "A2") == plain
    assert not any(tmp_path.iterdir())


def test_byte_identical_reruns(capsys):
    code1, out1 = run(capsys, "verify-all", "--type", "A2")
    code2, out2 = run(capsys, "verify-all", "--type", "A2")
    assert out1 == out2


def test_pretty_mode(capsys):
    code, out = run(capsys, "cells", "--type", "A2", "--pretty")
    assert code == 0
    assert "overall: PASS" in out


def test_internal_error_exit_code(capsys, monkeypatch):
    import heckework.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(cli, "count_check", boom)
    assert main(["eqvb"]) == 3


def test_jring_struct_export(capsys):
    code, out = run(capsys, "jring", "--type", "A2", "--struct")
    assert code == 0
    data = json.loads(out)
    entry = next(
        e for e in data["h_struct"] if e["x"] == "1" and e["y"] == "1"
    )
    assert entry["z"] == "1" and entry["h"]["pretty"] == "v+v^{-1}"


def test_invmod_f_table_export(capsys):
    code, out = run(capsys, "invmod", "--type", "A1", "--tables")
    assert code == 0
    data = json.loads(out)
    entry = next(
        e for e in data["f"] if e["x"] == "1" and e["w"] == "1" and e["wp"] == "1"
    )
    assert entry["f"]["pretty"] == "u+u^{-1}"


def test_a_left_cell_without_one_distinguished_involution_is_a_crash(capsys, monkeypatch):
    # a certificate failure, not the caller's usage error: exit 3 naming the cell
    monkeypatch.setattr(CellData, "distinguished_involutions", lambda self: [])
    assert main(["jring", "--type", "A2"]) == 3
    err = capsys.readouterr().err
    assert "internal error: AssertionError: left cell" in err
    assert "distinguished involutions [], not one" in err


def _drop_e(cd):
    # e, the distinguished involution of the left cell {e}, is lost
    cd._dist = tuple(d for d in cd.distinguished_involutions() if d.word)


def _raise_a_of_e(cd):
    # a(e) = 2 above a(1) = 1 with 1 <=_LR e; {e} is a cell of its own, and
    # the distinguished involutions were fixed with a, before the plant
    cd.a = {**cd.a, cd.system.identity: 2}


def _lower_a_of_cell_of_232(cd):
    # B3: a = 1 on the two-sided cell of 232 (a = 3), still constant on it,
    # below the cell of 13 (a = 2): 232 is its first element and the first
    # x to fail, 13 the first y above it of higher a
    c = cd.two_sided_cells[cd.two_sided_index(cd.system.element("232"))]
    cd.a = {**cd.a, **dict.fromkeys(c, 1)}


def _merge_first_cells(cd):
    # {e} and the cell of 1 (a = 0 and 1) listed as one two-sided cell
    first, second, *rest = cd.two_sided_cells
    cd.two_sided_cells = (first | second, *rest)


def _double_gamma_of_e(cd):
    # t_e t_e = 2 t_e: associativity and the cells still hold.  One read
    # fills the gamma table first, so that there is a table to plant into
    e = cd.system.identity
    cd.gamma_row(e, e)
    cd._gamma[e, e] = {e: 2}


def _split_off_1(cd):
    # 1 split off from its two-sided cell, with t_1 t_1 = t_1 != 0
    same = cd.same_two_sided
    cd.same_two_sided = lambda x, y: "1" not in (str(x), str(y)) and same(x, y)


def _double_gamma_of_12_21(cd):
    # A2: t_12 t_21 = 2 t_1, not t_1; 12 and 21 are not distinguished, so the
    # unit and the cells still hold, and (t_12 t_21) t_12 = 2 t_12 != t_12
    x, y, z = (cd.system.element(w) for w in ("12", "21", "1"))
    assert cd.gamma_row(x, y) == {z: 1}  # fills the table before the plant
    cd._gamma[x, y] = {z: 2}


def _double_gamma_of_12_21_at_1(cd):
    # B3: t_12 t_21 = 2 t_1 + t_121, not t_1 + t_121.  Of the 110,592
    # triples only 788 have a side the gamma table can make nonzero, and ten
    # of those fail, the first (t_12 t_21) t_12
    x, y, z = (cd.system.element(w) for w in ("12", "21", "1"))
    row = cd.gamma_row(x, y)  # fills the table before the plant
    cd._gamma[x, y] = {**row, z: 2 * row[z]}


def _drop_gamma_row(a, b):
    # t_a t_b = 0: a triple it fails on may be reached by one side only
    def plant(cd):
        x, y = cd.system.element(a), cd.system.element(b)
        assert cd.gamma_row(x, y)  # fills the table before the plant
        del cd._gamma[x, y]
    return plant


@pytest.mark.parametrize("command, label, plant, check, witness", [
    ("cells", "A3", _drop_e, "one-distinguished-per-left-cell", ["e"]),
    ("cells", "A3", _raise_a_of_e, "a-monotone", ["1", "e"]),
    ("cells", "B3", _lower_a_of_cell_of_232, "a-monotone", ["232", "13"]),
    ("cells", "A3", _merge_first_cells, "a-constant-on-cells",
     ["1", "12", "123", "2", "21", "23", "3", "32", "321", "e"]),
    ("jring", "A3", _double_gamma_of_e, "unit-identity", "e"),
    ("jring", "A3", _split_off_1, "cross-cell-vanishing", ["1", "1"]),
    ("jring", "A2", _double_gamma_of_12_21, "associativity", ["12", "21", "12"]),
    ("jring", "B3", _double_gamma_of_12_21_at_1, "associativity", ["12", "21", "12"]),
    # A2: with t_12 t_21 = 0, only t_12 (t_21 t_12) = t_12 reaches the failure;
    # with t_21 t_12 = 0, only (t_12 t_21) t_12 = t_12 does
    ("jring", "A2", _drop_gamma_row("12", "21"), "associativity", ["12", "21", "12"]),
    ("jring", "A2", _drop_gamma_row("21", "12"), "associativity", ["12", "21", "12"]),
], ids=["one-distinguished", "a-monotone", "a-monotone-B3", "a-constant", "unit-identity", "cross-cell",
        "associativity", "associativity-B3", "associativity-right-side-only",
        "associativity-left-side-only"])
def test_a_planted_cell_fault_fails_one_check_with_a_witness(
        capsys, monkeypatch, command, label, plant, check, witness):
    # one fault in the built CellData: exactly its check fails, exit 1.  A2
    # has 6^3 = 216 triples, so associativity checks every one
    built = CellData.__init__

    def planted(self, algebra):
        built(self, algebra)
        plant(self)

    monkeypatch.setattr(CellData, "__init__", planted)
    code, data = run_json(capsys, command, "--type", label)
    failed = [(c["id"], c["witness"]) for r in data["reports"]
              for c in r["checks"] if not c["pass"]]
    assert (code, failed) == (1, [(check, witness)])


def test_a_one_sided_unit_fault_fails_unit_identity(capsys, monkeypatch):
    # A2: t_1 t_12 = 2 t_12, so the left unit fails at 12 while t_12 u =
    # t_12 t_2 = t_12 holds; (t_1 t_1) t_12 != t_1 (t_1 t_12) fails too
    built = CellData.__init__

    def planted(self, algebra):
        built(self, algebra)
        x, y = self.system.element("1"), self.system.element("12")
        self._gamma[x, y] = {z: 2 * g for z, g in self.gamma_row(x, y).items()}

    monkeypatch.setattr(CellData, "__init__", planted)
    code, data = run_json(capsys, "jring", "--type", "A2")
    failed = [(c["id"], c["witness"]) for r in data["reports"]
              for c in r["checks"] if not c["pass"]]
    assert (code, failed) == (1, [("unit-identity", "12"), ("associativity", ["1", "1", "12"])])


def _plant_beta(monkeypatch, x, w, edit):
    # row (x, w) of the beta table edited once, right after the walk fills
    # it: every reader of the table sees the edit, and an empty row is dropped
    walk = InvolutionModule._beta_walk

    def planted(self, cells):
        fresh = self._beta is None
        got = walk(self, cells)
        if fresh:
            key = (self.system.element(x), self.system.element(w))
            row = edit(got[1].pop(key, {}))
            if row:
                got[1][key] = row
        return got

    monkeypatch.setattr(InvolutionModule, "_beta_walk", planted)


def test_a_doubled_beta_row_fails_module_associativity(capsys, monkeypatch):
    # A2: beta(12, 2) doubled.  Its support is unchanged and 12 is not
    # distinguished, so the single-row, unit and left-cell checks still
    # hold; A2 has 6 * 6 * 4 = 144 triples, so associativity checks every one
    _plant_beta(monkeypatch, "12", "2", lambda row: {wp: 2 * b for wp, b in row.items()})
    code, data = run_json(capsys, "invmod", "--type", "A2")
    failed = [(c["id"], c["witness"]) for r in data["reports"]
              for c in r["checks"] if not c["pass"]]
    assert (code, failed) == (1, [("module-associativity", ["12", "21", "1"])])


@pytest.mark.parametrize("label, x, w, edit, witness", [
    # beta(12, 2, 121) doubled, its support unchanged.  Of the 46,080 triples
    # only 320 have a side the tables can make nonzero; eight of those fail
    ("B3", "12", "2", lambda row: {wp: 2 * b if str(wp) == "121" else b for wp, b in row.items()},
     ["12", "21", "1"]),
    # beta(12, 2) dropped: (t_12 t_21) tau_1 = tau_1, and only the left side
    # reaches it, since t_12 (t_21 tau_1) = t_12 tau_2 = 0
    ("A2", "12", "2", lambda row: {}, ["12", "21", "1"]),
    # beta(123, 3) dropped: t_12 (t_23 tau_3) = t_12 tau_2 = tau_1, and only
    # the right side reaches it, since (t_12 t_23) tau_3 = t_123 tau_3 = 0
    ("A3", "123", "3", lambda row: {}, ["12", "23", "3"]),
], ids=["doubled-B3", "left-side-only", "right-side-only"])
def test_a_planted_beta_fault_fails_module_associativity(capsys, monkeypatch, label, x, w, edit,
                                                          witness):
    # the single-row checks are settled by the walk, before the edit, and x
    # is not distinguished, so the unit and left-cell checks still hold
    _plant_beta(monkeypatch, x, w, edit)
    code, data = run_json(capsys, "invmod", "--type", label)
    failed = [(c["id"], c["witness"]) for r in data["reports"]
              for c in r["checks"] if not c["pass"]]
    assert (code, failed) == (1, [("module-associativity", witness)])


def _e_from_second_descent_of_121(monkeypatch):
    # the rule read from s_2, a descent of 121 the map is not built from,
    # gives e: pi itself is unchanged, so only well-definedness fails
    step = IdealModel._pi_step

    def planted(self, pi, x, i):
        if str(x) == "121" and i != x.word[0]:
            return self.system.identity
        return step(self, pi, x, i)

    monkeypatch.setattr(IdealModel, "_pi_step", planted)


def _plant_in_pi_map(monkeypatch, edit):
    built = IdealModel.pi_map

    def planted(self):
        pi = built(self)
        edit(self.system, pi)
        return pi

    monkeypatch.setattr(IdealModel, "pi_map", planted)


def _pi_of_12_is_12(system, pi):
    # 12 is no involution, and 121 = 212 reads pi(12) from its descent s_2
    x = system.element("12")
    pi[x] = x


def _fiber_of_2_moved_to_e(system, pi):
    # 2 leaves the image, and e's fiber gains 2, whose length does not add up
    two = system.element("2")
    pi.update((x, system.identity) for x, w in pi.items() if w == two)


@pytest.mark.parametrize("plant, failed", [
    (_e_from_second_descent_of_121, [("pi-well-defined", ["121", ["121", "e"]])]),
    (lambda mp: _plant_in_pi_map(mp, _pi_of_12_is_12), [
        ("pi-well-defined", ["121", ["12", "121"]]),
        ("pi-involution-valued", ["12", "12"]),
        ("specialization-identity", ["121", ["12", "121", "21"], ["121", "21"]])]),
    (lambda mp: _plant_in_pi_map(mp, _fiber_of_2_moved_to_e), [
        ("pi-surjective", ["2"]),
        ("specialization-identity", ["2", ["2"], []]),
        ("length-identity", ["e", "2"])]),
], ids=["well-defined", "involution-valued", "surjective"])
def test_a_planted_pi_fault_fails_its_checks_with_witnesses(capsys, monkeypatch, plant, failed):
    # A3: each fault in the projection pi fails exactly the listed checks
    plant(monkeypatch)
    code, data = run_json(capsys, "pi", "--type", "A3")
    got = [(c["id"], c["witness"]) for r in data["reports"]
           for c in r["checks"] if not c["pass"]]
    assert (code, got) == (1, failed)


def _negated_at_the_first_signed_class(kr, i, j, out):
    # (U, kappa) for the first self-dual U comes back as (U, -kappa)
    return {k: -c for k, c in out.items()} if j == kr.kbar[0] else out


def _doubled_off_the_diagonal(kr, i, j, out):
    # every V that is no summand of the diagonal bundle acts twice over
    return out if i in kr.unit() else {k: 2 * c for k, c in out.items()}


def _assert_composition_witness_by_brute_force(first_failures, i_major):
    # every (ip, i, j) of the named Gamma-set, with (V_ip * V_i) . U_j !=
    # V_ip . (V_i . U_j): the witness is the least in (ip, i, j) order, and
    # i_major the least in the i-major order of the search it replaced
    name, witness = first_failures["composition"]
    kr = KRing(dict(standard_pairs())[name])
    nb = range(len(kr.basis))
    failing = [[ip, i, j] for ip in nb for i in nb for j in kr.kbar
               if kr.circ(kr.convolve_basis(ip, i), {j: 1}) != kr.circ({ip: 1}, kr.circ_basis(i, j))]
    assert (failing[0], min(failing, key=lambda t: (t[1], t[0], t[2]))) == (witness, i_major)


@pytest.mark.parametrize("edit, first_failures, i_major", [
    (_negated_at_the_first_signed_class, {
        "scalar-action": ("trivial-1pt", {"basis": 0, "g": 0, "phi": 0}),
        "unit-action": ("trivial-1pt", 0),
        "composition": ("trivial-1pt", [0, 0, 0])}, [0, 0, 0]),
    (_doubled_off_the_diagonal, {
        "composition": ("trivial-3pt", [1, 3, 0]),
        "scalar-action": ("z2-regular", {"basis": 0, "g": 1, "phi": 0})}, [3, 1, 4]),
], ids=["negated", "doubled"])
def test_a_planted_circ_fault_fails_its_checks_with_witnesses(
        capsys, monkeypatch, edit, first_failures, i_major):
    # the library: each fault in the circ product fails exactly the listed
    # checks, each first on the named pair with the given witness
    circ_basis = KRing.circ_basis
    monkeypatch.setattr(KRing, "circ_basis",
                        lambda self, i, j: edit(self, i, j, circ_basis(self, i, j)))
    code, data = run_json(capsys, "eqvb")
    first = {}
    for r in data["reports"]:
        for c in r["checks"]:
            if not c["pass"]:
                first.setdefault(c["id"], (r["system"], c["witness"]))
    assert (code, first) == (1, first_failures)
    _assert_composition_witness_by_brute_force(first_failures, i_major)


def test_a_failing_check_prints_its_witness_under_pretty(capsys, monkeypatch):
    # rank-formula passes with a witness, and only the failed check prints one
    circ_basis = KRing.circ_basis
    monkeypatch.setattr(KRing, "circ_basis", lambda self, i, j: _negated_at_the_first_signed_class(
        self, i, j, circ_basis(self, i, j)))
    code, out = run(capsys, "eqvb", "--pretty")
    assert (code, out.splitlines()[:4]) == (1, [
        "[eqvb-count] trivial-1pt",
        "  ok   rank-formula",
        "  ok   rank-bruteforce",
        "  FAIL scalar-action  witness={'g': 0, 'phi': 0, 'basis': 0}"])


def _doubled_off_the_unit(kr, i, j, out):
    # a product of two classes that are no summand of the diagonal bundle
    # comes out twice over, so the unit still holds
    unit = kr.unit()
    return out if i in unit or j in unit else {k: 2 * c for k, c in out.items()}


def _doubled_left_of_the_unit(kr, i, j, out):
    # a summand of the diagonal bundle times any other class comes out twice
    # over: the unit fails on the left and holds on the right
    unit = kr.unit()
    return {k: 2 * c for k, c in out.items()} if i in unit and j not in unit else out


@pytest.mark.parametrize("edit, first_failures, i_major", [
    (_doubled_off_the_unit, {
        "associativity": ("trivial-3pt", [1, 3, 2]),
        "composition": ("trivial-3pt", [1, 3, 0]),
        "psi-ring-hom": ("z2-regular", [[1, 0], [1, 0]]),
        "psi-central": ("z2-two-fixed-plus-regular", {"basis": 4, "g": 0, "phi": 1})}, [3, 1, 4]),
    (_doubled_left_of_the_unit, {
        "unit": ("trivial-3pt", 1),
        "associativity": ("trivial-3pt", [0, 0, 1]),
        "sigma-antiautomorphism": ("trivial-3pt", [0, 1]),
        "composition": ("trivial-3pt", [0, 1, 4]),
        "psi-central": ("trivial-3pt", {"basis": 1, "g": 0, "phi": 0}),
        "psi-ring-hom": ("z2-regular", [[0, 0], [1, 0]])}, [0, 1, 4]),
], ids=["doubled-off-the-unit", "doubled-left-of-the-unit"])
def test_a_planted_convolution_fault_fails_its_checks_with_witnesses(
        capsys, monkeypatch, edit, first_failures, i_major):
    # the library: each fault in the convolution product fails exactly the
    # listed checks, each first on the named pair with the given witness,
    # which for associativity is the first failing (i, j, k) of all nb^3
    convolve_basis = KRing.convolve_basis
    monkeypatch.setattr(KRing, "convolve_basis",
                        lambda self, i, j: edit(self, i, j, convolve_basis(self, i, j)))
    code, data = run_json(capsys, "eqvb")
    first = {}
    for r in data["reports"]:
        for c in r["checks"]:
            if not c["pass"]:
                first.setdefault(c["id"], (r["system"], c["witness"]))
    assert (code, first) == (1, first_failures)
    _assert_composition_witness_by_brute_force(first_failures, i_major)


def _negated_sigma(monkeypatch):
    # the sigma-twist of every class comes back negated: applied twice it is
    # still the identity on classes, but sigma of a basis element is no
    # basis element, and sigma(V * V') = -(sigma V' * sigma V)
    sigma = KRing.sigma
    monkeypatch.setattr(KRing, "sigma", lambda self, a: {k: -c for k, c in sigma(self, a).items()})


def _signature_negated_above_the_diagonal(monkeypatch):
    # the materialized traces change sign at every point (x, y) with x < y,
    # so no bundle on an off-diagonal orbit matches its sigma-twist
    signature = KRing.trace_signature

    def planted(self, cls):
        n = self.gs.size
        return {(p, g): -v if p // n < p % n else v
                for (p, g), v in signature(self, cls).items()}

    monkeypatch.setattr(KRing, "trace_signature", planted)


@pytest.mark.parametrize("plant, first_failures", [
    (_negated_sigma, {
        "sigma-involutive": ("trivial-1pt", 0),
        "sigma-antiautomorphism": ("trivial-1pt", [0, 0])}),
    (_signature_negated_above_the_diagonal, {
        "rank-bruteforce": ("z2-regular", {"brute": 1, "rank": 2})}),
], ids=["negated-sigma", "signature-negated-above-the-diagonal"])
def test_a_planted_sigma_or_signature_fault_fails_its_checks_with_witnesses(
        capsys, monkeypatch, plant, first_failures):
    # the library: each fault fails exactly the listed checks, each first on
    # the named pair with the given witness
    plant(monkeypatch)
    code, data = run_json(capsys, "eqvb")
    first = {}
    for r in data["reports"]:
        for c in r["checks"]:
            if not c["pass"]:
                first.setdefault(c["id"], (r["system"], c["witness"]))
    assert (code, first) == (1, first_failures)


def _graph_classes(kr):
    # the basis classes on an orbit of some (g y, y) with g != 0 and no
    # diagonal point: the off-diagonal summands of the Psi images
    n = kr.gs.size
    orbits = {kr._pair_orbit_of[kr.gs.act(g, o.base) * n + o.base]
              for g in kr.gs.group if g for o in kr.x_orbits}
    return {i for i, (oi, _) in enumerate(kr.basis)
            if oi in orbits and kr.pair_orbits[oi].base // n != kr.pair_orbits[oi].base % n}


def _doubled_right_of_a_graph_class(kr, i, j, out):
    # a summand of a Psi image times a class off the unit and off the Psi
    # images comes out twice over in that order only, so Psi(Y) * V != V * Psi(Y)
    graph = _graph_classes(kr)
    doubled = i in graph and j not in graph and j not in kr.unit()
    return {k: 2 * c for k, c in out.items()} if doubled else out


def _doubled_between_graph_classes(kr, i, j, out):
    # the product of two summands of Psi images comes out twice over, in
    # either order, so Psi(Y) * Psi(Y') != Psi(Y Y') and centrality holds
    graph = _graph_classes(kr)
    return {k: 2 * c for k, c in out.items()} if i in graph and j in graph else out


@pytest.mark.parametrize("edit, first_failures", [
    (_doubled_right_of_a_graph_class, {
        "associativity": ("z2-two-fixed-plus-regular", [4, 13, 10]),
        "sigma-antiautomorphism": ("z2-two-fixed-plus-regular", [4, 13]),
        "composition": ("z2-two-fixed-plus-regular", [13, 10, 0]),
        "psi-central": ("z2-two-fixed-plus-regular", {"basis": 10, "g": 1, "phi": 0}),
        "psi-ring-hom": ("v4-line-plus-point", [[2, 0], [0, 1]])}),
    (_doubled_between_graph_classes, {
        "composition": ("z2-regular", [1, 1, 0]),
        "psi-ring-hom": ("z2-regular", [[1, 0], [1, 0]]),
        "associativity": ("z2-two-fixed-plus-regular", [4, 13, 13])}),
], ids=["psi-central", "psi-ring-hom"])
def test_a_planted_psi_fault_fails_its_checks_with_witnesses(
        capsys, monkeypatch, edit, first_failures):
    # the library: each fault in the convolution beside the Psi images fails
    # exactly the listed checks, each first on the named pair with the given
    # witness
    convolve_basis = KRing.convolve_basis
    monkeypatch.setattr(KRing, "convolve_basis",
                        lambda self, i, j: edit(self, i, j, convolve_basis(self, i, j)))
    code, data = run_json(capsys, "eqvb")
    first = {}
    for r in data["reports"]:
        for c in r["checks"]:
            if not c["pass"]:
                first.setdefault(c["id"], (r["system"], c["witness"]))
    assert (code, first) == (1, first_failures)


def test_the_eqvb_suites_convolve_each_pair_once(capsys, monkeypatch):
    # the star and circ suites of one KRing read one convolution table, so
    # every (i, j) of a KRing that convolves is computed exactly once
    calls = {}
    convolve_basis = KRing.convolve_basis

    def spy(self, i, j):
        calls[self, i, j] = calls.get((self, i, j), 0) + 1
        return convolve_basis(self, i, j)

    monkeypatch.setattr(KRing, "convolve_basis", spy)
    assert run_json(capsys, "eqvb")[0] == 0
    rings = {kr for kr, _, _ in calls}
    assert len(rings) == 9 and all(kr.gs.size <= 4 for kr in rings)
    assert (max(calls.values()), len(calls)) == (1, sum(len(kr.basis) ** 2 for kr in rings))


def _raise_p_e(monkeypatch, word):
    # P_{e,w} = u P_{e,w} at the one w named, through the KL table: Delta(w)
    # = l(w) - 2 deg P_{e,w} drops by 2
    p = KLTable.p
    monkeypatch.setattr(KLTable, "p", lambda self, y, w: (
        p(self, y, w).shifted(1) if not y.word and str(w) == word else p(self, y, w)))


def test_an_a_below_the_structure_constants_is_caught_by_the_gamma_walk(
        capsys, monkeypatch):
    # Delta(1) = -1 lowers a on the left cell {1, 21, 321} to -1; the walk
    # meets h_{1,1,1} = v + v^-1 and stops with (x, w, z): exit 3
    _raise_p_e(monkeypatch, "1")
    assert main(["jring", "--type", "A3"]) == 3
    err = capsys.readouterr().err
    assert "internal error: AssertionError: deg h_{x,w,z} = 1 > a(z) = -1 at (1, 1, 1)" in err


def test_a_tie_of_the_least_delta_fails_one_distinguished(capsys, monkeypatch):
    # Delta(321) = 1 ties Delta(1) = 1 in the left cell {1, 21, 321}: a is
    # unchanged, and the cell holds two distinguished involutions
    _raise_p_e(monkeypatch, "321")
    code, data = run_json(capsys, "cells", "--type", "A3")
    failed = [(c["id"], c["witness"]) for r in data["reports"]
              for c in r["checks"] if not c["pass"]]
    assert (code, failed) == (1, [("one-distinguished-per-left-cell", ["1", "21", "321"])])


def test_a_rank_3_bond_of_5_is_a_usage_error(capsys):
    # H3 has no integral matrix model: the caller's usage error, not a crash
    assert main(["group", "--matrix", "1,5,2;5,1,3;2,3,1"]) == 2
    assert "bond order 5 has no integral model" in capsys.readouterr().err


# a --matrix cell: a small int, a blank, or one that is no Coxeter order
_CELL = st.one_of(st.integers(-2, 9).map(str),
                  st.sampled_from(["", " ", "x", "1.5", "+2", "-0", "12345678901234567890"]))


@st.composite
def _matrix_text(draw):
    # a symmetric matrix with 1 on the diagonal, then perhaps (one time in
    # four each) one cell replaced and one row cut short, joined by , and ;
    # or by spaces
    n = draw(st.integers(1, 4))
    rows = [["1"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.one_of(st.sampled_from(["0", "2", "3", "4", "6"]),
                                                     _CELL))
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_CELL)
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, n - 1))].pop()
    if draw(st.booleans()):
        return ";".join(",".join(row) for row in rows)
    return " ".join(cell for row in rows for cell in row)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_matrix_text(), st.one_of(st.none(), st.text("0123456789,x- ", max_size=5)))
def test_malformed_matrix_and_star_are_usage_errors(matrix, star):
    # whatever the text, the CLI runs or refuses it (exit 2), never crashes
    argv = ["group", "--matrix=" + matrix, "--max-len", "1"]
    if star is not None:
        argv.append("--star=" + star)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2), argv

import hashlib
import importlib
import importlib.util
import json
import struct
from pathlib import Path

import pytest

from heckework.cache import MAGIC, SCHEMA_VERSION, CacheStore
from heckework.cli import build_system, main, make_parser
from heckework.hecke import KLTable

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


KL_CASES = [
    ["--type", "A1"],
    ["--type", "A2"],
    ["--type", "A3"],
    ["--type", "B3"],
    ["--type", "G2"],
    ["--type", "I2(7)"],
    ["--type", "A3", "--star", "321"],
    ["--type", "Dinf", "--max-len", "6"],
    ["--type", "Dinf", "--max-len", "0"],
    ["--type", "A3", "--y", "2", "--w", "2132"],
    ["--type", "A3", "--y", "2132", "--w", "2"],
    ["--type", "A3", "--pretty"],
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


def test_verify_all_a2(capsys):
    code, data = run_json(capsys, "verify-all", "--type", "A2")
    assert code == 0
    assert data["passed"] is True
    suites = {r["suite"] for r in data["reports"]}
    assert {"kl-oracle", "cells", "jring", "invmod", "conj-eta",
            "specialization", "eqvb-count"} <= suites


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
        (["group", "--type", "A2", "--max-len", "-1"], None),
    ],
    ids=["cell-data-no-cells", "cell-data-no-gamma-rank", "cell-data-index-99",
         "cell-data-index-true", "cell-data-gamma-rank-str", "cell-data-subgroups-int",
         "gamma-config-no-subgroups", "negative-max-len"],
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
    """Rewrite a table file with every record's value replaced by value(v)."""
    records = CacheStore(path.parent).load_table(*path.stem.split("-", 1))
    _write_table(path, {k: value(v) for k, v in records.items()})
    return records


@pytest.mark.parametrize(
    "value",
    [lambda v: v.replace(b'"0": 1', b'"0": 7'), lambda v: b"not json"],
    ids=["constant-term-7", "not-json"],
)
def test_bad_cache_records_are_recomputed(tmp_path, capsys, value):
    plain = [run(capsys, "kl", "--type", "A3", *pair) for pair in ([], ["--y", "2", "--w", "2132"])]
    assert run(capsys, "kl", "--type", "A3", "--cache-dir", str(tmp_path)) == plain[0]
    (path,) = tmp_path.iterdir()
    good = _rewrite_values(path, value)
    assert run(capsys, "kl", "--type", "A3", "--y", "2", "--w", "2132",
               "--cache-dir", str(tmp_path)) == plain[1]
    assert run(capsys, "kl", "--type", "A3", "--cache-dir", str(tmp_path)) == plain[0]
    # each bad record was appended again, and the last record of a key wins
    assert CacheStore(tmp_path).load_table(*path.stem.split("-", 1)) == good


def test_verify_all_ignores_a_bad_cache(tmp_path, capsys):
    run(capsys, "kl", "--type", "A3", "--cache-dir", str(tmp_path))
    (path,) = tmp_path.iterdir()
    _rewrite_values(path, lambda v: v.replace(b'"0": 1', b'"0": 7'))
    code, data = run_json(capsys, "verify-all", "--type", "A3", "--cache-dir", str(tmp_path))
    assert code == 0
    assert data["passed"] is True


def test_verify_all_certifies_a_tampered_cache(tmp_path, capsys):
    # P_{2,2132} = u+1 edited to 2u+1 passes every cheap record invariant;
    # the kl-oracle suite catches it with the (y, w) witness
    run(capsys, "kl", "--type", "A3", "--cache-dir", str(tmp_path))
    (path,) = tmp_path.iterdir()
    records = CacheStore(tmp_path).load_table(*path.stem.split("-", 1))
    key = json.dumps([[1], [1, 0, 2, 1]]).encode()
    assert records[key] == b'{"v": {"0": 1, "1": 1}}'
    records[key] = b'{"v": {"0": 1, "1": 2}}'
    _write_table(path, records)
    code, data = run_json(capsys, "verify-all", "--type", "A3", "--cache-dir", str(tmp_path))
    assert code == 1
    failed = [
        (r["suite"], c["id"], c["witness"])
        for r in data["reports"] for c in r["checks"] if not c["pass"]
    ]
    assert ("kl-oracle", "recursion-equals-solver", ["2", "2132"]) in failed


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
        # the truncated completion keeps non-Laurent RationalFn coefficients
        (["conj34", "--type", "Dinf", "--max-len", "9"],
         "15924c4de960ef11db8ab2ab5a6bdd56e707134e875995a497a5476d332a21c9"),
    ],
    ids=["cells-B3", "cells-A4", "invmod-B3-tables", "verify-all-B3", "conj34-B3", "conj34-Dinf-9"],
)
def test_b3_stdout_is_unchanged(capsys, argv, digest):
    # cells and invmod recorded from the T-basis route, before the generator
    # recursion (cells-A4 with the boolean-matrix closure); the other three
    # while division and gcd still ran over Q
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WORKBENCH_CACHE", str(tmp_path))
    code, _ = run(capsys, "kl", "--type", "A2")
    assert code == 0
    assert any(tmp_path.iterdir())


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

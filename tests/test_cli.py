import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from heckework.cli import main


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


def test_kl_full_table(capsys):
    code, data = run_json(capsys, "kl", "--type", "A2")
    assert code == 0
    assert all(e["P"]["pretty"] == "1" for e in data["entries"])
    assert len(data["entries"]) == sum(
        1 for e in data["entries"]
    )  # well-formed list


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
    code1, out1 = run(capsys, "verify-all", "--type", "A2", "--jobs", "1")
    code2, out2 = run(capsys, "verify-all", "--type", "A2", "--jobs", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_usage_errors(capsys):
    assert main(["kl"]) == 2  # no system given
    assert main(["kl", "--type", "A2", "--y", "1"]) == 2  # --y without --w
    assert main(["nonsense"]) == 2
    assert main(["group", "--type", "Z9"]) == 2
    assert main(["conj34", "--type", "Dinf"]) == 2  # needs --max-len


_NO_CELLS = {"gamma": 1}
_NO_GAMMA_RANK = {"cells": [{"representative": "1", "subgroups": [[], []]}]}
_BAD_INDEX = {"cells": [{"index": 99, "gamma_rank": 1, "subgroups": [[], []]}]}


@pytest.mark.parametrize(
    "argv, config",
    [
        (["eqvb", "--type", "B2", "--cell-data"], _NO_CELLS),
        (["eqvb", "--type", "B2", "--cell-data"], _NO_GAMMA_RANK),
        (["eqvb", "--type", "B2", "--cell-data"], _BAD_INDEX),
        (["eqvb", "--gamma-config"], {"rank": 1}),
        (["group", "--type", "A2", "--max-len", "-1"], None),
    ],
    ids=["cell-data-no-cells", "cell-data-no-gamma-rank", "cell-data-index-99",
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

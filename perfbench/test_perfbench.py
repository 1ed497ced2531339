"""Tests for the benchmark itself, on the tiny system A2.

Run from the repository root::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402


def _span_table(tracer):
    n = len(tracer.span_start)
    return [
        (tracer.names[tracer.span_name[i]], tracer.span_start[i], tracer.span_end[i], tracer.span_parent[i])
        for i in range(n)
    ]


def test_self_time_is_duration_minus_children():
    class Toy:
        def outer(self):
            self.inner()
            self.inner()
            return self.leaf()

        def inner(self):
            return self.leaf()

        def leaf(self):
            return sum(range(2000))

    tracer = layertrace.Tracer()
    tracer.patch(Toy, "outer", "toy.outer")
    tracer.patch(Toy, "inner", "toy.inner")
    tracer.patch(Toy, "leaf", "toy.leaf", layertrace.COUNT)
    Toy().outer()
    tracer.restore()

    spans = _span_table(tracer)
    selfs = tracer.self_times()
    assert [s[0] for s in spans] == ["toy.outer", "toy.inner", "toy.inner"]
    for i, (_, start, end, _) in enumerate(spans):
        children = sum(e - s for _, s, e, parent in spans if parent == i)
        assert selfs[i] == pytest.approx((end - start) - children, abs=1e-12)
        assert selfs[i] >= 0
    stats = tracer.stats()
    assert stats["toy.outer"]["calls"] == 1
    assert stats["toy.inner"]["calls"] == 2
    assert stats["toy.leaf"]["calls"] == 3


def test_outermost_spans_only_the_outer_call():
    class Rec:
        def down(self, n):
            return 0 if n == 0 else 1 + self.down(n - 1)

    tracer = layertrace.Tracer()
    tracer.patch(Rec, "down", "rec.down", layertrace.OUTERMOST)
    assert Rec().down(5) == 5
    assert Rec().down(3) == 3
    tracer.restore()
    stats = tracer.stats()
    assert len(tracer.span_start) == 2
    assert stats["rec.down"]["calls"] == 10  # 6 + 4 calls, 2 spans


def test_a2_trace_reports_every_layer_metric(capsys):
    tracer = layertrace.Tracer()
    assert layertrace.traced_main(["verify-all", "--type", "A2"], tracer) == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["passed"] is True

    spans = _span_table(tracer)
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    assert [spans[i][0] for i in roots] == ["cli.main"]
    root_duration = spans[roots[0]][2] - spans[roots[0]][1]
    assert sum(tracer.self_times()) == pytest.approx(root_duration, rel=1e-9)

    metrics = tracer.layer_metrics()
    assert set(metrics) == set(layertrace.LAYER_METRICS)
    assert metrics["cells.CellData.calls"] == 2
    assert metrics["hecke.h_struct.calls"] > 0
    assert 0 < metrics["hecke.h_struct.miss_ratio"] <= 1
    assert metrics["cache.append.calls"] == 0
    assert metrics["laurent.mul.calls"] > 0


def _bindings():
    """Every attribute of every heckework module and of its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("heckework"):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_wrappers_are_removed_after_a_traced_run(capsys):
    import heckework.cli  # noqa: F401  (imports every traced module)

    before = _bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    assert _bindings() != before
    tracer.restore()
    assert layertrace.traced_main(["group", "--type", "A2"], layertrace.Tracer()) == 0
    capsys.readouterr()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def _a2_group_stdout():
    argv = run.cli_argv(["group", "--type", "A2"])
    return subprocess.run(argv, env=run.cli_env(), cwd=ROOT, capture_output=True, check=True).stdout


def test_a_flipped_stdout_byte_is_a_failure():
    out = _a2_group_stdout()
    ref = hashlib.sha256(out).hexdigest()
    assert run.verdict(out, 0, ref)
    for pos in (0, len(out) // 2, len(out) - 1):
        flipped = bytearray(out)
        flipped[pos] ^= 0x01
        assert not run.verdict(bytes(flipped), 0, ref)
    assert not run.verdict(out, 1, ref)


def test_run_call_checks_the_hash_and_reads_rusage():
    out = _a2_group_stdout()
    argv = run.cli_argv(["group", "--type", "A2"])
    good = run.run_call(argv, hashlib.sha256(out).hexdigest(), timeout=60)
    assert good.ok and good.wall > 0 and good.rss_mb > 1
    bad = run.run_call(argv, hashlib.sha256(out + b" ").hexdigest(), timeout=60)
    assert not bad.ok


def test_dir_digest_sees_a_write(tmp_path):
    (tmp_path / "kl-x.hwc").write_bytes(b"HWBC\x01\x00\x00\x00")
    before = run.dir_digest(tmp_path)
    assert run.dir_digest(tmp_path) == before
    with (tmp_path / "kl-x.hwc").open("ab") as fh:
        fh.write(b"\x00")
    assert run.dir_digest(tmp_path) != before


def test_reference_covers_every_workload():
    refs = json.loads(run.REFERENCE.read_text())["sha256"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    for w in run.WORKLOADS.values():
        assert len(refs[w.output]) == 64
        assert len(refs[w.setup_output]) == 64
    layer = {m["name"] for m in spec["per_layer"]}
    assert layer == set(layertrace.LAYER_METRICS) | {"trace.overhead_s"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-A3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout

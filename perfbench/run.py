#!/usr/bin/env python3
"""Benchmark for the heckework CLI.

Run from the repository root::

    python3 perfbench/run.py --workload verify-A3 --seed 1 --seconds 20 --trace 0

Every measured call is a real CLI subprocess, ``python -m heckework.cli ...``
with interpreter start included, made one at a time: a closed loop with one
client and no ``--jobs``.  Each call's stdout is checked against the sha256
recorded in ``perfbench/reference.json``; a nonzero exit or a different hash
counts as a failed call.  ``WORKBENCH_CACHE`` is removed from every call's
environment.

``--trace 0`` reports the end-to-end metrics of one workload:

- ``wall_s``: median wall seconds of one CLI call;
- ``peak_rss_mb``: median over calls of the child's max RSS, read per child
  with ``os.wait4``;
- ``setup_s``: median wall of ``heckework group`` on the same system, which
  covers interpreter start, import, system construction and enumeration.

``--trace 1`` makes one untraced call and one call traced by
``layertrace.py`` and reports the per-layer metrics, plus
``trace.overhead_s``, the traced wall minus the untraced one.

The inputs are fixed; the seed only shuffles the order of the calls.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Facts about the run (Python
version, nproc, load, commit, source line count) go to the line before it
and, with the per-call samples, to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

DEADLINE_S = 170.0  # a run never starts a call it cannot finish by then
SETUP_CALLS = 5

B4 = "1,4,2,2;4,1,3,2;2,3,1,3;2,2,3,1"


@dataclass(frozen=True)
class Workload:
    name: str
    label: str  # names the system in reference.json
    system: tuple
    command: tuple
    cache: str = ""  # "", "cold" (fresh directory per call) or "warm"

    @property
    def output(self):
        return "%s-%s" % (self.command[0], self.label)

    @property
    def setup_output(self):
        return "group-%s" % self.label


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-A3", "A3", ("--type", "A3"), ("verify-all",)),
        Workload("kl-B4-cold", "B4", ("--matrix", B4), ("kl",), "cold"),
        Workload("kl-B4-warm", "B4", ("--matrix", B4), ("kl",), "warm"),
    )
}


@dataclass
class Call:
    wall: float
    rss_mb: float
    ok: bool


def verdict(stdout, exit_code, reference):
    """A call passes only with exit 0 and the recorded stdout hash."""
    return exit_code == 0 and hashlib.sha256(stdout).hexdigest() == reference


def cli_env():
    env = dict(os.environ)
    env.pop("WORKBENCH_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_call(argv, reference, timeout):
    """Spawn one child, read its stdout to EOF and reap it with wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=cli_env(), cwd=ROOT)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(wall, usage.ru_maxrss / 1024.0, verdict(out, proc.returncode, reference))


def cli_argv(args):
    return [sys.executable, "-m", "heckework.cli", *args]


def dir_digest(path):
    """sha256 over the names and bytes of every file below path."""
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


class Invocation:
    """One benchmark invocation: the call log, the deadline and the caches."""

    def __init__(self, workload, refs, scratch, run_id):
        self.w = workload
        self.run_id = run_id
        self.refs = refs
        self.scratch = Path(scratch)
        self.t_start = time.perf_counter()
        self.calls = []  # (kind, Call)
        self.warm_dir = None
        self.warm_digest = None

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.t_start)

    def record(self, kind, call):
        self.calls.append((kind, call))
        return call

    def setup_call(self):
        argv = cli_argv(("group", *self.w.system))
        return self.record("setup", run_call(argv, self.refs[self.w.setup_output], self.remaining()))

    def cache_args(self):
        """Cache arguments of one call and a cleanup; both run untimed."""
        if self.w.cache == "cold":
            fresh = tempfile.mkdtemp(prefix="cold-", dir=self.scratch)

            def drop(ok):
                shutil.rmtree(fresh)
                return ok

            return ("--cache-dir", fresh), drop
        if self.w.cache == "warm":

            def unchanged(ok):
                # a warm call that writes to the cache counts as failed
                return dir_digest(self.warm_dir) == self.warm_digest and ok

            return ("--cache-dir", self.warm_dir), unchanged
        return (), lambda ok: ok

    def fill_warm_cache(self):
        self.warm_dir = str(self.scratch / "warm")
        argv = cli_argv((*self.w.command, *self.w.system, "--cache-dir", self.warm_dir))
        self.record("fill", run_call(argv, self.refs[self.w.output], self.remaining()))
        self.warm_digest = dir_digest(self.warm_dir)

    def workload_call(self, kind="timed", tracer_out=None):
        extra, done = self.cache_args()
        args = (*self.w.command, *self.w.system, *extra)
        if tracer_out is None:
            argv = cli_argv(args)
        else:
            argv = [sys.executable, str(HERE / "layertrace.py"), "--out", str(tracer_out),
                    "--run-id", str(self.run_id), "--", *args]
        call = run_call(argv, self.refs[self.w.output], self.remaining())
        call.ok = done(call.ok)
        return self.record(kind, call)

    def timed_loop(self, seconds, rng):
        """Closed loop for `seconds` of call time, setup calls interleaved."""
        slots = sorted(rng.randrange(3) for _ in range(SETUP_CALLS))
        busy, longest, n = 0.0, 0.0, 0
        while True:
            while slots and slots[0] <= n:
                slots.pop(0)
                self.setup_call()
            call = self.workload_call()
            n += 1
            busy += call.wall
            longest = max(longest, call.wall)
            if busy >= seconds or self.remaining() < 2 * longest + 5:
                break
        for _ in slots:
            self.setup_call()

    def traced_pair(self, rng, out):
        """One untraced and one traced call, in a seeded order."""
        Path(out).unlink(missing_ok=True)  # never read a summary left by an earlier run
        order = ["untraced", "traced"]
        rng.shuffle(order)
        for kind in order:
            self.workload_call(kind, out if kind == "traced" else None)
        traced = next(c for k, c in self.calls if k == "traced")
        untraced = next(c for k, c in self.calls if k == "untraced")
        try:
            summary = json.loads(Path(out).read_text())
        except (OSError, ValueError):
            summary = {"exit": None, "module": "", "metrics": {}, "write_s": 0.0}
        module = Path(summary["module"]).resolve()
        traced.ok = traced.ok and summary["exit"] == 0 and SRC in module.parents
        metrics = {name: summary["metrics"].get(name, 0) for name in layertrace.LAYER_METRICS}
        metrics["trace.overhead_s"] = traced.wall - summary["write_s"] - untraced.wall
        return metrics

    def walls(self, kind):
        return [c.wall for k, c in self.calls if k == kind]


def load_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    return units, whys


def commit_id():
    """The checked-out commit when the tree is a git checkout, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "heckework").glob("*.py")))


def summarize(values):
    if len(values) < 2:
        return "n=%d" % len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return "n=%d q1=%.4f q3=%.4f" % (len(values), q1, q3)


def parse_args(argv):
    p = argparse.ArgumentParser(description="heckework CLI benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    opts = parse_args(argv)
    if not (SRC / "heckework" / "cli.py").is_file():
        print("perfbench: no heckework sources under %s" % SRC, file=sys.stderr)
        return 2
    units, whys = load_benchmark_spec()
    if opts.workload not in whys:
        print("perfbench: %s is not listed in BENCHMARK.json" % opts.workload, file=sys.stderr)
        return 2
    refs = json.loads(REFERENCE.read_text())["sha256"]
    # An installed package runs from compiled bytecode, so no call should pay
    # for compiling it; this is a no-op once the bytecode is current.
    compileall.compile_dir(str(SRC / "heckework"), quiet=1)
    w = WORKLOADS[opts.workload]
    rng = random.Random(opts.seed)
    load_before = os.getloadavg()[0]
    WORK.mkdir(exist_ok=True)
    tag = "%s-seed%d" % (w.name, opts.seed)

    with tempfile.TemporaryDirectory(prefix=tag + "-", dir=WORK) as scratch:
        s = Invocation(w, refs, scratch, run_id=opts.seed)
        if w.cache == "warm":
            s.fill_warm_cache()
        if opts.trace:
            spans_dir = WORK / "spans"
            spans_dir.mkdir(exist_ok=True)
            out = spans_dir / (tag + ".json")
            metrics = s.traced_pair(rng, out)
        else:
            s.timed_loop(opts.seconds, rng)
            timed = [c for k, c in s.calls if k == "timed"]
            metrics = {
                "wall_s": statistics.median(c.wall for c in timed),
                "peak_rss_mb": statistics.median(c.rss_mb for c in timed),
                "setup_s": statistics.median(s.walls("setup")),
            }

    attempted = len(s.calls)
    failed = sum(1 for _, c in s.calls if not c.ok)
    facts = {
        "workload": w.name,
        "why": whys[w.name],
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "commit": commit_id(),
        "src_lines": src_lines(),
        "fail_frac": failed / attempted,
    }
    samples = {kind: s.walls(kind) for kind in ("fill", "setup", "timed", "untraced", "traced")}
    for kind, walls in samples.items():
        if walls:
            print("%-8s %s wall_s" % (kind, summarize(walls)))
    for name, value in metrics.items():
        shown = "%.6f" % value if isinstance(value, float) else value
        print("%-40s %16s %s" % (name, shown, units[name]))
    print("fail_frac %d/%d" % (failed, attempted))
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    record = {"facts": facts, "metrics": metrics, "samples": samples}
    (results / ("%s-trace%d.json" % (tag, opts.trace))).write_text(json.dumps(record, indent=1))
    print(json.dumps({"facts": facts}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

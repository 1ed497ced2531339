"""Outside-in layer trace for the heckework CLI.

The tracer wraps public functions of the modules under ``src/heckework``
from the outside, runs ``heckework.cli.main(argv)`` in this process, and
puts every original function back afterwards.  Nothing under ``src/`` is
edited.

Each target is traced in one of three ways:

- ``SPAN``: every call records a span (name, start, end, parent span, run id);
- ``OUTERMOST``: a recursive function records a span only at its outermost
  call and counts every call;
- ``COUNT``: hot leaf functions only bump a counter, so their time stays in
  the enclosing span.

Spans live in flat arrays in memory and are written out once, after the
run.  A span's self time is its duration minus the durations of its direct
children.

Run as a script, it traces one CLI call::

    PYTHONPATH=src python3 perfbench/layertrace.py --out FILE -- kl --type A3

The CLI's stdout passes through unchanged; FILE receives the per-layer
metrics and FILE.spans.json the spans.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from array import array

SPAN, OUTERMOST, COUNT = "span", "outermost", "count"


def _memo_size(args):
    # h_struct memoises into self._h_struct: a call that grows it was a miss
    return len(getattr(args[0], "_h_struct", ()))


def _memo_grew(before, args, result):
    return int(_memo_size(args) > before)


def _rows(before, args, result):
    return len(args[0])


def _record_bytes(before, args, result):
    return len(args[3]) + len(args[4])


def _records(before, args, result):
    return len(result)


# (module, attribute path, trace name, kind)
TARGETS = (
    ("coxeter", "CoxeterSystem.elements", "coxeter.elements", SPAN),
    ("coxeter", "CoxeterSystem.multiply", "coxeter.multiply", COUNT),
    ("coxeter", "CoxeterSystem.lower_interval", "coxeter.lower_interval", COUNT),
    ("coxeter", "CoxeterSystem.bruhat_leq", "coxeter.bruhat_leq", COUNT),
    ("laurent", "LaurentPoly.__mul__", "laurent.mul", COUNT),
    ("laurent", "LaurentPoly.__rmul__", "laurent.mul", COUNT),
    ("laurent", "LaurentPoly.__add__", "laurent.add", COUNT),
    ("laurent", "LaurentPoly.__radd__", "laurent.add", COUNT),
    ("laurent", "RationalFn.__init__", "laurent.rational", COUNT),
    ("hecke", "HeckeAlgebra.h_struct", "hecke.h_struct", SPAN),
    ("hecke", "HeckeAlgebra.mult", "hecke.mult", SPAN),
    ("hecke", "HeckeAlgebra.to_c", "hecke.to_c", SPAN),
    ("hecke", "HeckeAlgebra.kl_solved", "hecke.kl_solved", SPAN),
    ("hecke", "KLTable.__init__", "hecke.kl.load", SPAN),
    ("hecke", "KLTable.p", "hecke.kl.p", OUTERMOST),
    ("cells", "CellData.__init__", "cells.CellData", SPAN),
    ("cells", "CellData.j_mult", "cells.j_mult", SPAN),
    ("invmod", "InvolutionModule.f_constants", "invmod.f_constants", SPAN),
    ("invmod", "InvolutionModule.a_upper", "invmod.a_upper", SPAN),
    ("invmod", "InvolutionModule.ts_action", "invmod.ts_action", COUNT),
    ("invmod", "InvolutionModule.verify_section1", "invmod.verify_section1", SPAN),
    ("idealmod", "IdealModel.eta_check", "idealmod.eta_check", SPAN),
    ("idealmod", "canonical_rref", "idealmod.canonical_rref", SPAN),
    ("idealmod", "IdealModel.specialization_check", "idealmod.specialization_check", SPAN),
    ("eqvb", "count_check", "eqvb.count_check", SPAN),
    ("cache", "CacheStore.append", "cache.append", SPAN),
    ("cache", "CacheStore.load_table", "cache.load_table", SPAN),
    ("cli", "main", "cli.main", SPAN),
)

# trace name -> (extra statistic, hook before the call, hook after it)
EXTRAS = {
    "hecke.h_struct": ("miss", _memo_size, _memo_grew),
    "idealmod.canonical_rref": ("rows", None, _rows),
    "cache.append": ("bytes", None, _record_bytes),
    "cache.load_table": ("records", None, _records),
}

# Per-layer metric -> (trace name, statistic).  cli.self_s is main minus its
# children: argument parsing, command glue and the JSON emit.
LAYER_METRICS = {
    "coxeter.elements.self_s": ("coxeter.elements", "self_s"),
    "coxeter.multiply.calls": ("coxeter.multiply", "calls"),
    "coxeter.lower_interval.calls": ("coxeter.lower_interval", "calls"),
    "coxeter.bruhat_leq.calls": ("coxeter.bruhat_leq", "calls"),
    "laurent.mul.calls": ("laurent.mul", "calls"),
    "laurent.add.calls": ("laurent.add", "calls"),
    "laurent.rational.calls": ("laurent.rational", "calls"),
    "hecke.h_struct.self_s": ("hecke.h_struct", "self_s"),
    "hecke.h_struct.calls": ("hecke.h_struct", "calls"),
    "hecke.h_struct.miss_ratio": ("hecke.h_struct", "miss_ratio"),
    "hecke.mult.self_s": ("hecke.mult", "self_s"),
    "hecke.to_c.self_s": ("hecke.to_c", "self_s"),
    "hecke.kl.p.self_s": ("hecke.kl.p", "self_s"),
    "hecke.kl.p.calls": ("hecke.kl.p", "calls"),
    "hecke.kl.load.self_s": ("hecke.kl.load", "self_s"),
    "hecke.kl_solved.self_s": ("hecke.kl_solved", "self_s"),
    "hecke.kl_solved.calls": ("hecke.kl_solved", "calls"),
    "cells.CellData.calls": ("cells.CellData", "calls"),
    "cells.CellData.self_s": ("cells.CellData", "self_s"),
    "cells.j_mult.self_s": ("cells.j_mult", "self_s"),
    "invmod.f_constants.self_s": ("invmod.f_constants", "self_s"),
    "invmod.f_constants.calls": ("invmod.f_constants", "calls"),
    "invmod.a_upper.self_s": ("invmod.a_upper", "self_s"),
    "invmod.ts_action.calls": ("invmod.ts_action", "calls"),
    "invmod.verify_section1.self_s": ("invmod.verify_section1", "self_s"),
    "idealmod.eta_check.self_s": ("idealmod.eta_check", "self_s"),
    "idealmod.canonical_rref.self_s": ("idealmod.canonical_rref", "self_s"),
    "idealmod.canonical_rref.rows": ("idealmod.canonical_rref", "rows"),
    "idealmod.specialization_check.self_s": ("idealmod.specialization_check", "self_s"),
    "eqvb.count_check.self_s": ("eqvb.count_check", "self_s"),
    "cache.append.self_s": ("cache.append", "self_s"),
    "cache.append.calls": ("cache.append", "calls"),
    "cache.append.bytes": ("cache.append", "bytes"),
    "cache.load_table.self_s": ("cache.load_table", "self_s"),
    "cache.load_table.records": ("cache.load_table", "records"),
    "cli.self_s": ("cli.main", "self_s"),
}


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.counts = {}
        self._stack = [-1]
        self._undo = []

    # -- spans ------------------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers -----------------------------------------------------------------

    def wrap(self, fn, name, kind=SPAN):
        """A wrapper around fn that records into this tracer."""
        tracer = self
        nid = self.name_id(name)
        stat, before, after = EXTRAS.get(name, (None, None, None))
        extra_key = "%s.%s" % (name, stat)

        calls_key = name + ".calls"
        counts = self.counts
        if kind == COUNT:
            counts.setdefault(calls_key, 0)

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[calls_key] += 1
                return fn(*args, **kwargs)

            return counted

        if kind == OUTERMOST:
            counts.setdefault(calls_key, 0)
            depth = [0]

            @functools.wraps(fn)
            def outermost(*args, **kwargs):
                counts[calls_key] += 1
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] = 1
                idx = tracer.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                    depth[0] = 0

            return outermost

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            token = before(args) if before else None
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                tracer.bump(extra_key, after(token, args, result))
            return result

        return spanned

    def patch(self, owner, attr, name, kind=SPAN):
        """Replace owner.attr by a traced wrapper; `restore` undoes it."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._undo.append((owner, attr, original, had_own))
        setattr(owner, attr, self.wrap(original, name, kind))
        return original

    def restore(self):
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def install(self, targets=TARGETS, package="heckework"):
        """Wrap every target; module-level functions are also re-bound in each
        loaded module of the package that imported them by name."""
        importlib.import_module(package + ".cli")
        for module_name, path, name, kind in targets:
            module = importlib.import_module("%s.%s" % (package, module_name))
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                self.patch(owner, attr, name, kind)
                continue
            original = self.patch(module, attr, name, kind)
            wrapped = getattr(module, attr)
            for other_name, other in list(sys.modules.items()):
                if other is module or not other_name.startswith(package + "."):
                    continue
                if vars(other).get(attr) is original:
                    self._undo.append((other, attr, original, True))
                    setattr(other, attr, wrapped)

    # -- aggregation -------------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus its direct children's."""
        n = len(self.span_start)
        child = [0.0] * n
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += durations[i]
        return [durations[i] - child[i] for i in range(n)]

    def stats(self):
        """Per trace name: calls, self_s and the extra counters."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i, s in enumerate(self.self_times()):
            entry = out[self.names[self.span_name[i]]]
            entry["self_s"] += s
            entry["calls"] += 1
        for key, n in self.counts.items():
            name, _, stat = key.rpartition(".")
            out.setdefault(name, {"calls": 0, "self_s": 0.0})[stat] = n
        for entry in out.values():
            entry["miss_ratio"] = entry["miss"] / entry["calls"] if entry.get("miss") else 0.0
        return out

    def layer_metrics(self):
        stats = self.stats()
        return {
            metric: stats.get(name, {}).get(stat, 0)
            for metric, (name, stat) in LAYER_METRICS.items()
        }

    def spans_json(self):
        return {
            "names": self.names,
            "name": list(self.span_name),
            "start": list(self.span_start),
            "end": list(self.span_end),
            "parent": list(self.span_parent),
            "run": list(self.span_run),
        }


def traced_main(argv, tracer):
    """Run heckework.cli.main(argv) with every target wrapped; always unwrap."""
    tracer.install()
    try:
        cli = importlib.import_module("heckework.cli")
        return cli.main(argv)
    finally:
        tracer.restore()


def _main():
    parser = argparse.ArgumentParser(description="trace one heckework CLI call")
    parser.add_argument("--out", required=True, help="JSON file for metrics and spans")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv
    tracer = Tracer(run_id=opts.run_id)
    code = traced_main(argv, tracer)
    sys.stdout.flush()
    t0 = time.perf_counter()
    metrics = tracer.layer_metrics()
    with open(opts.out + ".spans.json", "w") as fh:
        json.dump(tracer.spans_json(), fh)
    summary = {
        "exit": code,
        "metrics": metrics,
        "module": importlib.import_module("heckework").__file__,
        "spans": len(tracer.span_start),
        # the caller takes this out of the traced wall
        "write_s": time.perf_counter() - t0,
    }
    with open(opts.out, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(_main())

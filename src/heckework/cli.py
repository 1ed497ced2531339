"""Command-line driver: runs the verifier suites and table exports with
deterministic JSON output.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage error,
3 internal error; a reader that closes stdout early does not change the
exit code.  `kl` fills its whole table before it writes a byte, then writes
the text one column at a time, so a failure leaves stdout empty and the
full text is never held at once; under --cache-dir it first writes the
table's records to a KL cache file, unless the file holds exactly them,
and never reads a value from it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cache import CacheStore, write_kl
from .cells import CellData
from .coxeter import CoxeterSystem
from .eqvb import (
    GammaSet,
    KRing,
    cell_consistency,
    circ_axioms_report,
    count_check,
    standard_pairs,
    star_axioms_report,
)
from .hecke import HeckeAlgebra, KLTable
from .idealmod import IdealModel
from .invmod import InvolutionModule
from .report import Check, Report, first_nonassociative

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
# the largest |Gamma| + |X| = 2^r + #points of a Gamma-set read from a file:
# the slowest one it admits (rank 3, four fixed points) runs eqvb in seconds
GAMMA_LIMIT = 16


def _add_common(p):
    p.add_argument("--type", dest="type_label", help="system label (A2, B2, G2, I2(7), Dinf, ...)")
    p.add_argument("--matrix", help="row-major Coxeter matrix, 0 = infinity (e.g. '1,3;3,1')")
    p.add_argument("--star", help="diagram involution as a digit string (e.g. '321')")
    p.add_argument("--max-len", type=int, default=None, help="length truncation for infinite systems")
    p.add_argument("--pretty", action="store_true", help="human-readable output")


def _parse_matrix(text):
    """The rows of --matrix: comma-separated integers, rows joined by ';'."""
    return [[int(x) for x in row.split(",") if x.strip() != ""] for row in text.split(";")]


def build_system(args):
    star = None
    if args.star:
        star = [int(ch) - 1 for ch in args.star.replace(",", "")]
    if args.type_label:
        return CoxeterSystem.from_label(args.type_label, star=star)
    if args.matrix:
        return CoxeterSystem(_parse_matrix(args.matrix), star=star)
    raise UsageError("provide --type or --matrix")


class UsageError(Exception):
    pass


def _system(args, infinite_only=False):
    """The system of --type/--matrix/--star.  --max-len may not be negative,
    and with infinite_only it may bound an infinite system only."""
    if args.max_len is not None and args.max_len < 0:
        raise UsageError("--max-len must be at least 0")
    sys_ = build_system(args)
    if infinite_only and args.max_len is not None and sys_.is_finite:
        raise UsageError("--max-len bounds infinite systems only, and %s is finite"
                         % sys_.describe())
    return sys_


def _context(args, need_cells=False, need_inv=False):
    sys_ = _system(args, need_cells or need_inv)
    alg = HeckeAlgebra(sys_)
    cells = CellData(alg) if need_cells else None
    inv = InvolutionModule(alg, max_len=args.max_len) if need_inv else None
    return sys_, alg, cells, inv


def _read_config(path, flag, parse):
    """parse(the JSON in path); a missing or ill-typed field is a usage error."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        return parse(data)
    except (KeyError, TypeError) as exc:
        raise UsageError("%s: missing or malformed field: %s: %s"
                         % (flag, type(exc).__name__, exc)) from None


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _cell_data_entries(data, sys_, cells):
    """(two-sided cell index, gamma rank, subgroups) per --cell-data entry.

    "index" is an int in 0..n-1 (or "representative" a word), "gamma_rank"
    an int r >= 0 and "subgroups" a list of lists of ints in 0..2^r - 1.
    """
    n_cells = len(cells.two_sided_cells)
    entries = []
    for entry in data["cells"]:
        if "index" in entry:
            idx = entry["index"]
        else:
            idx = cells.two_sided_index(sys_.element(entry["representative"]))
        if not _is_int(idx) or not 0 <= idx < n_cells:
            raise UsageError("--cell-data: no two-sided cell %r (there are %d)" % (idx, n_cells))
        rank, subgroups = entry["gamma_rank"], entry["subgroups"]
        _check_gamma("--cell-data", "gamma_rank", rank, subgroups)
        entries.append((idx, rank, subgroups))
    return entries


def _check_gamma(flag, field, rank, subgroups, points=None):
    """UsageError unless rank is an int r >= 0, subgroups a list of lists of
    ints in 0..2^r - 1 (generators of subgroups of (Z/2)^r), and the
    Gamma-set on `points` points (by default one coset space per list) has
    |Gamma| + |X| at most GAMMA_LIMIT; a larger one builds no table."""
    if not _is_int(rank) or rank < 0:
        raise UsageError("%s: %s %r is not an integer >= 0" % (flag, field, rank))
    if not isinstance(subgroups, list) or not all(
        isinstance(gens, list)
        and all(_is_int(g) and g >= 0 and g.bit_length() <= rank for g in gens)
        for gens in subgroups
    ):
        raise UsageError("%s: subgroups %r is not a list of lists of integers "
                         "in 0..2^%s - 1" % (flag, subgroups, field))
    if points is not None and (not _is_int(points) or points < 0):
        raise UsageError("%s: points %r is not an integer >= 0" % (flag, points))
    if points is None and rank < GAMMA_LIMIT.bit_length():
        points = GammaSet.coset_count(rank, subgroups)
    if rank >= GAMMA_LIMIT.bit_length() or (1 << rank) + points > GAMMA_LIMIT:
        raise UsageError("%s: the Gamma-set of %s %d is too large: |Gamma| + |X| "
                         "may be at most %d" % (flag, field, rank, GAMMA_LIMIT))


def _gamma_config(cfg):
    """The --gamma-config Gamma-set: {"rank", "subgroups"}, or {"rank",
    "points", "action"} with the action table checked by GammaSet."""
    if "action" in cfg:
        _check_gamma("--gamma-config", "rank", cfg["rank"], [], cfg["points"])
    else:
        _check_gamma("--gamma-config", "rank", cfg["rank"], cfg["subgroups"])
    return GammaSet.from_config(cfg)


def _poly_json(p):
    out = p.to_json()
    out["pretty"] = p.pretty()
    return out


def _elt_terms(coeffs):
    return [
        {"x": str(w), "coeff": _poly_json(c)}
        for w, c in sorted(coeffs.items(), key=lambda kv: kv[0].sort_key())
    ]


# -- subcommands ---------------------------------------------------------------


def cmd_group(args):
    sys_ = _system(args)
    els = sys_.elements(max_len=args.max_len)
    inv = sys_.twisted_involutions(max_len=args.max_len)
    payload = {
        "system": sys_.describe(),
        "elements": [{"w": str(w), "length": len(w.word)} for w in els],
        "twisted_involutions": [str(w) for w in inv],
    }
    return payload, []


def cmd_kl(args):
    # the whole table is filled, and the cache written, before the first
    # byte: a failure writes nothing, and a usage error creates no
    # --cache-dir directory
    sys_ = _system(args)
    enc = json.encoder.encode_basestring_ascii
    kl = KLTable(sys_)
    if args.y or args.w:
        if not (args.y and args.w):
            raise UsageError("--y and --w go together")
        y, w = sys_.element(args.y), sys_.element(args.w)
        col = {y.id: kl.column(w).get(y.id, 0)}  # 0, the handle of ZERO, unless y <= w
        label, columns = {y.id: enc(str(y))}, [(enc(str(w)), [y.id], col)]
    else:
        # entries sorted by (w, y), each by (len(str), str).  P_{y,w}(0) = 1
        # for y <= w, so every listed pair has a nonzero entry
        order = sorted(sys_.elements(max_len=args.max_len), key=lambda x: (len(str(x)), str(x)))
        for w in order:
            kl.column(w)
        rank = {x.id: r for r, x in enumerate(order)}
        label = {x.id: enc(str(x)) for x in order}
        # a walk over the filled table, whose columns stay in the KLTable;
        # only each column's sorted y list is transient
        columns = ((label[w.id], sorted(col, key=rank.__getitem__), col)
                   for w, col in zip(order, map(kl.column, order)))
    if args.cache_dir:
        write_kl(CacheStore(args.cache_dir), kl)
    return _kl_chunks(sys_, kl, label, columns), []


def _kl_chunks(system, kl, label, columns):
    """The `kl` payload {"entries": [{"P", "w", "y"}...], "system"} exactly as
    json.dumps(..., sort_keys=True, indent=2) writes it, and its newline, in
    chunks: the entries of each column (w label, its y ids in output order,
    {y id: handle of P_{y,w} in kl}), the first behind the head, then the
    tail.  An entry is a prefix per handle + a middle per column + label[y],
    closed by the separator that follows it.  Labels come through the C
    string encoder; there is at least one entry."""
    pre = {}  # handle -> the entry text up to the w label
    sep = '{\n  "entries": ['
    for lw, ys, col in columns:
        for h in set(col.values()).difference(pre):
            # P as json.dumps(..., sort_keys=True, indent=2) writes it in an entry
            pre[h] = '\n    {\n      "P": %s,\n      "w": ' % json.dumps(
                _poly_json(kl.value(h).subst_v_to_u()), sort_keys=True,
                indent=2).replace("\n", "\n      ")
        mid = lw + ',\n      "y": '
        yield sep + '\n    },'.join([pre[col[y]] + mid + label[y] for y in ys])
        sep = '\n    },'
    yield '\n    }\n  ],\n  "system": %s\n}\n' % json.encoder.encode_basestring_ascii(
        system.describe())


def cmd_cells(args):
    sys_, alg, cells, _ = _context(args, need_cells=True)
    payload = {
        "system": sys_.describe(),
        "two_sided_cells": [
            sorted(str(w) for w in c) for c in cells.two_sided_cells
        ],
        "left_cells": [sorted(str(w) for w in c) for c in cells.left_cells],
        "cell_order": cells.cell_order(),
        "a_values": {str(w): cells.a[w] for w in cells.elements},
        "distinguished_involutions": [
            str(d) for d in cells.distinguished_involutions()
        ],
    }
    rep = _cells_report(sys_, cells)
    # the first x <=_LR y with a(x) < a(y): y is scanned once row x meets higher a
    els, a = cells.elements, cells.a
    higher = {k: sum(1 << y.id for y in els if a[y] > k) for k in set(a.values())}
    bad = next(((str(x), str(y)) for x in els if (m := cells._leq_lr[x.id] & higher[a[x]])
                for y in els if m >> y.id & 1), None)
    rep.add("a-monotone", bad is None, bad)
    bad = next((sorted(str(w) for w in c) for c in cells.two_sided_cells
                if len({a[w] for w in c}) != 1), None)
    rep.add("a-constant-on-cells", bad is None, bad)
    return payload, [rep]


def cmd_jring(args):
    sys_, alg, cells, _ = _context(args, need_cells=True)
    els = cells.elements
    gamma_entries = sorted(
        ({"x": str(x), "y": str(y), "z": str(z.inverse()), "gamma": g}
         for (x, y), row in cells.gamma_table().items() for z, g in row.items()),
        key=lambda e: (e["x"], e["y"], e["z"]))
    cell_blocks, left_blocks = cells.j_blocks()
    payload = {
        "system": sys_.describe(),
        "gamma": gamma_entries,
        "unit": sorted(str(d) for d in cells.j_unit()),
        "cell_blocks": [
            {
                "basis": [str(w) for w in b["basis"]],
                "unit": sorted(str(d) for d in b["unit"]),
            }
            for b in cell_blocks
        ],
        "left_cell_blocks": [
            {
                "left_cell": sorted(str(w) for w in b["left_cell"]),
                "basis": [str(w) for w in b["basis"]],
                "unit": sorted(str(d) for d in b["unit"]),
            }
            for b in left_blocks
        ],
    }
    if args.struct:
        payload["h_struct"] = [
            {"x": str(x), "y": str(y), "z": str(z), "h": _poly_json(h)}
            for x in els
            for y in els
            for z, h in sorted(alg.h_struct(x, y).items(), key=lambda kv: kv[0].sort_key())
        ]
    return payload, [jring_report(sys_, cells)]


def jring_report(sys_, cells):
    """The J-ring checks: unit, associativity, cross-cell vanishing."""
    rep = Report("jring", sys_.describe())
    u, els = cells.j_unit(), cells.elements
    bad = next((str(w) for w in els
                if cells.j_mult(u, {w: 1}) != {w: 1} or cells.j_mult({w: 1}, u) != {w: 1}),
               None)
    rep.add("unit-identity", bad is None, bad)
    gamma = cells.gamma_table()
    bad = first_nonassociative(els, els, gamma, gamma)
    rep.add("associativity", bad is None, bad and tuple(map(str, bad)))
    bad = next(((str(x), str(y)) for x, y in gamma if not cells.same_two_sided(x, y)), None)
    rep.add("cross-cell-vanishing", bad is None, bad)
    return rep


def cmd_invmod(args):
    sys_, alg, cells, inv = _context(args, need_cells=True, need_inv=True)
    rep = inv.verify_section1(cells)
    payload = {"system": sys_.describe()}
    if args.tables:
        payload["psigma"] = [
            {"y": str(y), "w": str(w), "P": _poly_json(inv.psigma(y, w).subst_v_to_u())}
            for w in inv.basis
            for y in inv.basis
            if y in inv.a_upper(w)
        ]
        payload["f"] = [
            {"x": str(x), "w": str(w), "wp": str(wp), "f": _poly_json(f)}
            for x in cells.elements
            for w in inv.basis
            for wp, f in sorted(
                inv.f_constants(x, w).items(), key=lambda kv: kv[0].sort_key()
            )
        ]
        payload["beta"] = [
            {"x": str(x), "w": str(w), "wp": str(wp), "beta": b}
            for x in cells.elements
            for w in inv.basis
            for wp, b in sorted(inv._beta_row(x, w, cells).items(),
                                key=lambda kv: kv[0].sort_key())
        ]
    return payload, [rep]


def cmd_conj34(args):
    sys_, _, _, inv = _context(args, need_inv=True)
    ideal = IdealModel(inv)
    reports = []
    payload = {"system": sys_.describe(), "x_elements": []}
    if sys_.is_finite:
        rep, x_table = ideal.eta_check()
        reports.append(rep)
        payload["ideal_dimension"] = next(
            c.witness["dim"] for c in rep.checks if c.check_id == "ideal-dimension")
    elif args.max_len is None:
        raise UsageError("infinite system: pass --max-len")
    else:
        x_table = ideal.x_elements(max_len=args.max_len)
    for w in sorted(x_table, key=lambda w: w.sort_key()):
        elt = x_table[w]
        entry = {"w": str(w), "terms": _elt_terms(elt.coeffs)}
        if elt.exact_len is not None:
            entry["exact_up_to_length"] = elt.exact_len
        payload["x_elements"].append(entry)
    return payload, reports


def cmd_pi(args):
    sys_, _, _, inv = _context(args, need_inv=True)
    ideal = IdealModel(inv)
    rep, pi = ideal.specialization_check(max_len=args.max_len)
    fibers = ideal.pi_fibers(pi)
    payload = {
        "system": sys_.describe(),
        "pi": [
            {"x": str(x), "pi": str(w)}
            for x, w in sorted(pi.items(), key=lambda kv: kv[0].sort_key())
        ],
        "fibers": [
            {"w": str(w), "fiber": [str(x) for x in xs]}
            for w, xs in sorted(fibers.items(), key=lambda kv: kv[0].sort_key())
        ],
    }
    return payload, [rep]


def cmd_eqvb(args):
    reports = []
    payload = {"pairs": []}
    if args.gamma_config:
        pairs = [("config", _read_config(args.gamma_config, "--gamma-config", _gamma_config))]
    else:
        pairs = standard_pairs()
    for name, gs in pairs:
        kr = KRing(gs)
        rep = count_check(kr, name)
        reports.append(rep)
        payload["pairs"].append(
            {
                "name": name,
                "rank": gs.rank,
                "points": gs.size,
                "passed": rep.passed,
            }
        )
        if gs.size <= 4:
            reports.append(star_axioms_report(kr, name))
            reports.append(circ_axioms_report(kr, name))
    if args.cell_data:
        sys_, alg, cells, inv = _context(args, need_cells=True, need_inv=True)
        entries = _read_config(args.cell_data, "--cell-data",
                               lambda data: _cell_data_entries(data, sys_, cells))
        for idx, gamma_rank, subgroups in entries:
            reports.append(cell_consistency(cells, inv, idx, gamma_rank, subgroups))
        payload["system"] = sys_.describe()
    return payload, reports


def cmd_verify_all(args):
    sys_, alg, cells, inv = _context(args, need_cells=True, need_inv=True)
    ideal = IdealModel(inv)
    kl = Report("kl-oracle", sys_.describe())
    bad = None
    for w in cells.elements:
        for y in sys_.lower_interval(w):
            if alg.kl.p(y, w) != alg.kl_solved(y, w):
                bad = (str(y), str(w))
    kl.add("recursion-equals-solver", bad is None, bad)
    cells_rep = _cells_report(sys_, cells)
    # holds by construction: the W-graph generates z <=_LR x, y for z in c_x c_y
    cells_rep.add("support-constraint", True)
    # sequential over the one context: its lazily filled tables are not
    # thread-safe, and the suites are GIL-bound pure Python anyway
    reports = [
        kl,
        cells_rep,
        jring_report(sys_, cells),
        inv.verify_section1(cells),
        ideal.eta_check()[0],
        ideal.specialization_check()[0] if sys_.star_perm == tuple(range(sys_.rank))
        else Report("specialization", sys_.describe(), [Check("skipped-nontrivial-star", True)]),
        *(count_check(KRing(gs), name) for name, gs in standard_pairs()),
    ]
    return {"system": sys_.describe()}, reports


def _cells_report(sys_, cells):
    """A "cells" report opened with the check `cells` and verify-all share."""
    rep = Report("cells", sys_.describe())
    dist = cells.distinguished_involutions()
    bad = next((sorted(str(w) for w in lam) for lam in cells.left_cells
                if sum(1 for d in dist if d in lam) != 1), None)
    rep.add("one-distinguished-per-left-cell", bad is None, bad)
    return rep


# -- driver ---------------------------------------------------------------------


def _emit(payload, reports, pretty):
    """Write the output and return the exit code, which is settled before the
    first write: a reader that closes stdout early leaves it as it is."""
    passed = all(r.passed for r in reports)
    if isinstance(payload, dict):  # else text chunks rendered by the command (kl)
        if reports:
            payload = dict(payload, reports=[r.to_json() for r in reports], passed=passed)
        if pretty and reports:
            lines = [line for rep in reports for line in rep.pretty_lines()]
            lines.append("overall: %s" % ("PASS" if passed else "FAIL"))
            text = "\n".join(lines)
        else:
            text = json.dumps(payload, sort_keys=True, indent=2)
        payload = [text, "\n"]
    try:
        for chunk in payload:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull, so the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def make_parser():
    parser = argparse.ArgumentParser(
        prog="heckework",
        description="exact-arithmetic workbench for Hecke algebras, cells, "
        "involution modules and equivariant K-rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("group", help="enumerate elements and twisted involutions")
    _add_common(sp)
    sp.set_defaults(func=cmd_group)

    sp = sub.add_parser("kl", help="Kazhdan-Lusztig polynomials")
    _add_common(sp)
    sp.add_argument("--y")
    sp.add_argument("--w")
    sp.add_argument("--cache-dir", help="KL cache directory: written, never read for values")
    sp.set_defaults(func=cmd_kl)

    sp = sub.add_parser("cells", help="cells, a-function, distinguished involutions")
    _add_common(sp)
    sp.set_defaults(func=cmd_cells)

    sp = sub.add_parser("jring", help="gamma table and the asymptotic ring")
    _add_common(sp)
    sp.add_argument("--struct", action="store_true",
                    help="include the full structure-constant polynomials")
    sp.set_defaults(func=cmd_jring)

    sp = sub.add_parser("invmod", help="involution module verifier suite")
    _add_common(sp)
    sp.add_argument("--tables", action="store_true", help="include P^sigma/beta tables")
    sp.set_defaults(func=cmd_invmod)

    sp = sub.add_parser("conj34", help="ideal model: X elements and the eta certificate")
    _add_common(sp)
    sp.set_defaults(func=cmd_conj34)

    sp = sub.add_parser("pi", help="projection onto involutions and specialization checks")
    _add_common(sp)
    sp.set_defaults(func=cmd_pi)

    sp = sub.add_parser("eqvb", help="equivariant bundle counting checks")
    _add_common(sp)
    sp.add_argument("--gamma-config", help="JSON file with a Gamma-set")
    sp.add_argument("--cell-data", help="JSON file with per-cell Gamma data")
    sp.set_defaults(func=cmd_eqvb)

    sp = sub.add_parser("verify-all", help="run every suite for one system")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        payload, reports = args.func(args)
        return _emit(payload, reports, args.pretty)
    except (UsageError, ValueError, OSError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - crash surface, distinct exit code
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())

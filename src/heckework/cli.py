"""Command-line driver: runs the verifier suites and table exports with
deterministic JSON output.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage error,
3 internal error.  The KL memo table persists across runs via --cache-dir
or the WORKBENCH_CACHE environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cache import CacheStore
from .cells import CellData
from .coxeter import CoxeterSystem
from .eqvb import (
    GammaSet,
    cell_consistency,
    circ_axioms_report,
    count_check,
    standard_pairs,
    star_axioms_report,
)
from .hecke import HeckeAlgebra
from .idealmod import IdealModel
from .invmod import InvolutionModule
from .report import Check, Report, sample_triples

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _add_common(p):
    p.add_argument("--type", dest="type_label", help="system label (A2, B2, G2, I2(7), Dinf, ...)")
    p.add_argument("--matrix", help="row-major Coxeter matrix, 0 = infinity (e.g. '1,3;3,1')")
    p.add_argument("--star", help="diagram involution as a digit string (e.g. '321')")
    p.add_argument("--max-len", type=int, default=None, help="length truncation for infinite systems")
    p.add_argument("--cache-dir", default=None, help="persistent cache directory (or $WORKBENCH_CACHE)")
    p.add_argument("--pretty", action="store_true", help="human-readable output")


def _parse_matrix(text):
    if ";" in text:
        rows = [[int(x) for x in row.split(",") if x.strip() != ""] for row in text.split(";")]
        return rows
    flat = [int(x) for x in text.replace(",", " ").split()]
    n = int(round(len(flat) ** 0.5))
    if n * n != len(flat):
        raise ValueError("matrix needs n^2 entries")
    return [flat[i * n : (i + 1) * n] for i in range(n)]


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


def _store(args):
    root = args.cache_dir or os.environ.get("WORKBENCH_CACHE")
    return CacheStore(root) if root else None


def _context(args, need_cells=False, need_inv=False):
    if args.max_len is not None and args.max_len < 0:
        raise UsageError("--max-len must be at least 0")
    sys_ = build_system(args)
    alg = HeckeAlgebra(sys_, store=_store(args))
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
    n_cells = len(cells.partition.two_sided_cells)
    entries = []
    for entry in data["cells"]:
        if "index" in entry:
            idx = entry["index"]
        else:
            idx = cells.partition.two_sided_index(sys_.element(entry["representative"]))
        if not _is_int(idx) or not 0 <= idx < n_cells:
            raise UsageError("--cell-data: no two-sided cell %r (there are %d)" % (idx, n_cells))
        rank, subgroups = entry["gamma_rank"], entry["subgroups"]
        if not _is_int(rank) or rank < 0:
            raise UsageError("--cell-data: gamma_rank %r is not an integer >= 0" % (rank,))
        if not isinstance(subgroups, list) or not all(
            isinstance(gens, list)
            and all(_is_int(g) and g >= 0 and g.bit_length() <= rank for g in gens)
            for gens in subgroups
        ):
            raise UsageError("--cell-data: subgroups %r is not a list of lists of "
                             "integers in 0..2^gamma_rank - 1" % (subgroups,))
        entries.append((idx, rank, subgroups))
    return entries


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
    sys_, alg, _, _ = _context(args)
    els = sys_.elements(max_len=args.max_len)
    inv = sys_.twisted_involutions(max_len=args.max_len)
    payload = {
        "system": sys_.describe(),
        "elements": [{"w": str(w), "length": len(w.word)} for w in els],
        "twisted_involutions": [str(w) for w in inv],
    }
    return payload, []


def cmd_kl(args):
    sys_, alg, _, _ = _context(args)
    if args.y or args.w:
        if not (args.y and args.w):
            raise UsageError("--y and --w go together")
        pairs = [(sys_.element(args.y), sys_.element(args.w))]
    else:
        pairs = [(y, w) for w in sys_.elements(max_len=args.max_len)
                 for y in sys_.lower_interval(w)]
    # P_{y,w}(0) = 1 for y <= w, so every listed pair has a nonzero entry
    rows = [(str(y), str(w), alg.kl.p(y, w)) for y, w in pairs]
    rows.sort(key=lambda r: (len(r[1]), r[1], len(r[0]), r[0]))
    return _kl_text(sys_.describe(), rows), []


_KL_ENTRY = '\n    {\n      "P": %s,\n      "w": %s,\n      "y": %s\n    }'


def _kl_text(system, rows):
    """The `kl` payload {"entries": [{"P", "w", "y"}...], "system"} exactly as
    json.dumps(..., sort_keys=True, indent=2) writes it, with each distinct
    P rendered once and the labels through the C string encoder."""
    enc = json.encoder.encode_basestring_ascii
    frags = {}
    parts = []
    for y, w, p in rows:
        frag = frags.get(p)
        if frag is None:
            frag = frags[p] = json.dumps(
                _poly_json(p.subst_v_to_u()), sort_keys=True, indent=2
            ).replace("\n", "\n      ")
        parts.append(_KL_ENTRY % (frag, enc(w), enc(y)))
    entries = "[%s\n  ]" % ",".join(parts) if parts else "[]"
    return '{\n  "entries": %s,\n  "system": %s\n}' % (entries, enc(system))


def cmd_cells(args):
    sys_, alg, cells, _ = _context(args, need_cells=True)
    part = cells.partition
    payload = {
        "system": sys_.describe(),
        "two_sided_cells": [
            sorted(str(w) for w in c) for c in part.two_sided_cells
        ],
        "left_cells": [sorted(str(w) for w in c) for c in part.left_cells],
        "cell_order": sorted(list(p) for p in part.order_pairs),
        "a_values": {str(w): cells.a[w] for w in cells.elements},
        "distinguished_involutions": [
            str(d) for d in cells.distinguished_involutions()
        ],
    }
    rep = _cells_report(sys_, cells)
    mono = True
    for x in cells.elements:
        for y in cells.elements:
            if cells.leq_lr(x, y) and cells.a[x] < cells.a[y]:
                mono = False
    rep.add("a-monotone", mono)
    const = all(
        len({cells.a[w] for w in c}) == 1 for c in part.two_sided_cells
    )
    rep.add("a-constant-on-cells", const)
    return payload, [rep]


def cmd_jring(args):
    sys_, alg, cells, _ = _context(args, need_cells=True)
    gamma_entries = []
    struct_entries = []
    for x in cells.elements:
        for y in cells.elements:
            for z, h in sorted(
                alg.h_struct(x, y).items(), key=lambda kv: kv[0].sort_key()
            ):
                if args.struct:
                    struct_entries.append(
                        {"x": str(x), "y": str(y), "z": str(z), "h": _poly_json(h)}
                    )
                g = h.coeff_of_v(cells.a[z])
                if g:
                    gamma_entries.append(
                        {"x": str(x), "y": str(y), "z": str(z.inverse()), "gamma": g}
                    )
    gamma_entries.sort(key=lambda e: (e["x"], e["y"], e["z"]))
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
        payload["h_struct"] = struct_entries
    return payload, [jring_report(sys_, cells)]


def jring_report(sys_, cells):
    """The J-ring checks: unit, associativity, cross-cell vanishing."""
    rep = Report("jring", sys_.describe())
    u = cells.j_unit()
    rep.add(
        "unit-identity",
        all(
            cells.j_mult(u, {w: 1}) == {w: 1} and cells.j_mult({w: 1}, u) == {w: 1}
            for w in cells.elements
        ),
    )
    els = cells.elements
    bad = None
    for a, b, c in sample_triples(els, els, els):
        if cells.j_mult(cells.j_mult({a: 1}, {b: 1}), {c: 1}) != cells.j_mult(
            {a: 1}, cells.j_mult({b: 1}, {c: 1})
        ):
            bad = (str(a), str(b), str(c))
            break
    rep.add("associativity", bad is None, bad)
    rep.add(
        "cross-cell-vanishing",
        all(
            not cells.j_mult({x: 1}, {y: 1})
            for x in els
            for y in els
            if not cells.partition.same_two_sided(x, y)
        ),
    )
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
            if sys_.bruhat_leq(y, w) and inv.psigma(y, w)
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
            for (x, w), row in sorted(
                inv.beta_table(cells).items(),
                key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()),
            )
            for wp, b in sorted(row.items(), key=lambda kv: kv[0].sort_key())
        ]
    return payload, [rep]


def cmd_conj34(args):
    sys_, alg, _, inv = _context(args, need_inv=True)
    ideal = IdealModel(alg, inv)
    reports = []
    finite = sys_.is_finite is not False
    if finite:
        rep, x_table = ideal.eta_check()
        reports.append(rep)
        dim = next(c.witness["dim"] for c in rep.checks if c.check_id == "ideal-dimension")
    else:
        if args.max_len is None:
            raise UsageError("infinite system: pass --max-len")
        x_table = ideal.x_elements(max_w_len=args.max_len, max_len=args.max_len)
        dim = None
    payload = {"system": sys_.describe(), "x_elements": []}
    if dim is not None:
        payload["ideal_dimension"] = dim
    for w in sorted(x_table, key=lambda w: w.sort_key()):
        elt = x_table[w]
        entry = {"w": str(w), "terms": _elt_terms(elt.laurent_coeffs())}
        if elt.exact_len is not None:
            entry["exact_up_to_length"] = elt.exact_len
        payload["x_elements"].append(entry)
    return payload, reports


def cmd_pi(args):
    sys_, alg, _, inv = _context(args, need_inv=True)
    ideal = IdealModel(alg, inv)
    rep = ideal.specialization_check(max_len=args.max_len, window=args.max_len)
    pi = ideal.pi_map(max_len=args.max_len)
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
        pairs = [("config", _read_config(args.gamma_config, "--gamma-config",
                                         GammaSet.from_config))]
    else:
        pairs = standard_pairs()
    for name, gs in pairs:
        rep = count_check(gs, name)
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
            reports.append(star_axioms_report(gs, name))
            reports.append(circ_axioms_report(gs, name))
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
    ideal = IdealModel(alg, inv)
    kl = Report("kl-oracle", sys_.describe())
    bad = None
    for w in cells.elements:
        for y in sys_.lower_interval(w):
            if alg.kl.p(y, w) != alg.kl_solved(y, w):
                bad = (str(y), str(w))
    kl.add("recursion-equals-solver", bad is None, bad)
    cells_rep = _cells_report(sys_, cells)
    cells_rep.add(
        "support-constraint",
        all(
            cells.partition.preceq(z, x) and cells.partition.preceq(z, y)
            for x in cells.elements
            for y in cells.elements
            for z in alg.h_struct(x, y)
        ),
    )
    # sequential over the one context: its lazily filled tables are not
    # thread-safe, and the suites are GIL-bound pure Python anyway
    reports = [
        kl,
        cells_rep,
        jring_report(sys_, cells),
        inv.verify_section1(cells),
        ideal.eta_check()[0],
        ideal.specialization_check() if sys_.star_perm == tuple(range(sys_.rank))
        else Report("specialization", sys_.describe(), [Check("skipped-nontrivial-star", True)]),
        *(count_check(gs, name) for name, gs in standard_pairs()),
    ]
    return {"system": sys_.describe()}, reports


def _cells_report(sys_, cells):
    """A "cells" report opened with the check `cells` and verify-all share."""
    rep = Report("cells", sys_.describe())
    dist = cells.distinguished_involutions()
    rep.add(
        "one-distinguished-per-left-cell",
        all(sum(1 for d in dist if d in lam) == 1 for lam in cells.partition.left_cells),
    )
    return rep


# -- driver ---------------------------------------------------------------------


def _emit(payload, reports, pretty):
    if isinstance(payload, str):  # rendered by the command itself (kl)
        print(payload)
        return EXIT_OK
    if reports:
        payload = dict(payload)
        payload["reports"] = [r.to_json() for r in reports]
        payload["passed"] = all(r.passed for r in reports)
    if pretty:
        lines = []
        for rep in reports:
            lines.extend(rep.pretty_lines())
        if not reports:
            lines.append(json.dumps(payload, sort_keys=True, indent=2))
        else:
            lines.append("overall: %s" % ("PASS" if payload["passed"] else "FAIL"))
        print("\n".join(lines))
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    if reports and not all(r.passed for r in reports):
        return EXIT_CHECK_FAILED
    return EXIT_OK


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
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - crash surface, distinct exit code
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())

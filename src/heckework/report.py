"""Machine-readable pass/fail reports for the verifier suites.

Failures always carry a witness (the offending tuple, serialized with str);
check order is fixed by construction so reports are byte-stable.
"""

from __future__ import annotations


def first_nonassociative(xs, zs, product, action):
    """The first (x, y, z) of xs x xs x zs, in product order, with (x y) z !=
    x (y z), else None.  product maps (x, y) to the nonzero integer row {u: c}
    of x y, action (u, z) to the row {k: d} of u z.  Both sides are 0 unless
    row (x, y) has a u with a row (u, z), or row (y, z) a u with a row (x, u):
    only those triples are compared, keyed by position in xs and zs."""
    ix, iz, n = {x: i for i, x in enumerate(xs)}, {z: i for i, z in enumerate(zs)}, len(zs)
    prod, act, inside = {}, {}, {}  # x: [(y n n, u, c)]; u: [(z n + k, d)]; k: [((y n + z) n, d)]
    for (x, y), row in product.items():
        prod.setdefault(ix[x], []).extend((ix[y] * n * n, ix[u], c) for u, c in row.items())
    for (u, z), row in action.items():
        for k, d in row.items():
            act.setdefault(ix[u], []).append((iz[z] * n + iz[k], d))
            inside.setdefault(iz[k], []).append(((ix[u] * n + iz[z]) * n, d))
    for x in range(len(xs)):
        diff = {}  # (y n + z) n + k: the t_k coefficient of (x y) z - x (y z)
        for yb, u, c in prod.get(x, ()):
            for zk, d in act.get(u, ()):
                diff[yb + zk] = diff.get(yb + zk, 0) + c * d
        for uk, e in act.get(x, ()):
            for yzb, d in inside.get(uk // n, ()):
                diff[yzb + uk % n] = diff.get(yzb + uk % n, 0) - d * e
        bad = min((key for key, c in diff.items() if c), default=None)
        if bad is not None:
            return xs[x], xs[bad // n // n], zs[bad // n % n]
    return None


class Check:
    def __init__(self, check_id, passed, witness=None):
        self.check_id = check_id
        self.passed = passed
        self.witness = witness

    def to_json(self):
        out = {"id": self.check_id, "pass": self.passed}
        if not self.passed:
            out["witness"] = self.witness
        return out


class Report:
    def __init__(self, suite, system, checks=None):
        self.suite = suite
        self.system = system
        self.checks = [] if checks is None else checks

    def add(self, check_id, passed, witness=None):
        self.checks.append(Check(check_id, bool(passed), witness))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        return {
            "suite": self.suite,
            "system": self.system,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def pretty_lines(self):
        lines = ["[%s] %s" % (self.suite, self.system)]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            line = "  %s %s" % (mark, c.check_id)
            if not c.passed and c.witness is not None:
                line += "  witness=%r" % (c.witness,)
            lines.append(line)
        return lines

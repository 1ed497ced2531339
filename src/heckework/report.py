"""Machine-readable pass/fail reports for the verifier suites.

Failures always carry a witness (the offending tuple, serialized with str);
check order is fixed by construction so reports are byte-stable.
"""

from __future__ import annotations

import itertools
import random


def sample_triples(xs, ys, zs):
    """The triples a three-variable law is checked on: every triple when there
    are at most 4000, else 2000 seeded draws (from xs, then ys, then zs)."""
    if len(xs) * len(ys) * len(zs) <= 4000:
        return itertools.product(xs, ys, zs)
    rng = random.Random(0)
    return ((rng.choice(xs), rng.choice(ys), rng.choice(zs)) for _ in range(2000))


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

"""The benchmark's own exact arithmetic, written apart from thincert.

Generators and the result checker use it so that no verdict about a
thincert answer rests on thincert code.  ``p`` is a prime modulus, or None
for the rationals (``Fraction``).
"""

from __future__ import annotations

import random
from fractions import Fraction


class Arith:
    def __init__(self, p: int | None):
        self.p = p
        self.zero = 0 if p is not None else Fraction(0)
        self.one = 1 if p is not None else Fraction(1)

    def add(self, x, y):
        return (x + y) % self.p if self.p is not None else x + y

    def mul(self, x, y):
        return (x * y) % self.p if self.p is not None else x * y

    def neg(self, x):
        return (-x) % self.p if self.p is not None else -x

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, -1, self.p) if self.p is not None else 1 / x

    def rand_nonzero(self, rng: random.Random):
        if self.p is not None:
            return rng.randrange(1, self.p)
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))

    # sparse vectors are {index: value} dicts without zeros --------------

    def mat_vec(self, rows: list[dict], x: dict) -> dict:
        out = {}
        for i, row in enumerate(rows):
            acc = self.zero
            for j, v in row.items():
                xv = x.get(j)
                if xv is not None:
                    acc = self.add(acc, self.mul(v, xv))
            if acc != 0:
                out[i] = acc
        return out

    def vec_mat(self, y: dict, rows: list[dict]) -> dict:
        out: dict = {}
        for i, c in y.items():
            for j, v in rows[i].items():
                w = self.add(out.get(j, self.zero), self.mul(c, v))
                if w == 0:
                    out.pop(j, None)
                else:
                    out[j] = w
        return out

    def dot(self, x: dict, y: dict):
        acc = self.zero
        for i, v in x.items():
            w = y.get(i)
            if w is not None:
                acc = self.add(acc, self.mul(v, w))
        return acc

    def rank(self, rows: list[dict]) -> int:
        """Rank by eliminating against pivots keyed on each row's top column."""
        pivots: dict[int, dict] = {}
        for row in rows:
            r = {j: v for j, v in row.items() if v != 0}
            while r:
                top = max(r)
                piv = pivots.get(top)
                if piv is None:
                    pivots[top] = r
                    break
                f = self.mul(r[top], self.inv(piv[top]))
                for j, v in piv.items():
                    w = self.add(r.get(j, self.zero), self.neg(self.mul(f, v)))
                    if w == 0:
                        r.pop(j, None)
                    else:
                        r[j] = w
        return len(pivots)

    def consistent(self, rows: list[tuple[dict, object]]) -> bool:
        """Whether the equations ``row . x = rhs`` have a common solution."""
        aug = []
        for row, rhs in rows:
            r = dict(row)
            if rhs != 0:
                r[-1] = rhs          # the rhs column sorts below every variable
            aug.append(r)
        plain = [{j: v for j, v in r.items() if j >= 0} for r in aug]
        return self.rank(aug) == self.rank(plain)

    def proportional(self, x: dict, y: dict) -> bool:
        if x.keys() != y.keys() or not x:
            return False
        k = min(x)
        s, t = x[k], y[k]
        return all(self.mul(x[i], t) == self.mul(y[i], s) for i in x)

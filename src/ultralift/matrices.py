"""Square matrices over a ground ring: determinant, adjugate, Jacobian.

Determinants and adjugates are computed by division-free expansion
(column-subset dynamic programming), because valuations of exact
determinants drive solver hypotheses and must never pass through a lossy
division.  Systems in scope are tiny, so the 2^n cost is irrelevant.
"""

from __future__ import annotations

from typing import Sequence

from .errors import UsageError
from .polynomials import MultiPoly, _zero_like
from .values import ValuedVector


class ValuedMatrix:
    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise UsageError("ValuedMatrix must be square and non-empty")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("ValuedMatrix is immutable")

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def apply(self, vec) -> ValuedVector:
        entries = list(vec)
        if len(entries) != self.n:
            raise UsageError("matrix/vector size mismatch")
        out = []
        for row in self.rows:
            acc = row[0] * entries[0]
            for a, x in zip(row[1:], entries[1:]):
                acc = acc + a * x
            out.append(acc)
        return ValuedVector(out)

    def __mul__(self, other):
        if isinstance(other, ValuedMatrix):
            if other.n != self.n:
                raise UsageError("matrix size mismatch")
            n = self.n
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    acc = self.rows[i][0] * other.rows[0][j]
                    for k in range(1, n):
                        acc = acc + self.rows[i][k] * other.rows[k][j]
                    row.append(acc)
                rows.append(row)
            return ValuedMatrix(rows)
        if isinstance(other, (ValuedVector, list, tuple)):
            return self.apply(other)
        return NotImplemented

    def __sub__(self, other: "ValuedMatrix") -> "ValuedMatrix":
        return ValuedMatrix([[a - b for a, b in zip(r1, r2)]
                             for r1, r2 in zip(self.rows, other.rows)])

    def identity_like(self) -> "ValuedMatrix":
        zero = _zero_like(self.rows[0][0])
        one = _one_like(self.rows[0][0])
        return ValuedMatrix([[one if i == j else zero for j in range(self.n)]
                             for i in range(self.n)])

    def determinant(self):
        return _det(self.rows, list(range(self.n)), list(range(self.n)))

    def adjugate(self) -> "ValuedMatrix":
        """Cofactor transpose: M * adj(M) = det(M) * E exactly."""
        n = self.n
        if n == 1:
            return ValuedMatrix([[_one_like(self.rows[0][0])]])
        adj = [[None] * n for _ in range(n)]
        idx = list(range(n))
        for i in range(n):
            for j in range(n):
                m = _det(self.rows, idx[:i] + idx[i + 1:], idx[:j] + idx[j + 1:])
                adj[j][i] = m if (i + j) % 2 == 0 else -m
        return ValuedMatrix(adj)

    def __repr__(self):
        return f"ValuedMatrix({[list(r) for r in self.rows]!r})"


def _one_like(x):
    if hasattr(x, "one_like"):
        return x.one_like()
    return _zero_like(x) + 1


def _det(rows, row_idx, col_idx):
    """Division-free determinant of the submatrix row_idx x col_idx via a
    Laplace expansion organized over column subsets."""
    n = len(row_idx)
    if n == 0:
        raise UsageError("empty determinant")
    if n == 1:
        return rows[row_idx[0]][col_idx[0]]
    cols = list(col_idx)
    # dp state after the first row: signed single-column entries
    prev = {}
    r0 = row_idx[0]
    for cj in cols:
        prev[frozenset([cj])] = rows[r0][cj]
    for ri in row_idx[1:]:
        cur = {}
        for subset, val in prev.items():
            # expanding along the freshly added row: sign is the parity of
            # (row position within the submatrix) + (column position in S)
            for cj in cols:
                if cj in subset:
                    continue
                before = sum(1 for c in subset if c < cj)
                term = val * rows[ri][cj]
                if (len(subset) + before) % 2:
                    term = -term
                key = subset | {cj}
                cur[key] = cur[key] + term if key in cur else term
        prev = cur
    (final,) = prev.values()
    return final


def jacobian(fs: Sequence[MultiPoly], b: Sequence) -> ValuedMatrix:
    """Jacobian matrix of a square polynomial system at b: entry (k, i) is
    the Hasse derivative of f_k along variable i, evaluated at b."""
    fs = list(fs)
    n = len(fs)
    if n == 0 or any(f.nvars != n for f in fs):
        raise UsageError("jacobian needs n polynomials in n variables")
    rows = []
    for f in fs:
        rows.append([f.partial(i).eval(b) for i in range(n)])
    return ValuedMatrix(rows)

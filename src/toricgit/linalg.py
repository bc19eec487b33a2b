"""Exact linear algebra over QQ and ZZ.

Everything here works on tuples of ints / fractions.Fraction; no floats, no
machine-word arithmetic.  Floats are not accepted: ``dot`` and ``vec_add``
work unboxed (ints give ints) and would pass floats on.  Three layers:

* one fraction-free elimination, ``echelon`` (Bareiss), on rows scaled to
  integers: it gives the exact rank, the reduced row echelon form in its
  canonical integer multiple (``rref``), and from that form the kernel and
  the solutions of linear systems (divided into Fractions only there),
* integer lattice normal forms (row-style Hermite form, kernels, a
  diagonal form with its transforms for right inverses),
* Fourier-Motzkin feasibility for mixed strict/non-strict rational systems,
  with witness-point extraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Optional, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
IntVec = tuple[int, ...]
Scalar = int | Fraction  # what the unboxed helpers return


def frac_vec(v: Sequence) -> Vec:
    return tuple(Fraction(x) for x in v)


def frac_mat(rows: Sequence[Sequence]) -> Mat:
    return tuple(frac_vec(r) for r in rows)


def dot(a: Sequence, b: Sequence) -> Scalar:
    if len(a) != len(b):
        raise ValueError(f"dot: length mismatch {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


def vec_add(a: Sequence, b: Sequence) -> tuple[Scalar, ...]:
    return tuple(map(add, a, b))


def vec_scale(c, a: Sequence) -> Vec:
    c = Fraction(c)
    return tuple(c * Fraction(x) for x in a)


def barycenter(points: Sequence[Sequence]) -> tuple[Fraction, ...]:
    """The mean of a nonempty list of points."""
    return tuple(Fraction(sum(col), len(points)) for col in zip(*points))


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple[Scalar, ...]:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple[tuple[Scalar, ...], ...]:
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity_mat(n: int) -> tuple[IntVec, ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m: Sequence[Sequence]) -> Mat:
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0]))) if m else ()


# ---------------------------------------------------------------------------
# exact elimination


def echelon(
    rows: Sequence[Sequence[int]], reduce: bool = True
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix; returns
    (nonzero rows, pivot columns, d), d the last pivot.

    Each step replaces a row by (p*row - a*top) // prev, where top is the
    pivot row, p its pivot, a the row's entry in the pivot column and prev
    the previous pivot.  Every entry stays an integer minor, so each
    division is exact (Bareiss 1968).  With ``reduce`` the rows above the
    pivot are cleared too (Gauss-Jordan); that leaves every pivot equal to
    d, so the rows divided by d are the reduced row echelon form.  Without
    it only the rows below are cleared, which is enough for the rank."""
    m = [list(row) for row in rows]
    pivots: list[int] = []
    r, d = 0, 1
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        for i in range(0 if reduce else r + 1, len(m)):
            if i != r:
                a = m[i][c]
                m[i] = [(p * x - a * y) // d for x, y in zip(m[i], top)]
        d = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots, d


def int_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Rational rows, each scaled by its common denominator (same span)."""
    out = []
    for row in rows:
        m = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (m // x.denominator) for x in row])
    return out


def rref(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form times D, the least positive integer that
    makes every entry an integer; returns (nonzero rows, pivot columns).
    Every pivot equals D, so equal row spaces give equal rows: the
    Gauss-Jordan rows of ``echelon`` (pivots d) divided by +-gcd(d, entries)."""
    reduced, pivots, d = echelon(int_rows(rows))
    g = gcd(d, *(x for row in reduced for x in row)) * (1 if d > 0 else -1)
    return [[x // g for x in row] for row in reduced], pivots


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    return len(echelon(rows, reduce=False)[1])


def kernel(reduced: Sequence[Sequence[int]], pivots: Sequence[int], n: int) -> list[Vec]:
    """Basis of the solutions in QQ^n of the homogeneous system in ``rref``
    form (every pivot the same D): one vector per free column."""
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [Fraction(0)] * n
            v[f] = Fraction(1)
            for row, p in zip(reduced, pivots):
                v[p] = Fraction(-row[f], row[p])
            basis.append(tuple(v))
    return basis


def affine_solution_space(
    eqs: Sequence[tuple[Sequence, Fraction]], n: int
) -> Optional[tuple[Vec, list[Vec]]]:
    """Solutions of the system {a.x = c}: (particular point, direction basis),
    or None when inconsistent; both read off one reduced form of [a | c]."""
    reduced, pivots = rref([[*a, c] for a, c in eqs])
    if n in pivots:
        return None
    point = [Fraction(0)] * n
    for row, p in zip(reduced, pivots):
        point[p] = Fraction(row[n], row[p])
    return tuple(point), kernel(reduced, pivots, n)


# ---------------------------------------------------------------------------
# integer lattice normal forms


def vec_content(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def hnf_rows(mat: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    """Canonical Hermite basis of the row lattice of ``mat``.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    Equal row lattices produce identical output, so this is usable as a
    structural-equality key.
    """
    rows = [list(map(int, r)) for r in mat if any(r)]
    if not rows:
        return ()
    n = len(rows[0])
    for r in rows:
        if len(r) != n:
            raise ValueError("ragged matrix")
    pr = 0
    for col in range(n):
        idx = [i for i in range(pr, len(rows)) if rows[i][col]]
        if not idx:
            continue
        while len(idx) > 1:
            idx.sort(key=lambda i: abs(rows[i][col]))
            base = idx[0]
            for i in idx[1:]:
                q = rows[i][col] // rows[base][col]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[base])]
            idx = [i for i in range(pr, len(rows)) if rows[i][col]]
        i0 = idx[0]
        rows[pr], rows[i0] = rows[i0], rows[pr]
        if rows[pr][col] < 0:
            rows[pr] = [-a for a in rows[pr]]
        p = rows[pr][col]
        for i in range(pr):
            q = rows[i][col] // p
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[pr])]
        pr += 1
        if pr == len(rows):
            break
    return tuple(tuple(r) for r in rows[:pr])


def integer_kernel(mat: Sequence[Sequence[int]], n: int) -> tuple[IntVec, ...]:
    """Canonical basis of {v in ZZ^n : mat * v = 0} (always a saturated
    sublattice of ZZ^n)."""
    m = len(mat)
    if m == 0:
        return hnf_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])
    # Row-reduce [mat^T | I_n]; rows with vanishing head record kernel vectors.
    big = [[int(mat[j][i]) for j in range(m)] + [1 if k == i else 0 for k in range(n)]
           for i in range(n)]
    reduced = hnf_rows(big)
    kernel = [row[m:] for row in reduced if not any(row[:m])]
    return hnf_rows(kernel) if kernel else ()


def diagonal_form(
    mat: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(d, u, v) with d = u * mat * v diagonal, entries >= 0, and u, v
    unimodular.  The diagonal need not be the Smith divisibility chain."""
    a = [list(map(int, r)) for r in mat]
    m = len(a)
    n = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # move a pivot of minimal magnitude into (t, t)
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]  # row_i -= q * row_t
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]  # col_j -= q * col_t
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def integer_right_inverse(mat: Sequence[Sequence[int]]) -> Optional[list[list[int]]]:
    """Integer S with mat * S = I; exists iff mat is surjective onto ZZ^k,
    iff its diagonal form u * mat * v has every diagonal entry 1.  Then
    mat = u^-1 [I | 0] v^-1, so S = v[:, :k] * u."""
    k = len(mat)
    d, u, v = diagonal_form(mat)
    if any(i >= len(d[0]) or d[i][i] != 1 for i in range(k)):
        return None
    return [list(row) for row in mat_mul([row[:k] for row in v], u)]


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility

# A constraint is (coefs, rhs, strict) and reads  coefs . x  >=  rhs
# (strictly when strict=True).
Constraint = tuple[Vec, Fraction, bool]


def _normalize_constraint(coefs: Vec, rhs: Fraction, strict: bool) -> Constraint:
    lead = next((c for c in coefs if c != 0), None)
    if lead is None:
        return coefs, rhs, strict
    scale = abs(lead)
    return tuple(c / scale for c in coefs), rhs / scale, strict


def _prune(cons: list[Constraint]) -> list[Constraint]:
    best: dict[Vec, tuple[Fraction, bool]] = {}
    order: list[Vec] = []
    for coefs, rhs, strict in cons:
        coefs, rhs, strict = _normalize_constraint(coefs, rhs, strict)
        if coefs not in best:
            best[coefs] = (rhs, strict)
            order.append(coefs)
        else:
            orhs, ostrict = best[coefs]
            if rhs > orhs or (rhs == orhs and strict and not ostrict):
                best[coefs] = (rhs, strict)
    return [(c, best[c][0], best[c][1]) for c in order]


def _eliminate_var(cons: list[Constraint], j: int) -> Optional[list[Constraint]]:
    """FM-eliminate variable j; None signals detected infeasibility."""
    lower, upper, rest = [], [], []
    for coefs, rhs, strict in cons:
        cj = coefs[j]
        if cj > 0:
            lower.append((coefs, rhs, strict))
        elif cj < 0:
            upper.append((coefs, rhs, strict))
        else:
            rest.append((coefs, rhs, strict))
    out = list(rest)
    for lc, lr, ls in lower:
        for uc, ur, us in upper:
            # (lr - sum lc_k x_k)/lc_j <= x_j <= (ur - sum uc)/uc_j combine:
            a = tuple(lc[k] * (-uc[j]) + uc[k] * lc[j] for k in range(len(lc)))
            rhs = lr * (-uc[j]) + ur * lc[j]
            strict = ls or us
            if not any(a):
                if rhs > 0 or (rhs == 0 and strict):
                    return None
                continue
            out.append((a, rhs, strict))
    return _prune(out)


def _feasible_reduced(cons: list[Constraint], nvars: int) -> Optional[Vec]:
    """Feasibility of a pure-inequality system; returns a witness point."""
    cons = _prune(cons)
    # constant-only sanity
    for coefs, rhs, strict in cons:
        if not any(coefs):
            if rhs > 0 or (rhs == 0 and strict):
                return None
    levels = [cons]
    for j in range(nvars - 1, -1, -1):
        nxt = _eliminate_var(levels[-1], j)
        if nxt is None:
            return None
        levels.append(nxt)
    # back substitution, assigning x_0, x_1, ... in turn
    values: list[Fraction] = []
    for j in range(nvars):
        sys_j = levels[nvars - 1 - j]  # constraints on x_0..x_j
        lo: Optional[tuple[Fraction, bool]] = None
        hi: Optional[tuple[Fraction, bool]] = None
        for coefs, rhs, strict in sys_j:
            cj = coefs[j]
            if cj == 0:
                continue
            resid = rhs - sum(coefs[k] * values[k] for k in range(j))
            bound = resid / cj
            if cj > 0:
                if lo is None or bound > lo[0] or (bound == lo[0] and strict):
                    lo = (bound, strict)
            else:
                if hi is None or bound < hi[0] or (bound == hi[0] and strict):
                    hi = (bound, strict)
        if lo is None and hi is None:
            values.append(Fraction(0))
        elif lo is None:
            values.append(hi[0] - 1 if hi[1] else hi[0])
        elif hi is None:
            values.append(lo[0] + 1 if lo[1] else lo[0])
        else:
            if lo[0] == hi[0]:
                values.append(lo[0])
            else:
                values.append((lo[0] + hi[0]) / 2)
    return tuple(values)


def feasible_point(
    n: int,
    equalities: Sequence[tuple[Sequence, object]] = (),
    inequalities: Sequence[tuple[Sequence, object, bool]] = (),
) -> Optional[Vec]:
    """Witness of {x in QQ^n : a.x = c for equalities, a.x >= c (or >) for
    inequalities}, or None if the system is infeasible.

    Equalities are eliminated by substitution first, then Fourier-Motzkin
    runs on the reduced strict/non-strict system.
    """
    eqs = [(frac_vec(a), Fraction(c)) for a, c in equalities]
    sol = affine_solution_space(eqs, n)
    if sol is None:
        return None
    point, basis = sol
    k = len(basis)
    cons: list[Constraint] = []
    for a, c, strict in inequalities:
        av = frac_vec(a)
        c = Fraction(c)
        coefs = tuple(dot(av, b) for b in basis)
        rhs = c - dot(av, point)
        if not any(coefs):
            if rhs > 0 or (rhs == 0 and strict):
                return None
            continue
        cons.append((coefs, rhs, strict))
    t = _feasible_reduced(cons, k)
    if t is None:
        return None
    x = list(point)
    for tj, b in zip(t, basis):
        x = [xi + tj * bi for xi, bi in zip(x, b)]
    return tuple(x)

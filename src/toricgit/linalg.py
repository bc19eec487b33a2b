"""Exact linear algebra over QQ and ZZ.

Everything here works on tuples of ints / fractions.Fraction; no floats, no
machine-word arithmetic.  Nothing here reads caller input: the public
constructors read it through ``serialize`` first.  ``dot`` works unboxed
(ints give ints).  Elimination takes integer rows; rationals are scaled to
integers once, at the boundary, with ``int_rows``.  Three layers:

* one fraction-free elimination, ``echelon`` (Bareiss), on rows scaled to
  integers: it gives the exact rank, the reduced row echelon form in its
  canonical integer multiple (``rref``), and from that form integer bases
  of kernels and of the solutions of linear systems,
* integer lattice normal forms (row-style Hermite form, kernels, a
  diagonal form with its transforms for right inverses),
* one double description of rational half-space systems (``vertex_table``:
  the vertices as integer rays (m, t), the point m/t divided out only
  where a caller needs coordinates, the constraints tight on each,
  boundedness), and from it witness points of bounded strict/loose systems.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]
Scalar = int | Fraction  # what the unboxed helpers return


def dot(a: Sequence, b: Sequence) -> Scalar:
    if len(a) != len(b):
        raise ValueError(f"dot: length mismatch {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


def pairings(rows: Sequence[Sequence], cols: Sequence[Sequence]) -> list[list[Scalar]]:
    """The matrix of dot products row . col, lengths unchecked."""
    return [[sum(map(mul, r, c)) for c in cols] for r in rows]


def barycenter(points: Sequence[Sequence]) -> tuple[Fraction, ...]:
    """The mean of a nonempty list of points."""
    return tuple(Fraction(sum(col), len(points)) for col in zip(*points))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple[tuple[Scalar, ...], ...]:
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity_mat(n: int) -> tuple[IntVec, ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


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


def rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of an integer matrix times D, the least
    positive integer that makes every entry an integer; returns (nonzero
    rows, pivot columns).  Every pivot equals D, so equal row spaces give
    equal rows: the Gauss-Jordan rows of ``echelon`` (pivots d) divided by
    +-gcd(d, entries)."""
    reduced, pivots, d = echelon(rows)
    g = gcd(d, *(x for row in reduced for x in row)) * (1 if d > 0 else -1)
    return [[x // g for x in row] for row in reduced], pivots


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    return len(echelon(rows, reduce=False)[1])


def kernel(reduced: Sequence[Sequence[int]], pivots: Sequence[int], n: int) -> list[IntVec]:
    """Integer basis of the solutions in QQ^n of the homogeneous system in
    ``rref`` form (every pivot the same D): per free column f, D times the
    solution with 1 at f, i.e. D at f and -row[f] at each pivot."""
    d = reduced[0][pivots[0]] if pivots else 1
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [0] * n
            v[f] = d
            for row, p in zip(reduced, pivots):
                v[p] = -row[f]
            basis.append(tuple(v))
    return basis


def affine_solution_space(
    eqs: Sequence[tuple[Sequence, Scalar]], n: int
) -> Optional[tuple[IntVec, int, list[IntVec]]]:
    """Solutions of the rational system {a.x = c}, (num + sum t_j w_j) / D:
    (num, D, the w_j of ``kernel``), or None when inconsistent; all read off
    one reduced form of [a | c], whose pivots are D."""
    reduced, pivots = rref(int_rows([[*a, c] for a, c in eqs]))
    if n in pivots:
        return None
    num = [0] * n
    for row, p in zip(reduced, pivots):
        num[p] = row[n]
    return tuple(num), reduced[0][pivots[0]] if pivots else 1, kernel(reduced, pivots, n)


# ---------------------------------------------------------------------------
# integer lattice normal forms


def vec_content(v: Sequence[int]) -> int:
    return gcd(*v)


def hnf_rows(mat: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    """Canonical Hermite basis of the row lattice of ``mat``.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    Equal row lattices produce identical output, so this is usable as a
    structural-equality key.
    """
    rows = [list(r) for r in mat if any(r)]
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
    big = [[mat[j][i] for j in range(m)] + [1 if k == i else 0 for k in range(n)]
           for i in range(n)]
    reduced = hnf_rows(big)
    kernel = [row[m:] for row in reduced if not any(row[:m])]
    return hnf_rows(kernel) if kernel else ()


def primitive_kernel(p: Sequence[int]) -> list[list[int]]:
    """A basis of {x in ZZ^k : <p, x> = 0} for primitive p (not canonical).

    Extended-gcd column operations of determinant 1 turn the row p into
    e_1: each folds p's next entry into the first, so the matrix u of
    columns they build is unimodular with p * u = e_1.  Its other columns
    are then a basis of the kernel."""
    k = len(p)
    u = [[int(i == j) for j in range(k)] for i in range(k)]  # u[j]: column j
    a = p[0]
    for j in range(1, k):
        b = p[j]
        if not b:
            continue
        g, x, y = _xgcd(a, b)
        c0, cj = u[0], u[j]
        u[0] = [x * s + y * t for s, t in zip(c0, cj)]
        u[j] = [(a // g) * t - (b // g) * s for s, t in zip(c0, cj)]
        a = g
    return u[1:]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b > 0, for b != 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def diagonal_form(
    mat: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(d, u, v) with d = u * mat * v diagonal, entries >= 0, and u, v
    unimodular.  The diagonal need not be the Smith divisibility chain."""
    a = [list(r) for r in mat]
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
# vertices of rational half-space systems, and witness points

Constraint = tuple[IntVec, Fraction]  # <m, u> >= -a stored as (u, a)
VertexTable = list[tuple[IntVec, frozenset[int]]]  # (ray (m, t), constraints tight on it)


def _cone_dd(rows: Sequence[Sequence], d: int) -> tuple[list[list[int]], list[tuple]]:
    """(lineality basis, extreme rays) of the cone {z in QQ^d : <a, z> >= 0
    for every row a}, as primitive integer vectors, by the double
    description method (Motzkin et al. 1953; Fukuda-Prodon 1996).  Each
    ray comes with the bit mask of the rows it is tight on (bit k, row k).

    Rows are scaled to integers and added one at a time.  A row that does
    not vanish on the lineality space L turns one lineality vector l0
    into a ray and projects L and the rays along l0 into its hyperplane.
    Otherwise the rays on its negative side are dropped, and each pair of
    adjacent rays on opposite sides gives one new ray in the hyperplane.
    Two rays are adjacent iff no third ray is tight on every row on which
    both are (the combinatorial test).  The masks are exact: a new ray is
    a positive combination of two rays on which every earlier row is >= 0,
    and moving along a lineality vector changes no earlier row.
    """
    lin = [[int(i == j) for j in range(d)] for i in range(d)]
    rays: list[tuple[list[int], int]] = []  # (ray, mask of its tight rows)
    for k, a in enumerate(int_rows(rows)):
        bit = 1 << k
        on_lin = [sum(x * y for x, y in zip(a, v)) for v in lin]
        vals = [sum(x * y for x, y in zip(a, r)) for r, _ in rays]
        piv = next((i for i, v in enumerate(on_lin) if v), None)
        if piv is not None:
            l0, v0 = lin.pop(piv), on_lin.pop(piv)
            if v0 < 0:
                l0, v0 = [-x for x in l0], -v0
            lin = [_along(v0, l, -v, l0) for l, v in zip(lin, on_lin)]
            rays = [(_along(v0, r, -v, l0), z | bit) for (r, z), v in zip(rays, vals)]
            rays.append((l0, bit - 1))
            continue
        new = [(r, z | bit if v == 0 else z) for (r, z), v in zip(rays, vals) if v >= 0]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [j for j, v in enumerate(vals) if v < 0]
        need = d - len(lin) - 2  # a 2-face of the cone is tight on this many rows
        for i in pos:
            for j in neg:
                common = rays[i][1] & rays[j][1]
                if common.bit_count() >= need and not any(
                        z & common == common for t, (_, z) in enumerate(rays)
                        if t != i and t != j):
                    new.append((_along(vals[i], rays[j][0], -vals[j], rays[i][0]),
                                common | bit))
        rays = new
    return lin, rays


def _along(c: int, v: list[int], e: int, w: list[int]) -> list[int]:
    """The primitive vector along c*v + e*w."""
    out = [c * x + e * y for x, y in zip(v, w)]
    g = vec_content(out)
    return [x // g for x in out]


def vertex_table(n: int, cons: Sequence[Constraint]) -> tuple[VertexTable, bool]:
    """(vertices of {m : <m,u> >= -a}, sorted, each with the constraints
    tight on it, whether the normals positively span RR^n).

    The vertices are the primitive extreme rays (m, t), t > 0, of the cone
    {<m,u> + a t >= 0, t >= 0}, each the point m/t, sorted as those points
    by the integer keys m * (T/t), T the lcm of the t; the tight sets are
    their double-description masks.  Normals may be rational.  Redundant
    inequalities are harmless and boundedness is not needed.  An empty
    system, and one containing a line (its cone has lineality), has no
    vertices.  The normals positively span iff the recession cone
    {d : <d, u> >= 0}, the cone's slice at t = 0, is {0}: iff the cone has
    no lineality and no ray with t = 0."""
    rows = [(0,) * n + (1,)] + [(*u, a) for u, a in cons]
    lin, rays = _cone_dd(rows, n + 1)
    if lin:
        return [], False
    table = [(tuple(r), frozenset(i for i in range(len(cons)) if z >> (i + 1) & 1))
             for r, z in rays if r[n] > 0]
    scale = lcm(*(r[n] for r, _ in table))
    table.sort(key=lambda e: [x * (scale // e[0][n]) for x in e[0][:n]])
    return table, all(r[n] for r, _ in rays)


def feasible_point(
    n: int,
    equalities: Sequence[tuple[Sequence, Scalar]] = (),
    inequalities: Sequence[tuple[Sequence, Scalar, bool]] = (),
) -> Optional[Vec]:
    """Witness of {x in QQ^n : a.x = c for equalities, a.x >= c (or >) for
    inequalities}, or None if the system is infeasible.  The system must be
    bounded: ValueError when the equalities are consistent but the
    inequality normals do not positively span their solutions.

    On those solutions, (num + sum t_j w_j) / D in the integers of
    ``affine_solution_space``, each t_j in turn is the midpoint of its exact
    range with t_0..t_{j-1} fixed, or that range's one value: the least and
    greatest first coordinates m_0/t of the vertex rays of the loose slice
    in (t_j..t_{k-1}).  Row a.x >= c reads <a, w_j> . t >= D c - <a, num>, so
    integer normals give integer slice normals.  A nonempty strict system
    is dense in the loose one, and each midpoint lies inside its open range,
    so the point is in the system iff the system is nonempty; it is the
    point of Fourier-Motzkin back substitution (t_0 first), which does not
    depend on the directions' scale: a positive factor on w_j divides t_j's
    range and midpoint alike."""
    sol = affine_solution_space(equalities, n)
    if sol is None:
        return None
    num, d, dirs = sol
    rows = [(tuple(dot(a, w) for w in dirs), dot(a, num) - d * c, strict)
            for a, c, strict in inequalities]
    t: list[Fraction] = []
    for j in range(len(dirs)):
        table, bounded = vertex_table(
            len(dirs) - j, [(u[j:], s + dot(u[:j], t)) for u, s, _ in rows])
        if not bounded:  # only at j = 0: slices of a bounded set are bounded
            raise ValueError("feasible_point needs a bounded system")
        if not table:
            return None
        lo, hi = (Fraction(r[0], r[-1]) for r in (table[0][0], table[-1][0]))
        t.append(lo if lo == hi else (lo + hi) / 2)
    if any(dot(u, t) + s <= 0 if strict else dot(u, t) + s < 0 for u, s, strict in rows):
        return None
    return tuple(Fraction(x + sum(tj * w[i] for tj, w in zip(t, dirs)), d)
                 for i, x in enumerate(num))

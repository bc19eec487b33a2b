import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from random import Random

from toricgit import linalg

import pytest

from util import fourier_motzkin_point, invert_unimodular, rref_oracle


def test_hnf_canonical_for_equal_row_lattices():
    rng = Random(3)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        h = linalg.hnf_rows(a)
        # unimodular row mix must not change the form
        b = [row[:] for row in a]
        if len(b) >= 2:
            i, j = rng.sample(range(len(b)), 2)
            q = rng.randint(-3, 3)
            b[i] = [x + q * y for x, y in zip(b[i], b[j])]
        rng.shuffle(b)
        assert linalg.hnf_rows(b) == h


def test_hnf_pivot_normalization():
    h = linalg.hnf_rows([(0, 5), (3, 1)])
    for row in h:
        lead = next(x for x in row if x)
        assert lead > 0


def test_diagonal_form_properties():
    # u * a * v = d, d diagonal with entries >= 0, and the product of the
    # nonzero entries is the gcd of the rank-sized minors (the product of
    # the Smith invariant factors), which no transform changes
    rng = Random(4)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
        d, u, v = linalg.diagonal_form(a)
        prod = linalg.mat_mul(u, linalg.mat_mul(a, v))
        assert [list(row) for row in prod] == d
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(min(m, n))]
        assert all(x >= 0 for x in diag)
        r = sum(1 for x in diag if x)
        assert r == len(rref_oracle(a)[1])
        if r:
            assert math.prod(x for x in diag if x) == minors_gcd(a, r)
        # transforms unimodular
        for t in (u, v):
            inv = invert_unimodular(t)
            assert linalg.mat_mul(t, inv) == linalg.identity_mat(len(t))


def test_rank_matches_rational_elimination():
    # fraction-free integer rank against the pivot count of the Fraction
    # Gauss-Jordan oracle, on rows built from fewer generators so that many
    # are rank-deficient
    rng = Random(8)
    for _ in range(200):
        n = rng.randint(1, 5)
        gens = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        rows = [[sum((rng.randint(-2, 2) * g[j] for g in gens), Fraction(0))
                 for j in range(n)] for _ in range(rng.randint(0, 5))]
        assert linalg.int_rank(linalg.int_rows(rows)) == len(rref_oracle(rows)[1])


def test_rref_matches_the_gauss_jordan_oracle():
    # the Bareiss Gauss-Jordan, divided by +-gcd(d, entries), is the
    # oracle's reduced form times its least integral multiple D: integer
    # entries, every pivot D > 0, entries coprime.  Cases: empty and
    # zero-column matrices, zero and rank-deficient rows, negative d, int
    # and Fraction entries
    rng = Random(63)
    cases = [[], [[]], [[], []], [[0, 0], [0, 0]], [[-2, 4]], [[0, -3], [2, 1], [2, -2]]]
    for _ in range(400):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        gens = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, n))]
        rows = [[sum(rng.randint(-2, 2) * g[j] for g in gens) for j in range(n)]
                for _ in range(k)]
        if rng.random() < 0.5:
            rows = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in rows]
        cases.append(rows)
    negative = 0
    for rows in cases:
        reduced, pivots = linalg.rref(linalg.int_rows(rows))
        want, want_pivots = rref_oracle(rows)
        assert pivots == want_pivots
        assert all(type(x) is int for row in reduced for x in row)
        if reduced:
            big_d = reduced[0][pivots[0]]
            assert big_d == math.lcm(*(x.denominator for row in want for x in row))
            assert all(row[p] == big_d for row, p in zip(reduced, pivots))
            assert math.gcd(*(x for row in reduced for x in row)) == 1
            assert [[Fraction(x, big_d) for x in row] for row in reduced] == want
        full, full_pivots, d = linalg.echelon(linalg.int_rows(rows))
        assert full_pivots == pivots and all(row[p] == d for row, p in zip(full, pivots))
        assert linalg.echelon(linalg.int_rows(rows), reduce=False)[1] == pivots
        negative += d < 0
    assert negative >= 50


def test_integer_kernel_is_saturated_and_annihilates():
    rng = Random(9)
    for _ in range(50):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        k = linalg.integer_kernel(a, n)
        for row in k:
            assert all(sum(a[i][j] * row[j] for j in range(n)) == 0
                       for i in range(m))
        # saturated: content of any primitive combination stays 1 after HNF
        assert linalg.hnf_rows(k) == k


def test_primitive_kernel_spans_the_integer_kernel():
    # same lattice as the general kernel: the Hermite bases agree
    rng = Random(10)
    for _ in range(300):
        k = rng.randint(1, 6)
        bound = rng.choice((1, 3, 10 ** 6))
        p = [0]
        while not any(p):
            p = [rng.randint(-bound, bound) * (rng.random() < 0.8) for _ in range(k)]
        p = [x // linalg.vec_content(p) for x in p]
        rows = linalg.primitive_kernel(p)
        assert len(rows) == k - 1
        assert all(linalg.dot(row, p) == 0 for row in rows)
        assert linalg.hnf_rows(rows) == linalg.integer_kernel([p], k)


def test_integer_right_inverse():
    a = [[1, 1, 0], [0, 1, 1]]
    s = linalg.integer_right_inverse(a)
    assert linalg.mat_mul(a, s) == linalg.identity_mat(2)
    assert linalg.integer_right_inverse([[2, 0], [0, 1]]) is None


def det_oracle(mat):
    """Determinant of a square matrix by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return int(det)


def minors_gcd(mat, k):
    """gcd of the k x k minors (0 when there are none)."""
    return math.gcd(*(det_oracle([[row[j] for j in cols] for row in rows])
                      for rows in combinations(mat, k)
                      for cols in combinations(range(len(mat[0])), k)))


def test_integer_right_inverse_matches_the_minors_oracle():
    # a k x n integer matrix maps onto ZZ^k iff the gcd of its k x k minors
    # is 1; then the right inverse is an exact integer section
    rng = Random(71)
    found = Counter()
    for _ in range(2000):
        k, n = rng.randint(1, 4), rng.randint(1, 5)
        lim = rng.choice((1, 2, 5))
        a = [[rng.randint(-lim, lim) for _ in range(n)] for _ in range(k)]
        s = linalg.integer_right_inverse(a)
        surjective = minors_gcd(a, k) == 1
        assert (s is not None) == surjective, a
        if s is not None:
            assert len(s) == n and all(len(row) == k for row in s)
            assert all(type(x) is int for row in s for x in row)
            assert linalg.mat_mul(a, s) == linalg.identity_mat(k)
        found[surjective, k <= n] += 1
    # not onto although wide enough: a minor gcd above 1, or a rank drop
    assert found[True, True] >= 400 and found[False, True] >= 400, found


def test_feasible_point_strict_vs_nonstrict():
    # open square: strictly feasible
    ineqs = [((1, 0), -1, True), ((-1, 0), -1, True),
             ((0, 1), -1, True), ((0, -1), -1, True)]
    p = linalg.feasible_point(2, [], ineqs)
    assert p is not None and all(abs(x) < 1 for x in p)
    # x >= 0 and x <= 0 meets only at 0; strictly infeasible
    assert linalg.feasible_point(1, [], [((1,), 0, True), ((-1,), 0, True)]) is None
    assert linalg.feasible_point(1, [], [((1,), 0, False), ((-1,), 0, False)]) == (0,)


def test_feasible_point_with_equalities():
    # unbounded (x = y -> -oo): the oracle finds a point, the witness
    # search refuses the system; capped at z <= 4, both give one point
    eqs = [((1, 1, 1), 6), ((1, -1, 0), 0)]
    p = fourier_motzkin_point(3, eqs, [((0, 0, 1), 1, False)])
    assert p is not None
    assert sum(p) == 6 and p[0] == p[1] and p[2] >= 1
    with pytest.raises(ValueError):
        linalg.feasible_point(3, eqs, [((0, 0, 1), 1, False)])
    capped = [((0, 0, 1), 1, False), ((0, 0, -1), -4, False)]
    assert linalg.feasible_point(3, eqs, capped) == fourier_motzkin_point(3, eqs, capped) \
        == (Fraction(7, 4), Fraction(7, 4), Fraction(5, 2))


def test_feasible_point_inconsistent_equalities():
    assert linalg.feasible_point(2, [((1, 0), 1), ((1, 0), 2)], []) is None


def test_feasible_point_witness_satisfies_system():
    rng = Random(21)
    for _ in range(80):
        n = rng.randint(1, 3)
        eqs = []
        if rng.random() < 0.4:
            eqs.append((tuple(rng.randint(-3, 3) for _ in range(n)),
                        Fraction(rng.randint(-3, 3))))
        ineqs = []
        for _ in range(rng.randint(1, 6)):
            ineqs.append((tuple(rng.randint(-3, 3) for _ in range(n)),
                          Fraction(rng.randint(-4, 4)), rng.random() < 0.5))
        p = fourier_motzkin_point(n, eqs, ineqs)
        if p is None:
            continue
        for a, c in eqs:
            assert linalg.dot(a, p) == c
        for a, c, strict in ineqs:
            val = linalg.dot(a, p)
            assert val > c if strict else val >= c


def random_system(rng: Random, n: int, bounded: bool):
    """A seeded system in QQ^n: up to two equalities and up to six random
    strict or loose inequalities (many empty), plus, when ``bounded``, the
    inequalities of a box or a simplex around a random center."""
    def vec():
        return tuple(rng.randint(-3, 3) for _ in range(n))

    eqs = [(vec(), Fraction(rng.randint(-3, 3))) for _ in range(rng.choice((0, 0, 1, 2)))]
    ineqs = [(vec(), Fraction(rng.randint(-4, 4), rng.choice((1, 2))), rng.random() < 0.5)
             for _ in range(rng.randint(0, 6))]
    if bounded:
        c = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
        r = rng.randint(1, 5)
        if rng.random() < 0.5:
            normals = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
        else:
            normals = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
        ineqs += [(u, linalg.dot(u, c) - r, rng.random() < 0.3) for u in normals]
    rng.shuffle(ineqs)
    return eqs, ineqs


def recedes(n, eqs, ineqs):
    """Oracle: the system has a nonzero recession direction d (a.d = 0 on the
    equalities, a.d >= 0 on the inequalities) iff one with d_i = +-1 does
    (2n Fourier-Motzkin calls)."""
    homogeneous = [(a, 0, False) for a, _, _ in ineqs]
    for i in range(n):
        for sign in (1, -1):
            pin = (tuple(sign * int(j == i) for j in range(n)), 1)
            if fourier_motzkin_point(n, [(a, 0) for a, _ in eqs] + [pin], homogeneous):
                return True
    return False


def test_feasible_point_matches_fourier_motzkin_on_bounded_systems():
    # the midpoint read off the vertices of each slice is the point of
    # Fourier-Motzkin back substitution, exactly; empty systems give None
    rng = Random(23)
    seen = Counter()
    for trial in range(2000):
        n = 1 + trial % 4
        eqs, ineqs = random_system(rng, n, bounded=True)
        want = fourier_motzkin_point(n, eqs, ineqs)
        assert linalg.feasible_point(n, eqs, ineqs) == want, (n, eqs, ineqs)
        seen["empty" if want is None else "point"] += 1
        seen["strict"] += any(strict for _, _, strict in ineqs)
        seen["equalities"] += bool(eqs)
    assert seen["empty"] >= 800 and seen["point"] >= 800, seen
    assert seen["strict"] >= 1500 and seen["equalities"] >= 800, seen


def test_feasible_point_rejects_unbounded_systems():
    # with consistent equalities, ValueError exactly when the system
    # recedes, empty or not; otherwise the oracle's point
    rng = Random(24)
    seen = Counter()
    for trial in range(600):
        n = 1 + trial % 3
        eqs, ineqs = random_system(rng, n, bounded=rng.random() < 0.3)
        if fourier_motzkin_point(n, eqs, []) is None:
            assert linalg.feasible_point(n, eqs, ineqs) is None
            seen["inconsistent"] += 1
        elif recedes(n, eqs, ineqs):
            with pytest.raises(ValueError):
                linalg.feasible_point(n, eqs, ineqs)
            seen["unbounded", fourier_motzkin_point(n, eqs, ineqs) is None] += 1
        else:
            assert linalg.feasible_point(n, eqs, ineqs) == fourier_motzkin_point(n, eqs, ineqs)
            seen["bounded"] += 1
    assert seen["unbounded", False] >= 100 and seen["unbounded", True] >= 10, seen
    assert seen["bounded"] >= 100 and seen["inconsistent"] >= 10, seen
    with pytest.raises(ValueError):
        linalg.feasible_point(2, [], [])


def test_vector_helpers_match_the_fraction_boxed_oracle():
    rng = Random(61)

    def entry(ints):
        if ints or rng.random() < 0.4:
            return rng.choice((rng.randint(-9, 9), rng.randint(-10 ** 30, 10 ** 30)))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    typed = Counter()
    for _ in range(1000):
        n, ints = rng.randint(0, 5), rng.random() < 0.3
        a = tuple(entry(ints) for _ in range(n))
        b = tuple(entry(ints) for _ in range(n))
        dot = linalg.dot(a, b)
        assert dot == sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))
        if ints:
            assert type(dot) is int
        typed[type(dot).__name__] += 1
    assert typed["int"] >= 250 and typed["Fraction"] >= 250

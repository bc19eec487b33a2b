import math
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from toricgit import linalg
from toricgit.errors import DimensionMismatch, FacetMismatch, InputError
from toricgit.klyachko import (
    FiltrationSheaf,
    Subspace,
    det_indices,
    dimension_jumps,
    direct_sum,
    dual,
    first_chern,
    hom_space,
    is_morphism,
    line_bundle,
    sections_on_chart,
    structure_sheaf,
    subsheaf,
)
from toricgit.polytope import HPolytope

from util import (
    coordinate_sheaf,
    divisor_sum,
    jump_indices,
    morphism_oracle,
    random_sheaf,
    random_subspace,
    rref_oracle,
    transformed_sheaf,
)

L1 = Subspace.span(2, [(1, 0)])
L2 = Subspace.span(2, [(0, 1)])
L3 = Subspace.span(2, [(1, 1)])
E2 = Subspace.full(2)

# tangent-bundle-shaped sheaf on a three-facet polytope: 0 < line < E with
# jumps at -1 and 0 on every facet, and pairwise distinct lines
TANGENT = FiltrationSheaf(2, (((-1, L1), (0, E2)),
                              ((-1, L2), (0, E2)),
                              ((-1, L3), (0, E2))))

P2_O3 = HPolytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)])


def test_subspace_canonical_equality():
    assert Subspace.span(2, [(2, 2)]) == Subspace.span(2, [(-1, -1)])
    assert Subspace.span(3, [(1, 0, 1), (0, 1, 1)]) == \
        Subspace.span(3, [(1, 1, 2), (1, -1, 0)])


def test_subspace_meet_join():
    a = Subspace.span(3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace.span(3, [(0, 1, 0), (0, 0, 1)])
    assert a.intersect(b) == Subspace.span(3, [(0, 1, 0)])
    assert a.add(b) == Subspace.full(3)
    assert a.intersect(Subspace.zero(3)).is_zero()


def residual_oracle(w, v):
    """The former containment test: v reduced against W's reduced row
    echelon basis, None when v lies in W."""
    vv = [Fraction(x) for x in v]
    for row in w.basis():
        p = next(j for j, x in enumerate(row) if x != 0)
        c = vv[p]
        if c:
            vv = [a - c * b for a, b in zip(vv, row)]
    return None if not any(vv) else vv


def span_oracle(vectors):
    """The reduced row echelon basis of the span, by the plain oracle."""
    return tuple(tuple(row) for row in rref_oracle(vectors)[0])


def meet_oracle(w, e):
    """The former meet: x = y*A = z*B from the nullspace of [A^T | -B^T]."""
    if w.is_zero() or e.is_zero():
        return ()
    a, b = w.rows, e.rows
    system = [tuple(list(col_a) + [-x for x in col_b])
              for col_a, col_b in zip(zip(*a), zip(*b))]
    reduced, pivots = rref_oracle(system)
    ys = []
    for f in range(len(a) + len(b)):  # one kernel vector per free column
        if f not in pivots:
            y = [Fraction(int(i == f)) for i in range(len(a))]
            for row, p in zip(reduced, pivots):
                if p < len(a):
                    y[p] = -row[f]
            ys.append(y)
    return span_oracle([[sum(y[i] * a[i][j] for i in range(len(a)))
                         for j in range(w.ambient)] for y in ys])


def assert_matches_oracle(w, basis):
    """W's rows are the oracle's basis times its least integral multiple:
    integer entries, every pivot the same positive D, entries coprime."""
    assert w.basis() == basis
    assert w.to_json() == [[f"{x.numerator}/{x.denominator}" for x in row] for row in basis]
    assert all(type(x) is int for row in w.rows for x in row)
    if w.rows:
        big_d = w.rows[0][w.pivots()[0]]
        assert big_d > 0 and all(row[p] == big_d for row, p in zip(w.rows, w.pivots()))
        assert math.gcd(*(x for row in w.rows for x in row)) == 1


def rational_rows(rng, n, k):
    return [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(k)]


def combinations_of(rng, w, k):
    """k random rational combinations of W's basis (a subspace of W)."""
    return [[sum(c * row[j] for c, row in zip(coeffs, w.rows)) for j in range(w.ambient)]
            for coeffs in rational_rows(rng, w.dim, k)]


def random_pair(rng, n, kind):
    w = Subspace.span(n, rational_rows(rng, n, rng.randint(0, n + 1)))
    if kind == "zero":
        return w, Subspace.zero(n)
    if kind == "full":
        return w, Subspace.full(n)
    if kind == "equal":
        return w, Subspace.span(n, combinations_of(rng, w, w.dim + rng.randint(0, 1)))
    if kind == "nested":
        return w, Subspace.span(n, combinations_of(rng, w, rng.randint(1, max(w.dim - 1, 1))))
    if kind == "integer":
        return random_subspace(rng, n, rng.randint(0, n)), random_subspace(rng, n, rng.randint(0, n))
    if kind == "crossing" and n >= 3:  # dimensions force a nonzero meet, generically proper
        a = rng.randint(2, n - 1)
        return (Subspace.span(n, rational_rows(rng, n, a)),
                Subspace.span(n, rational_rows(rng, n, rng.randint(n - a + 1, n - 1))))
    return w, Subspace.span(n, rational_rows(rng, n, rng.randint(0, n + 1)))


def test_subspace_relations_match_elimination_oracles():
    rng = Random(62)
    kinds = ("zero", "full", "equal", "nested", "integer", "crossing", "rational")
    seen = dict.fromkeys(("zero", "full", "equal", "nested", "crossing", "rational"), 0)
    for t in range(700):
        n = rng.randint(1, 6)
        w, e = random_pair(rng, n, kinds[t % len(kinds)])
        meet_dim = w.intersect(e).dim
        seen["zero"] += w.is_zero() or e.is_zero()
        seen["full"] += w.is_full() or e.is_full()
        seen["equal"] += w == e
        seen["nested"] += 0 < min(w.dim, e.dim) < max(w.dim, e.dim) == w.dim + e.dim - meet_dim
        seen["crossing"] += meet_dim not in (0, w.dim, e.dim)
        seen["rational"] += any(x.denominator > 1 for row in (*w.basis(), *e.basis())
                                for x in row)
        for x, y in ((w, e), (e, w)):
            assert_matches_oracle(x, span_oracle(x.rows))
            assert x.contains(y) == all(residual_oracle(x, r) is None for r in y.rows)
            assert_matches_oracle(x.add(y), span_oracle([*x.rows, *y.rows]))
            assert_matches_oracle(x.intersect(y), meet_oracle(x, y))
            vectors = [*y.rows, *combinations_of(rng, x, 1),
                       [rng.randint(-2, 2) for _ in range(n)]]
            for v in vectors:
                assert x.contains_vector(v) == (residual_oracle(x, v) is None)
    assert all(count >= 40 for count in seen.values()), seen


def stacked_rank_contains(w, e):
    """The former containment test: one integer rank of the stacked rows."""
    if e.dim > w.dim:
        return False
    return w.is_full() or e.is_zero() or linalg.int_rank(w.rows + e.rows) == w.dim


def stacked_rank_contains_vector(w, v):
    return linalg.int_rank([*w.rows, *linalg.int_rows([v])]) == w.dim


def stacked_rank_add(w, e):
    s = linalg.int_rank(w.rows + e.rows)
    if s == e.dim:
        return e
    if s == w.dim:
        return w
    return Subspace.span(w.ambient, w.rows + e.rows)


def stacked_rank_intersect(w, e):
    """The former meet: its dimension from the rank of the stacked rows,
    a proper meet from one Zassenhaus reduction."""
    d = w.dim + e.dim - linalg.int_rank(w.rows + e.rows)
    if d == 0:
        return Subspace.zero(w.ambient)
    if d == w.dim:
        return w
    if d == e.dim:
        return e
    n = w.ambient
    reduced, pivots = linalg.rref([*(x + x for x in w.rows), *(y + (0,) * n for y in e.rows)])
    meet = [row[n:] for row, p in zip(reduced, pivots) if p >= n]
    g = math.gcd(*(x for row in meet for x in row))
    return Subspace(n, tuple(tuple(x // g for x in row) for row in meet))


def test_subspace_relations_by_residuals_match_stacked_rank_oracles():
    # the residual kernels against the former stacked-rank kernels, result
    # and identity: a nested or trivial sum or meet returns the same operand
    rng = Random(65)
    kinds = ("zero", "full", "equal", "nested", "integer", "crossing", "rational")
    seen = dict.fromkeys(("zero", "full", "equal", "nested", "crossing", "inside"), 0)
    for t in range(1200):
        n = rng.randint(1, 6)
        w, e = random_pair(rng, n, kinds[t % len(kinds)])
        meet_dim = stacked_rank_intersect(w, e).dim
        seen["zero"] += w.is_zero() or e.is_zero()
        seen["full"] += w.is_full() or e.is_full()
        seen["equal"] += w == e
        seen["nested"] += 0 < min(w.dim, e.dim) < max(w.dim, e.dim) == w.dim + e.dim - meet_dim
        seen["crossing"] += meet_dim not in (0, w.dim, e.dim)
        for x, y in ((w, e), (e, w)):
            assert x.contains(y) == stacked_rank_contains(x, y)
            for op, oracle in ((x.add, stacked_rank_add), (x.intersect, stacked_rank_intersect)):
                got, want = op(y), oracle(x, y)
                assert got == want and (got is x, got is y) == (want is x, want is y)
            vectors = [*y.rows, *combinations_of(rng, x, 1), rational_rows(rng, n, 1)[0],
                       [rng.randint(-2, 2) for _ in range(n)]]
            for v in vectors:
                assert x.contains_vector(v) == stacked_rank_contains_vector(x, v)
                seen["inside"] += 0 < x.dim < n and any(v) and x.contains_vector(v)
    assert all(count >= 100 for count in seen.values()), seen


def nullspace_oracle(rows, n):
    """Basis of {x : r . x = 0 for every row r}, one vector per free column
    of the oracle's reduced form, as a reduced basis."""
    reduced, pivots = rref_oracle(rows)
    basis = []
    for f in range(n):
        if f not in pivots:
            x = [Fraction(int(j == f)) for j in range(n)]
            for row, p in zip(reduced, pivots):
                x[p] = -row[f]
            basis.append(x)
    return span_oracle(basis)


def test_perp_matches_the_nullspace_oracle():
    # the annihilator read off the stored rows against the oracle's
    # nullspace: dimensions add to n and perp o perp = id, on zero, full,
    # integer and rational subspaces
    rng = Random(64)
    seen = dict.fromkeys(("zero", "full", "proper", "rational"), 0)
    cases = [Subspace.zero(n) for n in range(1, 6)] + [Subspace.full(n) for n in range(1, 6)]
    for t in range(300):
        n = rng.randint(1, 6)
        if t % 2:
            cases.append(random_subspace(rng, n, rng.randint(0, n)))
        else:
            cases.append(Subspace.span(n, rational_rows(rng, n, rng.randint(0, n + 1))))
    for w in cases:
        n = w.ambient
        p = w.perp()
        assert_matches_oracle(p, nullspace_oracle(w.basis(), n))
        assert p.dim + w.dim == n
        assert p.perp() == w
        seen["zero"] += w.is_zero()
        seen["full"] += w.is_full()
        seen["proper"] += 0 < w.dim < n
        seen["rational"] += any(x.denominator > 1 for row in w.basis() for x in row)
    assert all(count >= 20 for count in seen.values()), seen


def test_invalid_filtrations_rejected():
    with pytest.raises(InputError):
        FiltrationSheaf(2, (((0, L1),),))  # never reaches the full space
    with pytest.raises(InputError):
        FiltrationSheaf(2, (((0, E2), (1, E2)),))  # not strictly increasing
    with pytest.raises(InputError):
        FiltrationSheaf(2, (((1, E2), (0, L1)),))  # indices must increase


def test_dimension_jumps_rank_one():
    sheaf = line_bundle(2, {0: -5})  # jump at 5 on facet 0
    assert dimension_jumps(sheaf, 0) == {5: -1}
    assert dimension_jumps(sheaf, 1) == {0: -1}


def test_dimension_jumps_tangent_shape():
    assert dimension_jumps(TANGENT, 0) == {-1: -1, 0: -1}
    assert sum(dimension_jumps(TANGENT, 0).values()) == -TANGENT.rank


def test_dimension_jumps_double_under_direct_sum():
    ds = direct_sum(TANGENT, TANGENT)
    for f in range(3):
        doubled = {i: 2 * e for i, e in dimension_jumps(TANGENT, f).items()}
        assert dimension_jumps(ds, f) == doubled


def test_det_indices_rank_one_jump_position():
    # O(-D) for D = sum a_F D_F jumps at a_F, and i_F(det) = a_F
    a = {0: 2, 1: 0, 2: 1}
    om_d = line_bundle(3, {f: -c for f, c in a.items()})
    assert det_indices(om_d) == (2, 0, 1)


def test_det_indices_tangent_shape():
    assert det_indices(TANGENT) == (-1, -1, -1)


def test_det_indices_additive_under_direct_sum():
    rng = Random(3)
    s1 = random_sheaf(rng, 2, 3)
    s2 = random_sheaf(rng, 2, 3)
    d = det_indices(direct_sum(s1, s2))
    assert d == tuple(a + b for a, b in zip(det_indices(s1), det_indices(s2)))


def test_first_chern_examples():
    # c1(O(-D)) = -D
    d = {0: 1, 1: 4, 2: -2}
    om_d = line_bundle(3, {f: -c for f, c in d.items()})
    assert first_chern(om_d).as_dict() == {0: -1, 1: -4, 2: 2}
    # tangent shape gives the anticanonical class
    assert first_chern(TANGENT).as_dict() == {0: 1, 1: 1, 2: 1}
    assert first_chern(structure_sheaf(3)).as_dict() == {}


def test_first_chern_additive():
    rng = Random(8)
    s1 = random_sheaf(rng, 2, 4)
    s2 = random_sheaf(rng, 3, 4)
    assert first_chern(direct_sum(s1, s2)) == divisor_sum(first_chern(s1), first_chern(s2))


def test_subsheaf_full_space_is_identity():
    assert subsheaf(TANGENT, E2) == TANGENT


def test_subsheaf_jump_line():
    sub = subsheaf(TANGENT, L1)
    assert sub.rank == 1
    assert jump_indices(sub, 0) == (-1,)   # L1 enters at the early step
    assert jump_indices(sub, 1) == (0,)
    assert jump_indices(sub, 2) == (0,)


def test_subsheaf_generic_line():
    generic = Subspace.span(2, [(1, 2)])
    sub = subsheaf(TANGENT, generic)
    assert all(jump_indices(sub, f) == (0,) for f in range(3))


def test_subsheaf_jumps_total_dimension():
    rng = Random(12)
    for _ in range(20):
        s = random_sheaf(rng, 3, 3)
        w = random_subspace(rng, 3, rng.randint(1, 3))
        sub = subsheaf(s, w)
        for f in range(3):
            assert sum(dimension_jumps(sub, f).values()) == -w.dim


def test_subsheaf_zero_rejected():
    with pytest.raises(InputError):
        subsheaf(TANGENT, Subspace.zero(2))


def test_dual_filtrations_are_shifted_annihilators():
    # E^F(i)^dual = E^F(-i-1)^perp at every index, jumps included
    rng = Random(13)
    for _ in range(30):
        s = random_sheaf(rng, rng.randint(1, 5), 3)
        d = dual(s)
        for f in range(3):
            for i in range(-6, 6):
                assert d.value_at(f, i) == s.value_at(f, -i - 1).perp()


def test_dual_is_an_involution():
    rng = Random(14)
    for _ in range(50):
        s = random_sheaf(rng, rng.randint(1, 5), rng.randint(1, 4))
        assert dual(dual(s)) == s
    assert dual(TANGENT).filtrations[0] == ((0, L1.perp()), (1, E2))


def test_dual_of_line_bundle_negates_divisor():
    rng = Random(15)
    for _ in range(20):
        d = rng.randint(1, 5)
        coeffs = {f: rng.randint(-4, 4) for f in range(d)}
        assert dual(line_bundle(d, coeffs)) == \
            line_bundle(d, {f: -c for f, c in coeffs.items()})


def test_sections_on_chart_deep_weight_full():
    face = P2_O3.face_lattice[0]
    assert sections_on_chart(TANGENT, P2_O3, face, (10, 10)).dim in (0, 1, 2)
    big = [f for f in P2_O3.face_lattice if f.dim == 2][0]
    assert sections_on_chart(TANGENT, P2_O3, big, (0, 0)) == E2


def test_sections_on_chart_rank_one():
    # O(-D) with D = sum D_F: nonzero iff <m, u_F> >= 1 on active facets
    om_d = line_bundle(3, {0: -1, 1: -1, 2: -1})
    vertex = next(f for f in P2_O3.face_lattice
                  if f.dim == 0 and f.key() == (0, 1))
    assert sections_on_chart(om_d, P2_O3, vertex, (1, 1)).dim == 1
    assert sections_on_chart(om_d, P2_O3, vertex, (1, 0)).dim == 0


def test_sections_on_chart_tangent_vertex_weight_zero():
    vertex = next(f for f in P2_O3.face_lattice
                  if f.dim == 0 and f.key() == (0, 1))
    assert sections_on_chart(TANGENT, P2_O3, vertex, (0, 0)) == E2


def test_sections_on_chart_rejects_non_integral_weight():
    # a weight lives in M: (3/2, 0) must not be read as (1, 0)
    vertex = next(f for f in P2_O3.face_lattice if f.dim == 0)
    assert sections_on_chart(TANGENT, P2_O3, vertex, (Fraction(2), 0)) == \
        sections_on_chart(TANGENT, P2_O3, vertex, (2, 0))
    for bad in ((Fraction(3, 2), 0), (0, Fraction(-1, 3))):
        with pytest.raises(InputError):
            sections_on_chart(line_bundle(3, {0: 1}), P2_O3, vertex, bad)


def matrix_of(flat, rows, cols):
    return [list(flat[a * cols:(a + 1) * cols]) for a in range(rows)]


def test_morphism_identity_zero_and_violation():
    assert is_morphism(TANGENT, TANGENT, linalg.identity_mat(2))
    assert is_morphism(TANGENT, TANGENT, ((0, 0), (0, 0)))
    assert is_morphism(TANGENT, TANGENT, ((Fraction(1, 2), 0), (0, Fraction(1, 2))))
    assert is_morphism(TANGENT, TANGENT, (("1/2", 0), (0, "1/2")))
    for floats in (((0.5, 0), (0, "1/2")), ((0.5, 0), (0, 0.25))):
        with pytest.raises(InputError):  # exact entries only, as on the CLI
            is_morphism(TANGENT, TANGENT, floats)
    # send the deep line at facet 0 somewhere shallow
    assert not is_morphism(TANGENT, TANGENT, ((0, 0), (1, 0)))
    # three distinct lines in QQ^2 are preserved only by scalars
    assert hom_space(TANGENT, TANGENT) == Subspace.span(4, [(1, 0, 0, 1)])


def test_morphism_shapes_and_facets_checked():
    for bad in (((1, 0),), ((1, 0), (0,)), ((1, 0), (0, 1, 0)),
                ((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (0, 0))):
        with pytest.raises(DimensionMismatch):
            is_morphism(TANGENT, TANGENT, bad)
    with pytest.raises(FacetMismatch):
        hom_space(TANGENT, structure_sheaf(2))
    with pytest.raises(FacetMismatch):
        is_morphism(TANGENT, structure_sheaf(2), ((1, 0),))


def test_contains_vector_rejects_wrong_length():
    w = Subspace.span(3, [[1, 0, 0]])
    assert w.contains_vector([2, 0, 0]) and not w.contains_vector([0, 1, 0])
    for v in ([1, 0], [1, 0, 0, 5], []):
        with pytest.raises(DimensionMismatch):
            w.contains_vector(v)
    with pytest.raises(DimensionMismatch):
        Subspace.zero(2).contains_vector([0])


def test_morphism_composition_closed():
    # End(S) is an algebra: products of members are members, on random
    # sheaves, coordinate sheaves (large incidence algebras) and sums
    rng = Random(23)
    big = 0
    for k in range(60):
        r = rng.randint(1, 3)
        d = rng.randint(1, 4)
        s = (random_sheaf, coordinate_sheaf)[k % 2](rng, r, d)
        if k % 3 == 0:
            s = direct_sum(s, coordinate_sheaf(rng, 1, d))
        end = hom_space(s, s)
        assert is_morphism(s, s, linalg.identity_mat(s.rank))
        mats = [matrix_of(b, s.rank, s.rank) for b in end.basis()]
        for a in mats:
            for b in mats:
                assert is_morphism(s, s, linalg.mat_mul(a, b))
        big += end.dim > 1
    assert big > 20


def test_inclusion_of_subsheaf_is_morphism():
    rng = Random(31)
    for _ in range(10):
        s = random_sheaf(rng, 3, 3)
        w = random_subspace(rng, 3, rng.randint(1, 2))
        inclusion = [[b[j] for b in w.basis()] for j in range(3)]  # 3 x dim W
        assert is_morphism(subsheaf(s, w), s, inclusion)
        assert morphism_oracle(subsheaf(s, w), s, inclusion)


def invertible(rng, r):
    while True:
        g = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
        if linalg.int_rank(g) == r:
            return g


def test_hom_space_matches_the_morphism_oracle():
    # every basis matrix and a random combination pass the definition, and
    # random sparse matrices are members exactly when they pass it.  For
    # coordinate sheaves C, C' the space is spanned by the elementary
    # matrices that pass, and Hom(gC, hC') = h Hom(C, C') g^-1 has that
    # dimension, which pins the dimension on sheaves in general position
    rng = Random(81)
    seen = Counter()
    for k in range(320):
        d = rng.randint(1, 4)
        rs, rt = rng.randint(1, 4), rng.randint(1, 3)
        cs, ct = coordinate_sheaf(rng, rs, d), coordinate_sheaf(rng, rt, d)
        elementary = [[[int((a, b) == (x, y)) for b in range(rs)] for a in range(rt)]
                      for x in range(rt) for y in range(rs)]
        allowed = [e for e in elementary if morphism_oracle(cs, ct, e)]
        assert hom_space(cs, ct) == Subspace.span(
            rt * rs, [[x for row in e for x in row] for e in allowed])
        if k % 2:
            s, t = transformed_sheaf(invertible(rng, rs), cs), \
                transformed_sheaf(invertible(rng, rt), ct)
        else:
            s, t = random_sheaf(rng, rs, d), random_sheaf(rng, rt, d)
        hom = hom_space(s, t)
        if k % 2:
            assert hom.dim == len(allowed)
        for flat in hom.basis():
            assert morphism_oracle(s, t, matrix_of(flat, rt, rs))
        coeffs = [rng.randint(-3, 3) for _ in range(hom.dim)]
        combo = [sum(c * b[j] for c, b in zip(coeffs, hom.basis())) for j in range(rt * rs)]
        assert is_morphism(s, t, matrix_of(combo, rt, rs))
        assert morphism_oracle(s, t, matrix_of(combo, rt, rs))
        for pair in ((cs, ct), (s, t)):
            for _ in range(3):
                phi = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(rs)] for _ in range(rt)]
                member = is_morphism(*pair, phi)
                assert member == morphism_oracle(*pair, phi)
                seen[member, any(map(any, phi))] += 1
        seen["proper"] += 0 < hom.dim < rs * rt
    assert seen[True, True] > 100 and seen[False, True] > 100 and seen["proper"] > 50


def test_line_bundle_homs():
    # Hom(O(D), O(D')) = QQ iff D' - D >= 0 coefficientwise, else 0
    rng = Random(82)
    seen = Counter()
    for _ in range(200):
        d = rng.randint(1, 4)
        c1 = {f: rng.randint(-2, 2) for f in range(d)}
        c2 = {f: rng.randint(-2, 2) for f in range(d)}
        effective = all(c2[f] >= c1[f] for f in range(d))
        hom = hom_space(line_bundle(d, c1), line_bundle(d, c2))
        assert hom == (Subspace.full(1) if effective else Subspace.zero(1))
        seen[effective] += 1
    assert seen[True] > 30 and seen[False] > 30


def test_coordinates_in_matches_the_span_oracle():
    # the rows restricted to the superspace's pivot columns, divided by
    # their gcd, against one elimination of those rows
    rng = Random(83)
    for _ in range(3000):
        r = rng.randint(1, 6)
        big = random_subspace(rng, r, rng.randint(1, r))
        coeffs = [[rng.randint(-3, 3) for _ in range(big.dim)]
                  for _ in range(rng.randint(0, big.dim))]
        small = Subspace.span(r, [[sum(c * row[j] for c, row in zip(cs, big.rows))
                                   for j in range(r)] for cs in coeffs])
        piv = big.pivots()
        assert small.coordinates_in(big) == \
            Subspace.span(big.dim, [[row[p] for p in piv] for row in small.rows])
    with pytest.raises(InputError):
        Subspace.span(2, [(0, 1)]).coordinates_in(Subspace.span(2, [(1, 0)]))


def test_direct_sum_facet_mismatch():
    with pytest.raises(FacetMismatch):
        direct_sum(TANGENT, structure_sheaf(2))


def test_json_round_trip():
    rng = Random(40)
    for _ in range(10):
        s = random_sheaf(rng, rng.randint(1, 3), rng.randint(1, 4))
        assert FiltrationSheaf.from_json_dict(s.to_json_dict()) == s

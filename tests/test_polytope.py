import fractions
import math
import sys
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from toricgit.errors import (
    EmptyPolytope,
    InfeasibleError,
    InputError,
    NotFullDimensional,
    RedundantInequality,
    Unbounded,
)
from toricgit import linalg
from toricgit.linalg import vertex_table
from toricgit.lattice import primitive_content
from toricgit.polytope import (
    DivisorClass,
    HPolytope,
    hsystem_volume_data,
    same_normal_fan,
)

from util import (
    active_set,
    affine_rank,
    anticanonical,
    brute_force_system_vertices,
    brute_force_vertices,
    count_calls,
    count_face_dim_branches,
    divisor_neg,
    divisor_scale,
    divisor_sum,
    fourier_motzkin_point,
    fraction_vertex_table,
    fraction_volume_oracle,
    invert_unimodular,
    non_simple_polytope,
    point,
    random_polytope,
)

SQUARE = HPolytope(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
P2_O3 = HPolytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)])  # degree-3 simplex
SEGMENT = HPolytope(1, [((1,), 1), ((-1,), 1)])
CUBE = HPolytope(3, [((1, 0, 0), 0), ((-1, 0, 0), 1), ((0, 1, 0), 0),
                     ((0, -1, 0), 1), ((0, 0, 1), 0), ((0, 0, -1), 1)])


def test_vertices_square():
    assert set(SQUARE.vertices) == {
        (Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)),
        (Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(-1))}


def test_vertices_degree3_simplex():
    assert set(P2_O3.vertices) == {
        (Fraction(-1), Fraction(-1)), (Fraction(2), Fraction(-1)),
        (Fraction(-1), Fraction(2))}


def test_vertices_match_brute_force_oracle():
    rng = Random(2)
    for poly in (SQUARE, P2_O3, CUBE, SEGMENT):
        assert set(poly.vertices) == brute_force_vertices(poly)


def raw_system(rng, n):
    """A seeded raw system: a box (each side kept with probability 0.9,
    supports in [-2, 3], so some are empty or flat) plus up to four cuts,
    each random, through a box vertex, or tangent to the box, and maybe a
    duplicate or scaled duplicate; shuffled.  Returns (system, kinds)."""
    box = [(tuple(s * int(i == j) for j in range(n)), Fraction(rng.randint(-2, 3)))
           for i in range(n) for s in (1, -1) if rng.random() < 0.9]
    cons, kinds = list(box), Counter()
    corners = brute_force_system_vertices(n, box)
    for _ in range(rng.randint(0, 4)):
        w = tuple(rng.randint(-2, 2) for _ in range(n))
        if not any(w):
            continue
        kind = rng.choice(("random", "through", "tangent")) if corners else "random"
        if kind == "random":
            a = Fraction(rng.randint(-3, 5), rng.choice((1, 2, 3)))
        elif kind == "through":
            a = -linalg.dot(rng.choice(corners), w)
        else:
            a = -min(linalg.dot(v, w) for v in corners)
        cons.append((w, a))
        kinds[kind] += 1
    if cons and rng.random() < 0.3:
        u, a = rng.choice(cons)
        c = rng.choice((1, 2, 3))
        cons.append((tuple(c * x for x in u), c * a))
        kinds["duplicate" if c == 1 else "scaled duplicate"] += 1
    rng.shuffle(cons)
    return cons, kinds


def test_system_vertices_match_subset_oracle():
    rng = Random(37)
    seen = Counter()
    for n, reps in ((1, 60), (2, 150), (3, 70), (4, 20), (5, 8)):
        for _ in range(reps):
            cons, kinds = raw_system(rng, n)
            got = [point(r) for r, _ in vertex_table(n, cons)[0]]
            assert got == brute_force_system_vertices(n, cons), (n, cons)
            assert all(type(x) is Fraction for v in got for x in v)
            seen.update(kinds)
            seen["systems"] += 1
            if not got:
                seen["no vertex"] += 1
            elif affine_rank(got) < n:
                seen["flat"] += 1
    assert seen["systems"] >= 300
    for kind in ("random", "through", "tangent", "duplicate", "scaled duplicate",
                 "no vertex", "flat"):
        assert seen[kind] >= 10, (kind, seen)


def test_vertex_table_keeps_the_order_of_the_fraction_oracle():
    # the integer-ray table against the Fraction table it replaced, on raw
    # systems (rational supports; redundant, duplicate and tangent cuts),
    # the same systems with rational normals, and valid polytopes and their
    # moves: the same vertex order, tight sets and boundedness, primitive
    # rays, identical HPolytope.vertices, and volumes, facet volumes and
    # rates equal to the Fraction recursion on the oracle's table
    rng = Random(53)
    seen = Counter()
    for n, reps in ((1, 40), (2, 120), (3, 60), (4, 15)):
        for _ in range(reps):
            cons, kinds = raw_system(rng, n)
            if rng.random() < 0.5:  # the same inequalities with rational normals
                cons = [(tuple(Fraction(x, q) for x in u), Fraction(a, q))
                        for (u, a), q in ((c, rng.randint(1, 4)) for c in cons)]
                seen["rational normals"] += 1
            table, bounded = vertex_table(n, cons)
            assert ([(point(r), act) for r, act in table], bounded) == \
                fraction_vertex_table(n, cons)
            assert all(r[n] > 0 and math.gcd(*r) == 1 for r, _ in table)
            seen.update(kinds)
            seen["vertices"] += len(table)
    assert seen["rational normals"] >= 50 and seen["vertices"] >= 300, seen
    assert all(seen[kind] >= 10 for kind in ("tangent", "duplicate", "scaled duplicate")), seen
    for n in (1, 2, 3, 3, 4):
        for poly in (random_polytope(rng, n), non_simple_polytope(rng, max(n, 3))):
            t = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(poly.n)]
            k = Fraction(rng.randint(1, 7), rng.choice((1, 2, 3)))
            for p in (poly, poly.translate(t), poly.dilate(k).translate(t)):
                oracle = fraction_vertex_table(p.n, p.facets)[0]
                assert p.vertices == tuple(v for v, _ in oracle)
                vol, latvols, _, rates = fraction_volume_oracle(p.n, p.facets, oracle, rates=True)
                assert (p.volume(), list(p.latvols())) == (vol, latvols)
                assert hsystem_volume_data(p.n, p.facets, rates=True)[3] == rates


def test_double_description_tight_masks_match_dot_products():
    rng = Random(43)
    seen = Counter()
    for n, reps in ((1, 30), (2, 110), (3, 50), (4, 15), (5, 5)):
        for _ in range(reps):
            cons, kinds = raw_system(rng, n)
            table, _ = vertex_table(n, cons)
            for r, tight in table:
                assert tight == frozenset(
                    i for i, (u, a) in enumerate(cons) if linalg.dot(point(r), u) == -a)
            seen.update(kinds)
            seen["systems"] += 1
            seen["vertices"] += len(table)
            if table and not all(any(i in t for _, t in table) for i in range(len(cons))):
                seen["tight on no vertex"] += 1
    assert seen["systems"] >= 200 and seen["vertices"] >= 300
    for kind in ("random", "through", "tangent", "duplicate", "scaled duplicate",
                 "tight on no vertex"):
        assert seen[kind] >= 10, (kind, seen)
    # the tight sets carried over to translates and dilates are theirs too
    for _ in range(40):
        poly = random_polytope(rng, rng.randint(1, 4))
        t = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(poly.n)]
        k = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        for p in (poly, poly.translate(t), poly.dilate(k), poly.dilate(k).translate(t)):
            assert p._vertex_active == tuple(active_set(p, v) for v in p.vertices)
            assert p._vertex_active == HPolytope(p.n, p.facets)._vertex_active


def fourier_motzkin_spanning(n, normals):
    """Oracle: the normals positively span iff no coordinate direction
    +-e_i, normalized to x_i = +-1, has <x, u> >= 0 for all of them (2n
    Fourier-Motzkin calls)."""
    ineqs = [(u, Fraction(0), False) for u in normals]
    for i in range(n):
        for sign in (1, -1):
            eq = tuple(sign if j == i else 0 for j in range(n))
            if fourier_motzkin_point(n, [(eq, Fraction(1))], ineqs) is not None:
                return False
    return True


def test_unbounded_matches_fourier_motzkin():
    # construction raises Unbounded exactly when the normals leave a
    # recession direction, also (first) when the supports are inconsistent
    rng = Random(41)
    seen = Counter()
    for trial in range(520):
        n = 1 + trial % 4
        dim = rng.randint(1, n) if trial % 3 == 0 else n  # rank-deficient sets
        normals = set()
        for _ in range(rng.randint(0, 2 * n + 2)):
            w = tuple(rng.randint(-2, 2) if j < dim else 0 for j in range(n))
            if any(w):
                normals.add(primitive_content(w)[0])
        facets = [(u, Fraction(rng.randint(-2, 3))) for u in sorted(normals)]
        try:
            HPolytope(n, facets)
            spanning = True
        except Unbounded:
            spanning = False
        except InfeasibleError:
            spanning = True
        assert spanning == fourier_motzkin_spanning(n, sorted(normals)), (n, facets)
        seen[n, spanning] += 1
        seen["rank-deficient", spanning] += linalg.int_rank(sorted(normals)) < n
        seen["empty", spanning] += fourier_motzkin_point(
            n, [], [(u, -a, False) for u, a in facets]) is None
    for n in (1, 2, 3, 4):
        assert seen[n, True] and seen[n, False], n
    assert seen["rank-deficient", False] >= 50 and seen["rank-deficient", True] == 0
    assert seen["empty", False] >= 10 and seen["empty", True] >= 10


def test_construction_runs_no_fourier_motzkin(monkeypatch):
    calls = count_calls(monkeypatch, linalg, "feasible_point")
    for poly in (HPolytope(4, unit_cube_system(4)), HPolytope(2, P2_O3.facets),
                 HPolytope(3, PYRAMID.facets)):
        poly.face_lattice, poly.volume()
    assert calls["feasible_point"] == 0


def test_unbounded_rejected():
    with pytest.raises(Unbounded):
        HPolytope(2, [((1, 0), 1), ((-1, 0), 1)])


def test_empty_and_flat_rejected():
    with pytest.raises(EmptyPolytope):
        HPolytope(2, [((1, 0), -1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)])
    with pytest.raises(NotFullDimensional):
        HPolytope(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)])


def test_redundant_rejected_not_dropped():
    with pytest.raises(RedundantInequality):
        HPolytope(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1),
                      ((1, 1), 5)])


def test_tangent_constraints_rejected():
    # tangent to the unit cube at the vertex 0, and along the edge x = y = 0
    for extra in (((1, 1, 1), 0), ((1, 1, 0), 0)):
        with pytest.raises(RedundantInequality, match="inequality 6 "):
            HPolytope(3, list(CUBE.facets) + [extra])
    # tangent to the square at the vertex (1, 1)
    with pytest.raises(RedundantInequality, match="inequality 2 "):
        HPolytope(2, [((1, 0), 1), ((-1, 0), 1), ((-1, -1), 2), ((0, 1), 1),
                      ((0, -1), 1)])


def fourier_motzkin_validity(n, facets):
    """Oracle: (error class, message) of Fourier-Motzkin validation, with
    one strict and one loose system for the interior and 1 + d calls for
    the facets, or None for a valid polytope."""
    if not fourier_motzkin_spanning(n, [u for u, _ in facets]):
        return Unbounded, "facet normals do not positively span; polytope unbounded"
    if fourier_motzkin_point(n, [], [(u, -a, True) for u, a in facets]) is None:
        if fourier_motzkin_point(n, [], [(u, -a, False) for u, a in facets]) is None:
            return EmptyPolytope, "inconsistent supports: empty polytope"
        return NotFullDimensional, "polytope has empty interior"
    for i, (u, a) in enumerate(facets):
        others = [(w, -c, True) for j, (w, c) in enumerate(facets) if j != i]
        if fourier_motzkin_point(n, [(u, -a)], others) is None:
            return RedundantInequality, f"inequality {i} (normal {u}) does not define a facet"
    return None


def test_vertex_table_validity_matches_fourier_motzkin():
    rng = Random(29)
    outcomes = Counter()
    for n, reps in ((1, 30), (2, 150), (3, 60)):
        for _ in range(reps):
            normals = {tuple(s * int(i == j) for j in range(n))
                       for i in range(n) for s in (1, -1)}
            for _ in range(rng.randint(0, 3)):
                w = tuple(rng.randint(-2, 2) for _ in range(n))
                if any(w):
                    normals.add(primitive_content(w)[0])
            facets = [(u, Fraction(rng.randint(-2, 3))) for u in sorted(normals)]
            rng.shuffle(facets)
            try:
                HPolytope(n, facets)
                got = None
            except InfeasibleError as exc:
                got = type(exc), str(exc)
            assert got == fourier_motzkin_validity(n, facets), facets
            outcomes[got and got[0]] += 1
    assert set(outcomes) == {None, EmptyPolytope, NotFullDimensional, RedundantInequality}


def affine_validity(n, cons):
    """Oracle: the error class construction must raise, or None, read off
    the subset-oracle vertices and the affine ranks of vertex sets."""
    if not fourier_motzkin_spanning(n, [u for u, _ in cons]):
        return Unbounded
    verts = brute_force_system_vertices(n, cons)
    if not verts:
        return EmptyPolytope
    if affine_rank(verts) < n:
        return NotFullDimensional
    for u, a in cons:
        if affine_rank([v for v in verts if linalg.dot(v, u) == -a]) < n - 1:
            return RedundantInequality
    return None


def test_face_dimensions_match_the_affine_rank_oracle(monkeypatch):
    # a face's dimension is n minus the rank of the normals tight on all of
    # its vertices, read off their count when a vertex is tight on exactly
    # n facets; the oracle is the affine rank of those vertices, on seeded
    # polytopes, simple or not, and on the seeded raw systems (normals made
    # primitive, the first constraint per normal kept), which must construct
    # or fail as the oracle predicts.  Both branches are taken, during
    # validation and in the face lattice.
    branches = count_face_dim_branches(monkeypatch)
    rng, other = Random(71), Random(711)
    polys = [random_polytope(rng, rng.randint(1, 4)) for _ in range(60)]
    polys += [non_simple_polytope(other, n) for n in (3, 4) for _ in range(10)]
    for poly in polys:
        for face in poly.face_lattice:
            assert face.dim == affine_rank([poly.vertices[i] for i in face.vertex_ids])
    outcomes = Counter()
    for n, reps in ((1, 40), (2, 200), (3, 80), (4, 20)):
        for _ in range(reps):
            first: dict = {}
            for u, a in raw_system(rng, n)[0]:
                prim, g = primitive_content(u)
                first.setdefault(prim, a / g)
            cons = list(first.items())
            try:
                poly = HPolytope(n, cons)
                got = None
            except InfeasibleError as exc:
                got = type(exc)
            assert got is affine_validity(n, cons), (n, cons)
            outcomes[got] += 1
            if got is None:
                for face in poly.face_lattice:
                    pts = [poly.vertices[i] for i in face.vertex_ids]
                    assert face.dim == affine_rank(pts)
    assert all(outcomes[k] >= 10 for k in (None, NotFullDimensional, RedundantInequality)), \
        outcomes
    assert branches["simple"] > 50 and branches["rank"] > 50, branches


def test_nonprimitive_and_duplicate_normals_rejected():
    with pytest.raises(InputError):
        HPolytope(2, [((2, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
    with pytest.raises(InputError):
        HPolytope(2, [((1, 0), 1), ((1, 0), 2), ((-1, 0), 1), ((0, 1), 1),
                      ((0, -1), 1)])


def test_non_integer_normal_entries_rejected_not_truncated():
    box = [((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]
    for bad in (1.5, Fraction(3, 2), Fraction(1), "1", True):
        with pytest.raises(InputError, match="expected integer"):
            HPolytope(2, [((bad, 0), 0)] + box)
    assert HPolytope(2, [((1, 0), 0)] + box).facets[0][0] == (1, 0)


def test_face_lattice_counts():
    by_dim = Counter(f.dim for f in P2_O3.face_lattice)
    assert by_dim == {0: 3, 1: 3, 2: 1}
    assert Counter(f.dim for f in SEGMENT.face_lattice) == {0: 2, 1: 1}
    assert Counter(f.dim for f in CUBE.face_lattice) == {0: 8, 1: 12, 2: 6, 3: 1}


def test_face_relint_point_is_interior():
    # the barycenter of a face's vertices lies in its relative interior; a
    # moved polytope shares the face lattice, so its vertex ids must carry over
    for base in (P2_O3, CUBE):
        faces = base.face_lattice
        for poly in (base, base.translate((3, -2, 1)[:base.n]), base.dilate(3)):
            assert poly.face_lattice is faces
            for face in faces:
                pts = [poly.vertices[i] for i in face.vertex_ids]
                bary = tuple(sum(p[j] for p in pts) / len(pts) for j in range(poly.n))
                assert active_set(poly, bary) == face.active_facets


def test_same_normal_fan_examples():
    assert same_normal_fan(P2_O3, P2_O3.dilate(2))
    assert same_normal_fan(P2_O3, P2_O3.translate((3, -2)))
    assert not same_normal_fan(SQUARE, P2_O3)
    from toricgit.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        same_normal_fan(SQUARE, SEGMENT)


def test_same_normal_fan_equivalence_relation():
    rng = Random(6)
    polys = [SQUARE, SQUARE.dilate(3), P2_O3, P2_O3.translate((1, 1)),
             HPolytope(2, [((1, 0), 2), ((-1, 0), 1), ((0, 1), 3), ((0, -1), 1)])]
    for a in polys:
        assert same_normal_fan(a, a)
        for b in polys:
            assert same_normal_fan(a, b) == same_normal_fan(b, a)
            for c in polys:
                if same_normal_fan(a, b) and same_normal_fan(b, c):
                    assert same_normal_fan(a, c)


def test_facet_latvol_examples():
    assert set(SQUARE.latvols()) == {Fraction(2)}
    unit = HPolytope(2, [((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)])
    assert set(unit.latvols()) == {Fraction(1)}
    assert set(P2_O3.latvols()) == {Fraction(3)}
    # 0-dimensional facets count 1 by convention
    assert SEGMENT.latvols() == (Fraction(1), Fraction(1))


def test_latvol_translation_invariance_and_dilation_scaling():
    rng = Random(13)
    for poly in (SQUARE, P2_O3, CUBE):
        t = tuple(rng.randint(-3, 3) for _ in range(poly.n))
        assert poly.translate(t).latvols() == poly.latvols()
        k = rng.randint(2, 4)
        assert poly.dilate(k).latvols() == tuple(
            Fraction(k) ** (poly.n - 1) * v for v in poly.latvols())


def test_volume_examples():
    unit = HPolytope(2, [((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)])
    assert unit.volume() == 1
    assert P2_O3.volume() == Fraction(9, 2)
    assert SEGMENT.volume() == 2
    assert CUBE.volume() == 1


def test_volume_dilation_homogeneity():
    for poly in (SQUARE, P2_O3, CUBE):
        assert poly.dilate(3).volume() == Fraction(3) ** poly.n * poly.volume()


def test_volume_support_identity_with_interior_origin():
    for poly in (SQUARE, P2_O3):
        total = sum(a * lv for (u, a), lv in zip(poly.facets, poly.latvols()))
        assert total / poly.n == poly.volume()


def random_valid_polytope(rng: Random) -> HPolytope:
    from toricgit.errors import ToricGitError

    candidates = [
        [((1, 0), rng.randint(0, 3)), ((-1, 0), rng.randint(1, 4)),
         ((0, 1), rng.randint(0, 3)), ((0, -1), rng.randint(1, 4))],
        [((1, 0), rng.randint(1, 3)), ((0, 1), rng.randint(1, 3)),
         ((-1, -1), rng.randint(1, 4))],
        [((1, 0), rng.randint(0, 2)), ((0, 1), rng.randint(0, 2)),
         ((-1, 1), rng.randint(1, 4)), ((0, -1), rng.randint(1, 3))],
    ]
    while True:
        try:
            return HPolytope(2, rng.choice(candidates))
        except ToricGitError:
            continue


def test_minkowski_closure_on_random_polytopes():
    rng = Random(17)
    for _ in range(25):
        poly = random_valid_polytope(rng)
        sums = [sum(lv * u[j] for (u, _), lv in zip(poly.facets, poly.latvols()))
                for j in range(poly.n)]
        assert all(x == 0 for x in sums)


def random_unimodular(rng: Random, n: int):
    """Product of random elementary integer matrices (determinant +-1)."""
    from toricgit import linalg

    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += q * m[j][k]
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return m


def test_volume_and_latvols_invariant_under_unimodular_maps():
    # transforming points by U sends normals through the inverse transpose;
    # lattice volumes are GL(n, ZZ)-invariants, an oracle independent of the
    # coning recursion
    from toricgit import linalg
    from toricgit.lattice import primitive_content

    rng = Random(19)
    for poly in (SQUARE, P2_O3, CUBE):
        for _ in range(6):
            u = random_unimodular(rng, poly.n)
            uinv = invert_unimodular(u)
            # normal transform: rows of uinv applied on the right
            new_facets = []
            for normal, a in poly.facets:
                w = tuple(int(sum(normal[i] * uinv[i][j] for i in range(poly.n)))
                          for j in range(poly.n))
                prim, g = primitive_content(w)
                assert g == 1  # unimodular images of primitive vectors
                new_facets.append((w, a))
            moved = HPolytope(poly.n, new_facets)
            assert moved.volume() == poly.volume()
            assert moved.latvols() == poly.latvols()


PYRAMID = HPolytope(3, [((0, 0, 1), 0), ((0, -1, -1), 1), ((0, 1, -1), 1),
                        ((-1, 0, -1), 1), ((1, 0, -1), 1)])  # apex over a square


def unit_cube_system(n: int):
    return [(tuple(s * int(j == i) for j in range(n)), int(s == -1))
            for i in range(n) for s in (1, -1)]


def test_raw_systems_match_the_irredundant_polytope():
    # duplicate, scaled-duplicate, loose and tangent constraints appended to
    # a valid polytope change neither the volume nor the facet volumes; the
    # extra constraints get the facet volume of the face they touch
    rng = Random(23)
    for poly in (SQUARE, P2_O3, CUBE, PYRAMID, SEGMENT.dilate(3)):
        n = poly.n
        for _ in range(8):
            cons = list(poly.facets)
            expected = list(poly.latvols())
            i = rng.randrange(len(cons))
            u, a = cons[i]
            cons += [(u, a), (tuple(2 * x for x in u), 2 * a), (u, a + 1)]
            expected += [expected[i], expected[i], Fraction(0)]
            while n > 1:  # a supporting hyperplane parallel to no facet
                w = tuple(rng.randint(-3, 3) for _ in range(n))
                if all(linalg.int_rank([w, v]) == 2 for v, _ in poly.facets):
                    cons.append((w, -min(linalg.dot(v, w) for v in poly.vertices)))
                    expected.append(Fraction(0))
                    break
            order = list(range(len(cons)))
            rng.shuffle(order)
            vol, latvols, verts = hsystem_volume_data(n, [cons[k] for k in order])
            assert vol == poly.volume()
            assert latvols == [expected[k] for k in order]
            assert [point(r) for r in verts] == sorted(poly.vertices)


def test_flat_systems_have_zero_volume_and_their_own_facet_volume():
    # x = 0 slices the square [-1, 1]^2 to a segment of lattice length 2
    vol, latvols, verts = hsystem_volume_data(2, [((1, 0), 0), ((-1, 0), 0),
                                                 ((0, 1), 1), ((0, -1), 1)])
    assert vol == 0 and latvols == [2, 2, 0, 0] and len(verts) == 2
    # z = 0 slices the unit cube to the unit square, reached through two
    # opposite constraints; the remaining four touch it in edges
    cons = unit_cube_system(3)
    cons[5] = ((0, 0, -1), Fraction(0))
    vol, latvols, _ = hsystem_volume_data(3, cons)
    assert vol == 0 and latvols == [0, 0, 0, 0, 1, 1]
    assert hsystem_volume_data(2, [((1, 0), -1), ((-1, 0), 0), ((0, 1), 0),
                                   ((0, -1), 0)]) == (0, [0, 0, 0, 0], [])


def test_volume_engine_visits_each_face_once(monkeypatch):
    # one lattice kernel per face of dimension 2..n-1 of the n-cube; edges
    # take their lattice length gcd(p_a - p_b) and need none
    calls = count_calls(monkeypatch, linalg, "primitive_kernel")
    for n, faces in ((3, 6), (4, 32), (5, 130)):
        calls.clear()
        vol, latvols, _ = hsystem_volume_data(n, unit_cube_system(n))
        assert vol == 1 and latvols == [1] * (2 * n)
        assert calls["primitive_kernel"] == faces


def test_double_description_keeps_vectors_a_row_vanishes_on(monkeypatch):
    # on the n-cube system each lineality vector the first n + 1 rows meet
    # is a coordinate vector that every later such row vanishes on, so it
    # is never projected: the only primitive combinations are the 2^n - 1
    # new rays of the adjacency steps
    calls = count_calls(monkeypatch, linalg, "_along")
    for n in (2, 3, 4, 5):
        calls.clear()
        table, bounded = vertex_table(n, unit_cube_system(n))
        assert bounded and len(table) == 2 ** n
        assert calls["_along"] == 2 ** n - 1


def fraction_calls_in_cone(volume_data, *args) -> Counter:
    """Calls into fractions.py made while ``volume_data(*args)`` runs, split
    by whether a frame of its coning recursion (``cone``) is on the stack,
    and under "cone" the calls of that recursion, a function named ``cone``
    in the module of ``volume_data``."""
    calls = Counter()
    home = volume_data.__code__.co_filename

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code.co_name == "cone" and frame.f_code.co_filename == home:
            calls["cone"] += 1
        if frame.f_code.co_filename == fractions.__file__:
            caller = frame.f_back
            while caller is not None and caller.f_code.co_name != "cone":
                caller = caller.f_back
            calls["inside" if caller else "outside"] += 1

    sys.setprofile(profile)
    try:
        volume_data(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_volume_recursion_makes_no_fraction():
    # the Fractions are the input supports and the outputs only; the
    # Fraction oracle shows that the probe sees arithmetic inside ``cone``
    facets = unit_cube_system(4) + [((1, 1, 1, 1), Fraction(7, 3))]
    table, oracle_table = vertex_table(4, facets)[0], fraction_vertex_table(4, facets)[0]
    # and the "cone" count shows that it sees the engine's recursion at all
    for rates in (False, True):
        calls = fraction_calls_in_cone(hsystem_volume_data, 4, facets, table, rates)
        assert calls["cone"] and calls["inside"] == 0
        calls = fraction_calls_in_cone(fraction_volume_oracle, 4, facets, oracle_table, rates)
        assert calls["cone"] and calls["inside"]


def oracle_system(rng: Random, n: int, kind: str):
    """A seeded bounded system in dimension n: the simplex's or the cube's
    normals and up to three random cuts (some not primitive), with rational
    supports, then modified by ``kind``."""
    simplex = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    cube = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    normals = list(rng.choice((simplex, cube)))
    for _ in range(rng.randint(0, 3)):
        w = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(w):
            normals.append(w)
    cons = [(u, Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 7)))) for u in normals]
    if kind == "snapped":  # Newton iterates: float supports at denominators <= 10**12
        cons = [(u, Fraction(float(a) + rng.random() / 3).limit_denominator(10 ** 12))
                for u, a in cons]
    u, a = rng.choice(cons)
    if kind == "redundant":  # duplicate, scaled duplicate and loose copies
        cons += [(u, a), (tuple(2 * x for x in u), 2 * a), (u, a + 1)]
    elif kind == "tangent":  # a supporting hyperplane through the lowest vertex
        verts = vertex_table(n, cons)[0]
        w = tuple(rng.randint(-3, 3) for _ in range(n))
        if verts and any(w):
            cons.append((w, -min(linalg.dot(point(r), w) for r, _ in verts)))
    elif kind == "flat":  # <m, u> = -a
        cons.append((tuple(-x for x in u), -a))
    elif kind == "empty":
        cons.append((tuple(-x for x in u), -a - 1))
    rng.shuffle(cons)
    return cons


def test_integer_engine_matches_the_fraction_oracle():
    # bit-identical volumes, facet volumes, vertices and rates on 600 seeded
    # systems of dimensions 1-5, valid or not
    rng = Random(37)
    kinds = ("plain", "snapped", "redundant", "tangent", "flat", "empty")
    seen = Counter()
    for _ in range(600):
        n, kind = rng.choice((1, 2, 2, 3, 3, 3, 4, 4, 5)), rng.choice(kinds)
        cons = oracle_system(rng, n, kind)
        vol, latvols, rays, rates = hsystem_volume_data(n, cons, rates=True)
        want = fraction_volume_oracle(n, cons, rates=True)
        assert (vol, latvols, [point(r) for r in rays], rates) == want
        assert all(type(x) is Fraction for x in (vol, *latvols, *sum(rates, [])))
        seen[n, kind, vol > 0] += 1
    assert all(seen[n, kind, True] for n in range(1, 6) for kind in kinds[:4])
    assert all(seen[n, kind, False] for n in (2, 3, 4) for kind in kinds[4:])


def simple_polytope(rng: Random, n: int) -> HPolytope:
    """A seeded simple n-polytope: the cube's normals and up to three random
    cuts with random supports, redrawn until every vertex is on n facets."""
    while True:
        normals = {tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(w):
                normals.add(primitive_content(w)[0])
        facets = [(u, Fraction(rng.randint(10, 40), rng.choice((7, 10)))) for u in sorted(normals)]
        try:
            poly = HPolytope(n, facets)
        except InfeasibleError:
            continue
        if all(len(act) == n for act in poly._vertex_active):
            return poly


def forward_derivative(values, h):
    """p'(0) for the polynomial p of degree < len(values) with p(k h) =
    values[k]: sum_k (-1)^(k+1) Delta^k p(0) / k, exact for such p."""
    total, diffs = Fraction(0), list(values)
    for k in range(1, len(values)):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        total += Fraction((-1) ** (k + 1), k) * diffs[0]
    return total / h


def test_volume_rates_match_exact_finite_differences():
    # While the combinatorial type holds, latvol(F) is a polynomial of degree
    # n - 1 in a_G, so n values at the steps 0, h, ..., (n-1) h give its
    # derivative exactly.  Tangent facets (latvol 0) are left out: moving one
    # out changes nothing and moving it in cuts a new facet, so their rates
    # are one-sided.  A constraint tangent at one vertex is appended to the
    # rates call only, where it must get a zero row and column and leave
    # the other rates alone.
    rng = Random(29)
    h = Fraction(1, 10 ** 6)
    for k in range(8):
        n = 3 if k < 6 else 4
        poly = simple_polytope(rng, n)
        facets, m = list(poly.facets), poly.num_facets
        while True:  # a supporting hyperplane that meets the polytope in one vertex
            w = primitive_content([rng.randint(1, 9) * rng.choice((1, -1))
                                   for _ in range(n)])[0]
            heights = sorted(linalg.dot(v, w) for v in poly.vertices)
            if heights[0] < heights[1] and w not in [u for u, _ in facets]:
                break
        vol, latvols, _, rates = hsystem_volume_data(n, facets + [(w, -heights[0])],
                                                     rates=True)
        assert latvols[m] == 0 and not any(rates[m]) and not any(r[m] for r in rates)
        for g, (u, a) in enumerate(facets):
            moved = [hsystem_volume_data(n, facets[:g] + [(u, a + j * h)] + facets[g + 1:])[1]
                     for j in range(n)]
            for f in range(m):
                assert rates[f][g] == forward_derivative([lv[f] for lv in moved], h)
        # the rates are the Hessian of the volume: symmetric
        assert all(rates[f][g] == rates[g][f] for f in range(m) for g in range(m))


def assert_same_polytope(moved, fresh):
    assert moved == fresh
    assert moved.vertices == fresh.vertices
    assert moved.face_lattice == fresh.face_lattice
    assert moved.volume() == fresh.volume()
    assert moved.latvols() == fresh.latvols()


def test_translate_and_dilate_match_fresh_polytopes():
    # the face lattice and the volumes are carried over by the moves when
    # already computed, and computed afresh otherwise
    rng = Random(31)
    carried = Counter()
    for n in (1, 2, 3, 4):
        for _ in range(6):
            poly = random_polytope(rng, n)
            if rng.random() < 0.5:
                poly.face_lattice
            if rng.random() < 0.5:
                poly.volume()
            t = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(n)]
            k = Fraction(rng.randint(1, 7), rng.choice((1, 2, 3)))
            for moved in (poly.translate(t), poly.dilate(k), poly.dilate(k).translate(t)):
                carried["_volume_data" in vars(moved)] += 1
                assert_same_polytope(moved, HPolytope(n, moved.facets))
    assert carried[True] >= 20 and carried[False] >= 20


def test_moves_run_no_fourier_motzkin(monkeypatch):
    calls = count_calls(monkeypatch, linalg, "feasible_point")
    for poly in (SQUARE, P2_O3, CUBE, PYRAMID):
        poly.translate([1] * poly.n).dilate(3).translate([Fraction(1, 2)] * poly.n)
    assert calls["feasible_point"] == 0


def test_degree_examples():
    assert P2_O3.degree(DivisorClass.from_dict({})) == 0
    assert P2_O3.degree(DivisorClass.from_dict({0: 1})) == 3
    assert P2_O3.degree(anticanonical(P2_O3)) == 9
    o1 = HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)])
    assert o1.degree(anticanonical(o1)) == 3


def test_degree_unknown_facet():
    with pytest.raises(InputError):
        P2_O3.degree(DivisorClass.from_dict({7: 1}))


def test_divisor_class_arithmetic():
    a = DivisorClass.from_dict({0: 1, 1: 2})
    b = DivisorClass.from_dict({1: -2, 2: 5})
    assert divisor_sum(a, b).as_dict() == {0: Fraction(1), 2: Fraction(5)}
    assert divisor_neg(a).as_dict() == {0: Fraction(-1), 1: Fraction(-2)}
    assert divisor_scale(a, 3).as_dict() == {0: Fraction(3), 1: Fraction(6)}


def test_json_round_trip():
    for poly in (SQUARE, P2_O3, SEGMENT, CUBE):
        assert HPolytope.from_json_dict(poly.to_json_dict()) == poly
    rational = HPolytope(2, [((1, 0), Fraction(1, 3)), ((-1, 0), Fraction(2, 5)),
                             ((0, 1), 1), ((0, -1), 1)])
    assert HPolytope.from_json_dict(rational.to_json_dict()) == rational

from fractions import Fraction
from random import Random

import pytest

from toricgit import linalg
from toricgit.errors import FacetMismatch, InputError
from toricgit.klyachko import (
    FiltrationSheaf,
    SheafMorphism,
    Subspace,
    det_indices,
    dimension_jumps,
    direct_sum,
    dual,
    first_chern,
    inclusion_morphism,
    is_morphism,
    line_bundle,
    sections_on_chart,
    structure_sheaf,
    subsheaf,
)
from toricgit.polytope import HPolytope

from util import random_sheaf, random_subspace

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
    assert first_chern(direct_sum(s1, s2)) == first_chern(s1) + first_chern(s2)


def test_subsheaf_full_space_is_identity():
    assert subsheaf(TANGENT, E2) == TANGENT


def test_subsheaf_jump_line():
    sub = subsheaf(TANGENT, L1)
    assert sub.rank == 1
    assert sub.jump_indices(0) == (-1,)   # L1 enters at the early step
    assert sub.jump_indices(1) == (0,)
    assert sub.jump_indices(2) == (0,)


def test_subsheaf_generic_line():
    generic = Subspace.span(2, [(1, 2)])
    sub = subsheaf(TANGENT, generic)
    assert all(sub.jump_indices(f) == (0,) for f in range(3))


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


def test_morphism_identity_zero_and_violation():
    ident = SheafMorphism(TANGENT, TANGENT, linalg.identity_mat(2))
    zero = SheafMorphism(TANGENT, TANGENT,
                         ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))
    assert is_morphism(ident)
    assert is_morphism(zero)
    # send the deep line at facet 0 somewhere shallow
    swap = SheafMorphism(TANGENT, TANGENT,
                         ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))))
    assert not is_morphism(swap)


def test_morphism_composition_closed():
    rng = Random(23)
    s = random_sheaf(rng, 2, 3)
    ident = SheafMorphism(s, s, linalg.identity_mat(2))
    half = SheafMorphism(s, s, ((Fraction(1, 2), Fraction(0)),
                                (Fraction(0), Fraction(1, 2))))
    assert is_morphism(half)
    comp = half.compose(ident)
    assert is_morphism(comp)


def test_inclusion_of_subsheaf_is_morphism():
    rng = Random(31)
    for _ in range(10):
        s = random_sheaf(rng, 3, 3)
        w = random_subspace(rng, 3, rng.randint(1, 2))
        assert is_morphism(inclusion_morphism(s, w))


def test_direct_sum_facet_mismatch():
    with pytest.raises(FacetMismatch):
        direct_sum(TANGENT, structure_sheaf(2))


def test_json_round_trip():
    rng = Random(40)
    for _ in range(10):
        s = random_sheaf(rng, rng.randint(1, 3), rng.randint(1, 4))
        assert FiltrationSheaf.from_json_dict(s.to_json_dict()) == s

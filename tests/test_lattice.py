from random import Random

import pytest

from toricgit import linalg
from toricgit.errors import DimensionMismatch, NotSaturated, ZeroVector
from toricgit.lattice import (
    Lattice,
    Sublattice,
    primitive_content,
    quotient,
    saturate,
    saturation_index,
)

from util import snf_saturation_oracle

L2 = Lattice(2)
L3 = Lattice(3)


def test_saturate_single_vector_content():
    s = Sublattice(L2, ((2, 2),))
    assert saturate(s).generators == ((1, 1),)


def test_saturate_already_saturated():
    s = Sublattice(L2, ((1, 0),))
    assert saturate(s).generators == ((1, 0),)


def test_saturate_rank_two_in_z3_matches_snf_oracle():
    gens = ((2, 0, 0), (0, 3, 0))
    expected = snf_saturation_oracle(gens, 3)
    assert expected == ((1, 0, 0), (0, 1, 0))
    assert saturate(Sublattice(L3, gens)).generators == expected


@pytest.mark.parametrize("trial", range(40))
def test_saturate_random_against_snf_oracle(trial):
    rng = Random(1000 + trial)
    n = rng.randint(1, 4)
    m = rng.randint(1, n)
    gens = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(m))
    if not any(any(g) for g in gens):
        return
    s = Sublattice(Lattice(n), gens)
    assert saturate(s).generators == snf_saturation_oracle(s.generators, n)


def test_saturate_idempotent_and_contains():
    rng = Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        gens = tuple(tuple(rng.randint(-4, 4) for _ in range(n))
                     for _ in range(rng.randint(1, n)))
        if not any(any(g) for g in gens):
            continue
        s = Sublattice(Lattice(n), gens)
        sat = saturate(s)
        assert saturate(sat) == sat
        for g in s.generators:
            assert sat.contains(g)


def test_saturation_index_snf_diagonal_product():
    s = Sublattice(L3, ((2, 0, 0), (0, 3, 0)))
    assert saturation_index(s) == 6
    assert saturation_index(Sublattice(L2, ((1, 0),))) == 1
    assert saturation_index(Sublattice(L2, ((2, 2),))) == 2
    assert saturation_index(Sublattice(L3, ())) == 1
    # against the Smith diagonal of the raw generators, rank-deficient ones too
    rng = Random(61)
    for _ in range(600):
        n = rng.randint(1, 5)
        gens = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        d, _, _ = linalg.smith_normal_form(gens)
        want = 1
        for i in range(min(len(gens), n)):
            want *= d[i][i] or 1
        assert saturation_index(Sublattice(Lattice(n), gens)) == want, gens


def test_quotient_by_diagonal():
    q = quotient(L2, Sublattice(L2, ((1, 1),)))
    # pi(a, b) = a - b up to a unimodular (sign) choice
    assert q.rank == 1
    image = q.project((1, 0))[0]
    assert abs(image) == 1
    assert q.project((1, 1)) == (0,)


def test_quotient_not_saturated():
    with pytest.raises(NotSaturated):
        quotient(L2, Sublattice(L2, ((2, 2),)))


def test_quotient_coordinate_kernel():
    q = quotient(L3, Sublattice(L3, ((0, 0, 1),)))
    assert q.rank == 2
    assert q.project((0, 0, 5)) == (0, 0)
    # projection restricted to the first two coordinates is unimodular
    mat = [list(q.project((1, 0, 0))), list(q.project((0, 1, 0)))]
    assert abs(mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]) == 1


def test_quotient_kernel_and_surjectivity_invariants():
    rng = Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        g = rng.randint(0, n - 1) if n > 1 else 0
        gens = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(g))
        gens = tuple(v for v in gens if any(v))
        lat = Lattice(n)
        n0 = saturate(Sublattice(lat, gens))
        q = quotient(lat, n0)
        # pi(v) = 0 iff v in N0
        for _ in range(20):
            v = tuple(rng.randint(-6, 6) for _ in range(n))
            assert (not any(q.project(v))) == n0.contains(v)
        # surjectivity witnessed by the section
        for j in range(q.rank):
            e = tuple(1 if i == j else 0 for i in range(q.rank))
            assert q.project(q.lift(e)) == e


def test_primitive_content_examples():
    assert primitive_content((2, 4)) == ((1, 2), 2)
    assert primitive_content((1, 0, 0)) == ((1, 0, 0), 1)
    assert primitive_content((-3, 6, -9)) == ((-1, 2, -3), 3)


def test_primitive_content_zero_vector():
    with pytest.raises(ZeroVector):
        primitive_content((0, 0))


def test_primitive_content_scaling_property():
    rng = Random(11)
    for _ in range(50):
        n = rng.randint(1, 4)
        v = tuple(rng.randint(-6, 6) for _ in range(n))
        if not any(v):
            continue
        prim, c = primitive_content(v)
        k = rng.randint(1, 5)
        assert primitive_content(tuple(k * x for x in v)) == (prim, k * c)
        assert linalg.vec_content(prim) == 1


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        Sublattice(L2, ((1, 2, 3),))


def test_sublattice_equality_is_structural():
    a = Sublattice(L2, ((1, 1), (0, 2)))
    b = Sublattice(L2, ((1, 3), (0, 2)))
    assert a == b  # same row lattice, same Hermite form

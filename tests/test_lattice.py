from fractions import Fraction
from random import Random

import pytest

from toricgit import linalg
from toricgit.errors import DimensionMismatch, InputError, NotSaturated, ZeroVector
from toricgit.lattice import (
    Sublattice,
    primitive_content,
    quotient,
    saturate,
    saturation_index,
)

from util import diagonal_saturation_oracle, rref_oracle


def test_saturate_single_vector_content():
    s = Sublattice(2, ((2, 2),))
    assert saturate(s).generators == ((1, 1),)


def test_saturate_already_saturated():
    s = Sublattice(2, ((1, 0),))
    assert saturate(s).generators == ((1, 0),)


def test_saturate_rank_two_in_z3_matches_snf_oracle():
    gens = ((2, 0, 0), (0, 3, 0))
    expected = diagonal_saturation_oracle(gens, 3)
    assert expected == ((1, 0, 0), (0, 1, 0))
    assert saturate(Sublattice(3, gens)).generators == expected


@pytest.mark.parametrize("trial", range(40))
def test_saturate_random_against_snf_oracle(trial):
    rng = Random(1000 + trial)
    n = rng.randint(1, 4)
    m = rng.randint(1, n)
    gens = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(m))
    if not any(any(g) for g in gens):
        return
    s = Sublattice(n, gens)
    assert saturate(s).generators == diagonal_saturation_oracle(s.generators, n)


def test_saturate_idempotent_and_contains():
    rng = Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        gens = tuple(tuple(rng.randint(-4, 4) for _ in range(n))
                     for _ in range(rng.randint(1, n)))
        if not any(any(g) for g in gens):
            continue
        s = Sublattice(n, gens)
        sat = saturate(s)
        assert saturate(sat) == sat
        for g in s.generators:
            assert sat.contains(g)


def test_saturation_index_snf_diagonal_product():
    s = Sublattice(3, ((2, 0, 0), (0, 3, 0)))
    assert saturation_index(s) == 6
    assert saturation_index(Sublattice(2, ((1, 0),))) == 1
    assert saturation_index(Sublattice(2, ((2, 2),))) == 2
    assert saturation_index(Sublattice(3, ())) == 1
    # against the diagonal form of the raw generators, rank-deficient ones
    # too: the product of its nonzero entries is that of the Smith form
    rng = Random(61)
    for _ in range(600):
        n = rng.randint(1, 5)
        gens = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        d, _, _ = linalg.diagonal_form(gens)
        want = 1
        for i in range(min(len(gens), n)):
            want *= d[i][i] or 1
        assert saturation_index(Sublattice(n, gens)) == want, gens


def member_oracle(gens, v):
    """v in the ZZ-span of independent rows: solve sum c_i g_i = v over QQ
    by the Fraction Gauss-Jordan oracle, then check that every c_i is an
    integer."""
    k = len(gens)
    if not k:
        return not any(v)
    reduced, pivots = rref_oracle([[*col, x] for col, x in zip(zip(*gens), v)])
    return k not in pivots and all(row[k].denominator == 1 for row in reduced)


def test_contains_matches_a_rational_solve_on_non_saturated_lattices():
    rng = Random(65)
    seen = dict.fromkeys(("member", "rational", "outside"), 0)
    for _ in range(200):
        n = rng.randint(1, 4)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))]
        gens[0] = [3 * x for x in gens[0]]  # usually of index > 1 in its saturation
        s = Sublattice(n, gens)
        if not s.generators or saturation_index(s) == 1:
            continue
        g = s.generators
        vectors = [tuple(rng.randint(-6, 6) for _ in range(n)), *saturate(s).generators]
        for den in (1, 1, 2, 3):  # integer and fractional combinations
            coeffs = [Fraction(rng.randint(-5, 5), den) for _ in g]
            w = [sum(c * row[j] for c, row in zip(coeffs, g)) for j in range(n)]
            if all(x.denominator == 1 for x in w):
                vectors.append(tuple(int(x) for x in w))
        for v in vectors:
            want = member_oracle(g, v)
            assert s.contains(v) == want, (g, v)
            in_span = len(rref_oracle([*g, v])[1]) == len(g)
            seen["member" if want else "rational" if in_span else "outside"] += 1
    assert all(count >= 50 for count in seen.values()), seen


def test_quotient_by_diagonal():
    q = quotient(2, Sublattice(2, ((1, 1),)))
    # pi(a, b) = a - b up to a unimodular (sign) choice
    assert q.rank == 1
    image = q.project((1, 0))[0]
    assert abs(image) == 1
    assert q.project((1, 1)) == (0,)


def test_quotient_not_saturated():
    with pytest.raises(NotSaturated):
        quotient(2, Sublattice(2, ((2, 2),)))


def test_quotient_coordinate_kernel():
    q = quotient(3, Sublattice(3, ((0, 0, 1),)))
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
        n0 = saturate(Sublattice(n, gens))
        q = quotient(n, n0)
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
        Sublattice(2, ((1, 2, 3),))
    # the lattice is its rank: a non-negative int
    with pytest.raises(DimensionMismatch, match="lattice rank must be >= 0"):
        Sublattice(-1, ())
    for rank in (2.0, True, "2", None):
        with pytest.raises(InputError, match="expected integer"):
            Sublattice(rank, ())


def test_sublattice_equality_is_structural():
    a = Sublattice(2, ((1, 1), (0, 2)))
    b = Sublattice(2, ((1, 3), (0, 2)))
    assert a == b  # same row lattice, same Hermite form

"""Shared test helpers: random data generators and independent oracles."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from random import Random

from toricgit import linalg
from toricgit.build import hirzebruch, product, projective_space
from toricgit.errors import InfeasibleError, InputError
from toricgit.git import GitSetup, translation_classes
from toricgit.klyachko import FiltrationSheaf, Subspace
from toricgit.lattice import Lattice, Sublattice, primitive_content, saturate
from toricgit.polytope import HPolytope, vertex_table


def rref_oracle(rows):
    """Reduced row echelon form by plain Gauss-Jordan in Fractions, as
    (nonzero rows, pivot columns): independent of ``linalg.echelon``."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def affine_rank(pts):
    """Dimension of the affine hull of the points (the rank of the
    homogenized points (p, 1), minus 1); -1 for no points.  Read off the
    plain oracle, independent of the package's face dimensions."""
    return len(rref_oracle([(*p, 1) for p in pts])[1]) - 1


def solve_square(a, b):
    """Solve a*x = b for square a; None when a is singular."""
    n = len(a)
    reduced, pivots = rref_oracle([[*row, bb] for row, bb in zip(a, b)])
    if pivots != list(range(n)):
        return None
    return tuple(reduced[i][n] for i in range(n))


def invert_unimodular(mat):
    """Inverse of a unimodular integer matrix."""
    n = len(mat)
    reduced, pivots = rref_oracle([[*row, *linalg.identity_mat(n)[i]]
                                   for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        raise ValueError("matrix is not invertible")
    inv = [row[n:] for row in reduced]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def diagonal_saturation_oracle(gens, n):
    """Saturation via the diagonal form u * gens * v = d: rows i of v^-1
    with nonzero diagonal span the saturation (independent of the
    double-perp route)."""
    d, u, v = linalg.diagonal_form([list(g) for g in gens])
    vinv = invert_unimodular(v)
    rows = [vinv[i] for i in range(min(len(d), n)) if i < len(d[0] if d else []) and d[i][i]]
    return linalg.hnf_rows(rows)


def random_subspace(rng: Random, ambient: int, dim: int) -> Subspace:
    while True:
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(ambient)]
                for _ in range(dim)]
        s = Subspace.span(ambient, rows)
        if s.dim == dim:
            return s


def random_flag(rng: Random, ambient: int, dims: list[int]) -> list[Subspace]:
    """Nested subspaces of the given (strictly increasing) dimensions."""
    while True:
        mat = [[rng.randint(-4, 4) for _ in range(ambient)] for _ in range(ambient)]
        if linalg.int_rank(mat) == ambient:
            break
    return [Subspace.span(ambient, mat[:d]) for d in dims]


def random_sheaf(
    rng: Random,
    rank: int,
    num_facets: int,
    lo: int = -3,
    hi: int = 3,
    multiples=None,
) -> FiltrationSheaf:
    """Random filtration sheaf; jump indices on facet f are multiples of
    multiples[f] when given."""
    filts = []
    for f in range(num_facets):
        steps = rng.randint(1, rank)
        dims = sorted(rng.sample(range(1, rank + 1), steps))
        if dims[-1] != rank:
            dims[-1] = rank
        dims = sorted(set(dims))
        flag = random_flag(rng, rank, dims)
        m = multiples[f] if multiples else 1
        idx = sorted(rng.sample(range(lo, hi + 1), len(dims)))
        jumps = tuple((m * i, v) for i, v in zip(idx, flag))
        filts.append(jumps)
    return FiltrationSheaf(rank, tuple(filts))


BASE_FAMILIES = (
    lambda: projective_space(2, 1),
    lambda: projective_space(2, 2),
    lambda: hirzebruch(1),
    lambda: hirzebruch(2, (0, 0, 2, 1)),
    lambda: product(projective_space(1, 1), projective_space(1, 2)),
)

DIRECTIONS_2D = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, 3), (2, -1))


def random_generic_setup(rng: Random, max_dilation: int = 3) -> GitSetup:
    """A random generic rank-1-subgroup setup drawn from the 2-d families."""
    while True:
        poly = rng.choice(BASE_FAMILIES)()
        direction = rng.choice(DIRECTIONS_2D)
        n0 = Sublattice(Lattice(2), (direction,))
        candidates = []
        for k in range(1, max_dilation + 1):
            for _, moved in translation_classes(poly, n0, k):
                setup = GitSetup(moved, n0)
                if setup.is_generic():
                    candidates.append(setup)
        if candidates:
            return rng.choice(candidates)


def random_quotient_sheaf(rng: Random, setup: GitSetup, max_rank: int = 3) -> FiltrationSheaf:
    py, _, _ = setup.quotient_polytope()
    rank = rng.randint(1, max_rank)
    return random_sheaf(rng, rank, py.num_facets)


def brute_force_vertices(poly: HPolytope):
    """Vertex oracle for a polytope, as a set (see below)."""
    return set(brute_force_system_vertices(poly.n, poly.facets))


def brute_force_system_vertices(n: int, cons):
    """Vertex oracle for a raw system {m : <m,u> >= -a}: the feasible
    intersections of n constraint hyperplanes, sorted.  Independent of the
    double description in the package; redundant, duplicate, empty, flat
    and unbounded systems are all fine."""
    out = set()
    for subset in combinations(range(len(cons)), n):
        x = solve_square([cons[i][0] for i in subset], [-cons[i][1] for i in subset])
        if x is not None and all(linalg.dot(x, u) >= -a for u, a in cons):
            out.add(x)
    return sorted(out)


def normalized_supports(normals, supports) -> list[float]:
    """Barycenter-gauged, unit-norm support vector of an exact class, for
    scale/translation-free comparison against a solver result."""
    n = len(normals[0])
    cons = [(u, Fraction(a)) for u, a in zip(normals, supports)]
    verts = [v for v, _ in vertex_table(n, cons)[0]]
    if not verts:
        raise InputError("class defines an empty polytope")
    bary = [sum(v[j] for v in verts) / len(verts) for j in range(n)]
    gauged = [float(a + linalg.dot(bary, u)) for u, a in cons]
    norm = math.sqrt(sum(x * x for x in gauged))
    return [x / norm for x in gauged]


def solved_polytope(sol, max_denominator: int = 10 ** 6) -> HPolytope:
    """The polytope of a Minkowski solution: its exact supports, else its
    float supports snapped at denominators <= max_denominator."""
    supports = sol.exact
    if supports is None:
        supports = [Fraction(a).limit_denominator(max_denominator) for a in sol.supports]
    return HPolytope(len(sol.normals[0]), zip(sol.normals, supports))


def count_calls(monkeypatch, module, name: str) -> Counter:
    """Patch ``module.name`` to count its calls under ``name`` in the
    returned Counter."""
    calls = Counter()
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def random_polytope(rng: Random, n: int) -> HPolytope:
    """A random valid n-polytope: the normals of the standard simplex or
    cube plus up to three random primitive cuts, with supports in [0, 6]
    (some halves), so the origin lies in it, often on its boundary."""
    simplex = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    cube = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    while True:
        normals = set(rng.choice((simplex, cube)))
        for _ in range(rng.randint(0, 3)):
            w = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(w):
                normals.add(primitive_content(w)[0])
        facets = [(u, Fraction(rng.randint(0, 6), rng.choice((1, 1, 2))))
                  for u in sorted(normals)]
        try:
            return HPolytope(n, facets)
        except InfeasibleError:
            continue


def random_saturated_sublattice(rng: Random, n: int, rank: int) -> Sublattice:
    """A random saturated rank-``rank`` sublattice of ZZ^n."""
    while True:
        gens = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rank))
        sub = saturate(Sublattice(Lattice(n), gens))
        if sub.rank == rank:
            return sub

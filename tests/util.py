"""Shared test helpers: random data generators and independent oracles."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Optional, Sequence

from toricgit import linalg
from toricgit.build import hirzebruch, product, projective_space
from toricgit.errors import InfeasibleError, InputError
from toricgit.git import GitSetup, translation_classes
from toricgit.klyachko import FiltrationSheaf, Subspace
from toricgit.lattice import Sublattice, primitive_content, saturate
from toricgit.linalg import Vec, vertex_table
from toricgit.polytope import DivisorClass, HPolytope


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


def coordinate_sheaf(rng: Random, rank: int, num_facets: int) -> FiltrationSheaf:
    """Random sheaf whose jump subspaces are all spanned by standard basis
    vectors: on each facet a prefix flag of a random coordinate order."""
    filts = []
    for _ in range(num_facets):
        order = rng.sample(range(rank), rank)
        dims = sorted(set(rng.sample(range(1, rank + 1), rng.randint(1, rank))) | {rank})
        idx = sorted(rng.sample(range(-3, 4), len(dims)))
        filts.append(tuple(
            (i, Subspace.span(rank, [linalg.identity_mat(rank)[c] for c in order[:k]]))
            for i, k in zip(idx, dims)))
    return FiltrationSheaf(rank, tuple(filts))


def transformed_sheaf(g: Sequence[Sequence[int]], sheaf: FiltrationSheaf) -> FiltrationSheaf:
    """g . S for an invertible matrix g: every jump subspace E becomes gE."""
    return FiltrationSheaf(sheaf.rank, tuple(
        tuple((i, Subspace.span(sheaf.rank, [[linalg.dot(row, e) for row in g]
                                             for e in v.rows]))
              for i, v in filt)
        for filt in sheaf.filtrations))


def morphism_oracle(source: FiltrationSheaf, target: FiltrationSheaf, matrix) -> bool:
    """The definition of an equivariant morphism (Klyachko 1990): the
    target.rank x source.rank matrix maps E_S^F(i) into E_T^F(i) at every
    jump (i, E) of the source.  Each image is tested by a Fraction
    Gauss-Jordan rank (``rref_oracle``), not by ``Subspace`` relations."""
    for f, filt in enumerate(source.filtrations):
        for i, v in filt:
            e_t = target.value_at(f, i).rows
            for e in v.rows:
                image = [sum(Fraction(a) * b for a, b in zip(row, e)) for row in matrix]
                if len(rref_oracle([*e_t, image])[1]) != len(e_t):
                    return False
    return True


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
        n0 = Sublattice(2, (direction,))
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
    verts = [point(r) for r, _ in vertex_table(n, cons)[0]]
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


def non_simple_polytope(rng: Random, n: int) -> HPolytope:
    """A seeded non-simple n-polytope, n >= 3: the pyramid over the cube
    [-1, 1]^(n-1) with apex e_n (the square pyramid for n = 3), whose apex
    is tight on 2n - 2 > n facets, or the cross-polytope {sum |m_i| <= 1}
    (the octahedron for n = 3), whose every vertex is tight on 2^(n-1) > n;
    dilated by 1..3 and translated by a vector in {-1, 0, 1}^n."""
    e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if rng.random() < 0.5:
        facets = [(e[-1], 0)] + [(tuple(s * x - y for x, y in zip(e[i], e[-1])), 1)
                                 for i in range(n - 1) for s in (1, -1)]
    else:
        facets = [(tuple(1 - 2 * (b >> i & 1) for i in range(n)), 1) for b in range(2 ** n)]
    k = rng.randint(1, 3)
    t = [rng.randint(-1, 1) for _ in range(n)]
    return HPolytope(n, [(u, k * a - linalg.dot(t, u)) for u, a in facets])


def count_face_dim_branches(monkeypatch) -> Counter:
    """Patch ``HPolytope._face_dim`` to count its calls by branch: "simple"
    when a vertex tight on exactly n facets gives the rank, "rank" when it
    falls back to ``linalg.int_rank``."""
    ranks = count_calls(monkeypatch, linalg, "int_rank")
    branches = Counter()
    original = HPolytope._face_dim

    def counting(self, tights):
        before = ranks["int_rank"]
        out = original(self, tights)
        branches["rank" if ranks["int_rank"] > before else "simple"] += 1
        return out

    monkeypatch.setattr(HPolytope, "_face_dim", counting)
    return branches


def random_saturated_sublattice(rng: Random, n: int, rank: int) -> Sublattice:
    """A random saturated rank-``rank`` sublattice of ZZ^n."""
    while True:
        gens = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rank))
        sub = saturate(Sublattice(n, gens))
        if sub.rank == rank:
            return sub


# ---------------------------------------------------------------------------
# the Fraction vertex table and cone recursion, the vertex and volume oracles


def point(ray: Sequence[int]) -> Vec:
    """The vertex m/t of a ``vertex_table`` ray (m, t)."""
    return tuple(Fraction(x, ray[-1]) for x in ray[:-1])


def fraction_vertex_table(n: int, cons: Sequence[linalg.Constraint]):
    """Oracle for ``linalg.vertex_table`` as the package computed it before
    its vertices stayed integer rays: the same double description, each ray
    (m, t) with t > 0 read as the point m/t, and the table sorted by those
    Fraction points.  Returns (sorted (point, tight set) pairs, whether the
    normals positively span)."""
    rows = [(0,) * n + (1,)] + [(*u, a) for u, a in cons]
    lin, rays = linalg._cone_dd(rows, n + 1)
    if lin:
        return [], False
    return sorted((tuple(Fraction(x, r[n]) for x in r[:n]),
                   frozenset(i for i in range(len(cons)) if z >> (i + 1) & 1))
                  for r, z in rays if r[n] > 0), all(r[n] for r, _ in rays)


def fraction_volume_oracle(
    n: int, cons: Sequence[linalg.Constraint], table: Optional[linalg.VertexTable] = None,
    rates: bool = False,
):
    """Oracle for ``polytope.hsystem_volume_data``: the same cone
    recursion run in Fractions on the unscaled system, as the package
    computed it before its recursion moved to integers.  ``table``, when
    given, is a ``fraction_vertex_table``.  Returns (volume, per-constraint
    facet volumes, vertices as Fraction points), and with ``rates`` the
    matrix H[F][G] = d latvol(F) / d a_G.

    Cones from a vertex over the facets, recursively:
        vol_k(F) = (1/k) * sum_G gap(v0, G) * vol_{k-1}(G)
    over the distinct faces G = F & tight(j) that miss the first vertex v0
    of F.  A face is a set of vertex ids measured at a level k, the rank of
    the lattice it is measured in.  Each level carries an integer basis of
    that lattice in global coordinates, so a gap is the apex's slack divided
    by the content of the constraint on the basis.  Volumes are memoized
    under (level, vertex ids), so each face is visited once.  The level is
    part of the key: a redundant constraint can touch a lower-dimensional
    face, whose volume is 0 at that level but not one level down.
    Redundant, duplicate and tangent constraints thus get zero-volume faces,
    and a lower-dimensional system has volume 0.

    The rates come from the memo.  For G != F, moving a_G moves the ridge
    F & G inside F's lattice at speed 1/g, where g is the content of u_G
    on that lattice, so H[F][G] = latvol(F & G) / g (a point ridge, n = 2,
    counts 1).  For primitive u_F, g is the index of the image of ZZ^n
    under (u_F, u_G), the gcd of their 2x2 minors.  Translations keep every
    facet volume, so sum_G H[F][G] u_G = 0, which gives the diagonal.  Rows
    of absent facets are 0, and the rates are one-sided where the system is
    not simple.
    """
    cons = [(tuple(int(x) for x in u), Fraction(a)) for u, a in cons]
    if table is None:
        table = fraction_vertex_table(n, cons)[0]
    verts = [v for v, _ in table]
    if not verts:
        out = Fraction(0), [Fraction(0)] * len(cons), verts
        return (*out, [[Fraction(0)] * len(cons) for _ in cons]) if rates else out
    tight = [frozenset(i for i, (_, act) in enumerate(table) if j in act)
             for j in range(len(cons))]
    memo: dict[tuple[int, frozenset[int]], Fraction] = {}

    def cone(k: int, ids: frozenset[int], basis) -> tuple[Fraction, list[Fraction]]:
        """(k-volume of the face ids, (k-1)-volume of ids & tight(j) per j)."""
        v0 = min(ids)
        total, latvols, seen = Fraction(0), [], set()
        for j, (u, a) in enumerate(cons):
            sub = ids & tight[j]
            w = [sum(x * y for x, y in zip(b, u)) for b in basis] if len(sub) >= k else ()
            if not any(w):  # too few vertices, or constant on the face
                latvols.append(Fraction(0))
                continue
            prim, g = primitive_content(w)
            if k == 1:
                vol = Fraction(1)
            elif (k - 1, sub) in memo:
                vol = memo[k - 1, sub]
            else:
                kernel = linalg.integer_kernel([prim], k)
                sub_basis = [[sum(c * b[t] for c, b in zip(row, basis)) for t in range(n)]
                             for row in kernel]
                vol = memo[k - 1, sub] = cone(k - 1, sub, sub_basis)[0]
            latvols.append(vol)
            if v0 not in sub and sub not in seen:
                seen.add(sub)
                total += (linalg.dot(verts[v0], u) + a) / g * vol
        return total / k, latvols

    identity = [[int(i == t) for t in range(n)] for i in range(n)]
    vol, latvols = cone(n, frozenset(range(len(verts))), identity)
    if not rates:
        return vol, latvols, verts
    hess = [[Fraction(0)] * len(cons) for _ in cons]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for f, (u, _) in enumerate(cons):
        if not latvols[f]:
            continue
        row, w = hess[f], primitive_content(u)[0]
        for j, (v, _) in enumerate(cons):
            g = math.gcd(*(w[p] * v[q] - w[q] * v[p] for p, q in pairs))
            sub = tight[f] & tight[j]
            if g and len(sub) >= n - 1:  # the tests of cone
                row[j] = (memo[n - 2, sub] if n > 2 else Fraction(1)) / g
        i = next(i for i, x in enumerate(u) if x)
        row[f] = -sum(h * v[i] for h, (v, _) in zip(row, cons)) / u[i]
    return vol, latvols, verts, hess


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility, the witness-point oracle

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


def fourier_motzkin_point(
    n: int,
    equalities: Sequence[tuple[Sequence, object]] = (),
    inequalities: Sequence[tuple[Sequence, object, bool]] = (),
) -> Optional[Vec]:
    """Oracle for ``linalg.feasible_point``: a witness of {x in QQ^n : a.x = c
    for equalities, a.x >= c (or >) for inequalities}, or None if the system
    is infeasible; bounded or not.

    Equalities are eliminated by substitution first, then Fourier-Motzkin
    runs on the reduced strict/non-strict system.
    """
    eqs = [(tuple(map(Fraction, a)), Fraction(c)) for a, c in equalities]
    sol = linalg.affine_solution_space(eqs, n)
    if sol is None:
        return None
    num, d, dirs = sol  # the rational point and kernel basis, as before
    point = tuple(Fraction(x, d) for x in num)
    basis = [tuple(Fraction(x, d) for x in w) for w in dirs]
    k = len(basis)
    cons: list[Constraint] = []
    for a, c, strict in inequalities:
        av = tuple(map(Fraction, a))
        c = Fraction(c)
        coefs = tuple(linalg.dot(av, b) for b in basis)
        rhs = c - linalg.dot(av, point)
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


# ---------------------------------------------------------------------------
# conveniences over package objects that only tests read


def support_vector(p: HPolytope) -> tuple[Fraction, ...]:
    return tuple(a for _, a in p.facets)


def active_set(p: HPolytope, m: Sequence) -> frozenset[int]:
    """The facets of p on whose hyperplane the point m lies."""
    mv = tuple(map(Fraction, m))
    return frozenset(i for i, (u, a) in enumerate(p.facets) if linalg.dot(mv, u) == -a)


def anticanonical(p: HPolytope) -> DivisorClass:
    return DivisorClass.from_dict({i: 1 for i in range(p.num_facets)})


def jump_indices(sheaf: FiltrationSheaf, facet: int) -> tuple[int, ...]:
    return tuple(i for i, _ in sheaf.filtrations[facet])


def divisor_sum(a: DivisorClass, b: DivisorClass) -> DivisorClass:
    d = a.as_dict()
    for k, v in b.coefficients:
        d[k] = d.get(k, 0) + v
    return DivisorClass.from_dict(d)


def divisor_neg(a: DivisorClass) -> DivisorClass:
    return DivisorClass(tuple((k, -v) for k, v in a.coefficients))


def divisor_scale(a: DivisorClass, c) -> DivisorClass:
    return DivisorClass.from_dict({k: c * v for k, v in a.coefficients})

"""Exact rational H-polytopes.

An HPolytope is the bounded full-dimensional set {m : <m, u_F> >= -a_F}
with primitive integer inward normals u_F and rational supports a_F.  Facets
index torus-invariant divisors, so redundant inequalities are rejected at
construction rather than dropped.

Volumes are lattice-normalized: the measure on a facet is induced by the
rank-(n-1) lattice of integer vectors in the facet direction, which makes
facet volume equal to the degree of the corresponding divisor against the
polytope's ample class.  They are computed in integers: the system is
scaled by the common denominator T of its vertices to a lattice polytope,
whose faces have integer normalized volumes N_k = k! * vol_k, and the
coning recursion N_k(F) = sum_G h_G * N_{k-1}(G) over integer lattice
distances h_G gives them all; only the results are divided, by k! * T^k
(Bueler, Enge and Fukuda 2000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from . import linalg, serialize
from .errors import (
    DimensionMismatch,
    EmptyPolytope,
    InputError,
    NotFullDimensional,
    RedundantInequality,
    Unbounded,
)
from .lattice import primitive_content
from .linalg import Constraint, IntVec, VertexTable, vertex_table

QVec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# raw halfspace-system volumes (shared with the Minkowski solver, which must
# evaluate volumes of systems that are not yet valid polytopes)


def hsystem_volume_data(
    n: int, cons: Sequence[Constraint], table: Optional[VertexTable] = None,
    rates: bool = False,
):
    """(volume, per-constraint facet volumes, vertex rays) of a bounded
    halfspace system, without validity requirements.  ``table``, when
    given, must be the system's ``vertex_table``; the tight sets of the
    constraints are read off its masks.  With ``rates`` a fourth entry is
    appended: the matrix H[F][G] = d latvol(F) / d a_G.

    The system is scaled by T, the lcm of the t of its vertex rays (m, t),
    so that T*P is the lattice polytope with vertices m * (T/t).  Then N_k(F) =
    k! * vol_k(F) is an integer for every face F measured at level k, and
    cones from a vertex over the facets give, recursively,
        N_k(F) = sum_G h_G * N_{k-1}(G)
    over the distinct faces G = F & tight(j) that miss the first vertex v0
    of F (N_0 = 1).  A face is a set of vertex ids measured at a level k,
    the rank of the lattice it is measured in.  Each level carries an
    integer basis of that lattice in global coordinates.  h_G is the
    lattice distance of v0 from G: <v0 - v, u_G> / g for any vertex v of G,
    g the content of u_G on the basis.  Both vertices are lattice points of
    T*P in the face's saturated lattice, so the division is exact and the
    recursion runs in integers.  N is memoized under (level, vertex ids),
    so each face is visited once.  The level is part of the key: a
    redundant constraint can touch a lower-dimensional face, whose volume
    is 0 at that level but not one level down.  Redundant, duplicate and
    tangent constraints thus get zero-volume faces, and a lower-dimensional
    system has volume 0.  Only the outputs are divided, once each:
    vol = N_n / (n! T^n) and latvol(F) = N_{n-1}(F) / ((n-1)! T^(n-1)).

    The rates come from the memo.  For G != F, moving a_G moves the ridge
    F & G inside F's lattice at speed 1/g, where g is the content of u_G
    on that lattice, so H[F][G] = latvol(F & G) / g (a point ridge, n = 2,
    counts 1).  For primitive u_F, g is the index of the image of ZZ^n
    under (u_F, u_G), the gcd of their 2x2 minors.  Translations keep every
    facet volume, so sum_G H[F][G] u_G = 0, which gives the diagonal.  Rows
    of absent facets are 0, and the rates are one-sided where the system is
    not simple.
    """
    normals = [u for u, _ in cons]
    if table is None:
        table = vertex_table(n, cons)[0]
    rays = [r for r, _ in table]
    if not rays:
        out = Fraction(0), [Fraction(0)] * len(normals), rays
        return (*out, [[Fraction(0)] * len(normals) for _ in normals]) if rates else out
    scale = math.lcm(*(r[n] for r in rays))
    points = [[x * (scale // r[n]) for x in r[:n]] for r in rays]
    tight = [frozenset(i for i, (_, act) in enumerate(table) if j in act)
             for j in range(len(normals))]
    memo: dict[tuple[int, frozenset[int]], int] = {}

    def cone(k: int, ids: frozenset[int], basis) -> tuple[int, list[int]]:
        """(N_k of the face ids, N_{k-1} of ids & tight(j) per j)."""
        v0 = min(ids)
        total, subvols, seen = 0, [], set()
        for j, u in enumerate(normals):
            sub = ids & tight[j]
            w = [linalg.dot(b, u) for b in basis] if len(sub) >= k else ()
            g = math.gcd(*w)
            if not g:  # too few vertices, or constant on the face
                subvols.append(0)
                continue
            if k == 1:
                vol = 1
            elif (k - 1, sub) in memo:
                vol = memo[k - 1, sub]
            else:
                sub_basis = [[sum(c * b[t] for c, b in zip(row, basis)) for t in range(n)]
                             for row in linalg.primitive_kernel([x // g for x in w])]
                vol = memo[k - 1, sub] = cone(k - 1, sub, sub_basis)[0]
            subvols.append(vol)
            if v0 not in sub and sub not in seen:
                seen.add(sub)
                total += (linalg.dot(points[v0], u) - linalg.dot(points[min(sub)], u)) // g * vol
        return total, subvols

    identity = [[int(i == t) for t in range(n)] for i in range(n)]
    top, subvols = cone(n, frozenset(range(len(rays))), identity)
    vol = Fraction(top, math.factorial(n) * scale ** n)
    unit = math.factorial(n - 1) * scale ** (n - 1)
    latvols = [Fraction(x, unit) for x in subvols]
    if not rates:
        return vol, latvols, rays
    hess = [[Fraction(0)] * len(normals) for _ in normals]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    ridge_unit = math.factorial(n - 2) * scale ** (n - 2) if n > 1 else 1
    for f, u in enumerate(normals):
        if not latvols[f]:
            continue
        row, w = hess[f], primitive_content(u)[0]
        for j, v in enumerate(normals):
            g = math.gcd(*(w[p] * v[q] - w[q] * v[p] for p, q in pairs))
            sub = tight[f] & tight[j]
            if g and len(sub) >= n - 1:  # the tests of cone
                row[j] = Fraction(memo[n - 2, sub] if n > 2 else 1, ridge_unit * g)
        i = next(i for i, x in enumerate(u) if x)
        row[f] = -sum(h * v[i] for h, v in zip(row, normals)) / u[i]
    return vol, latvols, rays, hess


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisorClass:
    """Formal rational combination sum_F c_F * D_F over facet indices."""

    coefficients: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_dict(d: Mapping[int, object]) -> "DivisorClass":
        """Integer facet ids to rational coefficients; zeros are dropped."""
        items = serialize.mapping(d, serialize.int_from_obj, serialize.frac_from_obj,
                                  "facet -> rational mapping").items()
        return DivisorClass(tuple(sorted((k, v) for k, v in items if v)))

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.coefficients)

    def to_json_dict(self) -> dict:
        return {str(k): serialize.frac_to_str(v) for k, v in self.coefficients}


@dataclass(frozen=True)
class Face:
    """A face of an HPolytope: the facets containing it, its dimension and
    its vertices."""

    active_facets: frozenset[int]
    dim: int
    vertex_ids: tuple[int, ...]

    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.active_facets))


class HPolytope:
    """Bounded full-dimensional rational polytope in halfspace form."""

    def __init__(self, n: int, facets: Iterable[tuple[Sequence[int], object]]):
        n = serialize.int_from_obj(n)
        if isinstance(facets, Iterator):  # e.g. zip(normals, supports)
            facets = tuple(facets)
        pairs = serialize.items(facets, lambda f: serialize.items(f, length=2, kind="facet pair"),
                                kind="facet list")
        normals = check_normals(n, [u for u, _ in pairs])
        supports = [serialize.frac_from_obj(a) for _, a in pairs]
        if n < 1:
            raise DimensionMismatch("polytope dimension must be >= 1")
        self.n = n
        self.facets: tuple[Constraint, ...] = tuple(zip(normals, supports))
        self._validate()

    # -- construction-time invariants ------------------------------------

    def _validate(self) -> None:
        """Read validity off the exact vertex table of the system: it is
        unbounded iff its normals do not positively span, else empty iff it
        has no vertex, has empty interior iff its dimension (``_face_dim``)
        is below n, and inequality i defines no facet iff no vertex is tight
        on it or the face it cuts out has dimension below n - 1."""
        if not self._table[1]:
            raise Unbounded("facet normals do not positively span; polytope unbounded")
        active = self._vertex_active
        if not active:
            raise EmptyPolytope("inconsistent supports: empty polytope")
        if self._face_dim(active) < self.n:
            raise NotFullDimensional("polytope has empty interior")
        for i, (u, _) in enumerate(self.facets):
            tight = [act for act in active if i in act]
            if not tight or self._face_dim(tight) < self.n - 1:
                raise RedundantInequality(
                    f"inequality {i} (normal {u}) does not define a facet")

    def _face_dim(self, tights: Sequence[frozenset[int]]) -> int:
        """Dimension of a nonempty face from the tight sets of its vertices.
        The inequalities tight on all of them, its implicit equalities, cut
        out its affine hull (Schrijver 1986, sec. 8), so it is n minus the
        rank of their normals.  The normals tight at a vertex have rank n
        (an extreme ray of the homogenized cone), so when a vertex is tight
        on exactly n of them they are independent, and so is the common
        subset: then the rank is its size, with no elimination."""
        common = frozenset.intersection(*tights)
        if any(len(t) == self.n for t in tights):
            return self.n - len(common)
        return self.n - linalg.int_rank([self.facets[f][0] for f in common])

    # -- basic geometry ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, HPolytope) and self.n == other.n \
            and self.facets == other.facets

    def __hash__(self):
        return hash((self.n, self.facets))

    def __repr__(self):
        return f"HPolytope(n={self.n}, facets={len(self.facets)})"

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    @cached_property
    def vertices(self) -> tuple[QVec, ...]:
        return tuple(tuple(Fraction(x, r[-1]) for x in r[:-1]) for r, _ in self._table[0])

    @cached_property
    def _vertex_active(self) -> tuple[frozenset[int], ...]:
        """The facets through each vertex."""
        return tuple(act for _, act in self._table[0])

    @cached_property
    def _table(self) -> tuple[VertexTable, bool]:
        return vertex_table(self.n, self.facets)

    @cached_property
    def face_lattice(self) -> tuple[Face, ...]:
        """All faces, dimensions 0..n, as closures of vertex sets.

        Faces are exactly the intersections of facets (plus the polytope
        itself), computed as the intersection closure of the facets' vertex
        sets.
        """
        active = self._vertex_active
        facet_sets = [frozenset(k for k, av in enumerate(active) if i in av)
                      for i in range(len(self.facets))]
        all_verts = frozenset(range(len(active)))
        found: set[frozenset[int]] = {all_verts, *facet_sets}
        frontier = set(found)
        while frontier:
            new: set[frozenset[int]] = set()
            for s in frontier:
                for f in facet_sets:
                    t = s & f
                    if t and t not in found:
                        new.add(t)
            found |= new
            frontier = new
        faces = []
        for vset in found:
            ids = tuple(sorted(vset))
            tights = [active[i] for i in ids]
            faces.append(Face(frozenset.intersection(*tights), self._face_dim(tights), ids))
        faces.sort(key=lambda f: (f.dim, f.key()))
        return tuple(faces)

    # -- volumes and degrees ----------------------------------------------

    @cached_property
    def _volume_data(self) -> tuple[Fraction, list[Fraction]]:
        vol, latvols, _ = hsystem_volume_data(self.n, self.facets, self._table[0])
        return vol, latvols

    def volume(self) -> Fraction:
        """Lattice-normalized n-volume (unit cube has volume 1)."""
        return self._volume_data[0]

    def facet_latvol(self, i: int) -> Fraction:
        """Lattice (n-1)-volume of facet i; a point facet (n = 1) counts 1."""
        if not 0 <= serialize.int_from_obj(i) < len(self.facets):
            raise InputError(f"no facet with index {i}")
        return self._volume_data[1][i]

    def latvols(self) -> tuple[Fraction, ...]:
        return tuple(self._volume_data[1])

    def degree(self, divisor: DivisorClass) -> Fraction:
        """deg_P(D) = sum_F c_F * latvol(F) against this polytope's class."""
        total = Fraction(0)
        for k, c in divisor.coefficients:
            total += c * self.facet_latvol(k)  # checks that facet k exists
        return total

    # -- transforms ---------------------------------------------------------

    def translate(self, t: Sequence) -> "HPolytope":
        tv = serialize.frac_vector(t, self.n)
        *p, d = linalg.int_rows([(*tv, 1)])[0]  # t = p / d
        return self._moved([(u, a - linalg.dot(tv, u)) for u, a in self.facets], d, d, p)

    def dilate(self, k) -> "HPolytope":
        k = serialize.frac_from_obj(k)
        if k <= 0:
            raise InputError("dilation factor must be positive")
        return self._moved([(u, k * a) for u, a in self.facets],
                           k.numerator, k.denominator, [0] * self.n)

    def _moved(self, facets: list[Constraint], c: int, d: int, p: list[int]) -> "HPolytope":
        """The image under m -> (c m + p) / d, a translation (c = d) or a
        dilation by c/d > 0 (p = 0), built without validation: such a map
        keeps validity, normals, faces and the lexicographic order of
        points, so vertex ids carry over, each ray (m, t) to the primitive
        (c m + t p, d t); so does the face lattice, which holds no
        coordinates, when already computed.  Volumes, when already
        computed, are homogeneous: of degree n, and n - 1 for facets."""
        out = object.__new__(HPolytope)
        out.n, out.facets = self.n, tuple(facets)
        out._table = [(tuple(linalg._along(c, r, r[-1], [*p, d - c])), act)
                      for r, act in self._table[0]], True
        if "face_lattice" in vars(self):
            out.face_lattice = self.face_lattice
        if "_volume_data" in vars(self):
            vol, latvols = self._volume_data
            k = Fraction(c, d)
            out._volume_data = self._volume_data if k == 1 else (
                vol * k ** self.n, [x * k ** (self.n - 1) for x in latvols])
        return out

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "facets": [
                {"normal": list(u), "support": serialize.frac_to_str(a)}
                for u, a in self.facets
            ],
        }

    @staticmethod
    def from_json_dict(obj) -> "HPolytope":
        n, facets = serialize.fields(obj, "polytope", "n", "facets")
        return HPolytope(n, serialize.items(facets, lambda f: serialize.fields(
            f, "facet", "normal", "support"), kind="facet list"))


def check_normals(n: int, normals: Iterable) -> tuple[IntVec, ...]:
    """The facet normals as integer vectors of length n, each primitive and
    no two equal: the one normal check of polytopes and of the facet-volume
    solver."""
    out = tuple(serialize.int_vector(u, n) for u in normals)
    for u in out:
        g = linalg.vec_content(u)
        if g != 1:
            raise InputError(f"facet normal {u} is not primitive" if g else "zero facet normal")
    if len(set(out)) != len(out):
        raise InputError("duplicate facet normals")
    return out


def same_normal_fan(p: HPolytope, q: HPolytope) -> bool:
    """Whether the two polytopes induce the same complete normal fan.

    Maximal cones are the normal cones at vertices; each is determined by
    the set of primitive normals of the facets through the vertex, so fans
    are compared as sets of those normal sets.
    """
    if p.n != q.n:
        raise DimensionMismatch("polytopes in different lattices")

    def max_cones(poly: HPolytope) -> set[frozenset[IntVec]]:
        return {frozenset(poly.facets[i][0] for i in act) for act in poly._vertex_active}

    return max_cones(p) == max_cones(q)

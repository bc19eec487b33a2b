"""Torus-equivariant reflexive sheaves as families of filtrations.

A sheaf of rank r over a polytope with d facets is a vector space QQ^r with
one increasing filtration per facet, stored sparsely by its jumps: a list
(i, V) with strictly increasing integers i and strictly nested subspaces V,
the last of which is QQ^r.  Below the first jump the filtration is 0.

Subspaces store the reduced row echelon basis times the least D > 0 that
makes it integral (``linalg.rref``), so equal subspaces have equal rows and
every elimination runs on the stored rows as they are; ``Subspace.basis``
divides by D.  The kernel read off those rows (cached) spans W^perp, so
x lies in W iff its residual, its pairings with that kernel, vanishes
(D x - sum_k x[p_k] w_k on the free columns).  So containment takes no
elimination, and s = rank[W; E] = dim(W + E) is the larger dimension plus
the rank of the smaller subspace's nonzero residuals against the larger
one, eliminated only when there are two or more (so never for a line):
E <= W iff s = dim W, and the meet has dimension dim W + dim E - s.  A
meet that is neither zero nor one of the two is read off one reduced form
of [W | W; E | 0] (Zassenhaus): its rows (w + e, w) with vanishing left
half have w in W n E, and their right halves divided by their gcd are the
canonical rows.  A sheaf caches flag-adapted coordinates per facet, from
the jumps' kernels: x lies in E_k iff its coordinates from dim E_k on
vanish (``FiltrationSheaf.flag_coordinates``).

The ground field is QQ; witnesses defined only over an extension field are
out of reach and verdicts record that restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

from . import linalg, serialize
from .errors import DimensionMismatch, FacetMismatch, InputError
from .polytope import DivisorClass, Face, HPolytope

QVec = tuple[Fraction, ...]
IntVec = tuple[int, ...]
MAX_FACETS = 10_000  # the most facets line_bundle builds


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of QQ^ambient with its canonical integer rows.  Built
    from caller vectors by ``span``, which reads them through ``serialize``;
    the package's own integer rows go straight to ``linalg.rref``."""

    ambient: int
    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def span(ambient: int, vectors: Sequence[Sequence]) -> "Subspace":
        """The span of rational vectors (``serialize.frac_vector``)."""
        ambient = serialize.int_from_obj(ambient)
        vecs = serialize.items(vectors, lambda v: serialize.frac_vector(v, ambient),
                               kind="vector list")
        return Subspace._of_rows(ambient, linalg.int_rows(vecs))

    @staticmethod
    def _of_rows(ambient: int, rows: Sequence[Sequence[int]]) -> "Subspace":
        """The span of integer rows built inside the package: no reader."""
        return Subspace(ambient, tuple(map(tuple, linalg.rref(rows)[0])))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, linalg.identity_mat(ambient))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient

    def pivots(self) -> list[int]:
        return [next(j for j, x in enumerate(row) if x) for row in self.rows]

    def basis(self) -> tuple[QVec, ...]:
        """The reduced row echelon basis: the rows divided by their pivot D."""
        d = next(x for x in self.rows[0] if x) if self.rows else 1
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.rows)

    @cached_property
    def _annihilator(self) -> list[IntVec]:
        """The kernel of the stored rows: one vector per free column."""
        return linalg.kernel(self.rows, self.pivots(), self.ambient)

    def _residuals(self, vectors: Iterable[Sequence[int]]) -> list[list[int]]:
        """The nonzero residuals of integer vectors against W."""
        return [res for res in linalg.pairings(vectors, self._annihilator) if any(res)]

    def _sum_dim(self, other: "Subspace") -> int:
        """dim(W + E): the larger dim + the rank of the smaller's residuals."""
        if other.ambient != self.ambient:
            raise DimensionMismatch("subspaces of different ambient spaces")
        big, small = (other, self) if other.dim > self.dim else (self, other)
        res = big._residuals(small.rows)
        if len(res) > 1 and big.ambient - big.dim > 1:
            return big.dim + linalg.int_rank(res)
        return big.dim + min(len(res), 1)

    def contains_vector(self, v: Sequence) -> bool:
        vec = serialize.frac_vector(v, self.ambient)
        return not self._residuals(linalg.int_rows([vec]))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise DimensionMismatch("subspaces of different ambient spaces")
        if other.dim > self.dim:
            return False
        return self.is_full() or other.is_zero() or not self._residuals(other.rows)

    def add(self, other: "Subspace") -> "Subspace":
        s = self._sum_dim(other)
        if s == other.dim:
            return other
        if s == self.dim:
            return self
        return Subspace._of_rows(self.ambient, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        d = self.dim + other.dim - self._sum_dim(other)
        if d == 0:
            return Subspace.zero(self.ambient)
        if d == self.dim:
            return self
        if d == other.dim:
            return other
        n = self.ambient
        reduced, pivots = linalg.rref([*(w + w for w in self.rows),
                                       *(e + (0,) * n for e in other.rows)])
        meet = [row[n:] for row, p in zip(reduced, pivots) if p >= n]
        g = gcd(*(x for row in meet for x in row))
        return Subspace(n, tuple(tuple(x // g for x in row) for row in meet))

    def perp(self) -> "Subspace":
        """The annihilator {x : x . w = 0 for w in W}, in the dual space
        identified with QQ^ambient by the standard pairing: the kernel read
        off the stored rows, which are already in reduced form."""
        return Subspace._of_rows(self.ambient, self._annihilator)

    def coordinates_in(self, big: "Subspace") -> "Subspace":
        """This subspace rewritten in the RREF-basis coordinates of ``big``
        (requires self <= big); result lives in QQ^{big.dim}.  A vector of
        ``big`` leads at one of its pivots, so the stored rows restricted
        to those columns are still the reduced form times D; dividing by
        their gcd gives the least D."""
        if not big.contains(self):
            raise InputError("subspace is not contained in the claimed superspace")
        piv = big.pivots()
        rows = [[r[p] for p in piv] for r in self.rows]
        g = gcd(*(x for row in rows for x in row)) or 1
        return Subspace(big.dim, tuple(tuple(x // g for x in row) for row in rows))

    def to_json(self) -> list:
        return [[serialize.frac_to_str(x) for x in row] for row in self.basis()]


Filtration = tuple[tuple[int, Subspace], ...]


def _check_filtration(rank: int, jumps: Sequence[tuple[int, Subspace]]) -> Filtration:
    """The jumps as (index, Subspace) pairs, each read in the walk that checks it."""
    jumps = serialize.items(jumps, kind="filtration")
    if not jumps:
        raise InputError("empty filtration")
    out = []
    prev_i: Optional[int] = None
    prev_v = Subspace.zero(rank)
    for jump in jumps:
        i, v = pair = serialize.items(jump, length=2, kind="(index, subspace) jump")
        serialize.int_from_obj(i)
        if serialize.instance(v, Subspace).ambient != rank:
            raise DimensionMismatch("filtration subspace of wrong ambient dimension")
        if prev_i is not None and i <= prev_i:
            raise InputError("jump indices must strictly increase")
        if not (v.contains(prev_v) and v.dim > prev_v.dim):
            raise InputError("filtration subspaces must strictly increase")
        prev_i, prev_v = i, v
        out.append(pair)
    if not prev_v.is_full():
        raise InputError("last filtration step must be the full space")
    return tuple(out)


def _compress(rank: int, steps: Sequence[tuple[int, Subspace]]) -> Filtration:
    """Drop repeated values from an increasing step function, keeping the
    first index at which each new value appears."""
    out: list[tuple[int, Subspace]] = []
    prev = Subspace.zero(rank)
    for i, v in steps:
        if v.dim > prev.dim:
            out.append((i, v))
            prev = v
    return tuple(out)


@dataclass(frozen=True)
class FiltrationSheaf:
    """Klyachko data: rank plus one sparse filtration per facet index."""

    rank: int
    filtrations: tuple[Filtration, ...]

    def __post_init__(self):
        if serialize.int_from_obj(self.rank) < 1:
            raise InputError("sheaf rank must be >= 1")
        object.__setattr__(self, "filtrations", serialize.items(
            self.filtrations, lambda f: _check_filtration(self.rank, f), kind="filtration list"))

    @property
    def num_facets(self) -> int:
        return len(self.filtrations)

    def value_at(self, facet: int, i: int) -> Subspace:
        """E^F(i): the last jump subspace at index <= i (zero below all)."""
        if not 0 <= serialize.int_from_obj(facet) < self.num_facets:
            raise InputError(f"no facet with index {facet}")
        i = serialize.int_from_obj(i)
        current = Subspace.zero(self.rank)
        for j, v in self.filtrations[facet]:
            if j > i:
                break
            current = v
        return current

    @cached_property
    def flag_coordinates(self) -> tuple[tuple[tuple[IntVec, ...], tuple[int, ...]], ...]:
        """Per facet, (columns g_0..g_{r-1} of an invertible integer matrix,
        levels): for every jump (i_k, E_k), the g_j with j >= dim E_k span
        E_k^perp, and level j is the i_k of the first jump with dim E_k > j.
        Positions dim E_{k-1}.. take the kernel vectors of E_{k-1} at the
        pivots that E_k adds to it, so nothing is eliminated."""
        out = []
        for filt in self.filtrations:
            cols, levels, prev, old = [], [], Subspace.zero(self.rank), []
            for i, v in filt:
                new = v.pivots()
                free = [c for c in range(self.rank) if c not in old]
                cols += [k for c, k in zip(free, prev._annihilator) if c in new]
                levels += [i] * (v.dim - prev.dim)
                prev, old = v, new
            out.append((tuple(cols), tuple(levels)))
        return tuple(out)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "filtrations": {
                str(f): [{"i": i, "basis": v.to_json()} for i, v in filt]
                for f, filt in enumerate(self.filtrations)
            },
        }

    @staticmethod
    def from_json_dict(obj) -> "FiltrationSheaf":
        rank, raw = serialize.fields(obj, "sheaf", "rank", "filtrations")
        by_id = serialize.mapping(raw, serialize.facet_id, kind="object keyed by facet id")
        if sorted(by_id) != list(range(len(by_id))):
            raise InputError("facet ids must be 0..d-1")

        def jump(entry) -> tuple[object, Subspace]:
            i, basis = serialize.fields(entry, "jump", "i", "basis")
            return i, Subspace.span(rank, basis)

        return FiltrationSheaf(rank, tuple(serialize.items(by_id[k], jump, kind="jump list")
                                           for k in range(len(by_id))))


def line_bundle(num_facets: int, coeffs: Mapping[int, int]) -> FiltrationSheaf:
    """Rank-1 sheaf of the divisor sum_F c_F D_F, integer c_F: the facet-F
    filtration jumps from 0 to the line exactly at -c_F."""
    num_facets = serialize.int_option("num_facets", num_facets, 0, MAX_FACETS)
    c = serialize.mapping(coeffs, serialize.int_from_obj, serialize.int_from_obj,
                          "facet -> integer mapping")
    if not all(0 <= f < num_facets for f in c):
        raise InputError("line bundle coefficient on an unknown facet")
    full = Subspace.full(1)
    return FiltrationSheaf(1, tuple(((-c.get(f, 0), full),) for f in range(num_facets)))


def structure_sheaf(num_facets: int) -> FiltrationSheaf:
    return line_bundle(num_facets, {})


# ---------------------------------------------------------------------------
# operations


def dimension_jumps(sheaf: FiltrationSheaf, facet: int) -> dict[int, int]:
    """e^F(i) = dim E^F(i-1) - dim E^F(i), nonzero only at jumps; the values
    are negative and total -rank."""
    out = {}
    prev_dim = 0
    for i, v in sheaf.filtrations[facet]:
        out[i] = prev_dim - v.dim
        prev_dim = v.dim
    return out


def det_indices(sheaf: FiltrationSheaf) -> tuple[int, ...]:
    """i_F(det) = -sum_i i*e^F(i) per facet; for rank 1 this is the jump."""
    out = []
    for f in range(sheaf.num_facets):
        out.append(-sum(i * e for i, e in dimension_jumps(sheaf, f).items()))
    return tuple(out)


def first_chern(sheaf: FiltrationSheaf) -> DivisorClass:
    """c1 as the Weil divisor class sum_F -i_F(det) D_F."""
    return DivisorClass.from_dict(
        {f: -i for f, i in enumerate(det_indices(sheaf))})


def dual(sheaf: FiltrationSheaf) -> FiltrationSheaf:
    """The dual sheaf: E^F(i)^dual = E^F(-i-1)^perp.  Jumps (i_k, E_k),
    k = 1..m, become (-i_{k+1}, E_k^perp) for k < m and (-i_1, full)."""
    filts = []
    for filt in sheaf.filtrations:
        steps = [(-filt[k + 1][0], filt[k][1].perp()) for k in range(len(filt) - 1)]
        filts.append(tuple(reversed(steps)) + ((-filt[0][0], Subspace.full(sheaf.rank)),))
    return FiltrationSheaf(sheaf.rank, tuple(filts))


def subsheaf(sheaf: FiltrationSheaf, w: Subspace) -> FiltrationSheaf:
    """The equivariant subsheaf cut out by a subspace W: filtrations
    W n E^F(i), re-coordinatized to QQ^{dim W}."""
    if serialize.instance(w, Subspace).ambient != serialize.instance(sheaf, FiltrationSheaf).rank:
        raise DimensionMismatch("subspace of wrong ambient dimension")
    if w.is_zero():
        raise InputError("subsheaf of the zero subspace")
    filts = []
    for f in range(sheaf.num_facets):
        steps = [(i, w.intersect(v).coordinates_in(w))
                 for i, v in sheaf.filtrations[f]]
        filts.append(_compress(w.dim, steps))
    return FiltrationSheaf(w.dim, tuple(filts))


def sections_on_chart(
    sheaf: FiltrationSheaf, p: HPolytope, face: Face, m: Sequence[int]
) -> Subspace:
    """Weight-m sections on the chart of a face: the intersection over the
    facets containing the face of E^F(<m, u_F>); the full space on the big
    chart (empty active set)."""
    if sheaf.num_facets != p.num_facets:
        raise FacetMismatch("sheaf and polytope facet counts differ")
    mv = serialize.frac_vector(m, p.n)
    if any(x.denominator != 1 for x in mv):
        raise InputError("weight entries must be integers")
    current = Subspace.full(sheaf.rank)
    for f in sorted(face.active_facets):
        current = current.intersect(sheaf.value_at(f, linalg.dot(mv, p.facets[f][0]).numerator))
    return current


def direct_sum(s1: FiltrationSheaf, s2: FiltrationSheaf) -> FiltrationSheaf:
    """Blockwise direct sum; facet sets must agree."""
    if serialize.instance(s1, FiltrationSheaf).num_facets != \
            serialize.instance(s2, FiltrationSheaf).num_facets:
        raise FacetMismatch("direct sum over different facet sets")
    r1, r2 = s1.rank, s2.rank
    rank = r1 + r2

    def embed(v: Subspace, offset: int) -> list[tuple[int, ...]]:
        return [(0,) * offset + row + (0,) * (rank - offset - v.ambient) for row in v.rows]

    filts = []
    for f in range(s1.num_facets):
        indices = sorted({i for i, _ in s1.filtrations[f]}
                         | {i for i, _ in s2.filtrations[f]})
        steps = []
        for i in indices:
            rows = embed(s1.value_at(f, i), 0) + embed(s2.value_at(f, i), r1)
            steps.append((i, Subspace._of_rows(rank, rows)))
        filts.append(_compress(rank, steps))
    return FiltrationSheaf(rank, tuple(filts))


def hom_space(source: FiltrationSheaf, target: FiltrationSheaf) -> Subspace:
    """The equivariant morphisms source -> target: the target.rank x
    source.rank matrices phi, flattened row by row, with phi(E_S^F(i)) <=
    E_T^F(i) at every jump (i, E) of the source (Klyachko 1990).  phi e lies
    in E_T^F(i) iff p . phi e = sum_ab p_a phi_ab e_b vanishes for each p in
    the kernel of its rows, so the space is the annihilator of those
    conditions, one per facet, jump, stored row e and kernel vector p."""
    if source.num_facets != target.num_facets:
        raise FacetMismatch("morphism between sheaves on different facet sets")
    conds = [[a * b for a in p for b in e]
             for f, filt in enumerate(source.filtrations) for i, v in filt
             for p in target.value_at(f, i)._annihilator for e in v.rows]
    return Subspace._of_rows(target.rank * source.rank, conds).perp()


def is_morphism(source: FiltrationSheaf, target: FiltrationSheaf,
                matrix: Sequence[Sequence]) -> bool:
    """Whether the target.rank x source.rank matrix, its entries read as
    rationals (``serialize.frac_from_obj``: no floats), lies in
    ``hom_space``."""
    rows = serialize.items(matrix, lambda r: serialize.items(r, length=source.rank, kind="row"),
                           target.rank, "morphism matrix")
    return hom_space(source, target).contains_vector([x for row in rows for x in row])

"""Toric GIT machinery for a subtorus action on a polarized toric variety.

The linearization is encoded by the translation of the polytope itself:
callers translate (and may dilate) the polytope to move the linearization.
A GitSetup eagerly classifies every face of the polytope against the
subspace U = annihilator of the sublattice:

* unstable   -- the face misses U,
* stable     -- the relative interior meets U and the face direction plus U
                spans everything,
* strictly semistable -- the rest.

The classification is eager: it is built with the setup, from the exact
vertex table of the (n - g)-dimensional slice P n U and the facets tight on
each slice vertex.  A face Q meets U iff some slice vertex is tight on all
facets through Q, and ri Q meets U iff exactly those facets are tight on
every such vertex.  Such a Q is stable iff its normals project
independently, which a slice vertex tight on exactly n - g facets proves
(tight normals at a vertex have full rank); only otherwise is a rank
computed.  Witnesses come from the same double description on first read.

The quotient side is lazy: the quotient lattice is built once per
Sublattice object, the quotient polytope on first use.  Setups with
strictly semistable faces fail fast with NotGeneric in every downstream
operation; the quotient machinery (quotient polytope, descent, pullback
functors) is only geometric in the generic case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence

from . import linalg, serialize
from .errors import (
    DimensionMismatch,
    FacetMismatch,
    InputError,
    InternalError,
    NotGeneric,
    NotSaturated,
)
from .klyachko import FiltrationSheaf, Subspace, _compress
from .lattice import QuotientLattice, Sublattice, primitive_content, quotient
from .linalg import vertex_table
from .polytope import Face, HPolytope

STABLE = "Stable"
STRICTLY_SEMISTABLE = "StrictlySemistable"
UNSTABLE = "Unstable"


@dataclass(frozen=True)
class FaceStatus:
    """A face, its status, and the polytope and sublattice generators whose
    bounded face system has the witness as ``linalg.feasible_point`` (None
    for an unstable face).  System and witness are built on first read."""

    face: Face
    status: str
    _source: Optional[tuple] = field(default=None, compare=False)  # (P, generators)

    @cached_property
    def witness(self) -> Optional[tuple[Fraction, ...]]:
        """A point of Q n U, in ri Q for a stable face; None if unstable:
        Q's affine hull and U cut by P's other facets, strictly for a
        stable face."""
        if self._source is None:
            return None
        p, gens = self._source
        eqs = [(p.facets[f][0], -p.facets[f][1]) for f in sorted(self.face.active_facets)]
        eqs += [(gen, 0) for gen in gens]
        others = [(u, -a, self.status == STABLE) for f, (u, a) in enumerate(p.facets)
                  if f not in self.face.active_facets]
        point = linalg.feasible_point(p.n, eqs, others)
        if point is None:
            raise InternalError(
                f"face {sorted(self.face.active_facets)} meets U by the slice "
                "vertices, but the witness search finds no point")
        return point


class GitSetup:
    """A polytope with fixed linearization translation plus a saturated
    sublattice, with the derived face classification and quotient data."""

    def __init__(self, polytope: HPolytope, sublattice: Sublattice):
        polytope = serialize.instance(polytope, HPolytope)
        if serialize.instance(sublattice, Sublattice).ambient != polytope.n:
            raise DimensionMismatch("sublattice rank does not match polytope")
        self.polytope = polytope
        self.sublattice = sublattice
        self.quotient_lattice: QuotientLattice = quotient(polytope.n, sublattice)
        self.classification: tuple[FaceStatus, ...] = self._classify()

    @property
    def u_basis(self) -> tuple[tuple[int, ...], ...]:
        """A basis of the annihilator of the sublattice inside the dual
        lattice; its rows are also the quotient projection."""
        return self.quotient_lattice.projection_matrix

    # -- classification -----------------------------------------------------

    def _classify(self) -> tuple[FaceStatus, ...]:
        """Slice vertices live in the coordinates of u_basis, where facet F
        reads <y, proj(u_F)> >= -a_F.  Q n U is the face of the slice on
        which active(Q) is tight; when exactly active(Q) is tight on all of
        its vertices, their barycenter lies in ri Q (Rockafellar, Convex
        Analysis, Thms 6.5-6.6).  Then Q is stable iff dir(Q) + U spans, iff
        the proj(u_F) of active(Q) are independent: true when a slice
        vertex is tight on exactly n - g facets, as its tight projected
        normals have rank n - g; else an integer rank test, with
        rank(normals) = n - dim Q.  Each FaceStatus of a face meeting U
        builds its witness system on first read; it is bounded because P
        is."""
        p = self.polytope
        gens = self.sublattice.generators
        g = len(gens)
        cut = [(self.quotient_lattice.project(u), a) for u, a in p.facets]
        slice_active = [act for _, act in vertex_table(p.n - g, cut)[0]]
        out = []
        for face in p.face_lattice:
            over = [s for s in slice_active if face.active_facets <= s]
            if not over:
                out.append(FaceStatus(face, UNSTABLE, None))
                continue
            stable = frozenset.intersection(*over) == face.active_facets
            if stable and all(len(s) != p.n - g for s in over):
                normals = [p.facets[f][0] for f in sorted(face.active_facets)]
                stable = linalg.int_rank(normals + list(gens)) == p.n - face.dim + g
            out.append(FaceStatus(face, STABLE if stable else STRICTLY_SEMISTABLE,
                                  (p, gens)))
        return tuple(out)

    def _facets(self, status: str) -> tuple[int, ...]:
        return tuple(sorted(min(fs.face.active_facets) for fs in self.classification
                            if fs.face.dim == self.polytope.n - 1 and fs.status == status))

    @cached_property
    def stable_facets(self) -> tuple[int, ...]:
        return self._facets(STABLE)

    @cached_property
    def unstable_facets(self) -> tuple[int, ...]:
        return self._facets(UNSTABLE)

    def is_generic(self) -> bool:
        """Stable = semistable and nonempty, with a positive-dimensional
        quotient (a full-rank sublattice collapses Y to a point and carries
        no polarized quotient)."""
        if self.sublattice.rank >= self.polytope.n:
            return False
        statuses = {fs.status for fs in self.classification}
        return STABLE in statuses and STRICTLY_SEMISTABLE not in statuses

    def require_generic(self) -> None:
        if not self.is_generic():
            raise NotGeneric(
                "setup is not generic (strictly semistable faces or empty stable locus)")

    # -- quotient data --------------------------------------------------------

    @cached_property
    def _quotient_data(self) -> tuple[HPolytope, dict[int, int], dict[int, int]]:
        """(quotient polytope over N_Y, stable facet -> quotient facet index,
        stable facet -> b_F)."""
        self.require_generic()
        facets, b = [], {}
        for f in self.stable_facets:
            u, a = self.polytope.facets[f]
            prim, b[f] = primitive_content(self.quotient_lattice.project(u))
            facets.append((prim, a / b[f]))
        fmap = {f: pos for pos, f in enumerate(self.stable_facets)}
        return HPolytope(self.quotient_lattice.rank, facets), fmap, b

    def quotient_polytope(self) -> tuple[HPolytope, dict[int, int], dict[int, int]]:
        """Quotient polytope in the coordinates dual to the projection, the
        facet correspondence, and the divisibility moduli b_F."""
        return self._quotient_data

    def b_values(self) -> dict[int, int]:
        return dict(self._quotient_data[2])

    def dim_quotient(self) -> int:
        return self.quotient_lattice.rank

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "polytope": self.polytope.to_json_dict(),
            "sublattice": [list(g) for g in self.sublattice.generators],
        }

    @staticmethod
    def from_json_dict(obj) -> "GitSetup":
        poly, gens = serialize.fields(obj, "setup", "polytope", "sublattice")
        poly = HPolytope.from_json_dict(poly)
        return GitSetup(poly, Sublattice(poly.n, gens))

    def classification_report(self) -> list[dict]:
        out = []
        for fs in self.classification:
            out.append({
                "face": sorted(fs.face.active_facets),
                "dim": fs.face.dim,
                "status": fs.status,
                "witness": None if fs.witness is None
                else [serialize.frac_to_str(x) for x in fs.witness],
            })
        return out


# ---------------------------------------------------------------------------
# descent and the functors


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def restrict_to_stable(setup: GitSetup, sheaf: FiltrationSheaf) -> FiltrationSheaf:
    """Forget the filtrations on non-stable facets; the result is keyed by
    the stable facets in increasing order."""
    setup.require_generic()
    if sheaf.num_facets != setup.polytope.num_facets:
        raise FacetMismatch("sheaf does not live on the setup's polytope")
    return FiltrationSheaf(
        sheaf.rank, tuple(sheaf.filtrations[f] for f in setup.stable_facets))


def pushforward(setup: GitSetup, sheaf: FiltrationSheaf) -> FiltrationSheaf:
    """Invariant pushforward to the quotient: on a stable facet F the new
    filtration reads the old one at b_F-multiples, E-check(i) = E^F(b_F i).

    Accepts a sheaf on all of P's facets or one already restricted to the
    stable facets.
    """
    setup.require_generic()
    _, fmap, b = setup.quotient_polytope()
    if sheaf.num_facets == setup.polytope.num_facets:
        sheaf = restrict_to_stable(setup, sheaf)
    elif sheaf.num_facets != len(setup.stable_facets):
        raise FacetMismatch("sheaf matches neither all facets nor the stable ones")
    filts = []
    for pos, f in enumerate(setup.stable_facets):
        bf = b[f]
        jumps = sheaf.filtrations[pos]
        candidates = sorted({_ceil_div(j, bf) for j, _ in jumps})
        steps = [(i, sheaf.value_at(pos, bf * i)) for i in candidates]
        filts.append(_compress(sheaf.rank, steps))
    return FiltrationSheaf(sheaf.rank, tuple(filts))


def pullback(setup: GitSetup, quotient_sheaf: FiltrationSheaf) -> FiltrationSheaf:
    """Pullback to the stable locus: E^F(i) = E-check(floor(i / b_F)), so the
    jumps sit exactly at b_F-multiples."""
    setup.require_generic()
    py, _, b = setup.quotient_polytope()
    if quotient_sheaf.num_facets != py.num_facets:
        raise FacetMismatch("sheaf does not live on the quotient polytope")
    filts = []
    for pos, f in enumerate(setup.stable_facets):
        bf = b[f]
        steps = tuple((bf * j, v) for j, v in quotient_sheaf.filtrations[pos])
        filts.append(steps)
    return FiltrationSheaf(quotient_sheaf.rank, tuple(filts))


def descent_violations(setup: GitSetup, sheaf: FiltrationSheaf) -> list[tuple[int, int, int]]:
    """(facet, jump, b_F) for every jump index on a stable facet F that b_F
    does not divide, by facet and then by jump."""
    setup.require_generic()
    if sheaf.num_facets != setup.polytope.num_facets:
        raise FacetMismatch("sheaf does not live on the setup's polytope")
    b = setup.b_values()
    return [(f, j, b[f]) for f in setup.stable_facets
            for j, _ in sheaf.filtrations[f] if j % b[f]]


def descends(setup: GitSetup, sheaf: FiltrationSheaf) -> bool:
    """Divisibility criterion for descent: every jump index on every stable
    facet is divisible by b_F."""
    return not descent_violations(setup, sheaf)


def _index_vector(setup: GitSetup, indices: Mapping[int, int]) -> dict[int, int]:
    """The index vector i: a facet -> integer mapping keyed by exactly the
    setup's unstable facets."""
    idx = serialize.mapping(indices, serialize.int_from_obj, serialize.int_from_obj,
                            "facet -> integer mapping")
    if tuple(sorted(idx)) != setup.unstable_facets:
        raise InputError(f"index vector keys {tuple(sorted(idx))} != "
                         f"unstable facets {setup.unstable_facets}")
    return idx


def pullback_functor(
    setup: GitSetup,
    indices: Mapping[int, int],
    quotient_sheaf: FiltrationSheaf,
) -> FiltrationSheaf:
    """The extension-across-the-unstable-locus functor of the index vector
    i (one integer per unstable facet): stable facets carry the pullback
    filtrations, each unstable facet F the single full jump at i_F."""
    setup.require_generic()
    idx = _index_vector(setup, indices)
    lifted = pullback(setup, quotient_sheaf)
    full = Subspace.full(quotient_sheaf.rank)
    pos_of_stable = {f: pos for pos, f in enumerate(setup.stable_facets)}
    filts = []
    for f in range(setup.polytope.num_facets):
        if f in pos_of_stable:
            filts.append(lifted.filtrations[pos_of_stable[f]])
        else:
            filts.append(((idx[f], full),))
    return FiltrationSheaf(quotient_sheaf.rank, tuple(filts))


def in_image(
    setup: GitSetup, indices: Mapping[int, int], sheaf: FiltrationSheaf
) -> bool:
    """Whether the sheaf is hit by the functor for the index vector i: it
    descends and each unstable facet F has the single full jump exactly at
    i_F."""
    setup.require_generic()
    idx = _index_vector(setup, indices)
    if sheaf.num_facets != setup.polytope.num_facets:
        raise FacetMismatch("sheaf does not live on the setup's polytope")
    if not descends(setup, sheaf):
        return False
    for f in setup.unstable_facets:
        filt = sheaf.filtrations[f]
        if len(filt) != 1 or filt[0][0] != idx[f]:
            return False
    return True


# ---------------------------------------------------------------------------
# linearization search


def translation_classes(
    poly: HPolytope, sublattice: Sublattice, dilation: int
) -> Iterator[tuple[tuple[int, ...], HPolytope]]:
    """Enumerate lattice-translation classes of the dilated polytope that can
    meet U.

    The face classification of (k*P + t, N0) depends on t only through the
    pairings of t against the sublattice generators (translating inside U
    moves the slice within U).  Each residue with a nonempty slice gets one
    integral representative.
    """
    gens = sublattice.generators
    if not gens:
        yield (), poly.dilate(dilation)
        return
    rinv = linalg.integer_right_inverse(gens)
    if rinv is None:
        raise NotSaturated("translation classes need a saturated sublattice")
    scaled = poly.dilate(dilation)
    verts = scaled.vertices
    ranges = []
    for gen in gens:
        vals = [linalg.dot(v, gen) for v in verts]
        lo = math.ceil(-max(vals))
        hi = math.floor(-min(vals))
        ranges.append(range(lo, hi + 1))
    for s in _points(ranges):
        yield s, scaled.translate([sum(r * x for r, x in zip(row, s)) for row in rinv])


def _points(ranges: Sequence[range]) -> Iterator[tuple[int, ...]]:
    """itertools.product(*ranges), in its order, without copying each range
    into a tuple before the first point as product does."""
    if not ranges:
        return iter(((),))
    return ((x,) + rest for x in ranges[0] for rest in _points(ranges[1:]))

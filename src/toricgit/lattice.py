"""Integer-lattice algebra: sublattices in Hermite form, saturation,
quotient lattices with explicit projection/section pairs, primitive vectors.
A lattice is ZZ^n with the dot product as the dual pairing, passed as n.

All values are immutable and all operations pure.  Integers are arbitrary
precision throughout; normal-form intermediates are allowed to swell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from . import linalg, serialize
from .errors import DimensionMismatch, InternalError, NotSaturated, ZeroVector

IntVec = tuple[int, ...]


def primitive_content(v: Sequence[int]) -> tuple[IntVec, int]:
    """Split v = content * primitive with primitive of gcd 1 pointing the
    same way as v and content >= 1."""
    vec = serialize.int_vector(v)
    g = linalg.vec_content(vec)
    if g == 0:
        raise ZeroVector("primitive_content of the zero vector")
    return tuple(x // g for x in vec), g


@dataclass(frozen=True)
class Sublattice:
    """Sublattice of ZZ^ambient, stored as the canonical Hermite basis of its
    generators so that equal sublattices compare equal structurally."""

    ambient: int
    generators: tuple[IntVec, ...] = field(default=())

    def __post_init__(self):
        n = serialize.int_from_obj(self.ambient)
        if n < 0:
            raise DimensionMismatch("lattice rank must be >= 0")
        gens = serialize.items(self.generators, lambda v: serialize.int_vector(v, n),
                               kind="generator list")
        object.__setattr__(self, "generators", linalg.hnf_rows(gens))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def contains(self, v: Sequence[int]) -> bool:
        """v is in the lattice iff adding it keeps the (canonical) Hermite basis."""
        vec = serialize.int_vector(v, self.ambient)
        return linalg.hnf_rows(self.generators + (vec,)) == self.generators

    @cached_property
    def _quotient(self) -> "QuotientLattice":
        """quotient(ambient, self), built and checked once per object."""
        n, gens = self.ambient, self.generators
        proj = linalg.integer_kernel(gens, n)
        if linalg.integer_kernel(proj, n) != gens:  # saturated iff its double perp
            raise NotSaturated("quotient by a non-saturated sublattice")
        section = linalg.integer_right_inverse(proj)
        if section is None:
            raise NotSaturated("projection is not surjective; kernel not saturated")
        q = QuotientLattice(self.ambient, self, proj, tuple(tuple(r) for r in section))
        # construction-time invariants
        if linalg.mat_mul(proj, section) != linalg.identity_mat(len(proj)):
            raise InternalError("projection o section != id")
        if any(any(q.project(g)) for g in gens):
            raise InternalError("kernel generator with nonzero image")
        return q


def saturate(s: Sublattice) -> Sublattice:
    """Saturation (QQ-span of s) intersected with the ambient lattice.

    Computed as the double perp: the integer kernel of the pairing against
    a basis of s-perp, which is saturated by construction.
    """
    perp = linalg.integer_kernel(s.generators, s.ambient)
    return Sublattice(s.ambient, linalg.integer_kernel(perp, s.ambient))


def saturation_index(s: Sublattice) -> int:
    """Index [saturate(s) : s].  Both Hermite bases have the same pivot
    columns (they depend only on the rational span) and the change of basis
    between them is triangular there, so the index is the quotient of their
    pivot products."""
    out = 1
    for row in s.generators:
        out *= next(x for x in row if x)
    for row in saturate(s).generators:
        out //= next(x for x in row if x)
    return out


@dataclass(frozen=True)
class QuotientLattice:
    """ZZ^n / kernel, presented by a surjective integer projection with an
    integer section.  The basis of the quotient is a free unimodular choice;
    only the stated invariants may be relied upon downstream."""

    ambient: int
    kernel: Sublattice
    projection_matrix: tuple[IntVec, ...]
    section_matrix: tuple[IntVec, ...]

    @property
    def rank(self) -> int:
        return len(self.projection_matrix)

    def project(self, v: Sequence[int]) -> IntVec:
        vec = serialize.int_vector(v, self.ambient)
        return tuple(linalg.dot(row, vec) for row in self.projection_matrix)

    def lift(self, w: Sequence[int]) -> IntVec:
        vec = serialize.int_vector(w, self.rank)
        return tuple(linalg.dot(row, vec) for row in self.section_matrix)


def quotient(n: int, n0: Sublattice) -> QuotientLattice:
    """Quotient lattice ZZ^n/N0 for saturated N0, with projection pi such that
    pi(v) = 0 iff v lies in N0, and an integer right inverse witnessing
    surjectivity.

    The projection rows are the canonical basis of the annihilator of N0 in
    the dual lattice, so pairing a dual vector written in those coordinates
    against pi(v) agrees with the ambient pairing.  It depends on N0 only,
    so it is built once per Sublattice object and then shared.
    """
    if n0.ambient != n:
        raise DimensionMismatch("sublattice of a different lattice")
    return n0._quotient

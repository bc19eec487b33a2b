"""Constructors for the standard example families: projective spaces,
Hirzebruch surfaces, products, and projectivized split bundles with their
canonical GIT setups.

Hirzebruch convention (fixed so golden tests stay stable): the surface with
parameter a >= 0 has fan normals e1, e2, -e1 + a*e2, -e2, in that facet
order; callers supply the four supports (defaults give a valid polytope).

For a split bundle over a base Y with summand divisors D_1..D_r (D_0 = 0
implicit), the total-space polytope lives in dimension dim(Y) + r:

* one facet per base facet rho with normal (u_rho, a_{1 rho}, .., a_{r rho})
  and the base support b_rho,
* r + 1 fiber facets with normals (0, e_i) for i = 1..r and
  (0, -1, .., -1), all with support 1.

The fiber block is the reflexive simplex (the smallest integral dilate of
the relative-hyperplane simplex whose interior contains a lattice point),
so the slice through the origin crosses the interior and the setup is
generic, while the quotient polytope is exactly the base.  Note that this
fiber block carries the (r+1)-st power of the relative hyperplane class;
the closed form of ``alpha_surface_formula`` describes the quotient class
for the first power, and the two directions agree exactly when the bundle's
first Chern class is proportional to the base polarization (true for the
trivial bundle and for the balanced examples exercised in the tests).

The canonical subgroup is {0} x ZZ^r; the quotient recovers the base with
all divisibility moduli equal to 1, and the fiber facets are exactly the
unstable ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InfeasibleError, InputError, InternalError, NotAmple
from .git import GitSetup
from .lattice import Sublattice
from .polytope import DivisorClass, HPolytope
from .serialize import facet_id, fields, instance, int_from_obj, int_option, items, mapping

MAX_DIM = 12  # the largest n projective_space builds


def projective_space(n: int, k: int = 1) -> HPolytope:
    """The k-dilated standard simplex: normals e_1..e_n and -(e_1+..+e_n),
    supports (0, .., 0, k); any lattice translate represents the same class."""
    n, k = int_option("n", n, 1, MAX_DIM), int_option("k", k, 1)
    facets = [(tuple(1 if j == i else 0 for j in range(n)), 0) for i in range(n)]
    return HPolytope(n, facets + [((-1,) * n, k)])


def hirzebruch(a: int, supports: Optional[Sequence] = None) -> HPolytope:
    """Hirzebruch surface with the documented normal convention; default
    supports (0, 0, 1, 1)."""
    if int_from_obj(a) < 0:
        raise InputError("hirzebruch parameter must be >= 0")
    if supports is None:
        supports = (0, 0, 1, 1)
    supports = items(supports, length=4, kind="hirzebruch supports")
    return HPolytope(2, list(zip([(1, 0), (0, 1), (-1, a), (0, -1)], supports)))


def product(p: HPolytope, q: HPolytope) -> HPolytope:
    """Product polytope: blockwise concatenated inequalities."""
    facets = [(u + (0,) * q.n, a) for u, a in p.facets]
    facets += [((0,) * p.n + u, a) for u, a in q.facets]
    return HPolytope(p.n + q.n, facets)


@dataclass(frozen=True)
class BundleSpec:
    """Split-bundle data: a polarized base and integer summand divisors."""

    base: HPolytope
    summands: tuple[dict[int, int], ...]  # D_i = sum a_{i rho} D_rho

    def __post_init__(self):
        instance(self.base, HPolytope)
        summands = items(self.summands, self._summand, kind="summand list")
        if not summands:
            raise InputError("a projectivized bundle needs at least one summand")
        object.__setattr__(self, "summands", summands)

    def _summand(self, d) -> dict[int, int]:
        d = mapping(d, int_from_obj, int_from_obj, "facet -> integer mapping")
        for k in d:
            if not 0 <= k < self.base.num_facets:
                raise InputError(f"summand coefficient on unknown base facet {k}")
        return {k: v for k, v in d.items() if v}

    @property
    def fiber_rank(self) -> int:
        return len(self.summands)

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "summands": [
                {str(k): v for k, v in d.items()} for d in self.summands
            ],
        }

    @staticmethod
    def from_json_dict(obj) -> "BundleSpec":
        base, summands = fields(obj, "bundle", "base", "summands")
        return BundleSpec(HPolytope.from_json_dict(base), items(
            summands, lambda d: mapping(d, facet_id, kind="summand object"), kind="summand list"))


def bundle_polytope(spec: BundleSpec) -> HPolytope:
    """Total-space polytope of the projectivized split bundle; raises
    NotAmple (dilate the base) when the assembled system is not a valid
    polytope."""
    ny, r = spec.base.n, spec.fiber_rank
    n = ny + r
    facets = []
    for rho, (u, b) in enumerate(spec.base.facets):
        tail = tuple(spec.summands[i].get(rho, 0) for i in range(r))
        facets.append((u + tail, b))
    for i in range(r):
        facets.append(((0,) * ny + tuple(1 if j == i else 0 for j in range(r)), 1))
    facets.append(((0,) * ny + (-1,) * r, 1))
    try:
        return HPolytope(n, facets)
    except InfeasibleError as exc:
        raise NotAmple(
            "assembled bundle polytope is invalid; dilate the base polarization "
            f"({exc})") from exc


def projectivized_bundle(spec: BundleSpec) -> GitSetup:
    """The canonical GIT setup of the projectivized split bundle: quotient
    by {0} x ZZ^r with the product linearization.

    The construction guarantees a generic setup whose unstable facets are
    exactly the r+1 fiber facets, with all divisibility moduli 1 and
    quotient polytope equal to the base; those invariants are checked.
    """
    px = bundle_polytope(spec)
    ny, r = spec.base.n, spec.fiber_rank
    gens = tuple((0,) * ny + tuple(1 if j == i else 0 for j in range(r))
                 for i in range(r))
    setup = GitSetup(px, Sublattice(ny + r, gens))
    if not setup.is_generic():
        raise InternalError("bundle setup must be generic")
    d = spec.base.num_facets
    if setup.stable_facets != tuple(range(d)):
        raise InternalError("stable facets must be the base ones")
    if setup.unstable_facets != tuple(range(d, d + r + 1)):
        raise InternalError("unstable facets must be the fiber sections")
    py, _, b = setup.quotient_polytope()
    if any(v != 1 for v in b.values()):
        raise InternalError("bundle moduli must all be 1")
    if py != spec.base:
        raise InternalError("quotient polytope must recover the base")
    return setup


def alpha_surface_formula(spec: BundleSpec) -> DivisorClass:
    """Closed form of the quotient class for a rank-3 bundle over a surface:
    3 * (base class) + D_1 + D_2, as a divisor class on the base."""
    if spec.base.n != 2 or spec.fiber_rank != 2:
        raise InputError("surface formula needs dim(base) = 2 and two summands")
    coeffs = {}
    for rho, (_, b) in enumerate(spec.base.facets):
        coeffs[rho] = 3 * b + spec.summands[0].get(rho, 0) + spec.summands[1].get(rho, 0)
    return DivisorClass.from_dict(coeffs)

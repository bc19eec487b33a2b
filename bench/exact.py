"""Small exact-arithmetic helpers shared by the corpus generator and the
output checker.

They are written independently of ``toricgit`` so that the checker does not
verify the package with its own code.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def rank(rows) -> int:
    """Rank over QQ of a list of rational row vectors."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                q = m[i][c] / m[r][c]
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def polygon_edge_lengths(normals, supports) -> list:
    """Lattice lengths of the edges of {m : <m, u_i> >= -a_i} in the plane,
    one per inequality (0 for an inequality that cuts out no edge).

    Works with Fractions (exact) or floats (solver output)."""
    out = []
    for i, (u, a) in enumerate(zip(normals, supports)):
        pts = []
        for j, (w, c) in enumerate(zip(normals, supports)):
            det = u[0] * w[1] - u[1] * w[0]
            if j == i or det == 0:
                continue
            # u.m = -a, w.m = -c
            x = (-a * w[1] + c * u[1]) / det
            y = (-c * u[0] + a * w[0]) / det
            pts.append((x, y))
        slack = _slack(normals, supports)
        feas = [p for p in pts
                if all(w[0] * p[0] + w[1] * p[1] + c >= -slack
                       for w, c in zip(normals, supports))]
        d = (-u[1], u[0])  # primitive edge direction (u is primitive)
        ts = [p[0] / d[0] if d[0] else p[1] / d[1] for p in feas]
        out.append(max(ts) - min(ts) if ts else 0 * a)
    return out


def _slack(normals, supports):
    if all(isinstance(a, (int, Fraction)) for a in supports):
        return 0
    scale = max(abs(float(a)) for a in supports) or 1.0
    return 1e-9 * scale


def box_facet_areas(normals, supports) -> list:
    """Lattice areas of the facets of an axis-parallel box given by the six
    inequalities with normals +-e_i."""
    side = [0.0, 0.0, 0.0]
    for u, a in zip(normals, supports):
        axis = next(k for k in range(3) if u[k])
        side[axis] += a
    out = []
    for u in normals:
        axis = next(k for k in range(3) if u[k])
        others = [side[k] for k in range(3) if k != axis]
        out.append(others[0] * others[1])
    return out


def _det_index(steps) -> int:
    """i_F(det) of one filtration given as (jump index, dimension) pairs."""
    total, prev = 0, 0
    for i, d in steps:
        total += i * (d - prev)
        prev = d
    return total


def subsheaf_slope(w_rows, filtrations, latvols) -> Fraction:
    """Exact slope of the equivariant subsheaf of W, from intersection
    dimensions dim(W n V) = dim W + dim V - rank[W; V].

    ``filtrations``: per facet a list of (index, basis rows)."""
    k = rank(w_rows)
    deg = sum((_det_index([(i, k + rank(b) - rank(list(w_rows) + list(b))) for i, b in steps])
               * Fraction(lv) for steps, lv in zip(filtrations, latvols)), Fraction(0))
    return -deg / k


def sheaf_slope(rank_: int, filtrations, latvols) -> Fraction:
    deg = sum((_det_index([(i, rank(b)) for i, b in steps]) * Fraction(lv)
               for steps, lv in zip(filtrations, latvols)), Fraction(0))
    return -deg / rank_


def basis_max_subsheaf_slope(rank_: int, subset_filtrations, latvols) -> Fraction:
    """Exact maximum of mu(S_W) over all proper W for a sheaf whose jump
    subspaces are all spanned by subsets of one basis B.

    A generic one-parameter degeneration of W inside the torus diagonal in B
    lands on a coordinate subspace with pointwise larger intersection
    dimensions against every coordinate subspace, so the maximum is attained
    on spans of subsets of B.  ``subset_filtrations``: per facet a list of
    (index, frozenset of basis positions)."""
    best = None
    for k in range(1, rank_):
        for sub in combinations(range(rank_), k):
            s = frozenset(sub)
            deg = sum((_det_index([(i, len(s & t)) for i, t in steps]) * Fraction(lv)
                       for steps, lv in zip(subset_filtrations, latvols)), Fraction(0))
            if best is None or -deg / k > best:
                best = -deg / k
    return best

"""Basis-function families over a triangulation.

Two families share one evaluation contract (active dof ids, values,
gradients at a point): classic piecewise-linear hat functions on the
elements, and C1-continuous piecewise-quadratic splines built on the
six-way refinement.  The spline family attaches three functions to every
vertex; each function is defined by a triplet (value, x-derivative,
y-derivative at its vertex) derived from a small enclosing "control
triangle" of the vertex's split points, and is evaluated per sub-triangle
from a table of 19 quadratic Bezier ordinates.

Evaluation is pure and all tables are fixed after construction, so a basis
object can be shared freely across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (CollinearPoints, InteriorVertexConstrained, OutsideDomain,
                     SingularControlTriangle, UnsupportedBoundaryTangent)
from .mesh import (PointLocator, PSRefinement, Triangulation, _ragged_arange,
                   cross2)

# Canonical enumeration of the 19 Bezier-ordinate positions of one refined
# element with vertices (w0, w1, w2), edge points E01/E12/E20 and interior
# point Z:
#   0..2   w0, w1, w2
#   3..5   E01, E12, E20
#   6      Z
#   7..12  mid(w0,E01), mid(E01,w1), mid(w1,E12), mid(E12,w2),
#          mid(w2,E20), mid(E20,w0)
#   13..15 mid(Z,w0), mid(Z,w1), mid(Z,w2)
#   16..18 mid(Z,E01), mid(Z,E12), mid(Z,E20)
#
# Positions of the 6 ordinates (c1, c2, c3, m12, m13, m23) of each
# sub-triangle in that layout (sub-triangle order as in mesh.PSRefinement):
SUB_POSITIONS = np.array([
    [0, 3, 6, 7, 13, 16],
    [3, 1, 6, 8, 16, 14],
    [1, 4, 6, 9, 14, 17],
    [4, 2, 6, 10, 17, 15],
    [2, 5, 6, 11, 15, 18],
    [5, 0, 6, 12, 18, 13],
], dtype=int)
# Barycentric index pairs (i, j) of the mixed Bernstein polynomials
# 2 e_i e_j, in ordinate order m12, m13, m23.
_PAIR_I = [0, 0, 1]
_PAIR_J = [1, 2, 2]
# d B_k / d eta_l = sum_m _QUADRATIC_DERIVATIVE[k, l, m] eta_m for the six
# Bernstein polynomials e_k^2 (2 e_k) and 2 e_i e_j (2 e_j and 2 e_i)
_QUADRATIC_DERIVATIVE = np.zeros((6, 3, 3))
_QUADRATIC_DERIVATIVE[[0, 1, 2], [0, 1, 2], [0, 1, 2]] = 2.0
_QUADRATIC_DERIVATIVE[[3, 4, 5], _PAIR_I, _PAIR_J] = 2.0
_QUADRATIC_DERIVATIVE[[3, 4, 5], _PAIR_J, _PAIR_I] = 2.0


@dataclass(frozen=True)
class DirichletConstraint:
    """Zero value (and tangential derivative) at a boundary vertex.

    ``component`` selects the field (0 = x, 1 = y).  ``tangent`` is the unit
    tangent of the boundary at the vertex; it is required for the spline
    basis, where the constraint contributes a value row and a
    tangential-derivative row, and ignored for hats.
    """
    vertex: int
    component: int
    tangent: tuple[float, float] | None = None


def convex_hull(points):
    """Monotone-chain convex hull of a point set (n, 2): its CCW corners
    (k, 2), from the lexicographically least point on.

    A stack of point sets (G, n, 2) gives a list of G hulls.  The chains of
    all sets advance together over the sorted points, with the same
    ``cross2`` turn test and the same point order as a per-set loop, so
    each hull is the same to the bit.  Repeated points count once.
    """
    pts = np.asarray(points, dtype=float)
    sets = pts[None] if pts.ndim == 2 else pts
    order = np.lexsort((sets[..., 1], sets[..., 0]), axis=-1)
    srt = np.take_along_axis(sets, order[..., None], axis=1)
    # the first of each run of equal points stands for the run
    fresh = np.ones(srt.shape[:2], dtype=bool)
    fresh[:, 1:] = np.any(srt[:, 1:] != srt[:, :-1], axis=2)
    if np.any(fresh.sum(axis=1) < 3):
        raise CollinearPoints("need at least 3 distinct points")
    n = srt.shape[1]
    lower = _half_hull(srt, fresh, range(n))
    upper = _half_hull(srt, fresh, range(n - 1, -1, -1))
    span = sets.max(axis=1) - sets.min(axis=1)
    hulls = []
    for g, (lo, up) in enumerate(zip(lower, upper)):
        hull = srt[g, np.concatenate([lo[:-1], up[:-1]])]
        area = 0.5 * abs(np.sum(cross2(hull, np.roll(hull, -1, axis=0))))
        if len(hull) < 3 or area < 1e-14 * max(span[g, 0] ** 2
                                                + span[g, 1] ** 2, 1e-300):
            raise CollinearPoints("hull of the point set is degenerate")
        hulls.append(hull)
    return hulls[0] if pts.ndim == 2 else hulls


def _half_hull(srt, fresh, seq):
    """One monotone chain per sorted point set ``srt`` (G, n, 2), over the
    points ``seq`` that ``fresh`` keeps; a list of G index arrays."""
    stack = np.empty(fresh.shape, dtype=np.intp)
    top = np.zeros(len(srt), dtype=np.intp)
    for j in seq:
        came = np.nonzero(fresh[:, j])[0]
        pop = came
        while len(pop):
            pop = pop[top[pop] > 1]
            a = srt[pop, stack[pop, top[pop] - 1]]
            b = srt[pop, stack[pop, top[pop] - 2]]
            pop = pop[cross2(a - b, srt[pop, j] - b) <= 0]
            top[pop] -= 1
        stack[came, top[came]] = j
        top[came] += 1
    return [s[:t] for s, t in zip(stack, top)]


# Barycentric slack of the control-triangle containment test.
CONTAIN_TOL = 1e-10


@functools.lru_cache(maxsize=None)
def _candidate_tables(m):
    """Index tables of the flush-edge candidates of an m-corner hull.

    Returns ``(pair_i, pair_j, cand)``.  ``pair_i < pair_j`` are the hull
    edge pairs in loop order (i outer, j inner).  ``cand`` has one row
    ``(ij, jk, ik, v)`` per candidate, in enumeration order: for each pair
    ij, first the three-line candidates with the third edge k > j
    (``jk``/``ik`` index pairs (j, k) and (i, k), ``v = -1``), then the
    midpoint candidates through hull vertex ``v = 0 .. m-1``
    (``jk = ik = -1``).
    """
    pair_i, pair_j = np.triu_indices(m, 1)
    pair_id = np.full((m, m), -1, dtype=np.intp)
    pair_id[pair_i, pair_j] = np.arange(len(pair_i))
    rows = []
    for p, (i, j) in enumerate(zip(pair_i, pair_j)):
        rows.extend((p, pair_id[j, k], pair_id[i, k], -1)
                    for k in range(j + 1, m))
        rows.extend((p, -1, -1, v) for v in range(m))
    return pair_i, pair_j, np.array(rows, dtype=np.intp)


def _line_intersections(p0, d0, p1, d1):
    """Intersections of the lines ``p0 + s d0`` and ``p1 + t d1``, batched
    over the leading axes of the (..., 2) inputs.

    Returns ``(x, ok)``: (..., 2) points and a (...) mask that is False for
    lines parallel to within ``1e-14`` of the squared direction scale,
    where ``x`` is left NaN.
    """
    mat = np.stack([d0, -d1], axis=-1)
    det = mat[..., 0, 0] * mat[..., 1, 1] - mat[..., 0, 1] * mat[..., 1, 0]
    scale = np.maximum(np.abs(mat).max(axis=(-2, -1)), 1e-300) ** 2
    ok = ~(np.abs(det) < 1e-14 * scale)
    x = np.full(p0.shape, np.nan)
    s = np.linalg.solve(mat[ok], (p1 - p0)[ok][:, :, None])[:, 0]
    x[ok] = p0[ok] + s * d0[ok]
    return x, ok


# Share of the hull's area below which a candidate is not tested; it is
# far above the 6 CONTAIN_TOL that a containing candidate can lack (see
# min_area_control_triangle), which leaves room for rounding.
HULL_AREA_MARGIN = 1e-6


def min_area_control_triangle(points):
    """Smallest enclosing triangle among flush-edge candidates, for one
    point set (n, 2) or a stack of point sets (G, n, 2).

    Candidates take either three sides on convex-hull edge lines, or two
    sides on hull edge lines with the third side passing through a hull
    vertex as its midpoint (the area-optimal line through a fixed point
    cutting a wedge).  The enumeration covers the two- and three-shared-edge
    constructions and always yields at least one containing triangle.

    The sets are grouped by hull size, and each group's candidates are
    built at once from index tables memoised per hull size, in a fixed
    order: for each hull-edge pair i < j, the three-line candidates with
    third edge k > j, then the midpoint candidates through each hull vertex.
    Parallel edge pairs are masked out before solving.  Each set's
    candidates with positive finite area are then tested for containment
    in ascending ``(area, index)`` order, in rounds of 32, 64, 128, ...
    per set, and the first that holds every point to ``CONTAIN_TOL`` and
    has a regular corner matrix wins.  Testing starts at the first
    candidate whose area reaches ``1 - HULL_AREA_MARGIN`` times the hull's.
    No skipped candidate can win: one that holds every point to
    ``CONTAIN_TOL`` holds the hull in its triangle scaled by
    ``1 + 3 CONTAIN_TOL``, so its area is at least ``1 - 6 CONTAIN_TOL``
    times the hull's.  Both areas are taken relative to a corner, so that
    far-off coordinates do not blur them by cancellation.

    Intersections, midpoint constructions and every tested candidate's
    ``det`` and containment ``solve`` are batched ``np.linalg`` calls, one
    small LAPACK call per matrix, so the corners are the same to the bit
    as a candidate-by-candidate loop that keeps the first candidate of
    least area among the containing ones.

    Returns the (3, 2) corners, or (G, 3, 2) for a stack.
    """
    pts = np.asarray(points, dtype=float)
    sets = pts[None] if pts.ndim == 2 else pts
    hulls = convex_hull(sets)
    # (G, 3, n) homogeneous points, the right-hand sides of containment
    ph = np.concatenate([sets, np.ones(sets.shape[:2] + (1,))], axis=2)
    ph = ph.transpose(0, 2, 1)
    sizes = np.array([len(h) for h in hulls])
    corners = np.empty((len(sets), 3, 2))
    for m in np.unique(sizes):
        grp = np.nonzero(sizes == m)[0]
        hull = np.stack([hulls[g] for g in grp])
        corners[grp] = _min_area_in_group(hull, ph[grp])
    return corners[0] if pts.ndim == 2 else corners


def _min_area_in_group(hull, ph):
    """Winning corners (G, 3, 2) of the candidates of G hulls (G, m, 2)
    that share a size m, for the homogeneous points ``ph`` (G, 3, n)."""
    dirs = np.roll(hull, -1, axis=1) - hull
    pair_i, pair_j, cand = _candidate_tables(hull.shape[1])
    x, ok = _line_intersections(hull[:, pair_i], dirs[:, pair_i],
                                hull[:, pair_j], dirs[:, pair_j])

    ij, jk, ik, v = cand.T
    three = v < 0
    corners = np.full((len(hull), len(cand), 3, 2), np.nan)
    g, c = np.nonzero(three & ok[:, ij] & ok[:, jk] & ok[:, ik])
    corners[g, c] = np.stack([x[g, ij[c]], x[g, jk[c]], x[g, ik[c]]], axis=1)
    # third side through hull vertex v, with v as the chord midpoint
    g, c = np.nonzero(~three & ok[:, ij])
    xij = x[g, ij[c]]
    di = dirs[g, pair_i[ij[c]]]
    dj = dirs[g, pair_j[ij[c]]]
    st = np.linalg.solve(np.stack([di, dj], axis=2),
                         (2.0 * (hull[g, v[c]] - xij))[:, :, None])[:, :, 0]
    corners[g, c] = np.stack([xij, xij + st[:, :1] * di,
                              xij + st[:, 1:] * dj], axis=1)

    area = np.abs(0.5 * cross2(corners[..., 1, :] - corners[..., 0, :],
                               corners[..., 2, :] - corners[..., 0, :]))
    area[~((area > 0.0) & (area < np.inf))] = np.inf
    order = np.argsort(area, axis=1, kind="stable")
    ranked = np.take_along_axis(area, order, axis=1)
    rel = hull - hull[:, :1]
    hull_area = 0.5 * np.abs(np.sum(cross2(rel, np.roll(rel, -1, axis=1)),
                                    axis=1))
    pos = np.sum(ranked < (1.0 - HULL_AREA_MARGIN) * hull_area[:, None],
                 axis=1)
    stop = np.sum(ranked < np.inf, axis=1)
    best = np.full(len(hull), -1)
    todo = np.nonzero(pos < stop)[0]
    width = 32
    while len(todo):
        counts = np.minimum(stop[todo] - pos[todo], width)
        g = np.repeat(todo, counts)
        c = order[g, pos[g] + _ragged_arange(counts)]
        mat = np.ones((len(g), 3, 3))
        mat[:, :2, :] = corners[g, c].transpose(0, 2, 1)
        regular = np.nonzero(~(np.abs(np.linalg.det(mat)) < 1e-14))[0]
        eta = np.linalg.solve(mat[regular], ph[g[regular]])
        hit = regular[eta.min(axis=(1, 2)) >= -CONTAIN_TOL]
        won, first = np.unique(g[hit], return_index=True)
        best[won] = c[hit[first]]
        pos[todo] += width
        todo = todo[(best[todo] < 0) & (pos[todo] < stop[todo])]
        width *= 2
    if np.any(best < 0):
        raise CollinearPoints("no enclosing flush-edge triangle found")
    return corners[np.arange(len(hull)), best]


def compute_triplets(corners, v):
    """Triplets of the three splines defined by a control triangle.

    Solves the 3x3 system tying the control-triangle corner coordinates
    (3, 2) to the vertex position ``v`` (2,) and the unit-gradient columns.
    Row q of the (3, 3) result is (alpha, beta, gamma) of spline q.  A stack
    of corners (n, 3, 2) and vertices (n, 2) is one stacked solve, giving
    (n, 3, 3) with the same bits per vertex.
    """
    corners = np.asarray(corners, dtype=float)
    v = np.asarray(v, dtype=float)
    a = np.ones(corners.shape[:-2] + (3, 3))
    a[..., :2, :] = np.swapaxes(corners, -1, -2)
    rhs = np.zeros(v.shape[:-1] + (3, 3))
    rhs[..., :2, 0] = v
    rhs[..., 2, 0] = 1.0
    rhs[..., 0, 1] = rhs[..., 1, 2] = 1.0
    try:
        t = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularControlTriangle(str(exc)) from exc
    if not np.all(np.isfinite(t)):
        raise SingularControlTriangle("non-finite triplet solution")
    return t


def split_points(ref: PSRefinement):
    """``(stack, counts)``: the (n_v, m, 2) split points of every vertex,
    padded with copies of the vertex, and their (n_v,) counts.

    Row v holds vertex v, then the midpoints of its incident split edges:
    the spokes to its elements' interior points and the vertex-side halves
    of its mesh edges, in ascending element and then edge id order.
    """
    tri = ref.parent
    # a stable sort by vertex keeps element slots, then edge slots, ascending
    owner = np.concatenate([tri.elements.ravel(), tri.edges.ravel()])
    far = np.concatenate([np.repeat(ref.interior_points, 3, axis=0),
                          np.repeat(ref.edge_points, 2, axis=0)])
    order = np.argsort(owner, kind="stable")
    vtx = owner[order]
    counts = 1 + np.bincount(owner, minlength=tri.n_nodes)
    stack = np.repeat(tri.nodes[:, None], counts.max(), axis=1)
    stack[vtx, 1 + _ragged_arange(counts - 1)] = 0.5 * (tri.nodes[vtx]
                                                        + far[order])
    return stack, counts


class BasisSet:
    """Uniform evaluation contract shared by both families: on each cell of
    the locator the active functions are ``cell_ordinates[c] @ bernstein(eta)``,
    an extraction table times K Bernstein polynomials of the barycentrics.

    Attributes:
        n_bf: total number of basis functions.
        element_dofs: (n_e, k) global dof ids of the k functions active on
            each element (3 for hats, 9 for splines).
        cell_ordinates: (n_cells, k, K) extraction table per cell.
        bernstein_derivative: (K, 3, W) tensor D with
            ``d B_k / d eta_l = sum_w D[k, l, w] weights_w``, where
            ``weights = gradient_weights(eta)``.
        cell_dofs: (n_cells, k) global dof ids of each cell's functions.
        grad_ops: (n_cells, k, 2 W) table Z of the gradients
            ``d N_d / d x_b = sum_w Z[c, d, 2 w + b] weights_w``.
    """

    n_bf: int
    element_dofs: np.ndarray
    tri: Triangulation
    locator: PointLocator

    def bernstein(self, eta):
        """(K, n) Bernstein polynomials of the (3, n) cell barycentrics."""
        raise NotImplementedError

    def gradient_weights(self, eta):
        """(W, n) rows that the Bernstein derivatives are linear in."""
        raise NotImplementedError

    def _build_cell_tables(self):
        """Build ``cell_dofs`` and ``grad_ops``, once, at construction."""
        ords, ed = self.cell_ordinates, self.element_dofs
        self.cell_dofs = np.repeat(ed, len(ords) // len(ed), axis=0)
        self.grad_ops = np.einsum(
            'cdk,klw,clb->cdwb', ords, self.bernstein_derivative,
            self.locator.cell_inv[:, :, :2], optimize=True
        ).reshape(len(ords), ed.shape[1], -1)

    def evaluate_located(self, elem, sub, eta):
        """Values and gradients at pre-located points: ``cell_ordinates``
        times the Bernstein values, ``grad_ops`` times the gradient weights.

        Args:
            elem, sub, eta: as returned by ``locator.locate_many``.

        Returns:
            (dofs, vals, grads): (n, k) int, (n, k) float, (n, k, 2) float.
        """
        elem, eta = np.asarray(elem), np.asarray(eta)
        cell = self.locator.cell_of(elem, np.asarray(sub))
        ords = self.cell_ordinates[cell]                     # (n, k, K)
        vals = np.matmul(ords, self.bernstein(eta.T).T[:, :, None])[:, :, 0]
        ops = self.grad_ops[cell].reshape(ords.shape[:2] + (-1, 2))
        grads = np.einsum('nkwb,wn->nkb', ops, self.gradient_weights(eta.T))
        return self.element_dofs[elem], vals, grads

    def eval_at(self, p):
        """Single-point evaluation; raises OutsideDomain off the mesh."""
        p = np.asarray(p, dtype=float)
        elem, sub, eta = self.locator.locate_many(p[None, :])
        if elem[0] < 0:
            raise OutsideDomain(f"point {tuple(p.tolist())} is outside "
                                "the mesh")
        dofs, vals, grads = self.evaluate_located(elem, sub, eta)
        return dofs[0], vals[0], grads[0]

    def constraint_rows(self, constraints):
        """Homogeneous constraint rows grouped by field component, in
        constraint order; ``_vertex_rows`` gives each constraint's rows.

        Returns ``{component: [(dof_ids, coefficients), ...]}``.

        Raises:
            InteriorVertexConstrained: for a vertex off the boundary.
        """
        boundary = set(self.tri.boundary_nodes.tolist())
        rows = {0: [], 1: []}
        for c in constraints:
            if c.vertex not in boundary:
                raise InteriorVertexConstrained(
                    f"vertex {c.vertex} is not on the boundary")
            rows[c.component] += self._vertex_rows(c)
        return rows

    def _vertex_rows(self, c: DirichletConstraint):
        """The ``(dof_ids, coefficients)`` rows of one constraint."""
        raise NotImplementedError


class HatBasis(BasisSet):
    """Piecewise-linear nodal functions; one per mesh vertex.

    On each element the three active functions equal the barycentric
    coordinates and their gradients are constant: they are the P1 Bernstein
    polynomials, with the identity as extraction table.
    """

    # d eta_k / d eta_l = delta_kl, weighted by a single row of ones
    bernstein_derivative = np.eye(3)[:, :, None]

    def __init__(self, tri: Triangulation):
        self.tri = tri
        self.n_bf = tri.n_nodes
        self.element_dofs = tri.elements.astype(np.int32)
        self.locator = PointLocator(tri, refinement=None)
        self.cell_ordinates = np.broadcast_to(np.eye(3), (tri.n_elements, 3, 3))
        self._build_cell_tables()

    def bernstein(self, eta):
        return eta

    def gradient_weights(self, eta):
        return np.ones((1, eta.shape[1]))

    def _vertex_rows(self, c):
        return [(np.array([c.vertex]), np.array([1.0]))]


class PSBasis(BasisSet):
    """C1 quadratic spline family on the six-way refinement.

    Three functions per vertex (dof ``3 * vertex + q``), each supported on
    the vertex's molecule.  The vertices' control triangles come from one
    :func:`min_area_control_triangle` call on the :func:`split_points`
    stack, padded with copies of each vertex (``control_corners``,
    (n_v, 3, 2)), and their triplets from one stacked
    :func:`compute_triplets` solve; both equal a per-vertex loop to the
    bit.  Per element the nine active functions are stored as 19
    Bezier ordinates over the canonical position layout, and per
    sub-triangle as the (9, 6) table ``sub_ordinates`` of its 6 ordinates,
    the extraction table of cell ``6 * e + s``.
    """

    bernstein_derivative = _QUADRATIC_DERIVATIVE

    def __init__(self, ref: PSRefinement):
        self.ref = ref
        self.tri = ref.parent
        tri = self.tri
        self.n_bf = 3 * tri.n_nodes
        self.locator = PointLocator(tri, refinement=ref)

        # one search over every vertex's split points; the padding copies
        # of the vertex change no hull or winner
        self.control_corners = min_area_control_triangle(
            split_points(ref)[0])
        self.triplets = compute_triplets(self.control_corners, tri.nodes)

        # dof 3 * vertex + q of corner lv sits in column 3 * lv + q
        self.element_dofs = (3 * tri.elements[:, :, None]
                             + np.arange(3)).reshape(-1, 9).astype(np.int32)

        self.ordinates = self._build_ordinates()
        # (n_e, 6, 9, 6): per sub-triangle view of the ordinate tables
        self.sub_ordinates = self.ordinates[:, :, SUB_POSITIONS].transpose(0, 2, 1, 3).copy()
        self._build_cell_tables()

    @property
    def cell_ordinates(self):
        return self.sub_ordinates.reshape(-1, 9, 6)

    def _build_ordinates(self):
        """Fill the (n_e, 9, 19) ordinate tables from the vertex triplets.

        In the local frame of corner ``lv`` (v1 = w[lv], v2/v3 the next
        corners counter-clockwise) the nine non-zero ordinates of one
        function are::

            v1:            alpha
            mid(v1, R12):  L   = alpha + (1 - lambda1)/2 * bbar
            mid(R13, v1):  L'  = alpha + (1 - nu1)/2     * gbar
            mid(Z,  v1):   Lt  = alpha + b/2 * bbar + c/2 * gbar
            R12:           lambda1 * L
            R13:           nu1     * L'
            Z:             a       * Lt
            mid(Z, R12):   lambda1 * Lt
            mid(Z, R13):   nu1     * Lt

        with bbar/gbar the directional derivatives along v2 - v1 / v3 - v1,
        (a, b, c) the interior-point barycentrics in this frame, lambda1 and
        nu1 the v1-weights of the two adjacent edge points, and R12/R13 the
        edge points on edges (v1, v2) / (v1, v3).  All remaining positions
        (the ones touching the far edge) are zero, which is what makes the
        function vanish smoothly at its molecule boundary.
        """
        el = self.tri.elements
        ref = self.ref
        corner = np.arange(3)
        nxt, prv = (corner + 1) % 3, (corner + 2) % 3
        w = self.tri.nodes[el]                          # (n_e, 3, 2)
        d12 = (w[:, nxt] - w)[:, :, None, :]            # v2 - v1 per corner
        d13 = (w[:, prv] - w)[:, :, None, :]            # v3 - v1
        lam1 = ref.edge_split[:, :, None]
        nu1 = 1.0 - ref.edge_split[:, prv, None]
        a = ref.z_bary[:, :, None]
        b = ref.z_bary[:, nxt, None]
        c = ref.z_bary[:, prv, None]
        trip = self.triplets[el]                        # (n_e, 3, 3 q, 3)
        alpha, beta, gamma = trip[..., 0], trip[..., 1], trip[..., 2]
        bbar = beta * d12[..., 0] + gamma * d12[..., 1]
        gbar = beta * d13[..., 0] + gamma * d13[..., 1]
        big_l = alpha + 0.5 * (1.0 - lam1) * bbar
        big_lp = alpha + 0.5 * (1.0 - nu1) * gbar
        big_lt = alpha + 0.5 * (b * bbar + c * gbar)
        # ords[e, corner, position, q]; every entry is (n_e, 3 corners, 3 q)
        ords = np.zeros((len(el), 3, 19, 3))
        for pos, value in ((corner, alpha),
                           (7 + 2 * corner, big_l),
                           (8 + 2 * prv, big_lp),
                           (13 + corner, big_lt),
                           (3 + corner, lam1 * big_l),
                           (3 + prv, nu1 * big_lp),
                           (6, a * big_lt),
                           (16 + corner, lam1 * big_lt),
                           (16 + prv, nu1 * big_lt)):
            ords[:, corner, pos, :] = value
        # row 3 * corner + q of the (n_e, 9, 19) table
        return ords.transpose(0, 1, 3, 2).reshape(len(el), 9, 19)

    def bernstein(self, eta):
        return np.concatenate([eta * eta, 2.0 * eta[_PAIR_I] * eta[_PAIR_J]])

    def gradient_weights(self, eta):
        return eta

    def _vertex_rows(self, c):
        """A value row and a tangential-derivative row; the tangent must be
        an axis-aligned unit vector."""
        if c.tangent is None or not np.isclose(
                np.sort(np.abs(c.tangent)), (0.0, 1.0)).all():
            raise UnsupportedBoundaryTangent(
                f"vertex {c.vertex}: spline constraints need an axis-aligned "
                f"unit tangent, got {c.tangent}")
        tx, ty = c.tangent
        dofs = np.arange(3 * c.vertex, 3 * c.vertex + 3)
        trip = self.triplets[c.vertex]
        return [(dofs, trip[:, 0].copy()),
                (dofs, trip[:, 1] * tx + trip[:, 2] * ty)]


def hat_basis(tri: Triangulation) -> HatBasis:
    """Piecewise-linear basis on ``tri``."""
    return HatBasis(tri)


def ps_basis(ref: PSRefinement) -> PSBasis:
    """C1 quadratic spline basis on the refinement ``ref``."""
    return PSBasis(ref)

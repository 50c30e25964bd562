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
from .mesh import PointLocator, PSRefinement, Triangulation, cross2

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


@dataclass(frozen=True)
class Triplet:
    """Value and gradient of one spline at its vertex."""
    alpha: float
    beta: float
    gamma: float


@dataclass
class ControlTriangle:
    """Minimal-area triangle enclosing a vertex's split points."""
    vertex: int
    corners: np.ndarray          # (3, 2)

    @property
    def area(self):
        d1 = self.corners[1] - self.corners[0]
        d2 = self.corners[2] - self.corners[0]
        return abs(0.5 * float(cross2(d1, d2)))


@dataclass(frozen=True)
class DirichletConstraint:
    """Prescribed value (and tangential derivative) at a boundary vertex.

    ``component`` selects the field (0 = x, 1 = y).  ``tangent`` is the unit
    tangent of the boundary at the vertex; it is required for the spline
    basis, where the constraint contributes a value row and a
    tangential-derivative row, and ignored for hats.
    """
    vertex: int
    component: int
    value: float = 0.0
    tangent: tuple[float, float] | None = None
    tangent_value: float = 0.0


def convex_hull(points):
    """Monotone-chain convex hull; returns CCW corner points (k, 2)."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) < 3:
        raise CollinearPoints("need at least 3 distinct points")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def half(seq):
        out = []
        for p in seq:
            while len(out) > 1 and cross2(out[-1] - out[-2], p - out[-2]) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    span = pts.max(axis=0) - pts.min(axis=0)
    area = 0.5 * abs(np.sum(cross2(hull, np.roll(hull, -1, axis=0))))
    if len(hull) < 3 or area < 1e-14 * max(span[0] ** 2 + span[1] ** 2, 1e-300):
        raise CollinearPoints("hull of the point set is degenerate")
    return hull


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
    """Intersections of the lines ``p0 + s d0`` and ``p1 + t d1``, batched.

    Returns ``(x, ok)``: (n, 2) points and an (n,) mask that is False for
    lines parallel to within ``1e-14`` of the squared direction scale,
    where ``x`` is left NaN.
    """
    mat = np.stack([d0, -d1], axis=2)
    det = mat[:, 0, 0] * mat[:, 1, 1] - mat[:, 0, 1] * mat[:, 1, 0]
    scale = np.maximum(np.abs(mat).max(axis=(1, 2)), 1e-300) ** 2
    ok = ~(np.abs(det) < 1e-14 * scale)
    x = np.full(p0.shape, np.nan)
    s = np.linalg.solve(mat[ok], (p1 - p0)[ok][:, :, None])[:, 0]
    x[ok] = p0[ok] + s * d0[ok]
    return x, ok


def min_area_control_triangle(points):
    """Smallest enclosing triangle among flush-edge candidates.

    Candidates take either three sides on convex-hull edge lines, or two
    sides on hull edge lines with the third side passing through a hull
    vertex as its midpoint (the area-optimal line through a fixed point
    cutting a wedge).  The enumeration covers the two- and three-shared-edge
    constructions and always yields at least one containing triangle.

    All candidates of the hull are built at once from index tables
    memoised per hull size, in a fixed order: for each hull-edge pair
    i < j, the three-line candidates with third edge k > j, then the
    midpoint candidates through each hull vertex.  Intersections, midpoint
    constructions and containment use batched ``np.linalg.solve``/``det``,
    one small LAPACK call per candidate, so every corner is the same to the
    bit as a candidate-by-candidate loop would give.  Parallel edge pairs
    and candidates whose corner matrix is singular are masked out before
    solving.

    Returns the (3, 2) corner array of the winning candidate: the first
    candidate in that order with the least positive finite area among
    those containing every point, so ties keep the earlier candidate.
    """
    pts = np.asarray(points, dtype=float)
    hull = convex_hull(pts)
    dirs = np.roll(hull, -1, axis=0) - hull
    pair_i, pair_j, cand = _candidate_tables(len(hull))
    x, ok = _line_intersections(hull[pair_i], dirs[pair_i],
                                hull[pair_j], dirs[pair_j])

    ij, jk, ik, v = cand.T
    three = v < 0
    corners = np.full((len(cand), 3, 2), np.nan)
    sel = three & ok[ij] & ok[jk] & ok[ik]
    corners[sel] = np.stack([x[ij[sel]], x[jk[sel]], x[ik[sel]]], axis=1)
    # third side through hull vertex v, with v as the chord midpoint
    sel = ~three & ok[ij]
    xij = x[ij[sel]]
    di = dirs[pair_i[ij[sel]]]
    dj = dirs[pair_j[ij[sel]]]
    st = np.linalg.solve(np.stack([di, dj], axis=2),
                         (2.0 * (hull[v[sel]] - xij))[:, :, None])[:, :, 0]
    corners[sel] = np.stack([xij, xij + st[:, :1] * di,
                             xij + st[:, 1:] * dj], axis=1)

    area = np.abs(0.5 * cross2(corners[:, 1] - corners[:, 0],
                               corners[:, 2] - corners[:, 0]))
    idx = np.nonzero((area > 0.0) & (area < np.inf))[0]
    mat = np.ones((len(idx), 3, 3))
    mat[:, :2, :] = corners[idx].transpose(0, 2, 1)
    regular = ~(np.abs(np.linalg.det(mat)) < 1e-14)
    idx, mat = idx[regular], mat[regular]
    ph = np.column_stack([pts, np.ones(len(pts))]).T
    eta = np.linalg.solve(mat, np.broadcast_to(ph, (len(idx),) + ph.shape))
    score = np.full(len(cand), np.inf)
    inside = idx[eta.min(axis=(1, 2)) >= -CONTAIN_TOL]
    score[inside] = area[inside]
    best = int(np.argmin(score))
    if score[best] == np.inf:
        raise CollinearPoints("no enclosing flush-edge triangle found")
    return corners[best].copy()


def compute_triplets(corners, v):
    """Triplets of the three splines defined by one control triangle.

    Solves the 3x3 system tying the control-triangle corner coordinates to
    the vertex position and the unit-gradient columns.  Row q of the result
    is (alpha, beta, gamma) of spline q.
    """
    corners = np.asarray(corners, dtype=float)
    a = np.empty((3, 3))
    a[:2, :] = corners.T
    a[2, :] = 1.0
    rhs = np.array([[v[0], 1.0, 0.0],
                    [v[1], 0.0, 1.0],
                    [1.0, 0.0, 0.0]])
    try:
        t = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularControlTriangle(str(exc)) from exc
    if not np.all(np.isfinite(t)):
        raise SingularControlTriangle("non-finite triplet solution")
    return t


def ps_points(ref: PSRefinement, vertex: int):
    """Split points of a vertex: itself plus midpoints of incident split edges.

    The incident split edges are the spokes to the interior points of the
    surrounding elements and the vertex-side halves of the incident mesh
    edges, in the order of ``vertex_elements`` and ``vertex_edges``.
    Duplicates (if any) are removed with a mesh-scale tolerance, keeping
    the first of each cluster.
    """
    tri = ref.parent
    v = tri.nodes[vertex]
    pts = np.concatenate([
        v[None, :],
        0.5 * (v + ref.interior_points[tri.vertex_elements[vertex]]),
        0.5 * (v + ref.edge_points[tri.vertex_edges[vertex]])])
    scale = max(np.ptp(pts, axis=0).max(), 1e-300)
    d = pts[:, None, :] - pts[None, :, :]
    close = np.triu(np.hypot(d[..., 0], d[..., 1]) <= 1e-12 * scale, 1)
    keep = np.ones(len(pts), dtype=bool)
    # pairs come row by row, so keep[i] is final before row i is read
    for i, j in zip(*np.nonzero(close)):
        if keep[i]:
            keep[j] = False
    return pts[keep]


class BasisSet:
    """Uniform evaluation contract shared by both families.

    Attributes:
        n_bf: total number of basis functions.
        n_active: active functions per element (3 for hats, 9 for splines).
        element_dofs: (n_e, n_active) global dof ids active on each element.
    """

    n_bf: int
    n_active: int
    element_dofs: np.ndarray
    tri: Triangulation
    locator: PointLocator

    def evaluate_located(self, elem, sub, eta):
        """Values and gradients at pre-located points.

        Args:
            elem, sub, eta: as returned by ``locator.locate_many``.

        Returns:
            (dofs, vals, grads): (n, k) int, (n, k) float, (n, k, 2) float.
        """
        raise NotImplementedError

    def eval_at(self, p):
        """Single-point evaluation; raises OutsideDomain off the mesh."""
        loc = self.locator.locate(p)
        if loc is None:
            raise OutsideDomain(f"point {tuple(p)} is outside the mesh")
        e, s, eta = loc
        dofs, vals, grads = self.evaluate_located(
            np.array([e]), np.array([s]), eta[None, :])
        return dofs[0], vals[0], grads[0]

    def constraint_rows(self, constraints):
        """Constraint rows grouped by field component.

        Returns ``{component: [(dof_ids, coefficients, rhs), ...]}``.
        """
        raise NotImplementedError

    def _check_boundary_vertex(self, vertex):
        if vertex not in set(self.tri.boundary_nodes.tolist()):
            raise InteriorVertexConstrained(
                f"vertex {vertex} is not on the boundary")


class HatBasis(BasisSet):
    """Piecewise-linear nodal functions; one per mesh vertex.

    On each element the three active functions equal the barycentric
    coordinates and their gradients are constant.
    """

    n_active = 3

    def __init__(self, tri: Triangulation):
        self.tri = tri
        self.n_bf = tri.n_nodes
        self.element_dofs = tri.elements.astype(np.int32)
        self.locator = PointLocator(tri, refinement=None)
        # gradient of eta_m is row m, columns 0:2 of the inverse matrix
        self.grad_const = self.locator.elem_inv[:, :, :2].copy()

    def evaluate_located(self, elem, sub, eta):
        del sub
        dofs = self.element_dofs[elem]
        return dofs, np.asarray(eta), self.grad_const[elem]

    def constraint_rows(self, constraints):
        rows = {0: [], 1: []}
        for c in constraints:
            self._check_boundary_vertex(c.vertex)
            rows[c.component].append(
                (np.array([c.vertex]), np.array([1.0]), c.value))
        return rows


class PSBasis(BasisSet):
    """C1 quadratic spline family on the six-way refinement.

    Three functions per vertex (dof ``3 * vertex + q``), each supported on
    the vertex's molecule.  Per element the nine active functions are stored
    as 19 Bezier ordinates over the canonical position layout, and per
    sub-triangle as the (9, 6) table ``sub_ordinates`` of its 6 ordinates.
    ``evaluate_located`` builds, per point, the (6, 3) matrix of the six
    quadratic Bernstein polynomials of the barycentrics and their x and y
    derivatives in closed form, and contracts the sub-triangle's ordinate
    table against it in one product: values and both gradient components
    at once.
    """

    n_active = 9

    def __init__(self, ref: PSRefinement):
        self.ref = ref
        self.tri = ref.parent
        tri = self.tri
        self.n_bf = 3 * tri.n_nodes
        self.locator = PointLocator(tri, refinement=ref)

        self.control_triangles = []
        self.triplets = np.empty((tri.n_nodes, 3, 3))
        for v in range(tri.n_nodes):
            pts = ps_points(ref, v)
            corners = min_area_control_triangle(pts)
            self.control_triangles.append(ControlTriangle(v, corners))
            self.triplets[v] = compute_triplets(corners, tri.nodes[v])

        # dof 3 * vertex + q of corner lv sits in column 3 * lv + q
        self.element_dofs = (3 * tri.elements[:, :, None]
                             + np.arange(3)).reshape(-1, 9).astype(np.int32)

        self.ordinates = self._build_ordinates()
        # (n_e, 6, 9, 6): per sub-triangle view of the ordinate tables
        self.sub_ordinates = self.ordinates[:, :, SUB_POSITIONS].transpose(0, 2, 1, 3).copy()
        # (2, 3, n_e * 6): d eta_i / d x_c of sub-triangle cell 6 * e + s
        self.deta_dxy = np.ascontiguousarray(
            ref.sub_inv[:, :, :, :2].reshape(-1, 3, 2).transpose(2, 1, 0))

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

    def evaluate_located(self, elem, sub, eta):
        elem = np.asarray(elem)
        cell = 6 * elem + np.asarray(sub)
        n = len(cell)
        e = np.ascontiguousarray(np.asarray(eta).T)             # (3, n)
        t = 2.0 * e
        g = np.take(self.deta_dxy, cell, axis=2)                # (2, 3, n)
        # w[j, c]: the Bernstein polynomial B_j of the barycentrics
        # (e1^2, e2^2, e3^2, 2 e1 e2, 2 e1 e3, 2 e2 e3) for c = 0 and its
        # x/y derivative for c = 1/2, with d(ei ej) = ei d(ej) + ej d(ei)
        w = np.empty((6, 3, n))
        w[:3, 0] = e * e
        w[3:, 0] = t[_PAIR_I] * e[_PAIR_J]
        w[:3, 1:] = (t * g).transpose(1, 0, 2)
        w[3:, 1:] = (t[_PAIR_I] * g[:, _PAIR_J]
                     + t[_PAIR_J] * g[:, _PAIR_I]).transpose(1, 0, 2)
        # one (9, 6) @ (6, 3) product per point: values and x/y gradients
        w = np.ascontiguousarray(w.reshape(18, n).T).reshape(n, 6, 3)
        out = np.matmul(self.sub_ordinates.reshape(-1, 9, 6)[cell], w)
        return self.element_dofs[elem], out[:, :, 0], out[:, :, 1:]

    def constraint_rows(self, constraints):
        rows = {0: [], 1: []}
        for c in constraints:
            self._check_boundary_vertex(c.vertex)
            if c.tangent is None:
                raise UnsupportedBoundaryTangent(
                    f"vertex {c.vertex}: spline constraints need a tangent")
            tx, ty = c.tangent
            if not np.isclose(np.hypot(tx, ty), 1.0, atol=1e-12):
                raise UnsupportedBoundaryTangent("tangent must be unit length")
            if not (np.isclose(abs(tx), 1.0) and np.isclose(ty, 0.0)) and \
               not (np.isclose(abs(ty), 1.0) and np.isclose(tx, 0.0)):
                raise UnsupportedBoundaryTangent(
                    f"tangent {c.tangent} is not axis-aligned")
            dofs = np.arange(3 * c.vertex, 3 * c.vertex + 3)
            trip = self.triplets[c.vertex]
            rows[c.component].append((dofs, trip[:, 0].copy(), c.value))
            rows[c.component].append(
                (dofs, trip[:, 1] * tx + trip[:, 2] * ty, c.tangent_value))
        return rows


def hat_basis(tri: Triangulation) -> HatBasis:
    """Piecewise-linear basis on ``tri``."""
    return HatBasis(tri)


def ps_basis(ref: PSRefinement) -> PSBasis:
    """C1 quadratic spline basis on the refinement ``ref``."""
    return PSBasis(ref)

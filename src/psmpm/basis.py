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


def _contains_all(corners, points, tol=1e-10):
    m = np.empty((3, 3))
    m[:2, :] = corners.T
    m[2, :] = 1.0
    det = np.linalg.det(m)
    if abs(det) < 1e-14:
        return False
    ph = np.column_stack([points, np.ones(len(points))])
    eta = np.linalg.solve(m, ph.T)
    return bool(eta.min() >= -tol)


def _line_intersection(p0, d0, p1, d1):
    mat = np.column_stack([d0, -d1])
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if abs(det) < 1e-14 * max(np.abs(mat).max(), 1e-300) ** 2:
        return None
    s = np.linalg.solve(mat, p1 - p0)[0]
    return p0 + s * d0


def min_area_control_triangle(points):
    """Smallest enclosing triangle among flush-edge candidates.

    Candidates take either three sides on convex-hull edge lines, or two
    sides on hull edge lines with the third side passing through a hull
    vertex as its midpoint (the area-optimal line through a fixed point
    cutting a wedge).  The enumeration covers the two- and three-shared-edge
    constructions and always yields at least one containing triangle.

    Returns the (3, 2) corner array of the winning candidate; ties keep the
    candidate that comes first in hull-edge enumeration order.
    """
    pts = np.asarray(points, dtype=float)
    hull = convex_hull(pts)
    m = len(hull)
    dirs = np.roll(hull, -1, axis=0) - hull

    best = None
    best_area = np.inf

    def consider(corners):
        nonlocal best, best_area
        area = abs(0.5 * cross2(corners[1] - corners[0],
                                corners[2] - corners[0]))
        if area >= best_area or area <= 0.0:
            return
        if _contains_all(corners, pts):
            best = corners
            best_area = area

    for i in range(m):
        for j in range(i + 1, m):
            xij = _line_intersection(hull[i], dirs[i], hull[j], dirs[j])
            for k in range(j + 1, m):
                xik = _line_intersection(hull[i], dirs[i], hull[k], dirs[k])
                xjk = _line_intersection(hull[j], dirs[j], hull[k], dirs[k])
                if xij is None or xik is None or xjk is None:
                    continue
                consider(np.array([xij, xjk, xik]))
            if xij is None:
                continue
            for v in hull:
                # third side through v with v as the chord midpoint
                mat = np.column_stack([dirs[i], dirs[j]])
                try:
                    st = np.linalg.solve(mat, 2.0 * (v - xij))
                except np.linalg.LinAlgError:
                    continue
                a = xij + st[0] * dirs[i]
                b = xij + st[1] * dirs[j]
                consider(np.array([xij, a, b]))

    if best is None:
        raise CollinearPoints("no enclosing flush-edge triangle found")
    return best


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
    edges.  Duplicates (if any) are removed with a mesh-scale tolerance.
    """
    tri = ref.parent
    v = tri.nodes[vertex]
    pts = [v]
    for e in tri.vertex_elements[vertex]:
        pts.append(0.5 * (v + ref.interior_points[e]))
    edge_ids = np.nonzero((tri.edges == vertex).any(axis=1))[0]
    for idx in edge_ids:
        pts.append(0.5 * (v + ref.edge_points[idx]))
    pts = np.asarray(pts)
    scale = max(np.ptp(pts, axis=0).max(), 1e-300)
    keep = []
    for p in pts:
        if not any(np.hypot(*(p - q)) <= 1e-12 * scale for q in keep):
            keep.append(p)
    return np.asarray(keep)


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
        self.element_dofs = tri.elements.copy()
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
    as 19 Bezier ordinates over the canonical position layout; evaluation
    restricts those to the located sub-triangle's 6 ordinates and applies
    the quadratic Bernstein form.
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

        self.element_dofs = np.empty((tri.n_elements, 9), dtype=int)
        for lv in range(3):
            for q in range(3):
                self.element_dofs[:, 3 * lv + q] = 3 * tri.elements[:, lv] + q

        self.ordinates = self._build_ordinates()
        # (n_e, 6, 9, 6): per sub-triangle view of the ordinate tables
        self.sub_ordinates = self.ordinates[:, :, SUB_POSITIONS].transpose(0, 2, 1, 3).copy()
        self.deta_dx = ref.sub_inv[:, :, :, :2].copy()

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
        tri = self.tri
        ref = self.ref
        ords = np.zeros((tri.n_elements, 9, 19))
        for e in range(tri.n_elements):
            w = tri.nodes[tri.elements[e]]
            zb = ref.z_bary[e]
            t = ref.edge_split[e]
            for lv in range(3):
                nxt = (lv + 1) % 3
                prv = (lv + 2) % 3
                v1, v2, v3 = w[lv], w[nxt], w[prv]
                lam1 = t[lv]
                nu1 = 1.0 - t[prv]
                a, b, c = zb[lv], zb[nxt], zb[prv]
                trip = self.triplets[tri.elements[e, lv]]
                for q in range(3):
                    alpha, beta, gamma = trip[q]
                    bbar = beta * (v2[0] - v1[0]) + gamma * (v2[1] - v1[1])
                    gbar = beta * (v3[0] - v1[0]) + gamma * (v3[1] - v1[1])
                    big_l = alpha + 0.5 * (1.0 - lam1) * bbar
                    big_lp = alpha + 0.5 * (1.0 - nu1) * gbar
                    big_lt = alpha + 0.5 * (b * bbar + c * gbar)
                    row = ords[e, 3 * lv + q]
                    row[lv] = alpha
                    row[7 + 2 * lv] = big_l
                    row[8 + 2 * prv] = big_lp
                    row[13 + lv] = big_lt
                    row[3 + lv] = lam1 * big_l
                    row[3 + prv] = nu1 * big_lp
                    row[6] = a * big_lt
                    row[16 + lv] = lam1 * big_lt
                    row[16 + prv] = nu1 * big_lt
        return ords

    def evaluate_located(self, elem, sub, eta):
        elem = np.asarray(elem)
        sub = np.asarray(sub)
        eta = np.asarray(eta)
        o = self.sub_ordinates[elem, sub]          # (n, 9, 6)
        e1, e2, e3 = eta[:, 0], eta[:, 1], eta[:, 2]
        bern = np.stack([e1 * e1, e2 * e2, e3 * e3,
                         2.0 * e1 * e2, 2.0 * e1 * e3, 2.0 * e2 * e3], axis=1)
        vals = np.matmul(o, bern[:, :, None])[:, :, 0]
        db = np.empty(o.shape[:2] + (3,))
        db[:, :, 0] = 2.0 * (o[:, :, 0] * e1[:, None] + o[:, :, 3] * e2[:, None]
                             + o[:, :, 4] * e3[:, None])
        db[:, :, 1] = 2.0 * (o[:, :, 1] * e2[:, None] + o[:, :, 3] * e1[:, None]
                             + o[:, :, 5] * e3[:, None])
        db[:, :, 2] = 2.0 * (o[:, :, 2] * e3[:, None] + o[:, :, 4] * e1[:, None]
                             + o[:, :, 5] * e2[:, None])
        grads = np.matmul(db, self.deta_dx[elem, sub])
        return self.element_dofs[elem], vals, grads

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

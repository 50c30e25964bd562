"""Triangulation storage, six-way spline refinement, and point location.

A :class:`Triangulation` stores nodes and counter-clockwise elements and
derives edge tables on construction.  :func:`ps_refine` splits
every element into six sub-triangles around its incenter, which is the
geometric substrate for the C1 quadratic spline basis.  A
:class:`PointLocator` answers "which element / sub-triangle contains this
point" queries.  Un-hinted queries scan the elements of their bin in a
uniform grid, nearest first; a moving point tries its previous cell and
element, then one walk across an edge, and only then its bin.
:func:`generate_mesh` builds the structured and jittered rectangle meshes.

All constructed objects are immutable in practice: nothing mutates them
after ``__init__``, so they are safe to share across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import (DegenerateTriangle, MeshDegenerate, ParseError,
                     RefinementFailed, ValidationError)

# Barycentric slack used when deciding containment during point location.
LOCATE_TOL = 1e-12
# Points per batch when testing sub-triangles in PointLocator.locate_in.
LOCATE_CHUNK = 8192


def cross2(a, b):
    """z-component of the cross product of stacked 2D vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _bary(inv, cell, x, y):
    """(3, ...) barycentrics of (x, y) in cells ``cell`` (-1 reads cell 0)
    of a component-major (3, 3, n) inverse-map table, summed from +0.0 as
    ``(inv[i, 0] x + inv[i, 2]) + inv[i, 1] y``: einsum's order and bits,
    each row from one clipped (3, ...) ``take`` into a reused buffer."""
    eta, a = (np.empty((3,) + np.shape(cell)) for _ in range(2))
    for row, e in zip(inv, eta):
        np.take(row, cell, axis=1, out=a, mode="clip")
        np.multiply(a[0], x, out=e)
        e += a[2]
        e += np.multiply(a[1], y, out=a[1])
    eta += 0.0              # so a sum of -0.0 terms reads +0.0, as einsum's
    return eta


def _ragged_arange(counts):
    """Concatenation of ``arange(c)`` for every ``c`` in ``counts``."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                               counts)


def _check_not_degenerate(verts):
    verts = np.asarray(verts, dtype=float)
    v0 = verts[..., 0, :]
    area = 0.5 * cross2(verts[..., 1, :] - v0, verts[..., 2, :] - v0)
    span = verts.max(axis=-2) - verts.min(axis=-2)
    scale2 = np.maximum(span[..., 0] ** 2 + span[..., 1] ** 2, 1e-300)
    bad = np.abs(area) < 1e-14 * scale2
    if np.any(bad):
        raise DegenerateTriangle(
            f"triangle area {np.asarray(area)[bad][0]:.3e} below tolerance")
    return verts


def barycentric_coordinates(tri_vertices, p):
    """Barycentric coordinates of point ``p`` w.r.t. a 3-vertex triangle.

    Solves the 3x3 system mapping (eta1, eta2, eta3) to (x, y, 1).  The
    coordinates sum to one and reproduce ``p`` as ``sum eta_i * v_i``.
    Leading axes of ``tri_vertices`` (..., 3, 2) and ``p`` (..., 2) are
    batch axes, solved as one stack.

    Raises:
        DegenerateTriangle: if a triangle area is below tolerance.
    """
    verts = _check_not_degenerate(tri_vertices)
    p = np.asarray(p, dtype=float)
    a = np.ones(verts.shape[:-2] + (3, 3))
    a[..., :2, :] = np.swapaxes(verts, -1, -2)
    rhs = np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)
    return np.linalg.solve(a, rhs[..., None])[..., 0]


def incenter(tri_vertices):
    """Incenter of a triangle: side-length weighted vertex average.

    The incenter is equidistant from the three edge lines and strictly
    interior, which makes it a valid interior split point for any
    non-degenerate element.  Leading axes of ``tri_vertices`` (..., 3, 2)
    are batch axes.
    """
    verts = _check_not_degenerate(tri_vertices)
    v0, v1, v2 = verts[..., 0, :], verts[..., 1, :], verts[..., 2, :]
    # side lengths opposite v0, v1, v2
    l0, l1, l2 = (np.hypot(d[..., 0], d[..., 1])[..., None]
                  for d in (v2 - v1, v0 - v2, v1 - v0))
    return (l0 * v0 + l1 * v1 + l2 * v2) / (l0 + l1 + l2)


class Triangulation:
    """Nodes plus CCW triangles, with derived edge tables.
    With ``orient``, clockwise elements are reordered instead of rejected.

    Attributes:
        nodes: (n_v, 2) float array.
        elements: (n_e, 3) int array, counter-clockwise.
        areas: (n_e,) element areas, all strictly positive.
        edges: (n_edge, 2) int array of sorted node pairs.
        edge_elements: (n_edge, 2) adjacent element ids, -1 for boundary.
        element_edges: (n_e, 3) edge id of local edges (0,1), (1,2), (2,0).
        boundary_nodes: ascending ids of the nodes on boundary edges.
    """

    def __init__(self, nodes, elements, orient=False):
        self.nodes = np.asarray(nodes, dtype=float).copy()
        self.elements = np.asarray(elements, dtype=int).copy()
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise MeshDegenerate("nodes must be an (n, 2) array")
        finite = np.isfinite(self.nodes).all(axis=1)
        if not finite.all():
            raise MeshDegenerate(
                f"node {int(np.argmin(finite))} has a non-finite coordinate")
        if self.elements.ndim != 2 or self.elements.shape[1] != 3:
            raise MeshDegenerate("elements must be an (n, 3) array")
        bad = (self.elements < 0) | (self.elements >= len(self.nodes))
        if bad.any():
            e, k = np.argwhere(bad)[0]
            raise MeshDegenerate(f"element {e} references missing node "
                                 f"{self.elements[e, k]}")
        if orient:
            v = self.nodes[self.elements]
            flip = cross2(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]) < 0
            self.elements[flip] = self.elements[flip][:, ::-1]

        v0 = self.nodes[self.elements[:, 0]]
        v1 = self.nodes[self.elements[:, 1]]
        v2 = self.nodes[self.elements[:, 2]]
        self.areas = 0.5 * cross2(v1 - v0, v2 - v0)
        if np.any(self.areas <= 0.0):
            bad = int(np.argmin(self.areas))
            raise MeshDegenerate(
                f"element {bad} has non-positive area {self.areas[bad]:.3e}; "
                "elements must be counter-clockwise")

        self._build_edges()

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.elements)

    def _build_edges(self):
        # half-edges (a, b), (b, c), (c, a) of every element, in element order
        el = self.elements
        start, end = el.ravel(), el[:, [1, 2, 0]].ravel()
        pairs = np.column_stack([np.minimum(start, end), np.maximum(start, end)])
        _, first, inverse, counts = np.unique(
            pairs[:, 0] * self.n_nodes + pairs[:, 1], return_index=True,
            return_inverse=True, return_counts=True)
        if counts.max(initial=0) > 2:
            a, b = pairs[first[np.argmax(counts)]]
            raise MeshDegenerate(
                f"edge ({a}, {b}) shared by more than two elements")
        # number edges in order of first appearance; first[i] is then the
        # first half-edge of edge i and edge_of[h] the edge of half-edge h
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        first, edge_of = first[order], rank[inverse.ravel()]
        owner = np.arange(len(start)) // 3
        self.edges = pairs[first]
        self.edge_elements = np.full((len(first), 2), -1)
        self.edge_elements[:, 0] = owner[first]
        again = np.arange(len(start)) != first[edge_of]
        self.edge_elements[edge_of[again], 1] = owner[again]
        self.element_edges = edge_of.reshape(-1, 3)

        self.boundary_nodes = np.unique(
            self.edges[self.edge_elements[:, 1] == -1])

    def mean_edge_length(self):
        d = self.nodes[self.edges[:, 0]] - self.nodes[self.edges[:, 1]]
        return float(np.mean(np.hypot(d[:, 0], d[:, 1])))

    def bbox(self):
        return self.nodes.min(axis=0), self.nodes.max(axis=0)


# Canonical sub-triangle layout of one refined element with vertices
# (w0, w1, w2), edge points E01/E12/E20 and interior point Z:
#   sub s vertex triples, all CCW:
#     0: (w0, E01, Z)   1: (E01, w1, Z)   2: (w1, E12, Z)
#     3: (E12, w2, Z)   4: (w2, E20, Z)   5: (E20, w0, Z)
# as rows into the point list (w0, w1, w2, E01, E12, E20, Z):
_SUB_VERTICES = np.array([[0, 3, 6], [3, 1, 6], [1, 4, 6],
                          [4, 2, 6], [2, 5, 6], [5, 0, 6]])


class PSRefinement:
    """Six-way split of every element around its incenter.

    Stores, per element, everything the spline construction needs:
    interior point, edge points with their split parameters, sub-triangle
    vertex coordinates, and the per-sub-triangle inverse barycentric maps.

    Attributes:
        parent: the unrefined Triangulation.
        interior_points: (n_e, 2) incenter of each element.
        edge_points: (n_edge, 2) split point of each edge.
        z_bary: (n_e, 3) barycentric coordinates of the interior point.
        edge_split: (n_e, 3) weight of the *first* vertex of local edge k
            in the edge point, i.e. ``P = t * w_k + (1 - t) * w_{k+1}``.
        sub_coords: (n_e, 6, 3, 2) sub-triangle vertex coordinates.
        sub_inv: (n_e, 6, 3, 3) view of the component-major inverse maps;
            row m of ``sub_inv[e, s]`` maps (x, y, 1) to eta_m.
    """

    def __init__(self, parent, interior_points, edge_points):
        self.parent = parent
        self.interior_points = interior_points
        self.edge_points = edge_points
        self._build_tables()

    def _build_tables(self):
        tri = self.parent
        w = tri.nodes[tri.elements]                         # (n_e, 3, 2)
        ep = self.edge_points[tri.element_edges]            # (n_e, 3, 2)
        self.z_bary = barycentric_coordinates(w, self.interior_points)
        # weight t of vertex a = w_k in its edge point t*a + (1-t)*b; the dot
        # products are stacked (1, 2) @ (2, 1) products
        d = w[:, [1, 2, 0]] - w
        u = ep - w
        self.edge_split = 1.0 - ((u[..., None, :] @ d[..., None])
                                 / (d[..., None, :] @ d[..., None]))[..., 0, 0]
        points = np.concatenate([w, ep, self.interior_points[:, None]], axis=1)
        self.sub_coords = points[:, _SUB_VERTICES]           # (n_e, 6, 3, 2)
        m = np.ones(self.sub_coords.shape[:2] + (3, 3))
        m[..., :2, :] = np.swapaxes(self.sub_coords, -1, -2)
        inv = np.linalg.inv(m).transpose(2, 3, 0, 1).copy()  # (3, 3, n_e, 6)
        self.sub_inv = inv.transpose(2, 3, 0, 1)

    def mean_sub_edge_length(self):
        """Average edge length over all sub-triangle edges (with repeats)."""
        c = self.sub_coords
        l0 = np.hypot(*(c[:, :, 1] - c[:, :, 0]).reshape(-1, 2).T)
        l1 = np.hypot(*(c[:, :, 2] - c[:, :, 1]).reshape(-1, 2).T)
        l2 = np.hypot(*(c[:, :, 0] - c[:, :, 2]).reshape(-1, 2).T)
        return float(np.concatenate([l0, l1, l2]).mean())


def ps_refine(tri: Triangulation) -> PSRefinement:
    """Construct the six-way refinement of ``tri``.

    Interior split points are the incenters.  The split point of an
    interior edge is the intersection of that edge with the segment
    joining the two adjacent incenters; for a boundary edge it is the
    edge midpoint.  All intersections are one stacked 2x2 solve.

    Raises:
        RefinementFailed: if an intersection point does not fall strictly
            inside its edge (the adjacent interior points cannot "see"
            each other through the edge).
    """
    centers = incenter(tri.nodes[tri.elements])
    pa, pb = tri.nodes[tri.edges[:, 0]], tri.nodes[tri.edges[:, 1]]
    edge_points = 0.5 * (pa + pb)
    inner = np.nonzero(tri.edge_elements[:, 1] >= 0)[0]
    pa, pb = pa[inner], pb[inner]
    za, zb = centers[tri.edge_elements[inner].T]
    # Solve za + s*(zb - za) = pa + t*(pb - pa) for (s, t).
    try:
        s, t = np.linalg.solve(np.stack([zb - za, pa - pb], axis=-1),
                               (pa - za)[..., None])[..., 0].T
    except np.linalg.LinAlgError as exc:
        raise RefinementFailed("a split segment is parallel to its edge") from exc
    eps = 1e-12
    bad = ~((eps < t) & (t < 1.0 - eps) & (eps < s) & (s < 1.0 - eps))
    if bad.any():
        k = np.argmax(bad)
        a, b = tri.edges[inner[k]]
        raise RefinementFailed(
            f"edge {a}-{b}: intersection parameter {t[k]:.3g} outside open edge")
    edge_points[inner] = pa + t[:, None] * (pb - pa)
    return PSRefinement(tri, centers, edge_points)


def _margins(coords, radius):
    """``max(6 LOCATE_TOL R / h, LOCATE_TOL)`` for triangles ``coords``
    (..., 3, 2) of least height h, with R = ``radius``.

    A point whose smallest barycentric in its triangle is at least m lies
    ``m h`` inside it, so that far from every other triangle of a
    non-overlapping set; a point whose barycentrics in a triangle of
    corner-to-centroid distances at most R all reach -d lies within
    ``3 d R`` of it.  At this margin every other triangle thus reads the
    point below ``-2 LOCATE_TOL``, which leaves LOCATE_TOL to spare for
    rounding; a larger margin keeps fewer points and changes no answer.
    """
    edge = np.linalg.norm(coords - np.roll(coords, 1, axis=-2),
                          axis=-1).max(axis=-1)
    h = np.abs(cross2(coords[..., 1, :] - coords[..., 0, :],
                      coords[..., 2, :] - coords[..., 0, :])) / edge
    return np.maximum(6.0 * LOCATE_TOL * radius / h, LOCATE_TOL)


class PointLocator:
    """Point location down to the sub-triangle, for moving points.

    For an unrefined triangulation pass ``refinement=None``; queries then
    report only the element and its barycentric coordinates.  Bins are a
    third of the mean element extent on each axis.  Row b of ``probe_table``
    lists the elements whose bounding box overlaps bin b, nearest centroid
    to the bin centre first (ties ascending), then -1 padding.
    ``edge_neighbor[e, i]`` is the element across the edge opposite vertex
    i of e, -1 on the boundary.  ``quick_margin`` and ``walk_margin`` come
    from :func:`_margins`, with R the element's largest sub-triangle radius
    and the mesh's largest element radius.  The inverse maps ``elem_inv_cm``
    (3, 3, n_e) and ``cell_inv_cm`` (3, 3, n_cells) are component-major;
    ``elem_inv`` and ``cell_inv`` are their (n, 3, 3) transposed views.
    """

    def __init__(self, tri: Triangulation, refinement: PSRefinement | None = None):
        self.tri = tri
        self.refinement = refinement

        coords = tri.nodes[tri.elements]                # (n_e, 3, 2)
        m = np.ones((tri.n_elements, 3, 3))
        m[:, :2, :] = coords.transpose(0, 2, 1)
        self.elem_inv_cm = np.linalg.inv(m).transpose(1, 2, 0).copy()
        self.elem_inv = self.elem_inv_cm.transpose(2, 0, 1)

        self.lo, self.hi = lo, hi = tri.bbox()
        span = np.maximum(hi - lo, 1e-300)
        box = coords.min(axis=1), coords.max(axis=1)    # element boxes
        cell = np.mean(box[1] - box[0], axis=0) / 3
        self.nx, self.ny = np.maximum(np.ceil(span / cell), 1).astype(int)
        self.cell = span / (self.nx, self.ny)

        # bin -> elements whose bounding box overlaps it, ascending
        bmin, bmax = (np.clip(np.floor((c - lo) / self.cell).astype(int), 0,
                              [self.nx - 1, self.ny - 1]) for c in box)
        span_y = bmax[:, 1] - bmin[:, 1] + 1
        counts = (bmax[:, 0] - bmin[:, 0] + 1) * span_y
        owner = np.repeat(np.arange(tri.n_elements), counts)
        k = _ragged_arange(counts)
        ix = bmin[owner, 0] + k // span_y[owner]
        iy = bmin[owner, 1] + k % span_y[owner]
        key = ix * self.ny + iy
        order = np.argsort(key, kind="stable")
        fill = np.bincount(key, minlength=self.nx * self.ny)
        table = np.full((len(fill), fill.max(initial=0)), -1)
        table[key[order], _ragged_arange(fill)] = owner[order]
        # the same rows, nearest element centroid to the bin centre first
        mid = coords.mean(axis=1)[table] - lo           # (n_bins, width, 2)
        d2 = sum((mid[..., a] - ((i + 0.5) * self.cell[a])[:, None]) ** 2
                 for a, i in enumerate(divmod(np.arange(len(fill)), self.ny)))
        d2[table < 0] = np.inf
        near = d2.argsort(axis=1, kind="stable")
        self.probe_table = np.take_along_axis(table, near, axis=1)

        pair = tri.edge_elements[tri.element_edges[:, [1, 2, 0]]]
        own = pair[..., 0] == np.arange(tri.n_elements)[:, None]
        self.edge_neighbor = np.where(own, pair[..., 1], pair[..., 0])
        centred = coords - coords.mean(axis=1, keepdims=True)
        radius = np.linalg.norm(centred, axis=-1).max(initial=0.0)
        self.walk_margin = _margins(coords, radius)

        # cells: sub-triangle 6 e + s of the refinement, else element e
        if refinement is None:
            self.cell_inv = self.elem_inv
            self.quick_margin = np.full(tri.n_elements, -LOCATE_TOL)
        else:
            self.cell_inv = refinement.sub_inv.reshape(-1, 3, 3)
            subs = refinement.sub_coords                # (n_e, 6, 3, 2)
            centred = subs - subs.mean(axis=2, keepdims=True)
            radius = np.linalg.norm(centred, axis=-1).max(axis=(1, 2))
            self.quick_margin = _margins(subs, radius[:, None]).ravel()
        self.cell_inv_cm = self.cell_inv.transpose(1, 2, 0)

    def cell_of(self, elem, sub):
        """Cell ids of located points: ``6 * elem + sub``, or ``elem``."""
        return elem if self.refinement is None else 6 * elem + sub

    def _bin_rows(self, x, y):
        """Which points ``(x[k], y[k])`` lie in the mesh's bounding box, and
        the bin rows of those, ``floor((x - lo) / cell)`` per coordinate; the
        box's top and right sides go to the last bin row or column."""
        (x0, y0), (x1, y1) = self.lo, self.hi
        inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        ix, iy = (np.minimum(np.floor((c[inside] - c0) / w).astype(int), n - 1)
                  for c, c0, w, n in ((x, x0, self.cell[0], self.nx),
                                      (y, y0, self.cell[1], self.ny)))
        return inside, ix * self.ny + iy

    def _probe(self, rows, x, y):
        """Element (or -1) and (3, k) barycentrics of each point, by one scan
        of its ``probe_table`` row, a column at a time.  A point leaves at
        the first candidate that holds it at ``walk_margin``, which
        :func:`_margins` makes its only holder to ``LOCATE_TOL``.  Any other
        point scans its row to the padding and gets the lowest-index
        candidate that held it to ``-LOCATE_TOL``, or -1.  Either way that
        is the first holder in the bin's ascending element order.  With a
        refinement the barycentrics are None: :meth:`locate_in` computes
        the cell's."""
        elem = np.full(len(rows), -1)
        eta = None if self.refinement else np.zeros((3, len(rows)))
        todo = np.arange(len(rows))
        for column in self.probe_table.T:
            if not len(todo):
                break
            cand = column[rows[todo]]
            todo, cand = todo[cand >= 0], cand[cand >= 0]
            t = _bary(self.elem_inv_cm, cand, x[todo], y[todo])
            least, held = t.min(axis=0), elem[todo]
            low = (least >= -LOCATE_TOL) & ((held < 0) | (cand < held))
            elem[todo[low]] = cand[low]
            if eta is not None:
                eta[:, todo[low]] = np.compress(low, t, axis=1)
            todo = todo[least < self.walk_margin[cand]]
        return elem, eta

    def locate_many(self, points, hint=None):
        """Vectorised location of many points.

        Without a hint each point gets the lowest-index element of its
        bin's row that holds it, so ties on shared edges go to the lower
        element (found by :meth:`_probe`'s one scan); its sub-triangle
        comes from :meth:`locate_in`.

        With a hint ``(elem, sub)`` from a previous call, a point gets the
        hint element and ``locate_in``'s answer there when the hint element
        holds it (to ``LOCATE_TOL``), and otherwise exactly the un-hinted
        answer.  Three tests serve that rule: the hint cell keeps a point
        whose smallest barycentric there is at least ``quick_margin``; the
        hint element keeps one that it holds; and a point that it does not
        hold walks to the ``edge_neighbor`` across the edge opposite its
        most negative barycentric, which keeps it at ``walk_margin``.  The
        rest go to their bin rows.  A hint element of -1 means no hint.
        Barycentrics come from :func:`_bary`, without a refinement from the
        test that found the element; ``eta`` is a (3, n) array's .T.

        Returns (elem, sub, eta): (n,) int, (n,) int, (n, 3) float; ``elem``
        is -1 outside the mesh and ``sub`` -1 without a refinement.
        """
        pts = np.asarray(points, dtype=float)
        x, y = pts.T
        n = len(x)
        if hint is None:
            elem, sub = np.full(n, -1), np.full(n, -1)
            eta, todo = np.zeros((3, n)), np.ones(n, dtype=bool)
        else:
            # points without a hint are run through cell 0 and never kept
            h_elem, h_sub = (np.maximum(np.asarray(a, dtype=int), 0)
                             for a in hint)
            cell = self.cell_of(h_elem, h_sub)
            eta = _bary(self.cell_inv_cm, cell, x, y)
            hinted = np.asarray(hint[0]) >= 0
            todo = ~((eta.min(axis=0) >= self.quick_margin[cell]) & hinted)
            elem = np.where(todo, -1, h_elem)
            sub = np.where(todo, -1, np.asarray(hint[1]))
            miss = np.nonzero(todo & hinted)[0]
            if len(miss):   # empty stages are skipped: per-call overhead
                t = _bary(self.elem_inv_cm, h_elem[miss], x[miss], y[miss])
                inside = t.min(axis=0) >= -LOCATE_TOL
                elem[miss[inside]] = h_elem[miss[inside]]
                miss, t = miss[~inside], np.compress(~inside, t, axis=1)
            if len(miss):   # walk; a boundary w = -1 reads element 0, dropped
                w = self.edge_neighbor[h_elem[miss], t.argmin(axis=0)]
                t = _bary(self.elem_inv_cm, w, x[miss], y[miss])
                keep = (w >= 0) & (t.min(axis=0) >= self.walk_margin[w])
                elem[miss[keep]] = w[keep]
                if self.refinement is None:
                    eta[:, miss[keep]] = t[:, keep]

        pending = np.nonzero(todo & (elem < 0))[0]
        if len(pending):
            in_box, rows = self._bin_rows(x[pending], y[pending])
            pending = pending[in_box]
            elem[pending], t = self._probe(rows, x[pending], y[pending])
            if t is not None:
                eta[:, pending] = t

        if self.refinement is not None:
            found = np.nonzero(todo & (elem >= 0))[0]
            sub[found], eta.T[found] = self.locate_in(elem[found], pts[found])
        eta[:, elem < 0] = 0.0
        return elem, sub, eta.T

    def locate_in(self, elem, points):
        """Sub-triangle of element ``elem[k]`` that holds ``points[k]``.

        Each point is tested against all six sub-triangles of its element
        (one :func:`_bary` call on (6, k) cells) and gets the first one with
        every barycentric at least ``-LOCATE_TOL``; a point that no
        sub-triangle holds within that slack gets the one with the largest
        smallest barycentric.  Points go in chunks of ``LOCATE_CHUNK``,
        which bounds the (3, 6, chunk) barycentrics to a few MB.

        Returns:
            (sub, eta): (n,) int, (n, 3) float (a (3, n) array's .T).
        """
        n = len(elem)
        sub, eta = np.empty(n, dtype=int), np.empty((3, n))
        for lo in range(0, n, LOCATE_CHUNK):
            part = slice(lo, lo + LOCATE_CHUNK)
            cell = 6 * np.asarray(elem[part]) + np.arange(6)[:, None]
            all_eta = _bary(self.cell_inv_cm, cell, *np.asarray(points[part]).T)
            mins = all_eta.min(axis=0)                       # (6, k)
            inside = mins >= -LOCATE_TOL
            sub[part] = first = np.where(
                inside.any(axis=0), inside.argmax(axis=0), mins.argmax(axis=0))
            eta[:, part] = all_eta[:, first, np.arange(len(first))]
        return sub, eta.T


def write_mesh_file(tri: Triangulation, path):
    """Write the line-based text mesh format (sections `nodes`, `elements`)."""
    with open(path, "w") as fh:
        fh.write("# psmpm mesh\n")
        fh.write("nodes\n")
        for i, (x, y) in enumerate(tri.nodes):
            fh.write(f"{i} {x:.17g} {y:.17g}\n")
        fh.write("elements\n")
        for i, (a, b, c) in enumerate(tri.elements):
            fh.write(f"{i} {a} {b} {c}\n")


def read_mesh_file(path) -> Triangulation:
    """Parse the text mesh format written by :func:`write_mesh_file`.

    Node and element indices must run 0..n-1, each once, else ParseError
    names the first repeated or missing one.  The Triangulation constructor
    rejects non-finite coordinates and elements naming a missing node
    (MeshDegenerate), then silently reorders elements given clockwise to
    CCW and rejects genuinely degenerate ones.
    """
    rows = {"nodes": {}, "elements": {}}
    section = None
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line in rows:
                section = line
            elif line and section is None:
                raise ParseError("data before a `nodes`/`elements` header",
                                 line=ln)
            elif line:
                is_node = section == "nodes"
                parts = line.split()
                if len(parts) != (3 if is_node else 4):
                    raise ParseError("expected `index x y`" if is_node else
                                     "expected `index n1 n2 n3`", line=ln)
                try:
                    index = int(parts[0])
                    values = tuple(map(float if is_node else int, parts[1:]))
                except ValueError as exc:
                    raise ParseError(str(exc), line=ln) from exc
                if index in rows[section]:
                    raise ParseError(f"repeated {section[:-1]} index {index}",
                                     line=ln)
                rows[section][index] = values
    if not rows["nodes"] or not rows["elements"]:
        raise ParseError("mesh file missing nodes or elements section")
    for name, table in rows.items():
        missing = min(set(range(len(table))) - table.keys(), default=None)
        if missing is not None:
            raise ParseError(f"{name[:-1]} index {missing} missing; indices "
                             f"must run 0..{len(table) - 1}")
    node_arr, elem_arr = (np.array([t[i] for i in range(len(t))])
                          for t in rows.values())
    return Triangulation(node_arr, elem_arr, orient=True)


def _lattice_counts(h, extent, what):
    n = extent / h
    if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
        raise ValidationError(
            f"h={h} does not divide the {what} extent {extent}")
    return int(round(n))


def generate_mesh(kind, h, domain, seed=0, ny=None) -> Triangulation:
    """Builtin mesh generators over a rectangle: an h-lattice of cells
    (n00, n10, n11, n01), two triangles per cell in lattice order.

    ``structured`` cuts every cell along n00-n11 (``ny`` overrides the row
    count for anisotropic cells; jittered rows must be h apart).
    ``jittered`` moves the interior nodes by seeded uniform noise of
    amplitude 0.25 h and cuts a cell along n10-n01 instead where n01 lies
    strictly inside the circle through n00, n10, n11 (lifted 3x3 in-circle
    determinant); an exact tie keeps n00-n11.  Every interior edge then
    passes the in-circle test, so by Lawson's lemma no circumcircle holds
    a node.  Either cut is valid, as each cell stays convex: a corner and
    the opposite diagonal, h/sqrt 2 apart, each move at most h/(2 sqrt 2)
    toward the other, so they meet only at extreme jitters (probability 0).
    """
    x0, y0, x1, y1 = domain
    if not (x0 < x1 and y0 < y1):
        raise ValidationError(f"domain {domain} needs x0 < x1 and y0 < y1")
    if kind == "jittered" and ny is not None:
        raise ValidationError("ny is for structured meshes only")
    nx = _lattice_counts(h, x1 - x0, "x")
    if ny is None:
        ny = _lattice_counts(h, y1 - y0, "y")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    if kind not in ("structured", "jittered"):
        raise ValidationError(f"unknown mesh kind {kind!r}")

    # two triangles per cell (i, j), whose lower-left node is n00
    n00 = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    n10, n11, n01 = n00 + ny + 1, n00 + ny + 2, n00 + 1
    flip = np.zeros(len(n00), dtype=bool)
    if kind == "jittered":
        rng = np.random.default_rng(seed)
        interior = ((nodes[:, 0] > x0) & (nodes[:, 0] < x1)
                    & (nodes[:, 1] > y0) & (nodes[:, 1] < y1))
        jitter = rng.uniform(-0.25 * h, 0.25 * h, size=(int(interior.sum()), 2))
        nodes[interior] += jitter
        u, v, w = (nodes[n] - nodes[n01] for n in (n00, n10, n11))
        flip = sum((a * a).sum(axis=1) * cross2(b, c)
                   for a, b, c in ((u, v, w), (v, w, u), (w, u, v))) > 0
    elements = np.where(flip[:, None],
                        np.column_stack([n00, n10, n01, n10, n11, n01]),
                        np.column_stack([n00, n10, n11, n00, n11, n01]))
    tri = Triangulation(nodes, elements.reshape(-1, 3), orient=True)
    if kind == "jittered" and tri.areas.min() < 1e-3 * h * h:
        raise MeshDegenerate(
            f"jittered mesh contains an element of area {tri.areas.min():.3e}")
    return tri

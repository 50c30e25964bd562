"""Triangulation storage, six-way spline refinement, and point location.

A :class:`Triangulation` stores nodes and counter-clockwise elements and
derives edge/incidence tables on construction.  :func:`ps_refine` splits
every element into six sub-triangles around its incenter, which is the
geometric substrate for the C1 quadratic spline basis.  A
:class:`PointLocator` answers "which element / sub-triangle contains this
point" queries, accelerated by a uniform background bin grid so that moving
particles can be relocated every step.

All constructed objects are immutable in practice: nothing mutates them
after ``__init__``, so they are safe to share across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateTriangle, MeshDegenerate, ParseError, RefinementFailed

# Barycentric slack used when deciding containment during point location.
LOCATE_TOL = 1e-12
# Points per batch when testing candidate tables in PointLocator.
LOCATE_CHUNK = 8192


def cross2(a, b):
    """z-component of the cross product of stacked 2D vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def signed_area(v0, v1, v2):
    """Signed area of triangle (v0, v1, v2); positive for CCW ordering."""
    v0 = np.asarray(v0, dtype=float)
    return 0.5 * cross2(np.asarray(v1, dtype=float) - v0,
                        np.asarray(v2, dtype=float) - v0)


def _min3(eta):
    """Smallest of the three barycentrics along the last axis; the same
    value as ``eta.min(axis=-1)``, without the slow short-axis reduction."""
    return np.minimum(np.minimum(eta[..., 0], eta[..., 1]), eta[..., 2])


def _ragged_arange(counts):
    """Concatenation of ``arange(c)`` for every ``c`` in ``counts``."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                               counts)


def _group_rows(table, n):
    """For each value 0..n-1, the ascending row ids of ``table`` holding it."""
    flat = table.ravel()
    rows = np.argsort(flat, kind="stable") // table.shape[1]
    return np.split(rows, np.cumsum(np.bincount(flat, minlength=n))[:-1])


def _padded_table(keys, values, n_rows):
    """(n_rows, width) table; row r lists the ``values`` whose key is r, in
    input order, padded with -1."""
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=n_rows)
    table = np.full((n_rows, counts.max(initial=0)), -1, dtype=int)
    table[keys[order], _ragged_arange(counts)] = values[order]
    return table


def _check_not_degenerate(verts):
    verts = np.asarray(verts, dtype=float)
    area = signed_area(verts[0], verts[1], verts[2])
    span = verts.max(axis=0) - verts.min(axis=0)
    scale2 = max(span[0] ** 2 + span[1] ** 2, 1e-300)
    if abs(area) < 1e-14 * scale2:
        raise DegenerateTriangle(f"triangle area {area:.3e} below tolerance")
    return verts, area


def barycentric_coordinates(tri_vertices, p):
    """Barycentric coordinates of point ``p`` w.r.t. a 3-vertex triangle.

    Solves the 3x3 system mapping (eta1, eta2, eta3) to (x, y, 1).  The
    coordinates sum to one and reproduce ``p`` as ``sum eta_i * v_i``.

    Raises:
        DegenerateTriangle: if the triangle area is below tolerance.
    """
    verts, _ = _check_not_degenerate(tri_vertices)
    a = np.empty((3, 3))
    a[:2, :] = verts.T
    a[2, :] = 1.0
    rhs = np.array([p[0], p[1], 1.0])
    return np.linalg.solve(a, rhs)


def incenter(tri_vertices):
    """Incenter of a triangle: side-length weighted vertex average.

    The incenter is equidistant from the three edge lines and strictly
    interior, which makes it a valid interior split point for any
    non-degenerate element.
    """
    verts, _ = _check_not_degenerate(tri_vertices)
    v0, v1, v2 = verts
    l0 = np.hypot(*(v2 - v1))  # side opposite v0
    l1 = np.hypot(*(v0 - v2))
    l2 = np.hypot(*(v1 - v0))
    return (l0 * v0 + l1 * v1 + l2 * v2) / (l0 + l1 + l2)


class Molecule:
    """A vertex and the elements incident to it (the support of its splines)."""

    def __init__(self, vertex, elements):
        self.vertex = int(vertex)
        self.elements = np.asarray(elements, dtype=int)

    def __len__(self):
        return len(self.elements)


class Triangulation:
    """Nodes plus CCW triangles, with derived edge and incidence tables.

    Attributes:
        nodes: (n_v, 2) float array.
        elements: (n_e, 3) int array, counter-clockwise.
        areas: (n_e,) element areas, all strictly positive.
        edges: (n_edge, 2) int array of sorted node pairs.
        edge_elements: (n_edge, 2) adjacent element ids, -1 for boundary.
        element_edges: (n_e, 3) edge id of local edges (0,1), (1,2), (2,0).
        boundary_edges: list of (node_a, node_b, outward_unit_normal) with
            (a, b) in the CCW order of the owning element.
        vertex_elements: per-vertex list of incident element ids, ascending.
        vertex_edges: per-vertex list of incident edge ids, ascending.
    """

    def __init__(self, nodes, elements):
        self.nodes = np.asarray(nodes, dtype=float).copy()
        self.elements = np.asarray(elements, dtype=int).copy()
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise MeshDegenerate("nodes must be an (n, 2) array")
        if self.elements.ndim != 2 or self.elements.shape[1] != 3:
            raise MeshDegenerate("elements must be an (n, 3) array")
        if self.elements.size and (self.elements.min() < 0
                                   or self.elements.max() >= len(self.nodes)):
            raise MeshDegenerate("element references a missing node")

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
        self._build_incidence()

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.elements)

    def _build_edges(self):
        pair_index = {}
        edges = []
        edge_elements = []
        element_edges = np.empty((self.n_elements, 3), dtype=int)
        for e, (a, b, c) in enumerate(self.elements):
            for k, (p, q) in enumerate(((a, b), (b, c), (c, a))):
                key = (p, q) if p < q else (q, p)
                idx = pair_index.get(key)
                if idx is None:
                    idx = len(edges)
                    pair_index[key] = idx
                    edges.append(key)
                    edge_elements.append([e, -1])
                else:
                    if edge_elements[idx][1] != -1:
                        raise MeshDegenerate(
                            f"edge {key} shared by more than two elements")
                    edge_elements[idx][1] = e
                element_edges[e, k] = idx
        self.edges = np.asarray(edges, dtype=int).reshape(-1, 2)
        self.edge_elements = np.asarray(edge_elements, dtype=int).reshape(-1, 2)
        self.element_edges = element_edges

        boundary = []
        for e, (a, b, c) in enumerate(self.elements):
            for k, (p, q) in enumerate(((a, b), (b, c), (c, a))):
                idx = self.element_edges[e, k]
                if self.edge_elements[idx, 1] == -1:
                    d = self.nodes[q] - self.nodes[p]
                    n = np.array([d[1], -d[0]])  # outward for a CCW element
                    n /= np.hypot(*n)
                    boundary.append((int(p), int(q), n))
        self.boundary_edges = boundary
        self.boundary_nodes = np.unique(
            [pq for a, b, _ in boundary for pq in (a, b)]
        ) if boundary else np.empty(0, dtype=int)

    def _build_incidence(self):
        self.vertex_elements = _group_rows(self.elements, self.n_nodes)
        self.vertex_edges = _group_rows(self.edges, self.n_nodes)

    def element_coords(self, e):
        """(3, 2) vertex coordinates of element ``e``."""
        return self.nodes[self.elements[e]]

    def mean_edge_length(self):
        d = self.nodes[self.edges[:, 0]] - self.nodes[self.edges[:, 1]]
        return float(np.mean(np.hypot(d[:, 0], d[:, 1])))

    def bbox(self):
        return self.nodes.min(axis=0), self.nodes.max(axis=0)


def molecule_of(tri: Triangulation, vertex: int) -> Molecule:
    """Elements incident to ``vertex`` (the support region of its splines)."""
    if not 0 <= vertex < tri.n_nodes:
        raise IndexError(f"vertex {vertex} out of range")
    return Molecule(vertex, tri.vertex_elements[vertex])


# Canonical sub-triangle layout of one refined element with vertices
# (w0, w1, w2), edge points E01/E12/E20 and interior point Z:
#   sub s vertex triples, all CCW:
#     0: (w0, E01, Z)   1: (E01, w1, Z)   2: (w1, E12, Z)
#     3: (E12, w2, Z)   4: (w2, E20, Z)   5: (E20, w0, Z)
SUB_CORNER_VERTEX = (0, 1, 1, 2, 2, 0)  # parent vertex each sub-triangle touches


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
        sub_inv: (n_e, 6, 3, 3) inverse of the barycentric 3x3 matrix; row m
            of ``sub_inv[e, s]`` maps (x, y, 1) to eta_m.
    """

    def __init__(self, parent, interior_points, edge_points):
        self.parent = parent
        self.interior_points = interior_points
        self.edge_points = edge_points
        self._build_tables()

    def _build_tables(self):
        tri = self.parent
        n_e = tri.n_elements
        nodes = tri.nodes
        self.z_bary = np.empty((n_e, 3))
        self.edge_split = np.empty((n_e, 3))
        self.sub_coords = np.empty((n_e, 6, 3, 2))
        self.sub_inv = np.empty((n_e, 6, 3, 3))

        for e in range(n_e):
            w = nodes[tri.elements[e]]
            z = self.interior_points[e]
            self.z_bary[e] = barycentric_coordinates(w, z)
            ep = self.edge_points[tri.element_edges[e]]
            for k in range(3):
                a = w[k]
                b = w[(k + 1) % 3]
                d = b - a
                # weight of vertex a: edge point = t*a + (1-t)*b
                self.edge_split[e, k] = 1.0 - np.dot(ep[k] - a, d) / np.dot(d, d)
            corners = (w[0], w[1], w[2])
            e01, e12, e20 = ep
            subs = ((corners[0], e01, z), (e01, corners[1], z),
                    (corners[1], e12, z), (e12, corners[2], z),
                    (corners[2], e20, z), (e20, corners[0], z))
            for s, (p, q, r) in enumerate(subs):
                self.sub_coords[e, s, 0] = p
                self.sub_coords[e, s, 1] = q
                self.sub_coords[e, s, 2] = r
                m = np.empty((3, 3))
                m[:2, 0] = p
                m[:2, 1] = q
                m[:2, 2] = r
                m[2, :] = 1.0
                self.sub_inv[e, s] = np.linalg.inv(m)

    def sub_areas(self, e):
        c = self.sub_coords[e]
        return 0.5 * cross2(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])

    def subtriangle_barycentric(self, e, s, p):
        """Barycentric coordinates of ``p`` in sub-triangle (e, s)."""
        return self.sub_inv[e, s] @ np.array([p[0], p[1], 1.0])

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
    edge midpoint.

    Raises:
        RefinementFailed: if an intersection point does not fall strictly
            inside its edge (the adjacent interior points cannot "see"
            each other through the edge).
    """
    centers = np.empty((tri.n_elements, 2))
    for e in range(tri.n_elements):
        centers[e] = incenter(tri.element_coords(e))

    edge_points = np.empty((len(tri.edges), 2))
    for idx, (a, b) in enumerate(tri.edges):
        ea, eb = tri.edge_elements[idx]
        pa = tri.nodes[a]
        pb = tri.nodes[b]
        if eb == -1:
            edge_points[idx] = 0.5 * (pa + pb)
            continue
        za, zb = centers[ea], centers[eb]
        # Solve za + s*(zb - za) = pa + t*(pb - pa) for (s, t).
        mat = np.column_stack([zb - za, pa - pb])
        rhs = pa - za
        try:
            s, t = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise RefinementFailed(
                f"edge {a}-{b}: split segment parallel to edge") from exc
        eps = 1e-12
        if not (eps < t < 1.0 - eps and eps < s < 1.0 - eps):
            raise RefinementFailed(
                f"edge {a}-{b}: intersection parameter {t:.3g} outside open edge")
        edge_points[idx] = pa + t * (pb - pa)

    return PSRefinement(tri, centers, edge_points)


class PointLocator:
    """Bin-grid accelerated point location down to the sub-triangle.

    For an unrefined triangulation pass ``refinement=None``; queries then
    report only the element and its barycentric coordinates.
    """

    def __init__(self, tri: Triangulation, refinement: PSRefinement | None = None):
        self.tri = tri
        self.refinement = refinement

        nodes = tri.nodes
        el = tri.elements
        coords = nodes[el]                              # (n_e, 3, 2)
        m = np.ones((tri.n_elements, 3, 3))
        m[:, :2, :] = coords.transpose(0, 2, 1)
        self.elem_inv = np.linalg.inv(m)

        lo, hi = tri.bbox()
        self.lo, self.hi = lo, hi
        span = np.maximum(hi - lo, 1e-300)
        diam = np.linalg.norm(
            coords - np.roll(coords, 1, axis=1), axis=2).max(axis=1)
        cell = float(np.mean(diam))
        self.nx = max(1, int(np.ceil(span[0] / cell)))
        self.ny = max(1, int(np.ceil(span[1] / cell)))
        self.cell = np.array([span[0] / self.nx, span[1] / self.ny])

        # bin -> elements whose bounding box overlaps it, ascending
        bmin = np.floor((coords.min(axis=1) - lo) / self.cell).astype(int)
        bmax = np.floor((coords.max(axis=1) - lo) / self.cell).astype(int)
        bmin = np.clip(bmin, 0, [self.nx - 1, self.ny - 1])
        bmax = np.clip(bmax, 0, [self.nx - 1, self.ny - 1])
        span_y = bmax[:, 1] - bmin[:, 1] + 1
        counts = (bmax[:, 0] - bmin[:, 0] + 1) * span_y
        owner = np.repeat(np.arange(tri.n_elements), counts)
        k = _ragged_arange(counts)
        ix = bmin[owner, 0] + k // span_y[owner]
        iy = bmin[owner, 1] + k % span_y[owner]
        self.bin_table = _padded_table(ix * self.ny + iy, owner,
                                       self.nx * self.ny)

        # element -> elements sharing at least one vertex (includes self),
        # ascending: the candidate set for incrementally moving points
        flat = el.ravel()
        other = np.concatenate([tri.vertex_elements[v] for v in flat])
        owner = np.repeat(np.arange(len(flat)) // 3,
                          np.bincount(flat, minlength=tri.n_nodes)[flat])
        pairs = np.unique(owner * tri.n_elements + other)
        self.neighbor_table = _padded_table(
            pairs // tri.n_elements, pairs % tri.n_elements, tri.n_elements)

    def _bin_rows(self, pts):
        """Which points lie in the mesh's bounding box, and their bin-table
        rows.  Points on the top or right side of the box go to the last
        bin row or column."""
        inside = np.all((pts >= self.lo) & (pts <= self.hi), axis=1)
        ij = np.floor((pts[inside] - self.lo) / self.cell).astype(int)
        ij = np.minimum(ij, [self.nx - 1, self.ny - 1])
        return inside, ij[:, 0] * self.ny + ij[:, 1]

    def _first_containing(self, table, rows, ph):
        """First element of each point's candidate row that contains it.

        Point k is tested against ``table[rows[k]]`` (padded with -1) and
        gets the first containing candidate in table order, or -1.  Points
        go in chunks of ``LOCATE_CHUNK``, which bounds the gathered
        (chunk, width, 3, 3) inverse maps to a few MB.
        """
        out = np.full(len(rows), -1, dtype=int)
        for lo in range(0, len(rows), LOCATE_CHUNK):
            part = slice(lo, lo + LOCATE_CHUNK)
            cand = table[rows[part]]
            etas = np.einsum('mwij,mj->mwi', self.elem_inv[np.maximum(cand, 0)],
                             ph[part])
            good = (_min3(etas) >= -LOCATE_TOL) & (cand >= 0)
            first = good.argmax(axis=1)
            k = np.arange(len(cand))
            out[part] = np.where(good[k, first], cand[k, first], -1)
        return out

    def locate(self, p):
        """Locate a single point: row 0 of :meth:`locate_many` on ``[p]``.

        Returns ``(element, sub, eta)`` where ``sub`` is -1 and ``eta`` the
        element barycentrics when no refinement is attached, or ``None``
        when the point is outside the mesh.  Ties on shared edges resolve
        to the lowest element index, then the lowest sub-triangle index.
        """
        elem, sub, eta = self.locate_many(np.asarray(p, dtype=float)[None, :])
        if elem[0] < 0:
            return None
        return int(elem[0]), int(sub[0]), eta[0]

    def locate_many(self, points, hint=None):
        """Vectorised location of many points.

        A point with a hint is tested against its hint element, then
        against the hint's row of ``neighbor_table``.  Points still
        unlocated, and all points without a hint, are tested against their
        bin's row of ``bin_table``.  Both passes test every point's row at
        once, in chunks of ``LOCATE_CHUNK`` points, and take the first
        containing element in row order.  Rows list elements in ascending
        order, so without a hint ties on shared edges resolve to the lowest
        element index.  The sub-triangle pass runs in the same chunks,
        which bounds every gathered array to a few MB.

        Args:
            points: (n, 2) array.
            hint: optional (n,) array of element ids from a previous call;
                points are first tested against the hint element and its
                vertex neighbours, which covers a CFL-bounded move.

        Returns:
            (elem, sub, eta): (n,) int, (n,) int, (n, 3) float.  ``elem`` is
            -1 for points outside the mesh; ``sub`` is -1 when no refinement
            is attached.
        """
        pts = np.asarray(points, dtype=float)
        n = len(pts)
        elem = np.full(n, -1, dtype=int)
        ph = np.column_stack([pts, np.ones(n)])

        pending = np.arange(n)
        if hint is not None and n:
            hint = np.asarray(hint, dtype=int)
            idx = np.nonzero(hint >= 0)[0]
            if len(idx):
                eta = np.einsum('pij,pj->pi', self.elem_inv[hint[idx]], ph[idx])
                inside = _min3(eta) >= -LOCATE_TOL
                elem[idx[inside]] = hint[idx[inside]]
                miss = idx[~inside]
                elem[miss] = self._first_containing(
                    self.neighbor_table, hint[miss], ph[miss])
            pending = np.nonzero(elem < 0)[0]

        in_box, rows = self._bin_rows(pts[pending])
        pending = pending[in_box]
        elem[pending] = self._first_containing(self.bin_table, rows,
                                               ph[pending])

        sub = np.full(n, -1, dtype=int)
        eta = np.zeros((n, 3))
        found = elem >= 0
        if self.refinement is None:
            if found.any():
                eta[found] = np.einsum('pij,pj->pi',
                                       self.elem_inv[elem[found]], ph[found])
            return elem, sub, eta

        idx = np.nonzero(found)[0]
        for lo in range(0, len(idx), LOCATE_CHUNK):
            part = idx[lo:lo + LOCATE_CHUNK]
            all_eta = np.einsum('psij,pj->psi',
                                self.refinement.sub_inv[elem[part]], ph[part])
            mins = _min3(all_eta)                          # (k, 6)
            inside = mins >= -LOCATE_TOL
            first = np.where(inside.any(axis=1),
                             inside.argmax(axis=1), mins.argmax(axis=1))
            sub[part] = first
            eta[part] = all_eta[np.arange(len(part)), first]
        return elem, sub, eta


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

    Elements given clockwise are silently reordered to CCW; genuinely
    degenerate elements are rejected by the Triangulation constructor.
    """
    nodes = {}
    elements = {}
    section = None
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line in ("nodes", "elements"):
                section = line
                continue
            parts = line.split()
            if section == "nodes":
                if len(parts) != 3:
                    raise ParseError("expected `index x y`", line=ln)
                try:
                    nodes[int(parts[0])] = (float(parts[1]), float(parts[2]))
                except ValueError as exc:
                    raise ParseError(str(exc), line=ln) from exc
            elif section == "elements":
                if len(parts) != 4:
                    raise ParseError("expected `index n1 n2 n3`", line=ln)
                try:
                    elements[int(parts[0])] = tuple(int(v) for v in parts[1:])
                except ValueError as exc:
                    raise ParseError(str(exc), line=ln) from exc
            else:
                raise ParseError("data before a `nodes`/`elements` header",
                                 line=ln)
    if not nodes or not elements:
        raise ParseError("mesh file missing nodes or elements section")
    node_arr = np.array([nodes[i] for i in range(len(nodes))])
    elem_arr = np.array([elements[i] for i in range(len(elements))], dtype=int)
    v = node_arr[elem_arr]
    flip = cross2(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]) < 0
    elem_arr[flip] = elem_arr[flip][:, ::-1]
    return Triangulation(node_arr, elem_arr)

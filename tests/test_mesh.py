"""Geometry, refinement, and point-location tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from psmpm import mesh
from psmpm.cli_io import generate_mesh, write_mesh_file
from psmpm.errors import (DegenerateTriangle, MeshDegenerate, ParseError,
                          PsmpmError, RefinementFailed)
from psmpm.mesh import (PointLocator, Triangulation, barycentric_coordinates,
                        cross2, incenter, ps_refine, read_mesh_file)


def unit_square_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2], [0, 2, 3]])
    return Triangulation(nodes, elements)


def fan_mesh(n=6):
    """Regular n-triangle fan around a central vertex."""
    ang = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    nodes = np.vstack([[0.0, 0.0], np.column_stack([np.cos(ang), np.sin(ang)])])
    elements = np.array([[0, 1 + i, 1 + (i + 1) % n] for i in range(n)])
    return Triangulation(nodes, elements)


class TestBarycentric:
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_vertex(self):
        assert_allclose(barycentric_coordinates(self.tri, self.tri[0]),
                        [1.0, 0.0, 0.0], atol=1e-14)

    def test_centroid(self):
        c = self.tri.mean(axis=0)
        assert_allclose(barycentric_coordinates(self.tri, c),
                        [1 / 3, 1 / 3, 1 / 3], atol=1e-14)

    def test_hand_solved_point(self):
        # solve the 3x3 system by hand for p = (0.25, 0.5)
        assert_allclose(barycentric_coordinates(self.tri, (0.25, 0.5)),
                        [0.25, 0.25, 0.5], atol=1e-14)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            verts = rng.normal(size=(3, 2))
            d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
            if abs(d1[0] * d2[1] - d1[1] * d2[0]) < 1e-3:
                continue
            p = rng.normal(size=2)
            eta = barycentric_coordinates(verts, p)
            assert abs(eta.sum() - 1.0) < 1e-12
            assert_allclose(eta @ verts, p, atol=1e-12)

    def test_degenerate_rejected(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateTriangle):
            barycentric_coordinates(flat, (0.5, 0.0))


class TestIncenter:
    def test_equilateral_is_centroid(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        assert_allclose(incenter(verts), verts.mean(axis=0), atol=1e-14)

    def test_right_triangle_value(self):
        # classical formula (a*A + b*B + c*C)/(a+b+c) gives ((2-sqrt2)/2,)*2
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        r = (2.0 - np.sqrt(2.0)) / 2.0
        assert_allclose(incenter(verts), [r, r], rtol=1e-12)

    def test_equidistant_from_edges(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            verts = rng.normal(size=(3, 2)) * rng.uniform(0.5, 3.0)
            d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
            if abs(d1[0] * d2[1] - d1[1] * d2[0]) < 1e-2:
                continue
            c = incenter(verts)
            dists = []
            for i in range(3):
                a, b = verts[i], verts[(i + 1) % 3]
                t = b - a
                dists.append(abs(t[0] * (c - a)[1] - t[1] * (c - a)[0])
                             / np.hypot(*t))
            assert np.ptp(dists) < 1e-12 * max(dists)


class TestRefinement:
    def test_single_triangle_midpoints(self):
        tri = Triangulation(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]),
                            np.array([[0, 1, 2]]))
        ref = ps_refine(tri)
        assert ref.sub_coords.shape == (1, 6, 3, 2)
        mids = {(1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}
        got = {tuple(p) for p in ref.edge_points}
        assert got == mids

    def test_mirror_symmetric_pair_splits_at_midpoint(self):
        h = np.sqrt(3) / 2
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h], [0.5, -h]])
        tri = Triangulation(nodes, np.array([[0, 1, 2], [0, 3, 1]]))
        ref = ps_refine(tri)
        shared = [i for i, (a, b) in enumerate(tri.edges)
                  if {a, b} == {0, 1}][0]
        assert_allclose(ref.edge_points[shared], [0.5, 0.0], atol=1e-14)

    def test_sub_areas_sum_to_element_area(self):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=3)
        ref = ps_refine(tri)
        for e in range(tri.n_elements):
            c = ref.sub_coords[e]
            areas = 0.5 * cross2(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
            assert np.all(areas > 0.0)
            assert abs(areas.sum() - tri.areas[e]) < 1e-12 * tri.areas[e]

    def test_interior_point_strictly_inside(self):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=4)
        ref = ps_refine(tri)
        for e in range(tri.n_elements):
            eta = ref.z_bary[e]
            assert eta.min() > 0.0

    def test_conforming_edge_points(self):
        # the split point of an interior edge lies on the segment between
        # the two adjacent interior points, hence is shared exactly
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=5)
        ref = ps_refine(tri)
        for idx, (a, b) in enumerate(tri.edges):
            ea, eb = tri.edge_elements[idx]
            if eb == -1:
                continue
            za, zb = ref.interior_points[ea], ref.interior_points[eb]
            p = ref.edge_points[idx]
            d, r = zb - za, p - za
            cross = d[0] * r[1] - d[1] * r[0]
            assert abs(cross) < 1e-12
            t = np.dot(p - tri.nodes[a], tri.nodes[b] - tri.nodes[a])
            t /= np.dot(tri.nodes[b] - tri.nodes[a],
                        tri.nodes[b] - tri.nodes[a])
            assert 0.0 < t < 1.0

    def test_refinement_failure_reported(self):
        # a sliver pair whose incenters cannot see each other through the
        # shared edge does not exist for valid incenters, so force failure
        # with a collinear mesh instead
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-16]])
        with pytest.raises((MeshDegenerate, RefinementFailed,
                            DegenerateTriangle)):
            ps_refine(Triangulation(nodes, np.array([[0, 1, 2]])))


class TestLocate:
    def test_incenter_locates_to_parent(self):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=6)
        ref = ps_refine(tri)
        loc = PointLocator(tri, ref)
        elem, sub, _ = loc.locate_many(ref.interior_points)
        assert np.array_equal(elem, np.arange(tri.n_elements))
        assert np.all(sub >= 0)

    def test_outside_returns_none(self):
        tri = unit_square_mesh()
        loc = PointLocator(tri, ps_refine(tri))
        elem, sub, eta = loc.locate_many([(2.5, 0.5), (-0.1, -0.1)])
        assert np.all(elem == -1) and np.all(sub == -1)
        assert not eta.any()

    def test_lattice_reconstruction_oracle(self):
        # brute-force scan over all sub-triangles is the oracle
        tri = unit_square_mesh()
        ref = ps_refine(tri)
        loc = PointLocator(tri, ref)
        xs = np.linspace(0.01, 0.99, 21)
        pts = np.array([[x, y] for x in xs for y in xs])
        elem, sub, eta = loc.locate_many(pts)
        assert np.all(elem >= 0)
        for p, e, s, et in zip(pts, elem, sub, eta):
            rec = et @ ref.sub_coords[e, s]
            assert_allclose(rec, p, atol=1e-12)
            brute = [(ee, ss) for ee in range(tri.n_elements)
                     for ss in range(6)
                     if (ref.sub_inv[ee, ss] @ np.array([p[0], p[1], 1.0])).min()
                     >= -1e-12]
            assert (e, s) in brute
            assert (e, s) == min(brute)  # deterministic tie-break

    def test_hint_path_matches_fresh_location(self):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=8)
        ref = ps_refine(tri)
        loc = PointLocator(tri, ref)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.02, 0.98, size=(300, 2))
        elem, sub, eta = loc.locate_many(pts)
        moved = np.clip(pts + rng.uniform(-0.02, 0.02, pts.shape), 0.01, 0.99)
        e1, s1, t1 = loc.locate_many(moved, hint=(elem, sub))
        e2, s2, t2 = loc.locate_many(moved)
        assert np.array_equal(e1, e2)
        assert np.array_equal(s1, s2)
        assert_allclose(t1, t2, atol=1e-13)


def vertex_neighbour_rows(tri):
    """(n_e, width) table whose row e lists the elements sharing a vertex
    with e, e included, ascending and padded with -1."""
    rows = [np.unique(np.concatenate([tri.vertex_elements[v] for v in verts]))
            for verts in tri.elements]
    table = np.full((tri.n_elements, max(map(len, rows))), -1)
    for e, row in enumerate(rows):
        table[e, :len(row)] = row
    return table


def expected_hinted(loc, pts, hint_elem):
    """The hinted contract: the hint element and ``locate_in``'s answer
    there when that element holds the point, else the un-hinted answer."""
    elem, sub, eta = loc.locate_many(pts)
    ph = np.column_stack([pts, np.ones(len(pts))])
    t = np.einsum('pij,pj->pi', loc.elem_inv[np.maximum(hint_elem, 0)], ph)
    held = np.nonzero((hint_elem >= 0)
                      & (t.min(axis=1) >= -mesh.LOCATE_TOL))[0]
    elem[held] = hint_elem[held]
    if loc.refinement is None:
        eta[held] = t[held]
    else:
        sub[held], eta[held] = loc.locate_in(hint_elem[held], pts[held])
    return elem, sub, eta


def hinted_sample(tri, ref, rng):
    """Points on shared sub-edges, element edges and vertices, random and
    outside points, each paired with four hints: its own (element, sub),
    the two neighbouring subs of that element and a random sub of a vertex
    neighbour element (a move of one sub or one element).  The first
    ``6 n_e`` points are moved out of an element e, across the edge
    opposite each vertex (off the mesh on the boundary) and past each
    vertex, by 1e-14 to 0.3 of their distance from e's centroid; their
    own element is e."""
    w = tri.nodes[tri.elements]                             # (n_e, 3, 2)
    centroid = w.mean(axis=1, keepdims=True)
    t = rng.random((len(w), 3, 1))
    edge = t * np.roll(w, -1, axis=1) + (1.0 - t) * np.roll(w, -2, axis=1)
    scale = 10.0 ** rng.uniform(-14.0, np.log10(0.3), (2, len(w), 3, 1))
    moved = [edge + scale[0] * (edge - centroid),
             w + scale[1] * (w - centroid)]
    a = tri.nodes[tri.edges[:, 0]]
    b = tri.nodes[tri.edges[:, 1]]
    t = rng.random((len(a), 1))
    pts = [m.reshape(-1, 2) for m in moved] + [
        tri.nodes, t * a + (1.0 - t) * b, rng.uniform(-0.1, 1.1, size=(300, 2))]
    if ref is not None:
        c = ref.sub_coords.reshape(-1, 3, 2)
        t = rng.random((len(c), 3, 1))
        pts += [ref.edge_points, ref.interior_points,
                (t * c + (1.0 - t) * np.roll(c, 1, axis=1)).reshape(-1, 2)]
    pts = np.concatenate(pts)
    loc = PointLocator(tri, ref)
    elem, sub, _ = loc.locate_many(pts)
    elem = np.where(elem < 0, rng.integers(-1, tri.n_elements, len(pts)), elem)
    elem[:6 * len(w)] = np.tile(np.repeat(np.arange(len(w)), 3), 2)
    sub = np.where(sub < 0, rng.integers(0, 6, len(pts)), sub)
    row = vertex_neighbour_rows(tri)[np.maximum(elem, 0)]
    pick = rng.integers(0, (row >= 0).sum(axis=1))
    hints = [(elem, sub), (elem, (sub + 1) % 6), (elem, (sub + 5) % 6),
             (np.where(elem < 0, -1, row[np.arange(len(pts)), pick]),
              rng.integers(0, 6, len(pts)))]
    if ref is None:
        hints = [(e, np.full(len(pts), -1)) for e, _ in hints]
    return loc, pts, hints


class TestEdgeNeighbor:
    @pytest.mark.parametrize("kind", ["jittered", "structured"])
    def test_matches_brute_force(self, kind):
        tri = generate_mesh(kind, 0.125, (0.0, 0.0, 1.0, 2.0), seed=3)
        nb = PointLocator(tri).edge_neighbor
        holds = np.zeros((tri.n_elements, tri.n_nodes), dtype=bool)
        holds[np.arange(tri.n_elements)[:, None], tri.elements] = True
        boundary = {frozenset(ab) for ab in
                    tri.edges[tri.edge_elements[:, 1] < 0].tolist()}
        for e, verts in enumerate(tri.elements):
            for i in range(3):
                pair = np.delete(verts, i)
                sharing = np.nonzero(holds[:, pair].all(axis=1))[0]
                others = sharing[sharing != e].tolist()
                assert others == ([] if nb[e, i] < 0 else [nb[e, i]])
                assert (nb[e, i] < 0) == (frozenset(pair.tolist()) in boundary)
                if nb[e, i] >= 0:
                    common = set(verts) & set(tri.elements[nb[e, i]])
                    assert common == set(pair)


class TestWalkMargin:
    @pytest.mark.parametrize("kind", ["jittered", "structured"])
    def test_margin_points_read_below_twice_tol_elsewhere(self, kind):
        # points of e whose smallest barycentric is walk_margin[e], next to
        # each edge and each vertex: every other element must read them
        # below -2 LOCATE_TOL, so a walk that keeps them gives the answer
        # of the first-containing search
        tri = generate_mesh(kind, 0.125, (0.0, 0.0, 1.0, 2.0), seed=3)
        loc = PointLocator(tri)
        m = loc.walk_margin[:, None, None]
        eye = np.eye(3)
        bary = np.concatenate([m * eye + (1.0 - m) / 2.0 * (1.0 - eye),
                               (1.0 - 2.0 * m) * eye + m * (1.0 - eye)],
                              axis=1)                       # (n_e, 6, 3)
        pts = np.einsum('eki,eid->ekd', bary,
                        tri.nodes[tri.elements]).reshape(-1, 2)
        owner = np.repeat(np.arange(tri.n_elements), 6)
        ph = np.column_stack([pts, np.ones(len(pts))])
        low = np.einsum('eij,pj->pei', loc.elem_inv, ph).min(axis=-1)
        own = (np.arange(len(pts)), owner)
        assert_allclose(low[own], loc.walk_margin[owner],
                        atol=0.05 * mesh.LOCATE_TOL)
        low[own] = -np.inf
        assert np.all(low.max(axis=1) < -2.0 * mesh.LOCATE_TOL)


class TestQuickMargin:
    @pytest.mark.parametrize("kind", ["jittered", "structured"])
    def test_margin_points_read_below_twice_tol_in_other_subs(self, kind):
        # points of sub s whose smallest barycentric is its quick_margin,
        # next to each edge and each vertex: the element's other five subs
        # must read them below -2 LOCATE_TOL, so locate_in picks s
        tri = generate_mesh(kind, 0.125, (0.0, 0.0, 1.0, 2.0), seed=3)
        ref = ps_refine(tri)
        loc = PointLocator(tri, ref)
        m = loc.quick_margin.reshape(-1, 6)[..., None, None]
        eye = np.eye(3)
        bary = np.concatenate([m * eye + (1.0 - m) / 2.0 * (1.0 - eye),
                               (1.0 - 2.0 * m) * eye + m * (1.0 - eye)],
                              axis=2)                       # (n_e, 6, 6, 3)
        pts = np.einsum('eski,esid->eskd', bary, ref.sub_coords)
        ph = np.concatenate([pts, np.ones(pts.shape[:-1] + (1,))], axis=-1)
        low = np.einsum('erij,eskj->eskri', ref.sub_inv, ph).min(axis=-1)
        assert_allclose(np.einsum('esks->esk', low),
                        np.broadcast_to(m[..., 0], low.shape[:3]),
                        atol=0.05 * mesh.LOCATE_TOL)
        own = np.eye(6, dtype=bool)[None, :, None, :]
        assert np.all(np.where(own, -np.inf, low).max(axis=-1)
                      < -2.0 * mesh.LOCATE_TOL)


class TestLocateProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), h=st.sampled_from([0.25, 0.125]),
           refined=st.booleans())
    def test_hinted_is_hint_element_or_unhinted_bitwise(self, seed, h,
                                                         refined):
        tri = generate_mesh("jittered", h, (0.0, 0.0, 1.0, 1.0), seed=seed)
        ref = ps_refine(tri) if refined else None
        loc, pts, hints = hinted_sample(tri, ref, np.random.default_rng(seed))
        for hint in hints:
            got = loc.locate_many(pts, hint=hint)
            want = expected_hinted(loc, pts, hint[0])
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    def test_shared_edge_keeps_the_hint_element(self):
        # the un-hinted search gives a point on a shared edge to the lower
        # element; a hint of the higher one that holds it keeps it
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=1)
        inner = tri.edge_elements[:, 1] >= 0
        mid = tri.nodes[tri.edges[inner]].mean(axis=1)
        low, high = np.sort(tri.edge_elements[inner], axis=1).T
        for ref in (None, ps_refine(tri)):
            loc = PointLocator(tri, ref)
            assert np.array_equal(loc.locate_many(mid)[0], low)
            hint = (high, np.zeros_like(high))
            assert np.array_equal(loc.locate_many(mid, hint=hint)[0], high)

    @pytest.mark.parametrize("refined", [False, True])
    def test_fortran_ordered_points_locate_as_c_ordered(self, refined):
        tri = generate_mesh("jittered", 0.125, (0.0, 0.0, 1.0, 1.0), seed=9)
        ref = ps_refine(tri) if refined else None
        loc, pts, hints = hinted_sample(tri, ref, np.random.default_rng(9))
        for hint in [None] + hints:
            got = loc.locate_many(np.asfortranarray(pts), hint=hint)
            want = loc.locate_many(pts, hint=hint)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), h=st.sampled_from([0.25, 0.125]))
    def test_hat_hinted_matches_unhinted_bitwise(self, seed, h):
        # random points lie inside one element, where the hint test's
        # barycentrics must be the ones the un-hinted pass computes
        tri = generate_mesh("jittered", h, (0.0, 0.0, 1.0, 1.0), seed=seed)
        loc = PointLocator(tri)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, size=(500, 2))
        elem, sub, eta = loc.locate_many(pts)
        row = vertex_neighbour_rows(tri)[elem]
        nb = row[np.arange(len(pts)), rng.integers(0, (row >= 0).sum(axis=1))]
        for hint in (elem, nb):
            got = loc.locate_many(pts, hint=(hint, sub))
            for g, w in zip(got, (elem, sub, eta)):
                assert g.tobytes() == w.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), h=st.sampled_from([0.25, 0.125]),
           refined=st.booleans())
    def test_unhinted_batch_matches_single_points(self, seed, h, refined):
        tri = generate_mesh("jittered", h, (0.0, 0.0, 1.0, 1.0), seed=seed)
        ref = ps_refine(tri) if refined else None
        loc = PointLocator(tri, ref)
        rng = np.random.default_rng(seed)
        a = tri.nodes[tri.edges[:, 0]]
        b = tri.nodes[tri.edges[:, 1]]
        t = rng.random((len(a), 1))
        pts = [tri.nodes, 0.5 * (a + b), t * a + (1.0 - t) * b,
               rng.uniform(-0.25, 1.25, size=(200, 2))]
        if refined:
            # split points sit on the spokes between sub-triangles
            pts += [ref.edge_points, ref.interior_points]
        pts = np.concatenate(pts)

        elem, sub, eta = loc.locate_many(pts)
        with mock.patch.object(mesh, "LOCATE_CHUNK", 7):
            chunked = loc.locate_many(pts)
        for got, want in zip(chunked, (elem, sub, eta)):
            assert got.tobytes() == want.tobytes()

        in_box = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
        assert np.all(elem[in_box] >= 0)
        for k in range(len(pts)):
            single = loc.locate_many(pts[k:k + 1])
            for got, want in zip(single, (elem, sub, eta)):
                assert got.tobytes() == want[k:k + 1].tobytes()


# Reference: the gathered search that the column-wise _first_containing
# replaced.  Both must pick the same element for every point.
def ref_first_containing(loc, table, rows, ph):
    out = np.full(len(rows), -1, dtype=int)
    for lo in range(0, len(rows), mesh.LOCATE_CHUNK):
        part = slice(lo, lo + mesh.LOCATE_CHUNK)
        cand = table[rows[part]]
        etas = np.einsum('mwij,mj->mwi', loc.elem_inv[np.maximum(cand, 0)],
                         ph[part])
        good = (etas.min(axis=-1) >= -mesh.LOCATE_TOL) & (cand >= 0)
        first = good.argmax(axis=1)
        k = np.arange(len(cand))
        out[part] = np.where(good[k, first], cand[k, first], -1)
    return out


class TestFirstContaining:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), h=st.sampled_from([0.25, 0.125]),
           kind=st.sampled_from(["jittered", "structured"]))
    def test_matches_gathered_reference(self, seed, h, kind):
        tri = generate_mesh(kind, h, (0.0, 0.0, 1.0, 1.0), seed=seed)
        loc = PointLocator(tri)
        rng = np.random.default_rng(seed)
        a = tri.nodes[tri.edges[:, 0]]
        b = tri.nodes[tri.edges[:, 1]]
        t = rng.random((len(a), 1))
        # vertices and edge points lie in two or more elements of a row
        pts = np.concatenate([tri.nodes, 0.5 * (a + b), t * a + (1.0 - t) * b,
                              rng.uniform(-0.25, 1.25, size=(300, 2))])
        ph = np.column_stack([pts, np.ones(len(pts))])
        in_box, bins = loc._bin_rows(pts)
        home = loc.locate_many(pts)[0]
        inside = home >= 0
        assert np.any(inside) and not np.all(inside)
        neighbours = vertex_neighbour_rows(tri)
        cases = [
            # each point's own bin row, and the neighbour row of its element
            (loc.bin_table, bins, ph[in_box]),
            (neighbours, home[inside], ph[inside]),
            # random rows, whose padding differs from row to row
            (loc.bin_table, rng.integers(0, len(loc.bin_table), len(pts)), ph),
            (neighbours, rng.integers(0, tri.n_elements, len(pts)), ph),
        ]
        for table, rows, h_pts in cases:
            got = loc._first_containing(table, rows, h_pts)
            want = ref_first_containing(loc, table, rows, h_pts)
            assert got.tobytes() == want.tobytes()

    def test_empty_input_returns_at_once(self):
        loc = PointLocator(unit_square_mesh())
        loc.elem_inv = None          # any inverse-map gather would raise
        out = loc._first_containing(loc.bin_table, np.empty(0, dtype=int),
                                    np.empty((0, 3)))
        assert out.shape == (0,)


class TestMolecule:
    def test_fan_center_has_all_elements(self):
        tri = fan_mesh(6)
        assert len(tri.vertex_elements[0]) == 6

    def test_square_corner_single_element(self):
        tri = unit_square_mesh()
        assert len(tri.vertex_elements[1]) == 1

    def test_matches_brute_force_incidence(self):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=9)
        for v in range(tri.n_nodes):
            mol = set(tri.vertex_elements[v].tolist())
            brute = {e for e in range(tri.n_elements)
                     if v in tri.elements[e]}
            assert mol == brute


# ---------------------------------------------------------------------------
# Reference: the per-element and per-edge loops that built the triangulation
# and refinement tables before they were batched.  The batched tables must
# equal them to the bit.

def ref_edge_tables(nodes, elements):
    pair_index = {}
    edges = []
    edge_elements = []
    element_edges = np.empty((len(elements), 3), dtype=int)
    for e, (a, b, c) in enumerate(elements):
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
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    edge_elements = np.asarray(edge_elements, dtype=int).reshape(-1, 2)

    boundary = [pq for e, (a, b, c) in enumerate(elements)
                for k, pq in enumerate(((a, b), (b, c), (c, a)))
                if edge_elements[element_edges[e, k], 1] == -1]
    boundary_nodes = np.unique(boundary) if boundary else np.empty(0, dtype=int)
    return dict(edges=edges, edge_elements=edge_elements,
                element_edges=element_edges, boundary_nodes=boundary_nodes)


def ref_refinement_tables(nodes, elements, t):
    """The old ``ps_refine`` and ``PSRefinement._build_tables`` loops on the
    reference edge tables ``t``."""
    centers = np.empty((len(elements), 2))
    for e in range(len(elements)):
        v0, v1, v2 = nodes[elements[e]]
        l0 = np.hypot(*(v2 - v1))
        l1 = np.hypot(*(v0 - v2))
        l2 = np.hypot(*(v1 - v0))
        centers[e] = (l0 * v0 + l1 * v1 + l2 * v2) / (l0 + l1 + l2)

    edge_points = np.empty((len(t["edges"]), 2))
    for idx, (a, b) in enumerate(t["edges"]):
        ea, eb = t["edge_elements"][idx]
        pa = nodes[a]
        pb = nodes[b]
        if eb == -1:
            edge_points[idx] = 0.5 * (pa + pb)
            continue
        za, zb = centers[ea], centers[eb]
        mat = np.column_stack([zb - za, pa - pb])
        s, tt = np.linalg.solve(mat, pa - za)
        eps = 1e-12
        if not (eps < tt < 1.0 - eps and eps < s < 1.0 - eps):
            raise RefinementFailed(f"edge {a}-{b}")
        edge_points[idx] = pa + tt * (pb - pa)

    n_e = len(elements)
    z_bary = np.empty((n_e, 3))
    edge_split = np.empty((n_e, 3))
    sub_coords = np.empty((n_e, 6, 3, 2))
    sub_inv = np.empty((n_e, 6, 3, 3))
    for e in range(n_e):
        w = nodes[elements[e]]
        z = centers[e]
        a = np.empty((3, 3))
        a[:2, :] = w.T
        a[2, :] = 1.0
        z_bary[e] = np.linalg.solve(a, np.array([z[0], z[1], 1.0]))
        ep = edge_points[t["element_edges"][e]]
        for k in range(3):
            a = w[k]
            d = w[(k + 1) % 3] - a
            edge_split[e, k] = 1.0 - np.dot(ep[k] - a, d) / np.dot(d, d)
        e01, e12, e20 = ep
        subs = ((w[0], e01, z), (e01, w[1], z), (w[1], e12, z),
                (e12, w[2], z), (w[2], e20, z), (e20, w[0], z))
        for s, (p, q, r) in enumerate(subs):
            sub_coords[e, s] = (p, q, r)
            m = np.empty((3, 3))
            m[:2, 0] = p
            m[:2, 1] = q
            m[:2, 2] = r
            m[2, :] = 1.0
            sub_inv[e, s] = np.linalg.inv(m)
    return dict(interior_points=centers, edge_points=edge_points,
                z_bary=z_bary, edge_split=edge_split, sub_coords=sub_coords,
                sub_inv=sub_inv)


def table_bytes(tables):
    return {k: (v.dtype.str, v.shape, v.tobytes()) for k, v in tables.items()}


def setup_outcome(build, nodes, elements):
    """Bytes of every table ``build`` makes, or the exception class it
    raised."""
    try:
        return table_bytes(build(nodes, elements))
    except PsmpmError as exc:
        return type(exc)


def reference_setup(nodes, elements):
    t = ref_edge_tables(nodes, elements)
    return {**t, **ref_refinement_tables(nodes, elements, t)}


def batched_setup(nodes, elements):
    tri = Triangulation(nodes, elements)
    ref = ps_refine(tri)
    names = ("edges", "edge_elements", "element_edges", "boundary_nodes")
    return {**{k: getattr(tri, k) for k in names},
            **{k: getattr(ref, k) for k in ("interior_points", "edge_points",
                                            "z_bary", "edge_split",
                                            "sub_coords", "sub_inv")}}


class TestSetupMatchesReference:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), h=st.sampled_from([0.25, 0.125]),
           duplicate=st.booleans())
    def test_jittered_meshes(self, seed, h, duplicate):
        tri = generate_mesh("jittered", h, (0.0, 0.0, 1.0, 1.0), seed=seed)
        elements = tri.elements
        if duplicate:
            # a repeated element puts a third element on its interior edges
            e = np.random.default_rng(seed).integers(tri.n_elements)
            elements = np.vstack([elements, elements[e]])
        want = setup_outcome(reference_setup, tri.nodes, elements)
        got = setup_outcome(batched_setup, tri.nodes, elements)
        assert got == want
        assert (got is MeshDegenerate) == duplicate


class TestTriangulationInvariants:
    def test_rejects_clockwise_element(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshDegenerate):
            Triangulation(nodes, np.array([[0, 2, 1]]))

    def test_edge_shared_by_three_elements_rejected(self):
        # three counter-clockwise triangles on the edge (0, 1)
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0],
                          [0.5, -1.0]])
        elements = np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]])
        with pytest.raises(MeshDegenerate, match=r"edge \(0, 1\) shared by"):
            Triangulation(nodes, elements)

    def test_edge_sharing_counts(self):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=10)
        counts = np.sum(tri.edge_elements >= 0, axis=1)
        assert set(counts.tolist()) <= {1, 2}
        # one closed boundary loop has as many edges as nodes
        n_boundary = int(np.sum(counts == 1))
        assert n_boundary == len(tri.boundary_nodes)


def test_mesh_file_round_trip(tmp_path):
    tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=11)
    path = tmp_path / "mesh.txt"
    write_mesh_file(tri, path)
    back = read_mesh_file(path)
    assert_allclose(back.nodes, tri.nodes, rtol=0, atol=0)
    assert np.array_equal(back.elements, tri.elements)


def mesh_text(nodes, elements):
    return ("nodes\n" + "".join(f"{i} {x} {y}\n" for i, x, y in nodes)
            + "elements\n" + "".join(f"{i} {a} {b} {c}\n"
                                      for i, a, b, c in elements))


SQUARE_NODES = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 1.0), (3, 0.0, 1.0)]
SQUARE_ELEMENTS = [(0, 0, 1, 2), (1, 0, 2, 3)]


class TestReadMeshFile:
    @pytest.mark.parametrize("nodes, elements, message", [
        # 1-based nodes and elements
        ([(i + 1, x, y) for i, x, y in SQUARE_NODES],
         [(i + 1, a + 1, b + 1, c + 1) for i, a, b, c in SQUARE_ELEMENTS],
         "node index 0 missing; indices must run 0..3"),
        (SQUARE_NODES, [(0, 0, 1, 2), (2, 0, 2, 3)],
         "element index 1 missing; indices must run 0..1"),
    ], ids=["one_based", "element_gap"])
    def test_missing_index_is_parse_error(self, tmp_path, nodes, elements,
                                          message):
        path = tmp_path / "mesh.txt"
        path.write_text(mesh_text(nodes, elements))
        with pytest.raises(ParseError, match=message):
            read_mesh_file(path)

    def test_repeated_index_is_parse_error(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(mesh_text(SQUARE_NODES + [(2, 0.5, 0.5)],
                                  SQUARE_ELEMENTS))
        with pytest.raises(ParseError, match="line 6: repeated node index 2"):
            read_mesh_file(path)

    @pytest.mark.parametrize("node", [4, -1])
    def test_dangling_node_is_mesh_degenerate(self, tmp_path, node):
        # checked before the orientation flip, which would index the nodes
        path = tmp_path / "mesh.txt"
        path.write_text(mesh_text(SQUARE_NODES,
                                  [(0, 0, 1, 2), (1, 0, node, 3)]))
        with pytest.raises(MeshDegenerate,
                           match=f"element 1 references missing node {node}"):
            read_mesh_file(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_is_mesh_degenerate(self, tmp_path, value):
        # a NaN area would pass the area check and reach the locator's bins
        path = tmp_path / "mesh.txt"
        path.write_text(mesh_text(SQUARE_NODES[:2] + [(2, 1.0, value)]
                                  + SQUARE_NODES[3:], SQUARE_ELEMENTS))
        with pytest.raises(MeshDegenerate,
                           match="node 2 has a non-finite coordinate"):
            read_mesh_file(path)

    def test_clockwise_element_is_reordered(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text(mesh_text(SQUARE_NODES, [(0, 0, 2, 1), (1, 0, 2, 3)]))
        tri = read_mesh_file(path)
        assert np.array_equal(tri.elements, [[1, 2, 0], [0, 2, 3]])

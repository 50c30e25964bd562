"""Geometry, refinement, and point-location tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from psmpm import mesh
from psmpm.cli_io import generate_mesh, write_mesh_file
from psmpm.errors import DegenerateTriangle, MeshDegenerate, RefinementFailed
from psmpm.mesh import (PointLocator, Triangulation, barycentric_coordinates,
                        incenter, molecule_of, ps_refine, read_mesh_file)


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
            areas = ref.sub_areas(e)
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
        for e in range(tri.n_elements):
            found = loc.locate(ref.interior_points[e])
            assert found is not None
            assert found[0] == e

    def test_outside_returns_none(self):
        tri = unit_square_mesh()
        loc = PointLocator(tri, ps_refine(tri))
        assert loc.locate((2.5, 0.5)) is None
        assert loc.locate((-0.1, -0.1)) is None

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
                     if ref.subtriangle_barycentric(ee, ss, p).min() >= -1e-12]
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
        e1, s1, t1 = loc.locate_many(moved, hint=elem)
        e2, s2, t2 = loc.locate_many(moved)
        assert np.array_equal(e1, e2)
        assert np.array_equal(s1, s2)
        assert_allclose(t1, t2, atol=1e-13)


class TestLocateProperty:
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
        for p, e, s, et in zip(pts, elem, sub, eta):
            single = loc.locate(p)
            if single is None:
                assert e == -1
                continue
            assert (single[0], single[1]) == (e, s)
            assert single[2].tobytes() == et.tobytes()


class TestMolecule:
    def test_fan_center_has_all_elements(self):
        tri = fan_mesh(6)
        assert len(molecule_of(tri, 0)) == 6

    def test_square_corner_single_element(self):
        tri = unit_square_mesh()
        assert len(molecule_of(tri, 1)) == 1

    def test_matches_brute_force_incidence(self):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=9)
        for v in range(tri.n_nodes):
            mol = set(molecule_of(tri, v).elements.tolist())
            brute = {e for e in range(tri.n_elements)
                     if v in tri.elements[e]}
            assert mol == brute


class TestTriangulationInvariants:
    def test_rejects_clockwise_element(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshDegenerate):
            Triangulation(nodes, np.array([[0, 2, 1]]))

    def test_boundary_normals_point_outward(self):
        tri = unit_square_mesh()
        center = tri.nodes.mean(axis=0)
        for a, b, n in tri.boundary_edges:
            mid = 0.5 * (tri.nodes[a] + tri.nodes[b])
            assert np.dot(n, mid - center) > 0.0
            assert abs(np.hypot(*n) - 1.0) < 1e-14

    def test_edge_sharing_counts(self):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=10)
        counts = np.sum(tri.edge_elements >= 0, axis=1)
        assert set(counts.tolist()) <= {1, 2}
        n_boundary = int(np.sum(counts == 1))
        assert n_boundary == len(tri.boundary_edges)


def test_mesh_file_round_trip(tmp_path):
    tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=11)
    path = tmp_path / "mesh.txt"
    write_mesh_file(tri, path)
    back = read_mesh_file(path)
    assert_allclose(back.nodes, tri.nodes, rtol=0, atol=0)
    assert np.array_equal(back.elements, tri.elements)

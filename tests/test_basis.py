"""Basis-family tests: hats, control triangles, triplets, spline invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from psmpm.basis import (DirichletConstraint, compute_triplets, convex_hull,
                         hat_basis, min_area_control_triangle, ps_basis,
                         ps_points)
from psmpm.cli_io import generate_mesh
from psmpm.errors import (CollinearPoints, InteriorVertexConstrained,
                          OutsideDomain, UnsupportedBoundaryTangent)
from psmpm.mesh import Triangulation, cross2, ps_refine
from psmpm.mpm_core import ConstraintReduction


def unit_square_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Triangulation(nodes, np.array([[0, 1, 2], [0, 2, 3]]))


def jittered(h=0.25, seed=7):
    return generate_mesh("jittered", h, (0.0, 0.0, 1.0, 1.0), seed=seed)


def eval_full(basis, p):
    """Evaluate and scatter to dense (n_bf,), (n_bf, 2) arrays."""
    dofs, vals, grads = basis.eval_at(p)
    v = np.zeros(basis.n_bf)
    g = np.zeros((basis.n_bf, 2))
    v[dofs] = vals
    g[dofs] = grads
    return v, g


class TestHatBasis:
    def test_nodal_interpolation(self):
        tri = unit_square_mesh()
        basis = hat_basis(tri)
        assert basis.n_bf == tri.n_nodes
        for v in range(tri.n_nodes):
            # nudge inward so the node locates into an adjacent element
            p = tri.nodes[v] * 0.999999 + tri.nodes.mean(axis=0) * 0.000001
            full, _ = eval_full(basis, p)
            assert abs(full[v] - 1.0) < 1e-5
            assert np.all(np.delete(full, v) < 1e-5)

    def test_partition_of_unity(self):
        basis = hat_basis(jittered())
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.01, 0.99, size=(500, 2))
        elem, sub, eta = basis.locator.locate_many(pts)
        _, vals, grads = basis.evaluate_located(elem, sub, eta)
        assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(grads.sum(axis=1)).max() < 1e-10

    def test_gradient_on_unit_right_triangle(self):
        tri = Triangulation(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                            np.array([[0, 1, 2]]))
        basis = hat_basis(tri)
        _, g = eval_full(basis, (0.3, 0.3))
        assert_allclose(g[0], [-1.0, -1.0], atol=1e-14)
        assert_allclose(g[1], [1.0, 0.0], atol=1e-14)
        assert_allclose(g[2], [0.0, 1.0], atol=1e-14)


class TestPsPoints:
    def test_single_triangle_count(self):
        tri = Triangulation(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                            np.array([[0, 1, 2]]))
        ref = ps_refine(tri)
        pts = ps_points(ref, 0)
        # vertex + 2 half-edge midpoints + 1 spoke midpoint
        assert len(pts) == 4
        assert_allclose(pts[0], tri.nodes[0])

    def test_count_matches_edge_enumeration(self):
        tri = jittered(seed=3)
        ref = ps_refine(tri)
        for v in range(tri.n_nodes):
            n_spokes = len(tri.vertex_elements[v])
            n_half_edges = int(np.sum((tri.edges == v).any(axis=1)))
            assert len(ps_points(ref, v)) == 1 + n_spokes + n_half_edges

    def test_inside_molecule_hull(self):
        tri = jittered(seed=4)
        ref = ps_refine(tri)
        for v in range(tri.n_nodes):
            mol = tri.vertex_elements[v]
            hull = convex_hull(tri.nodes[np.unique(tri.elements[mol])])
            m = np.empty((3, 3))
            for p in ps_points(ref, v):
                # every split point is a convex combination of molecule nodes
                inside = False
                for i in range(1, len(hull) - 1):
                    m[:2, :] = np.array([hull[0], hull[i], hull[i + 1]]).T
                    m[2, :] = 1.0
                    eta = np.linalg.solve(m, [p[0], p[1], 1.0])
                    if eta.min() >= -1e-10:
                        inside = True
                        break
                assert inside


class TestControlTriangle:
    def test_triangle_returns_itself(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]])
        corners = min_area_control_triangle(pts)
        assert_allclose(sorted(map(tuple, corners)), sorted(map(tuple, pts)),
                        atol=1e-12)

    def test_unit_square_minimal_area_two(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        corners = min_area_control_triangle(pts)
        d1 = corners[1] - corners[0]
        d2 = corners[2] - corners[0]
        area = abs(0.5 * (d1[0] * d2[1] - d1[1] * d2[0]))
        assert_allclose(area, 2.0, rtol=1e-12)

    def test_random_clouds_contained(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            pts = rng.normal(size=(rng.integers(4, 15), 2))
            corners = min_area_control_triangle(pts)
            m = np.empty((3, 3))
            m[:2, :] = corners.T
            m[2, :] = 1.0
            eta = np.linalg.solve(m, np.column_stack(
                [pts, np.ones(len(pts))]).T)
            assert eta.min() >= -1e-10

    def test_collinear_rejected(self):
        pts = np.column_stack([np.linspace(0, 1, 5), np.linspace(0, 2, 5)])
        with pytest.raises(CollinearPoints):
            min_area_control_triangle(pts)


# Reference: the candidate-by-candidate search that the batched
# min_area_control_triangle replaced.  The batched one must return the same
# corners to the bit, tie-break included.
def ref_contains_all(corners, points, tol=1e-10):
    m = np.empty((3, 3))
    m[:2, :] = corners.T
    m[2, :] = 1.0
    det = np.linalg.det(m)
    if abs(det) < 1e-14:
        return False
    ph = np.column_stack([points, np.ones(len(points))])
    eta = np.linalg.solve(m, ph.T)
    return bool(eta.min() >= -tol)


def ref_line_intersection(p0, d0, p1, d1):
    mat = np.column_stack([d0, -d1])
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if abs(det) < 1e-14 * max(np.abs(mat).max(), 1e-300) ** 2:
        return None
    s = np.linalg.solve(mat, p1 - p0)[0]
    return p0 + s * d0


def ref_min_area_control_triangle(points):
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
        if ref_contains_all(corners, pts):
            best = corners
            best_area = area

    for i in range(m):
        for j in range(i + 1, m):
            xij = ref_line_intersection(hull[i], dirs[i], hull[j], dirs[j])
            for k in range(j + 1, m):
                xik = ref_line_intersection(hull[i], dirs[i], hull[k], dirs[k])
                xjk = ref_line_intersection(hull[j], dirs[j], hull[k], dirs[k])
                if xij is None or xik is None or xjk is None:
                    continue
                consider(np.array([xij, xjk, xik]))
            if xij is None:
                continue
            for v in hull:
                mat = np.column_stack([dirs[i], dirs[j]])
                try:
                    step = np.linalg.solve(mat, 2.0 * (v - xij))
                except np.linalg.LinAlgError:
                    continue
                a = xij + step[0] * dirs[i]
                b = xij + step[1] * dirs[j]
                consider(np.array([xij, a, b]))
    if best is None:
        raise CollinearPoints("no enclosing flush-edge triangle found")
    return best


def both_searches(points):
    """Corner bytes of the reference and the batched search, or the
    exception class each raised."""
    out = []
    for search in (ref_min_area_control_triangle, min_area_control_triangle):
        try:
            out.append(search(points).tobytes())
        except CollinearPoints as exc:
            out.append(type(exc))
    return out


class TestControlTriangleMatchesReference:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), h=st.sampled_from([0.25, 0.125]))
    def test_jittered_mesh_vertices(self, seed, h):
        ref = ps_refine(jittered(h=h, seed=seed))
        picks = np.random.default_rng(seed).permutation(ref.parent.n_nodes)
        for v in picks[:12]:
            want, got = both_searches(ps_points(ref, v))
            assert got == want

    @settings(max_examples=60, deadline=None)
    @given(pts=st.one_of(
        arrays(float, st.tuples(st.integers(3, 12), st.just(2)),
               elements=st.floats(-10.0, 10.0, allow_nan=False)),
        # small integer lattices: duplicates, collinear hulls, tied areas
        arrays(float, st.tuples(st.integers(3, 12), st.just(2)),
               elements=st.integers(-3, 3).map(float))))
    def test_point_clouds(self, pts):
        want, got = both_searches(pts)
        assert got == want


# Reference: the per-element loop that the vectorised _build_ordinates
# replaced.  The tables must agree to the bit.
def ref_build_ordinates(basis):
    tri, ref = basis.tri, basis.ref
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
            trip = basis.triplets[tri.elements[e, lv]]
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


# Reference: the stacked-matmul evaluation that the single Bernstein
# value+gradient contraction replaced.
def ref_evaluate_located(basis, elem, sub, eta):
    o = basis.sub_ordinates[elem, sub]
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
    grads = np.matmul(db, basis.ref.sub_inv[elem, sub, :, :2])
    return basis.element_dofs[elem], vals, grads


def located_sample(basis, seed, n=400):
    """Random points plus mesh nodes, edge points and interior points
    (sub-triangle corners), all located; returns (points, elem, sub, eta)."""
    ref = basis.ref
    pts = np.concatenate([np.random.default_rng(seed).random((n, 2)),
                          basis.tri.nodes, ref.edge_points,
                          ref.interior_points])
    elem, sub, eta = basis.locator.locate_many(pts)
    assert np.all(elem >= 0)
    return pts, elem, sub, eta


class TestSplineKernelsMatchReference:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), h=st.sampled_from([0.25, 0.125]))
    def test_ordinates_match_loop(self, seed, h):
        basis = ps_basis(ps_refine(jittered(h=h, seed=seed)))
        assert basis.ordinates.tobytes() == ref_build_ordinates(basis).tobytes()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), h=st.sampled_from([0.25, 0.125]))
    def test_evaluation_matches_stacked_matmul(self, seed, h):
        basis = ps_basis(ps_refine(jittered(h=h, seed=seed)))
        _, elem, sub, eta = located_sample(basis, seed)
        dofs, vals, grads = basis.evaluate_located(elem, sub, eta)
        want_dofs, want_vals, want_grads = ref_evaluate_located(
            basis, elem, sub, eta)
        assert np.array_equal(dofs, want_dofs)
        assert np.abs(vals - want_vals).max() <= 1e-15
        assert (np.abs(grads - want_grads).max()
                <= 1e-13 * np.abs(want_grads).max())


class TestSplineInvariantsProperty:
    """Invariants of the spline family through ``evaluate_located`` on
    random jittered meshes.  The ordinates of an element sum to one only to
    the accuracy of the 3x3 triplet solves (1e-12, as in
    ``test_partition_of_unity_at_ordinate_level``), so that is the bound of
    every identity here, relative to the size of the terms it sums."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), h=st.sampled_from([0.25, 0.125]),
           a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0),
           c=st.floats(-2.0, 2.0))
    def test_invariants(self, seed, h, a, b, c):
        basis = ps_basis(ps_refine(jittered(h=h, seed=seed)))
        pts, elem, sub, eta = located_sample(basis, seed)
        dofs, vals, grads = basis.evaluate_located(elem, sub, eta)
        gmax = np.abs(grads).max()
        assert np.abs(vals.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(grads.sum(axis=1)).max() <= 1e-12 * gmax
        assert vals.min() >= -1e-12

        # linear reproduction: coefficients f(Q) at the control-triangle
        # corners reproduce f = a + b x + c y and its gradient (b, c)
        corners = np.array([t.corners for t in basis.control_triangles])
        coeff = (a + b * corners[:, :, 0] + c * corners[:, :, 1]).ravel()
        scale = max(1.0, np.abs(coeff).max())
        recon = np.einsum('pf,pf->p', vals, coeff[dofs])
        assert np.abs(recon - (a + b * pts[:, 0] + c * pts[:, 1])).max() \
            <= 1e-12 * scale
        recon_g = np.einsum('pfd,pf->pd', grads, coeff[dofs])
        assert np.abs(recon_g - [b, c]).max() <= 1e-12 * scale * gmax


class TestTriplets:
    def test_vertex_coincides_with_corner(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        t = compute_triplets(corners, corners[0])
        assert_allclose(t[0, 0], 1.0, atol=1e-14)
        assert_allclose(t[1:, 0], 0.0, atol=1e-14)

    def test_alpha_rows_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            corners = rng.normal(size=(3, 2)) * 2.0
            d1, d2 = corners[1] - corners[0], corners[2] - corners[0]
            if abs(d1[0] * d2[1] - d1[1] * d2[0]) < 1e-2:
                continue
            v = corners.mean(axis=0)
            t = compute_triplets(corners, v)
            assert abs(t[:, 0].sum() - 1.0) < 1e-12
            assert abs(t[:, 1].sum()) < 1e-12
            assert abs(t[:, 2].sum()) < 1e-12

    def test_hand_solved_system(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        t = compute_triplets(corners, (0.25, 0.25))
        assert_allclose(t[:, 0], [0.5, 0.25, 0.25], atol=1e-14)
        assert_allclose(t[:, 1], [-1.0, 1.0, 0.0], atol=1e-14)
        assert_allclose(t[:, 2], [-1.0, 0.0, 1.0], atol=1e-14)

    def test_residual_of_system(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            corners = rng.normal(size=(3, 2)) * 3.0
            d1, d2 = corners[1] - corners[0], corners[2] - corners[0]
            if abs(d1[0] * d2[1] - d1[1] * d2[0]) < 1e-2:
                continue
            v = (corners * rng.dirichlet(np.ones(3))[:, None]).sum(axis=0)
            t = compute_triplets(corners, v)
            a = np.vstack([corners.T, np.ones(3)])
            rhs = np.array([[v[0], 1, 0], [v[1], 0, 1], [1, 0, 0]], dtype=float)
            assert np.abs(a @ t - rhs).max() < 1e-12


class TestOrdinates:
    def test_zero_triplet_gives_zero_row(self):
        tri = unit_square_mesh()
        basis = ps_basis(ps_refine(tri))
        # rebuild one row with a zeroed triplet: linearity means all ordinates 0
        basis.triplets[0] = 0.0
        rebuilt = basis._build_ordinates()
        for e in range(tri.n_elements):
            lv = list(tri.elements[e]).index(0) if 0 in tri.elements[e] else None
            if lv is not None:
                assert np.all(rebuilt[e, 3 * lv:3 * lv + 3] == 0.0)

    def test_partition_of_unity_at_ordinate_level(self):
        tri = jittered(seed=8)
        basis = ps_basis(ps_refine(tri))
        sums = basis.ordinates.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_corner_ordinate_is_alpha(self):
        tri = jittered(seed=9)
        basis = ps_basis(ps_refine(tri))
        for e in range(tri.n_elements):
            for lv in range(3):
                v = tri.elements[e, lv]
                for q in range(3):
                    assert_allclose(basis.ordinates[e, 3 * lv + q, lv],
                                    basis.triplets[v, q, 0], atol=1e-14)


class TestPsBasis:
    def test_count_three_per_vertex(self):
        tri = jittered(seed=10)
        basis = ps_basis(ps_refine(tri))
        assert basis.n_bf == 3 * tri.n_nodes

    def test_values_in_unit_interval_and_sum_one(self):
        tri = jittered(seed=11)
        basis = ps_basis(ps_refine(tri))
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 1.0, size=(1000, 2))
        elem, sub, eta = basis.locator.locate_many(pts)
        keep = elem >= 0
        _, vals, grads = basis.evaluate_located(elem[keep], sub[keep], eta[keep])
        assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-10
        assert vals.min() >= -1e-12
        assert vals.max() <= 1.0 + 1e-12
        assert np.abs(grads.sum(axis=1)).max() < 1e-9

    def test_molecule_boundary_vanishing(self):
        tri = jittered(seed=12)
        ref = ps_refine(tri)
        basis = ps_basis(ref)
        rng = np.random.default_rng(1)
        worst = 0.0
        for vtx in range(tri.n_nodes):
            for e in tri.vertex_elements[vtx]:
                lv = list(tri.elements[e]).index(vtx)
                far = [tri.nodes[tri.elements[e, (lv + 1) % 3]],
                       tri.nodes[tri.elements[e, (lv + 2) % 3]]]
                for t in rng.uniform(0.0, 1.0, 4):
                    p = far[0] + t * (far[1] - far[0])
                    best_s, best_eta, best_m = 0, None, -np.inf
                    for s in range(6):
                        cand = ref.subtriangle_barycentric(e, s, p)
                        if cand.min() > best_m:
                            best_s, best_eta, best_m = s, cand, cand.min()
                    d, v, g = basis.evaluate_located(
                        np.array([e]), np.array([best_s]), best_eta[None, :])
                    for q in range(3):
                        k = np.nonzero(d[0] == 3 * vtx + q)[0]
                        worst = max(worst, abs(v[0][k[0]]),
                                    np.abs(g[0][k[0]]).max())
        assert worst < 1e-10

    def test_compact_support_outside_molecule(self):
        tri = jittered(seed=13)
        basis = ps_basis(ps_refine(tri))
        for e in range(tri.n_elements):
            active_vertices = {d // 3 for d in basis.element_dofs[e]}
            assert active_vertices == set(tri.elements[e].tolist())

    def test_gradients_match_finite_differences(self):
        tri = jittered(seed=14)
        basis = ps_basis(ps_refine(tri))
        rng = np.random.default_rng(2)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            p = rng.uniform(0.05, 0.95, 2)
            vc, gc = eval_full(basis, p)
            vxp, _ = eval_full(basis, p + [h, 0.0])
            vxm, _ = eval_full(basis, p - [h, 0.0])
            vyp, _ = eval_full(basis, p + [0.0, h])
            vym, _ = eval_full(basis, p - [0.0, h])
            fd = np.column_stack([(vxp - vxm) / (2 * h), (vyp - vym) / (2 * h)])
            scale = max(1.0, np.abs(gc).max())
            worst = max(worst, np.abs(fd - gc).max() / scale)
        assert worst < 1e-5

    def test_c1_across_interior_edges(self):
        tri = jittered(seed=15)
        ref = ps_refine(tri)
        basis = ps_basis(ref)
        rng = np.random.default_rng(3)
        samples = 0
        for idx, (a, b) in enumerate(tri.edges):
            ea, eb = tri.edge_elements[idx]
            if eb == -1:
                continue
            pa, pb = tri.nodes[a], tri.nodes[b]
            for t in rng.uniform(0.03, 0.97, 5):
                p = pa + t * (pb - pa)
                full = []
                for e in (ea, eb):
                    best_s, best_eta, best_m = 0, None, -np.inf
                    for s in range(6):
                        cand = ref.subtriangle_barycentric(e, s, p)
                        if cand.min() > best_m:
                            best_s, best_eta, best_m = s, cand, cand.min()
                    d, v, g = basis.evaluate_located(
                        np.array([e]), np.array([best_s]), best_eta[None, :])
                    fv = np.zeros(basis.n_bf)
                    fg = np.zeros((basis.n_bf, 2))
                    fv[d[0]] = v[0]
                    fg[d[0]] = g[0]
                    full.append((fv, fg))
                assert np.abs(full[0][0] - full[1][0]).max() < 1e-9
                assert np.abs(full[0][1] - full[1][1]).max() < 1e-9
                samples += 1
        assert samples >= 200

    def test_linear_reproduction_from_control_points(self):
        tri = jittered(seed=16)
        basis = ps_basis(ps_refine(tri))

        def f(x, y):
            return 1.2 - 0.8 * x + 0.45 * y

        coeff = np.zeros(basis.n_bf)
        for v in range(tri.n_nodes):
            q = basis.control_triangles[v].corners
            coeff[3 * v:3 * v + 3] = f(q[:, 0], q[:, 1])
        rng = np.random.default_rng(4)
        for p in rng.uniform(0.02, 0.98, size=(200, 2)):
            dofs, vals, _ = basis.eval_at(p)
            assert abs(np.dot(coeff[dofs], vals) - f(*p)) < 1e-10

    def test_quadratic_space_containment(self):
        tri = jittered(seed=17)
        basis = ps_basis(ps_refine(tri))
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, size=(1200, 2))
        elem, sub, eta = basis.locator.locate_many(pts)
        keep = elem >= 0
        pts = pts[keep]
        dofs, vals, _ = basis.evaluate_located(elem[keep], sub[keep], eta[keep])
        phi = np.zeros((len(pts), basis.n_bf))
        rows = np.repeat(np.arange(len(pts)), dofs.shape[1])
        phi[rows, dofs.ravel()] = vals.ravel()
        for f in (pts[:, 0] ** 2, pts[:, 0] * pts[:, 1],
                  pts[:, 1] ** 2 - 0.3 * pts[:, 0]):
            coeff, *_ = np.linalg.lstsq(phi, f, rcond=None)
            assert np.abs(phi @ coeff - f).max() < 1e-9

    def test_bernstein_values(self):
        # eta = (1,0,0): only the squared corner polynomial is nonzero;
        # the 110 midpoint polynomial equals 1/2 at eta = (1/2, 1/2, 0)
        tri = unit_square_mesh()
        basis = ps_basis(ps_refine(tri))
        ords = np.zeros((1, 9, 6))
        ords[0, 0, 0] = 1.0           # pure corner-1 ordinate
        ords[0, 1, 3] = 1.0           # pure mid-12 ordinate
        saved = basis.sub_ordinates
        try:
            basis.sub_ordinates = np.broadcast_to(
                ords, basis.sub_ordinates.shape[:2] + (9, 6)).copy()
            _, vals, _ = basis.evaluate_located(
                np.array([0]), np.array([0]), np.array([[1.0, 0.0, 0.0]]))
            assert_allclose(vals[0, 0], 1.0, atol=1e-14)
            assert_allclose(vals[0, 1], 0.0, atol=1e-14)
            _, vals, _ = basis.evaluate_located(
                np.array([0]), np.array([0]), np.array([[0.5, 0.5, 0.0]]))
            assert_allclose(vals[0, 1], 0.5, atol=1e-14)
        finally:
            basis.sub_ordinates = saved

    def test_eval_outside_raises(self):
        basis = ps_basis(ps_refine(unit_square_mesh()))
        with pytest.raises(OutsideDomain):
            basis.eval_at((3.0, 3.0))


class TestDirichlet:
    def test_hat_single_row(self):
        tri = unit_square_mesh()
        basis = hat_basis(tri)
        rows = basis.constraint_rows(
            [DirichletConstraint(vertex=1, component=0, value=0.0)])
        assert len(rows[0]) == 1 and len(rows[1]) == 0
        dofs, coeffs, rhs = rows[0][0]
        assert dofs.tolist() == [1] and coeffs.tolist() == [1.0] and rhs == 0.0

    def test_interior_vertex_rejected(self):
        tri = generate_mesh("structured", 0.5, (0.0, 0.0, 1.0, 1.0))
        basis = hat_basis(tri)
        interior = [v for v in range(tri.n_nodes)
                    if v not in tri.boundary_nodes][0]
        with pytest.raises(InteriorVertexConstrained):
            basis.constraint_rows(
                [DirichletConstraint(vertex=interior, component=0)])

    def test_ps_rows_pin_value_and_tangent(self):
        tri = jittered(seed=18)
        basis = ps_basis(ps_refine(tri))
        left = [v for v in tri.boundary_nodes if tri.nodes[v][0] < 1e-9]
        constraints = [DirichletConstraint(vertex=v, component=0, value=0.0,
                                           tangent=(0.0, 1.0))
                       for v in left]
        rows = basis.constraint_rows(constraints)
        assert len(rows[0]) == 2 * len(left)
        # satisfy the rows with the minimum-norm coefficients: both the value
        # and the tangential derivative of the reconstructed field vanish
        red = ConstraintReduction(basis.n_bf, rows[0])
        coeff = red.offset
        for v in left[:3]:
            p = tri.nodes[v].copy()
            p[1] = min(max(p[1], 1e-6), 1.0 - 1e-6)
            p[0] = 1e-12
            dofs, vals, grads = basis.eval_at(p)
            assert abs(np.dot(coeff[dofs], vals)) < 1e-10
            assert abs(np.dot(coeff[dofs], grads[:, 1])) < 1e-8

    def test_ps_nonzero_value_reproduced_along_edge(self):
        tri = jittered(seed=19)
        basis = ps_basis(ps_refine(tri))
        bottom = [v for v in tri.boundary_nodes if tri.nodes[v][1] < 1e-9]
        constraints = [DirichletConstraint(vertex=v, component=0, value=2.5,
                                           tangent=(1.0, 0.0),
                                           tangent_value=0.0)
                       for v in bottom]
        rows = basis.constraint_rows(constraints)
        red = ConstraintReduction(basis.n_bf, rows[0])
        coeff = red.offset
        for x in np.linspace(0.02, 0.98, 20):
            dofs, vals, _ = basis.eval_at((x, 1e-12))
            assert abs(np.dot(coeff[dofs], vals) - 2.5) < 1e-10

    def test_non_axis_tangent_rejected(self):
        tri = unit_square_mesh()
        basis = ps_basis(ps_refine(tri))
        s = 1.0 / np.sqrt(2.0)
        with pytest.raises(UnsupportedBoundaryTangent):
            basis.constraint_rows(
                [DirichletConstraint(vertex=0, component=0, tangent=(s, s))])
        with pytest.raises(UnsupportedBoundaryTangent):
            basis.constraint_rows(
                [DirichletConstraint(vertex=0, component=0, tangent=None)])

"""Particle init, assembly, mass modes, solves, and step-level contracts."""

import math
import re
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from psmpm import mesh, mpm_core
from psmpm.basis import HatBasis, hat_basis, ps_basis
from psmpm.benchmarks import (build_system, mms_plate_spec,
                              rectangle_constraints, soil_column_spec)
from psmpm.cli_io import generate_mesh
from psmpm.errors import (NonPositiveJacobian, OutsideDomain,
                          ParticleLeftDomain, ParticleOutsideMesh,
                          SolverDiverged, ValidationError)
from psmpm.mesh import Triangulation, ps_refine
from psmpm.mpm_core import (ConstraintReduction, GridAssembler, GridSolver,
                            MassMode, MaterialModel, MpmSystem,
                            ParticleLayout, Particles, deformation_update,
                            init_particles, solve_grid)


def unit_square_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Triangulation(nodes, np.array([[0, 1, 2], [0, 2, 3]]))


def square_ps_basis(h=0.25, seed=7):
    tri = generate_mesh("jittered", h, (0.0, 0.0, 1.0, 1.0), seed=seed)
    return ps_basis(ps_refine(tri))


def located(basis, particles):
    """The transfers' view (cells, Bernstein values) of ``particles``."""
    return GridAssembler(basis).located(*particles.loc)


def solve(op, rhs, red, mean_mass):
    """``solve_grid`` of ``rhs`` under ``red`` on a fresh ``GridSolver`` for
    the pattern of ``op``, factorised as a step does."""
    solver = GridSolver(op.pattern, red)
    tol = mpm_core.ZERO_MASS_REL_TOL * mean_mass
    return solve_grid(solver, solver.factorise(op, tol), rhs)


@lru_cache(maxsize=None)
def cached_ps_basis(seed):
    return square_ps_basis(seed=seed)


# the manufactured plate's supports: normal velocity pinned on every side
PLATE_SIDES = {"left": (0,), "right": (0,), "bottom": (1,), "top": (1,)}


class TestMaterial:
    def test_lame_constants(self):
        mat = MaterialModel("neo-hookean", E=1e7, nu=0.3)
        assert_allclose(mat.lam, 1e7 * 0.3 / (1.3 * 0.4))
        assert_allclose(mat.mu, 1e7 / 2.6)

    def test_identity_deformation_is_stress_free(self):
        eye = np.tile(np.eye(2), (5, 1, 1))
        ones = np.ones(5)
        for kind in ("linear-elastic", "neo-hookean"):
            mat = MaterialModel(kind, E=1e6, nu=0.25)
            assert_allclose(mat.stress(eye.transpose(1, 2, 0), ones), 0.0,
                            atol=1e-16)

    def test_linear_elastic_uniaxial(self):
        # nu = 0: sigma_xx = E * (D_xx - 1), sigma_yy = 0
        mat = MaterialModel("linear-elastic", E=50.0, nu=0.0)
        d = np.array([[[1.07, 0.0], [0.0, 1.0]]])
        s = mat.stress(d.transpose(1, 2, 0),
                       np.array([1.07])).transpose(2, 0, 1)
        assert_allclose(s[0, 0, 0], 50.0 * 0.07, rtol=1e-14)
        assert_allclose(s[0, 1, 1], 0.0, atol=1e-14)

    def test_neo_hookean_scalar_oracle(self):
        mat = MaterialModel("neo-hookean", E=1e7, nu=0.3)
        dxx, dyy = 1.1, 1.0
        d = np.array([[[dxx, 0.0], [0.0, dyy]]])
        j = dxx * dyy
        s = mat.stress(d.transpose(1, 2, 0), np.array([j])).transpose(2, 0, 1)
        lam, mu = mat.lam, mat.mu
        assert_allclose(s[0, 0, 0],
                        lam * np.log(j) / j + mu / j * (dxx ** 2 - 1), rtol=1e-14)
        assert_allclose(s[0, 1, 1],
                        lam * np.log(j) / j + mu / j * (dyy ** 2 - 1), rtol=1e-14)
        assert_allclose(s[0, 0, 1], 0.0, atol=1e-14)

    def test_mass_mode_parse(self):
        for mode in MassMode:
            assert MassMode.parse(mode) is mode
            assert MassMode.parse(f" {mode.value.upper()} ") is mode
        with pytest.raises(ValidationError):
            MassMode.parse("diagonal")

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            MaterialModel("linear-elastic", E=-1.0, nu=0.0)
        with pytest.raises(ValidationError):
            MaterialModel("linear-elastic", E=1.0, nu=0.5)
        with pytest.raises(ValidationError):
            MaterialModel("gas", E=1.0, nu=0.1)


# Reference: the tensor forms that the component-wise stress and
# deformation update replaced.
def ref_stress(mat, D, J):
    eye = np.zeros((len(D), 2, 2))
    eye[:, 0, 0] = eye[:, 1, 1] = 1.0
    if mat.kind == "linear-elastic":
        strain = 0.5 * (D + np.swapaxes(D, 1, 2)) - eye
        tr = strain[:, 0, 0] + strain[:, 1, 1]
        return mat.lam * tr[:, None, None] * eye + 2.0 * mat.mu * strain
    b = np.einsum('pij,pkj->pik', D, D)
    return (mat.lam * np.log(J) / J)[:, None, None] * eye \
        + (mat.mu / J)[:, None, None] * (b - eye)


def near_identity(seed, n=400, size=0.1):
    """Random deformation gradients I + size * N(0, 1) with det > 0."""
    D = np.eye(2) + size * np.random.default_rng(seed).normal(size=(n, 2, 2))
    J = D[:, 0, 0] * D[:, 1, 1] - D[:, 0, 1] * D[:, 1, 0]
    return D[J > 0], J[J > 0]


# Reference: the allocating kernels that the ``out=`` forms replaced, one
# fresh array per term.
def alloc_stress(mat, D, J):
    (a, b), (c, d) = D
    sigma = np.empty_like(D)
    if mat.kind == "linear-elastic":
        exx, eyy = a - 1.0, d - 1.0
        lam_tr = mat.lam * (exx + eyy)
        two_mu = 2.0 * mat.mu
        sigma[0, 0] = lam_tr + two_mu * exx
        sigma[1, 1] = lam_tr + two_mu * eyy
        sigma[0, 1] = sigma[1, 0] = two_mu * (0.5 * (b + c))
        return sigma
    vol = mat.lam * np.log(J) / J
    shear = mat.mu / J
    sigma[0, 0] = vol + shear * (a * a + b * b - 1.0)
    sigma[1, 1] = vol + shear * (c * c + d * d - 1.0)
    sigma[0, 1] = sigma[1, 0] = shear * (a * c + b * d)
    return sigma


def alloc_deformation_update(D, dt, exx, eyy, exy):
    axx, ayy, axy = 1.0 + dt * exx, 1.0 + dt * eyy, dt * exy
    (dxx, dxy), (dyx, dyy) = D
    out = np.empty_like(D)
    out[0, 0] = nxx = axx * dxx + axy * dyx
    out[0, 1] = nxy = axx * dxy + axy * dyy
    out[1, 0] = nyx = axy * dxx + ayy * dyx
    out[1, 1] = nyy = axy * dxy + ayy * dyy
    return out, nxx * nyy - nxy * nyx


class TestKernelsMatchReference:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dt=st.floats(1e-6, 1e-2),
           kind=st.sampled_from(["linear-elastic", "neo-hookean"]),
           E=st.floats(1.0, 1e9), nu=st.floats(-0.9, 0.49))
    def test_out_forms_equal_allocating_kernels(self, seed, dt, kind, E, nu):
        # the step writes D and J over the old D, and sigma into its own
        # storage; fresh outputs and in-place ones give the references' bytes
        mat = MaterialModel(kind, E=E, nu=nu)
        D = np.ascontiguousarray(near_identity(seed)[0].transpose(1, 2, 0))
        g = np.random.default_rng(seed + 1).normal(size=D.shape)
        exx, eyy, exy = g[0, 0], g[1, 1], 0.5 * (g[0, 1] + g[1, 0])
        want_D, want_J = alloc_deformation_update(D, dt, exx, eyy, exy)
        want_sigma = alloc_stress(mat, want_D, want_J)
        fresh = deformation_update(D, dt, exx, eyy, exy)
        D_in, J_in = D.copy(), np.full(D.shape[2], np.nan)
        in_place = deformation_update(D_in, dt, exx, eyy, exy,
                                      out=(D_in, J_in))
        assert in_place[0] is D_in and in_place[1] is J_in
        sigma = np.full_like(D, np.nan)
        assert mat.stress(want_D, want_J, out=sigma) is sigma
        for got_D, got_J in (fresh, in_place):
            assert got_D.tobytes() == want_D.tobytes()
            assert got_J.tobytes() == want_J.tobytes()
        for got in (sigma, mat.stress(want_D, want_J)):
            assert got.tobytes() == want_sigma.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["linear-elastic", "neo-hookean"]),
           E=st.floats(1.0, 1e9), nu=st.floats(-0.9, 0.49))
    def test_stress_equals_tensor_form(self, seed, kind, E, nu):
        mat = MaterialModel(kind, E=E, nu=nu)
        D, J = near_identity(seed)
        got = mat.stress(D.transpose(1, 2, 0), J).transpose(2, 0, 1)
        assert got.tobytes() == ref_stress(mat, D, J).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dt=st.floats(1e-6, 1e-2))
    def test_deformation_update_matches_matmul(self, seed, dt):
        D, _ = near_identity(seed)
        g = np.random.default_rng(seed + 1).normal(size=D.shape)
        eps = 0.5 * (g + np.swapaxes(g, 1, 2))
        got, J = deformation_update(D.transpose(1, 2, 0), dt, eps[:, 0, 0],
                                    eps[:, 1, 1], eps[:, 0, 1])
        got = got.transpose(2, 0, 1)
        a = np.eye(2) + dt * eps
        want = np.matmul(a, D)
        # a BLAS matmul may fuse one product of each entry into an FMA: the
        # two forms then differ by one rounding of a term, at most one ulp
        # of |a| |D|
        scale = np.matmul(np.abs(a), np.abs(D))
        assert np.all(np.abs(got - want) <= np.spacing(scale))
        assert J.tobytes() == (got[:, 0, 0] * got[:, 1, 1]
                               - got[:, 0, 1] * got[:, 1, 0]).tobytes()


class TestInitParticles:
    def test_lattice_volumes(self):
        basis = hat_basis(unit_square_mesh())
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="lattice", nx=4, ny=4),
                               rho0=2.0)
        assert parts.n == 16
        assert_allclose(parts.V, 1.0 / 16.0)
        assert_allclose(parts.m.sum(), 2.0, rtol=1e-12)
        assert_allclose(parts.V.sum(), 1.0, rtol=1e-10)
        assert_allclose(parts.D, np.tile(np.eye(2), (16, 1, 1)))
        assert_allclose(parts.sigma, 0.0)
        assert_allclose(parts.u, 0.0)

    def test_ppe_layout_partitions_element_areas(self):
        tri = unit_square_mesh()
        basis = hat_basis(tri)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=3), rho0=1.0)
        assert parts.n == 6
        elem, _, _ = parts.loc
        for e in range(tri.n_elements):
            assert_allclose(parts.V[elem == e].sum(), tri.areas[e], rtol=1e-12)

    def test_ppe_powers_of_four(self):
        tri = unit_square_mesh()
        basis = hat_basis(tri)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=16), rho0=1.0)
        assert parts.n == 32
        assert_allclose(parts.V.sum(), 1.0, rtol=1e-12)

    def test_lattice_beyond_mesh_rejected(self):
        basis = hat_basis(unit_square_mesh())
        layout = ParticleLayout(kind="lattice", nx=4, ny=4,
                                domain=(0.0, 0.0, 2.0, 1.0))
        with pytest.raises(ParticleOutsideMesh, match="outside the mesh"):
            init_particles(basis.locator, layout, rho0=1.0)

    def test_unsupported_ppe(self):
        basis = hat_basis(unit_square_mesh())
        with pytest.raises(ValidationError):
            init_particles(basis.locator, ParticleLayout(kind="ppe", ppe=5),
                           rho0=1.0)

    def test_reference_coordinates_are_read_only(self):
        # the manufactured forcing caches its trig on the identity of x0
        basis = hat_basis(unit_square_mesh())
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="lattice", nx=4, ny=4),
                               rho0=1.0)
        with pytest.raises(ValueError, match="read-only"):
            parts.x0[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            parts.x0 += 1.0

    def test_tensors_are_views_of_component_major_storage(self):
        # D and sigma are (n, 2, 2) views of (2, 2, n) arrays with
        # contiguous rows; assigning stores component-major, bit for bit
        rng = np.random.default_rng(4)
        parts = Particles(rng.uniform(size=(7, 2)), np.ones(7), 1.0)
        assert parts.D.tobytes() == np.tile(np.eye(2), (7, 1, 1)).tobytes()
        for name in ("D", "sigma"):
            for _ in range(2):
                view, store = getattr(parts, name), getattr(parts, name + "_cm")
                assert view.shape == (7, 2, 2) and store.shape == (2, 2, 7)
                assert store.flags.c_contiguous
                assert np.shares_memory(view, store)
                value = rng.normal(size=(7, 2, 2))
                setattr(parts, name, value)
                assert getattr(parts, name).tobytes() == value.tobytes()
            getattr(parts, name)[3] = [[1.0, 2.0], [3.0, 4.0]]
            assert getattr(parts, name + "_cm")[:, :, 3].tolist() == [
                [1.0, 2.0], [3.0, 4.0]]

    def test_mass_volume_density_identity(self):
        basis = square_ps_basis()
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="lattice", nx=9, ny=9),
                               rho0=1234.5)
        assert np.abs(parts.m - parts.V * parts.rho).max() < 1e-12 * parts.m.max()


class TestMassAssembly:
    def test_single_particle_at_centroid_hat(self):
        tri = Triangulation(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                            np.array([[0, 1, 2]]))
        basis = hat_basis(tri)
        parts = Particles(np.array([[1 / 3, 1 / 3]]), np.array([0.5]), 3.0)
        parts.loc = basis.locator.locate_many(parts.x)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        op = asm.mass(pts, parts.m, MassMode.CONSISTENT)
        assert_allclose(op.pattern.matrix(op.data).toarray(),
                        np.full((3, 3), 1.5 / 9.0), atol=1e-15)

    def test_lumped_equals_row_sums(self):
        basis = square_ps_basis()
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=7.0)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        op_c = asm.mass(pts, parts.m, MassMode.CONSISTENT)
        op_l = asm.mass(pts, parts.m, MassMode.LUMPED)
        rows = np.asarray(op_c.pattern.matrix(op_c.data).sum(axis=1)).ravel()
        assert np.abs(rows - op_l.lumped).max() < 1e-12 * op_l.lumped.max()

    def test_consistent_lumped_is_the_matrix_row_sums(self):
        # consistent mode sums its assembled rows instead of the moments
        basis = square_ps_basis(seed=12)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=3.0)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        op = asm.mass(pts, parts.m, MassMode.CONSISTENT)
        assert_allclose(op.lumped, op.pattern.matrix(op.data).toarray()
                        .sum(axis=1), rtol=1e-14, atol=0.0)
        by_moments = asm.mass(pts, parts.m, MassMode.LUMPED).lumped
        assert np.abs(op.lumped - by_moments).max() < 1e-12 * by_moments.max()

    def test_total_mass_all_modes(self):
        basis = square_ps_basis(seed=9)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.05, 0.95, size=(40, 2))
        parts = Particles(pts, rng.uniform(0.001, 0.02, 40), 5.0)
        parts.loc = basis.locator.locate_many(parts.x)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        for mode in MassMode:
            op = asm.mass(pts, parts.m, mode)
            assert_allclose(op.pattern.matrix(op.data).sum(), parts.m.sum(),
                            rtol=1e-12)
            assert_allclose(op.lumped.sum(), parts.m.sum(), rtol=1e-12)

    def test_consistent_symmetry(self):
        basis = square_ps_basis(seed=10)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=1.0)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        op = asm.mass(pts, parts.m, MassMode.CONSISTENT)
        m = op.pattern.matrix(op.data)
        diff = m - m.T
        assert abs(diff).max() < 1e-14 if diff.nnz else True

    def test_partial_marks_vertices_next_to_empty_elements(self):
        tri = unit_square_mesh()
        basis = ps_basis(ps_refine(tri))
        # particles only inside element 0: element 1 is empty
        pts = np.array([[0.6, 0.3], [0.7, 0.2], [0.8, 0.35], [0.55, 0.1]])
        parts = Particles(pts, np.full(4, 0.05), 1.0)
        parts.loc = basis.locator.locate_many(parts.x)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        op = asm.mass(pts, parts.m, MassMode.PARTIAL)
        marked_vertices = {d // 3 for d in np.nonzero(op.marked)[0]}
        # element 1 = (0, 2, 3): all its vertices are marked; vertex 1 is not
        assert marked_vertices == {0, 2, 3}

    def test_partial_row_replacement_semantics(self):
        basis = square_ps_basis(seed=11)
        pts = np.random.default_rng(1).uniform(0.3, 0.7, size=(30, 2))
        parts = Particles(pts, np.full(30, 1e-3), 2.0)
        parts.loc = basis.locator.locate_many(parts.x)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        op = asm.mass(pts, parts.m, MassMode.PARTIAL)
        assert op.marked.any()
        x = np.random.default_rng(2).normal(size=basis.n_bf)
        y = op.pattern.matrix(op.data) @ x
        op_c = asm.mass(pts, parts.m, MassMode.CONSISTENT)
        y_c = op_c.pattern.matrix(op_c.data) @ x
        unmarked = ~op.marked
        assert_allclose(y[unmarked], y_c[unmarked], atol=1e-14)
        assert_allclose(y[op.marked], op.lumped[op.marked] * x[op.marked],
                        atol=1e-14)


class TestMassProperty:
    @settings(max_examples=15, deadline=None)
    @given(mesh_seed=st.integers(0, 2 ** 16), seed=st.integers(0, 2 ** 16),
           kind=st.sampled_from(["hat", "ps"]), n=st.integers(1, 300))
    def test_total_mass_all_modes(self, mesh_seed, seed, kind, n):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0),
                            seed=mesh_seed)
        basis = hat_basis(tri) if kind == "hat" else ps_basis(ps_refine(tri))
        rng = np.random.default_rng(seed)
        parts = Particles(rng.uniform(0.0, 1.0, size=(n, 2)),
                          rng.uniform(1e-4, 1e-2, n), rng.uniform(1.0, 1e3, n))
        parts.loc = basis.locator.locate_many(parts.x)
        pts = located(basis, parts)
        for mode in MassMode:
            op = GridAssembler(basis).mass(pts, parts.m, mode)
            assert_allclose(op.lumped.sum(), parts.m.sum(), rtol=1e-12)


class TestCellOperator:
    @pytest.mark.parametrize("family", ["hat", "ps"])
    def test_gradient_tables_are_the_basis_tables(self, family):
        # built once, by the basis; the assembler holds the same arrays
        basis = (square_ps_basis() if family == "ps"
                 else hat_basis(unit_square_mesh()))
        asm = GridAssembler(basis)
        assert asm.grad_ops is basis.grad_ops
        assert asm.cell_dofs is basis.cell_dofs

    @pytest.mark.parametrize("family", ["hat", "ps"])
    def test_located_reads_the_locator_eta_without_a_copy(self, family):
        # locate_many's (n, 3) eta is the transpose of a C-ordered (3, n)
        # array, the rows the Bernstein polynomials read, hinted or not
        basis = (square_ps_basis() if family == "ps"
                 else hat_basis(unit_square_mesh()))
        asm, locator = GridAssembler(basis), basis.locator
        pts = np.random.default_rng(5).uniform(0.0, 1.0, size=(40, 2))
        first = locator.locate_many(pts)
        for loc in (first, locator.locate_many(0.99 * pts, hint=first[:2])):
            assert [a.shape for a in loc] == [(40,), (40,), (40, 3)]
            assert np.shares_memory(asm.located(*loc).eta, loc[2])
        # one C-ordered table per map, which _bary takes without a copy
        tables = [locator.elem_inv_cm, locator.cell_inv_cm]
        assert all(t.flags.c_contiguous for t in tables)
        assert np.shares_memory(locator.elem_inv, tables[0])
        assert np.shares_memory(locator.cell_inv, tables[1])
        if family == "ps":
            assert np.shares_memory(basis.ref.sub_inv, tables[1])
            sub, eta = locator.locate_in(first[0], pts)
            assert sub.shape == (40,) and eta.shape == (40, 3)
        dofs, vals, grads = basis.eval_at(pts[0])
        k = basis.element_dofs.shape[1]
        assert (dofs.shape, vals.shape, grads.shape) == ((k,), (k,), (k, 2))

    @pytest.mark.parametrize("family", ["hat", "ps"])
    def test_value_operator_layout(self, family):
        # row p holds the K Bernstein values at columns cell_p K + k, in
        # ascending k, with int32 indices; S_t is the CSC view of its arrays
        basis = (square_ps_basis() if family == "ps"
                 else hat_basis(unit_square_mesh()))
        asm = GridAssembler(basis)
        pts_xy = np.random.default_rng(8).uniform(0.0, 1.0, size=(50, 2))
        loc = basis.locator.locate_many(pts_xy)
        pts = asm.located(*loc)
        k = asm.n_bern
        cell = basis.locator.cell_of(loc[0], loc[1])
        assert isinstance(pts.S, sp.csr_matrix)
        assert pts.S.shape == (50, asm.n_cells * k)
        assert pts.S.indices.dtype == pts.S.indptr.dtype == np.int32
        assert np.array_equal(pts.S.indptr, np.arange(0, 50 * k + 1, k))
        assert np.array_equal(pts.S.indices.reshape(50, k),
                              cell[:, None] * k + np.arange(k))
        assert (pts.S.data.reshape(50, k).tobytes()
                == basis.bernstein(np.ascontiguousarray(loc[2].T)).T.tobytes())
        assert isinstance(pts.S_t, sp.csc_matrix)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(pts.S_t, name),
                                    getattr(pts.S, name))

    def test_mass_pattern_is_built_once(self):
        # every mass matrix of an assembler sits on its one int32 pattern:
        # the union of the element blocks, with a slot on every diagonal
        basis = square_ps_basis()
        asm = GridAssembler(basis)
        rng = np.random.default_rng(3)
        for mode in (MassMode.CONSISTENT, MassMode.PARTIAL):
            parts = Particles(rng.uniform(0.0, 1.0, size=(60, 2)),
                              np.full(60, 1e-3), 1.0)
            parts.loc = basis.locator.locate_many(parts.x)
            op = asm.mass(asm.located(*parts.loc), parts.m, mode)
            m = op.pattern.matrix(op.data)
            assert m.indices.dtype == m.indptr.dtype == np.int32
            assert op.pattern is asm.pattern
            assert np.shares_memory(m.indices, asm.pattern.indices)
            assert np.shares_memory(m.indptr, asm.pattern.indptr)
        ed = basis.element_dofs
        pattern = asm.pattern.matrix(np.ones(len(asm.pattern.indices)))
        blocks = sp.coo_matrix(
            (np.ones(ed.shape[1] ** 2 * len(ed)),
             (np.repeat(ed, ed.shape[1], axis=1).ravel(),
              np.tile(ed, ed.shape[1]).ravel())), shape=pattern.shape)
        assert np.array_equal((blocks.tocsr() > 0).toarray(),
                              pattern.toarray() > 0)
        assert np.array_equal(asm.pattern.indices[asm.pattern.diag_slot],
                              np.arange(basis.n_bf))


# Reference: the sparse particle-dof operator (``Transfer``: CSR ``N``,
# ``Gx``, ``Gy``) that the per-cell Bernstein moments replaced, with all its
# products, fed by basis values and gradients written out per family.
def ref_evaluate(basis, elem, sub, eta):
    if isinstance(basis, HatBasis):
        return basis.element_dofs[elem], eta, basis.locator.elem_inv[elem, :, :2]
    o = basis.sub_ordinates[elem, sub]
    e1, e2, e3 = eta[:, 0], eta[:, 1], eta[:, 2]
    bern = np.stack([e1 * e1, e2 * e2, e3 * e3,
                     2.0 * e1 * e2, 2.0 * e1 * e3, 2.0 * e2 * e3], axis=1)
    db = np.stack([
        2.0 * (o[:, :, 0] * e1[:, None] + o[:, :, 3] * e2[:, None]
               + o[:, :, 4] * e3[:, None]),
        2.0 * (o[:, :, 1] * e2[:, None] + o[:, :, 3] * e1[:, None]
               + o[:, :, 5] * e3[:, None]),
        2.0 * (o[:, :, 2] * e3[:, None] + o[:, :, 4] * e1[:, None]
               + o[:, :, 5] * e2[:, None])], axis=2)
    return (basis.element_dofs[elem], np.matmul(o, bern[:, :, None])[:, :, 0],
            np.matmul(db, basis.ref.sub_inv[elem, sub, :, :2]))


def ref_transfers(basis, parts, mode, body, a_hat, v_hat):
    elem, sub, eta = parts.loc
    dofs, vals, grads = ref_evaluate(basis, elem, sub, eta)
    n, k = dofs.shape

    def op(values):
        return sp.csr_matrix((np.ravel(values), dofs.ravel(),
                              np.arange(0, n * k + 1, k)),
                             shape=(n, basis.n_bf))

    N, Gx, Gy = op(vals), op(grads[:, :, 0]), op(grads[:, :, 1])
    m = parts.m
    lumped = N.T @ m
    matrix = (N.T @ op(m[:, None] * vals)).toarray()
    marked = None
    if mode is MassMode.LUMPED:
        matrix = np.diag(lumped)
    elif mode is MassMode.PARTIAL:
        empty = np.bincount(elem, minlength=basis.tri.n_elements) == 0
        marked = np.zeros(basis.n_bf, dtype=bool)
        marked[basis.element_dofs[empty]] = True
        matrix[marked] = 0.0
        matrix[marked, marked] = lumped[marked]
    stress = parts.V[:, None, None] * parts.sigma
    return {"lumped": lumped, "matrix": matrix, "marked": marked,
            "f_int": Gx.T @ stress[:, 0, :] + Gy.T @ stress[:, 1, :],
            "f_body": N.T @ (m[:, None] * body),
            "momentum": N.T @ (m[:, None] * parts.v),
            "dv": N @ a_hat, "vel": N @ v_hat,
            "grad": np.stack([Gx @ v_hat, Gy @ v_hat], axis=2)}


def summed_magnitudes(basis, parts, body, a_hat, v_hat):
    """Each compared quantity with every factor of every term taken by
    absolute value: extraction entries, Bernstein values, the derivative
    tensor, gradient weights, barycentric gradients and the particle data."""
    elem, sub, eta = parts.loc
    cell = basis.locator.cell_of(elem, sub)
    o = np.abs(basis.cell_ordinates[cell])                   # (n, k, K)
    nabs = np.einsum('pdk,kp->pd', o, np.abs(basis.bernstein(eta.T)))
    dabs = np.einsum('klw,wp,plb->pklb', np.abs(basis.bernstein_derivative),
                     np.abs(basis.gradient_weights(eta.T)),
                     np.abs(basis.locator.cell_inv[cell, :, :2]))
    gabs = np.einsum('pdk,pklb->pdb', o, dabs)               # (n, k, 2)
    full = np.zeros((parts.n, basis.n_bf))
    np.put_along_axis(full, basis.element_dofs[elem], nabs, axis=1)
    gfull = np.zeros((parts.n, basis.n_bf, 2))
    for b in range(2):
        np.put_along_axis(gfull[:, :, b], basis.element_dofs[elem],
                          gabs[:, :, b], axis=1)
    m = parts.m
    lumped = full.T @ m
    vs = parts.V[:, None, None] * np.abs(parts.sigma)
    return {"lumped": lumped,
            "matrix": full.T @ (m[:, None] * full) + np.diag(lumped),
            "f_int": np.einsum('pdb,pba->da', gfull, vs),
            "f_body": full.T @ np.abs(m[:, None] * body),
            "momentum": full.T @ np.abs(m[:, None] * parts.v),
            "dv": full @ np.abs(a_hat), "vel": full @ np.abs(v_hat),
            "grad": np.einsum('pdb,da->pab', gfull, np.abs(v_hat))}


class TestTransfersMatchReference:
    # Both sides sum at most n particle terms per entry, each formed and
    # contracted in at most 32 roundings: each is within
    # (n + 32) eps * magnitude of the exact value (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., section 3.1), so they
    # differ by at most twice that.
    @settings(max_examples=30, deadline=None)
    @given(mesh_seed=st.integers(0, 2 ** 16), seed=st.integers(0, 2 ** 16),
           kind=st.sampled_from(["hat", "ps"]),
           mode=st.sampled_from(list(MassMode)), n=st.integers(1, 300))
    def test_products_match_transfer(self, mesh_seed, seed, kind, mode, n):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0),
                            seed=mesh_seed)
        basis = hat_basis(tri) if kind == "hat" else ps_basis(ps_refine(tri))
        rng = np.random.default_rng(seed)
        parts = Particles(rng.uniform(0.0, 1.0, size=(n, 2)),
                          rng.uniform(1e-4, 1e-2, n), rng.uniform(1.0, 1e3, n))
        parts.loc = basis.locator.locate_many(parts.x)
        parts.v = rng.normal(size=(n, 2))
        parts.sigma = rng.normal(size=(n, 2, 2)) * 1e3
        parts.sigma[:, 1, 0] = parts.sigma[:, 0, 1]
        body = rng.normal(size=(n, 2))
        a_hat, v_hat = rng.normal(size=(2, basis.n_bf, 2))

        asm = GridAssembler(basis)
        pts = asm.located(*parts.loc)
        op = asm.mass(pts, parts.m, mode)
        f_int, f_body = asm.forces(pts, parts, lambda x0, t: body)
        got = {"lumped": op.lumped,
               "matrix": op.pattern.matrix(op.data).toarray(),
               "f_int": f_int, "f_body": f_body,
               "momentum": asm.momentum(pts, parts),
               "dv": asm.values(pts, a_hat), "vel": asm.values(pts, v_hat),
               "grad": asm.gradients(pts, v_hat).transpose(2, 0, 1)}
        want = ref_transfers(basis, parts, mode, body, a_hat, v_hat)
        mags = summed_magnitudes(basis, parts, body, a_hat, v_hat)
        if mode is MassMode.PARTIAL:
            assert np.array_equal(op.marked, want["marked"])
        else:
            assert op.marked is None
        bound = 2.0 * (n + 32) * np.finfo(float).eps
        for key, value in got.items():
            assert np.all(np.abs(value - want[key]) <= bound * mags[key]), key


def ref_gather(cell, weights, table):
    """``sum_r weights[r] * table[..., r, cell]`` per particle: one ``take``
    per table row into an (n,) work buffer, weighted and added in place."""
    table, work = np.ascontiguousarray(table), np.empty(len(cell))
    out = np.zeros(table.shape[:-2] + (len(cell),))
    for idx in np.ndindex(table.shape[:-2]):
        for r, w in enumerate(weights):
            np.take(table[idx + (r,)], cell, out=work)
            work *= w
            out[idx] += work
    return out


class BincountReference:
    """The per-cell transfers written with one ``np.bincount`` per moment
    row and one ``take`` per gathered table row, on the cell tables of an
    assembler: the sums the sparse operators must reproduce to the bit."""

    def __init__(self, asm, pts):
        basis = asm.basis
        self.asm = asm
        self.cell = basis.locator.cell_of(pts.elem, pts.sub)
        self.elem = pts.elem
        self.bern = basis.bernstein(pts.eta)
        self.weights = basis.gradient_weights(pts.eta)

    def moment(self, a, b):                     # per-cell sums of a * b
        return np.bincount(self.cell, weights=a * b,
                           minlength=self.asm.n_cells)

    def to_dofs(self, per_cell):
        asm = self.asm
        return np.column_stack([
            np.bincount(asm.cell_dofs.ravel(), weights=col.ravel(),
                        minlength=asm.n_bf)
            for col in np.moveaxis(per_cell, -1, 0)])

    def project(self, m, w):
        q = np.array([[self.moment(mwa, b) for b in self.bern]
                      for mwa in np.multiply(m, w.T, order="C")])
        return self.to_dofs(self.asm.ords @ q.transpose(2, 1, 0))

    def mass(self, masses, mode):
        asm = self.asm
        pattern = asm.mass_pattern(mode)
        if mode is MassMode.LUMPED:
            b = np.stack([self.moment(masses, r) for r in self.bern], -1)
            lumped = self.to_dofs(asm.ords @ b[..., None])[:, 0]
            return lumped, lumped, None
        k_b = asm.n_bern
        s = np.empty((asm.n_cells, k_b, k_b))
        for k in range(k_b):
            mb = masses * self.bern[k]
            for l in range(k, k_b):
                s[:, k, l] = s[:, l, k] = self.moment(mb, self.bern[l])
        blocks = asm.ords @ s @ asm.ords.transpose(0, 2, 1)
        blocks = blocks.reshape((len(asm.slots), -1) + blocks.shape[1:])
        data = np.bincount(asm.slots.ravel(), blocks.sum(axis=1).ravel(),
                           minlength=len(pattern.indices))
        lumped = np.bincount(pattern.major, data, minlength=asm.n_bf)
        if mode is MassMode.CONSISTENT:
            return lumped, data, None
        empty = np.bincount(self.elem, minlength=len(asm.slots)) == 0
        marked = np.zeros(asm.n_bf, dtype=bool)
        marked[asm.basis.element_dofs[empty]] = True
        data[marked[pattern.major]] = 0.0
        data[pattern.diag_slot[marked]] = lumped[marked]
        return lumped, data, marked

    def forces(self, particles, body):
        asm, n_w = self.asm, len(self.weights)
        t = np.empty((asm.n_cells, n_w, 2, 2))
        for a, b in ((0, 0), (0, 1), (1, 1)):
            vs = particles.V * particles.sigma_cm[a, b]
            for w, row in enumerate(self.weights):
                t[:, w, a, b] = t[:, w, b, a] = self.moment(vs, row)
        f_int = self.to_dofs(asm.grad_ops @ t.reshape(asm.n_cells, 2 * n_w, 2))
        return f_int, self.project(particles.m, body)

    def values(self, coeffs):
        table = self.asm.ords.transpose(0, 2, 1) @ coeffs[self.asm.cell_dofs]
        return np.ascontiguousarray(ref_gather(self.cell, self.bern,
                                               table.T).T)

    def gradients(self, coeffs):
        asm = self.asm
        table = asm.grad_ops.transpose(0, 2, 1) @ coeffs[asm.cell_dofs]
        return ref_gather(self.cell, self.weights,
                          table.reshape(asm.n_cells, -1, 2, 2)
                          .transpose(3, 2, 1, 0))


class TestGatherMatchesPerRowReference:
    @pytest.mark.parametrize("kind", ["hat", "ps"])
    def test_values_and_gradients_bitwise(self, kind):
        system, parts = build_system(mms_plate_spec(kind, 0.25, 16, seed=3))
        system.run(parts, 1)
        asm = system.assembler
        pts = asm.located(*parts.loc)
        ref = BincountReference(asm, pts)
        for c in np.random.default_rng(5).normal(size=(2, asm.n_bf, 2)):
            got, want = asm.values(pts, c), ref.values(c)
            assert got.flags.c_contiguous and got.shape == (parts.n, 2)
            assert got.tobytes() == want.tobytes()
            got, want = asm.gradients(pts, c), ref.gradients(c)
            assert got.shape == want.shape == (2, 2, parts.n)
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def one_cell_points(basis, rng, n):
    """n points strictly inside one cell (a sub-triangle for splines)."""
    e = rng.integers(basis.tri.n_elements)
    if isinstance(basis, HatBasis):
        corners = basis.tri.nodes[basis.tri.elements[e]]
    else:
        corners = basis.ref.sub_coords[e, rng.integers(6)]
    bary = 0.8 * rng.dirichlet(np.ones(3), size=n) + 0.2 / 3
    return bary @ corners


class TestTransfersEqualBincountReference:
    @settings(max_examples=40, deadline=None)
    @given(mesh_kind=st.sampled_from(["jittered", "structured"]),
           mesh_seed=st.integers(0, 2 ** 16), seed=st.integers(0, 2 ** 16),
           kind=st.sampled_from(["hat", "ps"]),
           mode=st.sampled_from(list(MassMode)),
           layout=st.sampled_from(["uniform", "one cell"]),
           n=st.integers(1, 200))
    @example(mesh_kind="jittered", mesh_seed=1, seed=2, kind="ps",
             mode=MassMode.PARTIAL, layout="uniform", n=1)
    @example(mesh_kind="structured", mesh_seed=0, seed=3, kind="hat",
             mode=MassMode.CONSISTENT, layout="one cell", n=50)
    def test_every_transfer_bitwise(self, mesh_kind, mesh_seed, seed, kind,
                                    mode, layout, n):
        # cells without particles on every draw with few particles; all
        # particles in one cell leave every other cell empty
        tri = generate_mesh(mesh_kind, 0.25, (0.0, 0.0, 1.0, 1.0),
                            seed=mesh_seed)
        basis = hat_basis(tri) if kind == "hat" else ps_basis(ps_refine(tri))
        rng = np.random.default_rng(seed)
        x = (rng.uniform(0.0, 1.0, size=(n, 2)) if layout == "uniform"
             else one_cell_points(basis, rng, n))
        parts = Particles(x, rng.uniform(1e-4, 1e-2, n),
                          rng.uniform(1.0, 1e3, n))
        parts.loc = basis.locator.locate_many(parts.x)
        parts.v = rng.normal(size=(n, 2))
        sigma = rng.normal(size=(n, 2, 2)) * 1e3
        parts.sigma = sigma + sigma.transpose(0, 2, 1)
        body = rng.normal(size=(n, 2))
        coeffs = rng.normal(size=(2, basis.n_bf, 2))

        asm = GridAssembler(basis)
        pts = asm.located(*parts.loc)
        ref = BincountReference(asm, pts)
        op = asm.mass(pts, parts.m, mode)
        lumped, data, marked = ref.mass(parts.m, mode)
        f_int, f_body = asm.forces(pts, parts, lambda x0, t: body)
        want_int, want_body = ref.forces(parts, body)
        pairs = [(op.lumped, lumped), (op.data, data), (f_int, want_int),
                 (f_body, want_body),
                 (asm.momentum(pts, parts), ref.project(parts.m, parts.v))]
        for c in coeffs:
            pairs += [(asm.values(pts, c), ref.values(c)),
                      (asm.gradients(pts, c), ref.gradients(c))]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert (op.marked is None if marked is None
                else np.array_equal(op.marked, marked))


class TestForces:
    def test_zero_state_zero_forces(self):
        basis = square_ps_basis()
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=1.0)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        f_int, f_body = asm.forces(pts, parts)
        assert_allclose(f_int, 0.0)
        assert_allclose(f_body, 0.0)

    def test_gravity_sums_to_total_weight(self):
        basis = square_ps_basis(seed=12)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="lattice", nx=7, ny=7),
                               rho0=3.0)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        g = np.broadcast_to([0.0, -9.81], (parts.n, 2))
        _, f_body = asm.forces(pts, parts, lambda x0, t: g)
        assert_allclose(f_body.sum(axis=0), [0.0, -9.81 * parts.m.sum()],
                        rtol=1e-12, atol=1e-12)

    def test_internal_force_single_particle_hand_value(self):
        tri = Triangulation(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                            np.array([[0, 1, 2]]))
        basis = hat_basis(tri)
        parts = Particles(np.array([[0.25, 0.25]]), np.array([0.4]), 1.0)
        parts.sigma[0] = [[7.0, 0.0], [0.0, 0.0]]
        parts.loc = basis.locator.locate_many(parts.x)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        f_int, _ = asm.forces(pts, parts)
        # F_int[x, i] = V * s * dphi_i/dx: gradients are (-1,-1), (1,0), (0,1)
        assert_allclose(f_int[:, 0], [0.4 * 7.0 * -1.0, 0.4 * 7.0, 0.0],
                        atol=1e-14)
        assert_allclose(f_int[:, 1], 0.0, atol=1e-14)


class TestSolves:
    def make(self, mode, seed=13):
        basis = square_ps_basis(seed=seed)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=2.0)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        op = asm.mass(pts, parts.m, mode)
        red = ConstraintReduction(basis.n_bf, [])
        return basis, parts, op, red

    def test_zero_rhs_zero_solution(self):
        for mode in MassMode:
            basis, parts, op, red = self.make(mode)
            x = solve(op, np.zeros(basis.n_bf), red, parts.m.mean())
            assert_allclose(x, 0.0)

    def test_lumped_is_direct_division(self):
        basis, parts, op, red = self.make(MassMode.LUMPED)
        rhs = np.random.default_rng(3).normal(size=basis.n_bf)
        x = solve(op, rhs, red, parts.m.mean())
        ok = op.lumped > 1e-12 * parts.m.mean()
        assert_allclose(x[ok], rhs[ok] / op.lumped[ok], rtol=1e-14)
        assert_allclose(x[~ok], 0.0)

    def test_consistent_residual(self):
        basis, parts, op, red = self.make(MassMode.CONSISTENT)
        m = op.pattern.matrix(op.data)
        rhs = m @ np.random.default_rng(4).normal(size=basis.n_bf)
        x = solve(op, rhs, red, parts.m.mean())
        resid = np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs)
        assert resid < 1e-9

    def test_partial_solves_row_replaced_system(self):
        basis = square_ps_basis(seed=14)
        pts = np.random.default_rng(5).uniform(0.35, 0.65, size=(40, 2))
        parts = Particles(pts, np.full(40, 1e-3), 2.0)
        parts.loc = basis.locator.locate_many(parts.x)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        op = asm.mass(pts, parts.m, MassMode.PARTIAL)
        assert op.marked.any() and not op.marked.all()
        rhs = np.zeros(basis.n_bf)
        active = op.lumped > 1e-12 * parts.m.mean()
        rhs[active] = np.random.default_rng(6).normal(size=int(active.sum()))
        x = solve(op, rhs, ConstraintReduction(basis.n_bf, []),
                  parts.m.mean())
        resid = op.pattern.matrix(op.data) @ x - rhs
        assert np.abs(resid[active]).max() < 1e-8 * max(1.0, np.abs(rhs).max())

    def test_singular_support_raises(self):
        # many active functions supported by a single particle: the
        # consistent system is rank deficient and the solve must fail
        basis = square_ps_basis(seed=15)
        parts = Particles(np.array([[0.52, 0.48]]), np.array([0.1]), 1.0)
        parts.loc = basis.locator.locate_many(parts.x)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        op = asm.mass(pts, parts.m, MassMode.CONSISTENT)
        rhs = np.zeros(basis.n_bf)
        rhs[basis.element_dofs[parts.loc[0][0]]] = 1.0
        with pytest.raises(SolverDiverged, match="solve residual"):
            solve(op, rhs, ConstraintReduction(basis.n_bf, []),
                  parts.m.mean())
        # the check is per component: stacked under a consistent momentum
        # projection 1e12 times its size, the same inconsistent right-hand
        # side still fails and is named, though one norm over both
        # components would read about 1e-11 and pass
        parts.v[:] = [0.3, -0.2]
        consistent = asm.momentum(pts, parts)[:, 1]
        scale = 1e-12 * np.linalg.norm(consistent) / np.linalg.norm(rhs)
        with pytest.raises(SolverDiverged, match=r"solve\[0\];"):
            solve(op, np.concatenate([scale * rhs, consistent]),
                  ConstraintReduction(2 * basis.n_bf, []), parts.m.mean())

    def test_diagonal_ratio_checks_consistent_rows_only(self):
        # three particles hug the edge y = 0 of element 0 = (0, 1, 2), where
        # the hat of vertex 2 = (1, 1) equals y: its diagonal is ~1e-9 of
        # the others
        basis = hat_basis(unit_square_mesh())
        pts = np.array([[0.3, 1e-5], [0.6, 1e-5], [0.9, 2e-5]])
        parts = Particles(pts, np.full(3, 0.1), 1.0)
        parts.loc = basis.locator.locate_many(parts.x)
        pts = located(basis, parts)
        asm = GridAssembler(basis)
        red = ConstraintReduction(basis.n_bf, [])
        rhs = np.ones(basis.n_bf)
        op = asm.mass(pts, parts.m, MassMode.CONSISTENT)
        with pytest.raises(SolverDiverged, match="diagonal ratio"):
            solve(op, rhs, red, parts.m.mean())
        # element 1 is empty: partial mode lumps vertex 2's row and checks
        # vertex 1's alone; lumped mode checks no row
        op = asm.mass(pts, parts.m, MassMode.PARTIAL)
        assert op.marked.tolist() == [True, False, True, True]
        assert np.isfinite(solve(op, rhs, red, parts.m.mean())).all()
        op = asm.mass(pts, parts.m, MassMode.LUMPED)
        assert np.isfinite(solve(op, rhs, red, parts.m.mean())).all()

    def test_undersampled_projection_is_solved(self):
        # a 10 x 10 lattice leaves three particles in each corner element:
        # some spline combinations vanish at every particle, so the
        # consistent matrix is singular, yet a momentum projection has a
        # solution, and for a linear field it is exact at the particles
        basis = square_ps_basis(seed=16)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="lattice", nx=10, ny=10),
                               rho0=4.0)
        parts.v = np.column_stack([0.3 * parts.x[:, 0] - 0.1,
                                   0.2 * parts.x[:, 1] + 0.5 * parts.x[:, 0]])
        pts = located(basis, parts)
        asm = GridAssembler(basis)
        op = asm.mass(pts, parts.m, MassMode.CONSISTENT)
        eig = np.linalg.eigvalsh(op.pattern.matrix(op.data).toarray())
        assert eig[0] < 1e-14 * eig[-1]
        momentum = asm.momentum(pts, parts)
        red = ConstraintReduction(basis.n_bf, [])
        v_hat = np.column_stack([
            solve(op, momentum[:, k], red, parts.m.mean())
            for k in range(2)])
        assert_allclose(asm.values(pts, v_hat), parts.v, rtol=0, atol=1e-10)


def marked_dofs(basis, mode, empty):
    """The rows a mass mode lumps, given the particle-free elements."""
    marked = np.full(basis.n_bf, mode is MassMode.LUMPED)
    if mode is MassMode.PARTIAL:
        marked[np.unique(basis.element_dofs[empty])] = True
    return marked


def element_subset(basis, rng, drop):
    """(kept, particles): the ppe = 16 particles of a random subset of the
    elements, each dropped with probability ``drop``; at least one is."""
    kept = rng.random(basis.tri.n_elements) > drop
    kept[rng.integers(basis.tri.n_elements)] = False
    full = init_particles(basis.locator,
                          ParticleLayout(kind="ppe", ppe=16), rho0=1.0)
    keep = kept[full.loc[0]]
    parts = Particles(full.x[keep], full.V[keep], 1.0)
    parts.loc = tuple(a[keep] for a in full.loc)
    return kept, parts


def dense_reduced_solve(basis, parts, marked, red, rhs):
    """Dense oracle of ``solve_grid``: the row-replaced matrix, reduced,
    solved on the unknowns whose diagonal exceeds the zero-mass tolerance."""
    dofs, vals, _ = basis.evaluate_located(*parts.loc)
    n_mat = np.zeros((parts.n, basis.n_bf))
    np.put_along_axis(n_mat, dofs, vals, axis=1)
    consistent = n_mat.T @ (parts.m[:, None] * n_mat)
    lumped = consistent.sum(axis=1)
    effective = np.where(marked[:, None], np.diag(lumped), consistent)
    p = red.P.toarray()                     # stacked components share M
    effective = np.kron(np.eye(len(p) // basis.n_bf), effective)
    a = p.T @ effective @ p
    active = np.diag(a) > 1e-12 * parts.m.mean()
    x = np.zeros(p.shape[1])
    x[active] = np.linalg.solve(a[np.ix_(active, active)],
                                (p.T @ rhs)[active])
    return p @ x


class TestSolveProperty:
    @settings(max_examples=30, deadline=None)
    @given(mesh_seed=st.integers(0, 7), subset_seed=st.integers(0, 2 ** 32 - 1),
           mode=st.sampled_from(list(MassMode)), comp=st.sampled_from((0, 1)))
    def test_matches_dense_reduced_solve(self, mesh_seed, subset_seed, mode,
                                         comp):
        basis = cached_ps_basis(mesh_seed)
        tri = basis.tri
        rng = np.random.default_rng(subset_seed)
        kept, parts = element_subset(basis, rng, 0.3)
        pts = located(basis, parts)
        op = GridAssembler(basis).mass(pts, parts.m, mode)
        rows = basis.constraint_rows(rectangle_constraints(tri, PLATE_SIDES))
        red = ConstraintReduction(basis.n_bf, rows[comp])
        rhs = rng.normal(size=basis.n_bf)
        got = solve(op, rhs, red, parts.m.mean())

        marked = marked_dofs(basis, mode, ~kept)
        if mode is MassMode.PARTIAL:
            assert np.array_equal(op.marked, marked)
        want = dense_reduced_solve(basis, parts, marked, red, rhs)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @settings(max_examples=30, deadline=None)
    @given(mesh_seed=st.integers(0, 7), subset_seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["hat", "ps"]),
           mode=st.sampled_from(list(MassMode)), drop=st.floats(0.1, 0.8))
    def test_two_block_solve_equals_two_one_block_solves(
            self, mesh_seed, subset_seed, kind, mode, drop):
        basis = (cached_hat_basis if kind == "hat" else cached_ps_basis)(
            mesh_seed)
        rng = np.random.default_rng(subset_seed)
        _, parts = element_subset(basis, rng, drop)
        op = GridAssembler(basis).mass(located(basis, parts), parts.m, mode)
        constraints = rectangle_constraints(basis.tri, PLATE_SIDES)
        system = MpmSystem(basis, MaterialModel("linear-elastic", 1.0, 0.3),
                           dt=1e-3, mass_mode=mode, constraints=constraints)
        rows = basis.constraint_rows(constraints)
        tol = mpm_core.ZERO_MASS_REL_TOL * parts.m.mean()
        rhs = rng.normal(size=(basis.n_bf, 2))
        got = system._solve(system.solver.factorise(op, tol), rhs, "")
        eps = np.finfo(float).eps
        for k in (0, 1):
            solver = GridSolver(op.pattern,
                                ConstraintReduction(basis.n_bf, rows[k]))
            active, a, _ = factor = solver.factorise(op, tol)
            want = solve_grid(solver, factor, rhs[:, k])
            # Both answers solve the same active block by partially pivoted
            # LU, in different elimination orders, and summing A's entries
            # in different orders perturbs A by a few eps.  Each is then
            # within cond(A) 3 n eps |x| of the exact solution (Higham,
            # Theorem 9.4, with pivot growth near 1 on these diagonally
            # dominated blocks), so they differ by at most twice that.
            cond = np.linalg.cond(a.toarray()[np.ix_(active, active)]) \
                if active.any() else 1.0
            bound = 6 * active.sum() * eps * cond * np.abs(want).max()
            assert np.abs(got[:, k] - want).max() <= bound


@lru_cache(maxsize=None)
def cached_hat_basis(seed):
    return hat_basis(generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0),
                                   seed=seed))


def momentum_ledger(basis, subset_seed, mode, n_steps=3):
    """Steps of a system with no constraint and no body force, on the
    particles of a random element subset (at least one element empty) with
    random velocities and deformations; one ``(dP, predicted, bound)``
    triple of (2,) arrays per step.

    The kick changes ``P = sum m v`` by ``dt sum_i lumped_i a_i``: the
    particles see the lumped masses ``sum_p m_p N_i(x_p)``.  The solve
    makes ``M_eff a = f`` with ``sum_i f_i = 0`` (the gradients of a
    partition of unity sum to zero), so ``dP = dt (lumped - M_eff^T 1)^T a``
    (``predicted``).  That is zero in consistent mode, where M is
    symmetric, and in lumped mode, where it is ``diag(lumped)``; partial
    mode replaces rows, which keeps their row sums but not the column sums.

    ``bound`` is the rounding of both sides.  Each velocity update rounds
    by at most ``eps/2 |v|``, and each ``fsum`` total by ``eps/2 |P|``:
    ``2 eps sum m |v|`` covers both.  The grid side sums ``n_bf`` terms that
    each carry a few ``eps`` of relative error, so by the recursive
    summation bound it is off by at most ``n_bf eps`` times their absolute
    sum ``dt sum_i (lumped_i + colsum_i) |a_i|``, which also bounds
    ``dt sum_i |f_i|`` because ``M_eff`` has no negative entry.
    """
    rng = np.random.default_rng(subset_seed)
    _, parts = element_subset(basis, rng, 0.3)
    mat = MaterialModel("linear-elastic", E=1.0, nu=0.3)
    parts.v = 0.01 * rng.normal(size=(parts.n, 2))
    parts.D = np.eye(2) + 0.01 * rng.normal(size=(parts.n, 2, 2))
    parts.J = np.linalg.det(parts.D)
    parts.sigma_cm = mat.stress(parts.D_cm, parts.J)
    system = MpmSystem(basis, mat, dt=1e-3, mass_mode=mode)
    eps, dt = np.finfo(float).eps, system.dt

    def total(w):
        return np.array([math.fsum(parts.m * w[:, k]) for k in (0, 1)])

    ledger = []
    for i in range(n_steps):
        # the kick's terms, from the calls the step makes on the same state
        pts = system.assembler.located(*parts.loc)
        op = system.assembler.mass(pts, parts.m, mode)
        f_int, _ = system.assembler.forces(pts, parts)
        a = system._solve(system._factorise(pts, parts), -f_int, "a")
        colsum = np.bincount(op.pattern.indices, op.data,
                             minlength=basis.n_bf)
        p0 = total(parts.v)
        system.step(parts, i * dt)
        grid = dt * (op.lumped + colsum) @ np.abs(a)
        ledger.append((total(parts.v) - p0, dt * (op.lumped - colsum) @ a,
                       eps * (2.0 * total(np.abs(parts.v))
                              + basis.n_bf * grid)))
    return ledger


class TestMomentumLedger:
    """What each mass mode conserves of ``sum m v`` without forces or
    constraints; see ``momentum_ledger`` for the prediction and bound."""

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["hat", "ps"]), mesh_seed=st.integers(0, 7),
           subset_seed=st.integers(0, 2 ** 32 - 1),
           mode=st.sampled_from([MassMode.CONSISTENT, MassMode.LUMPED]))
    def test_consistent_and_lumped_keep_momentum(self, kind, mesh_seed,
                                                 subset_seed, mode):
        basis = (cached_hat_basis if kind == "hat" else cached_ps_basis)(
            mesh_seed)
        for d_p, _, bound in momentum_ledger(basis, subset_seed, mode):
            assert np.all(np.abs(d_p) <= bound)

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["hat", "ps"]), mesh_seed=st.integers(0, 7),
           subset_seed=st.integers(0, 2 ** 32 - 1))
    @example(kind="hat", mesh_seed=5, subset_seed=2 ** 32 - 1)
    def test_partial_moves_momentum_by_the_column_sum_defect(
            self, kind, mesh_seed, subset_seed):
        basis = (cached_hat_basis if kind == "hat" else cached_ps_basis)(
            mesh_seed)
        drift = 0.0
        for d_p, predicted, bound in momentum_ledger(
                basis, subset_seed, MassMode.PARTIAL):
            assert np.all(np.abs(d_p - predicted) <= bound)
            drift = max(drift, float(np.max(np.abs(predicted) / bound)))
        # A replaced row i and a kept row j that share a particle-filled
        # element put M_ij into one column sum but not the other: the
        # defect is physics of the mode, far above rounding.  Where every
        # filled element has only replaced rows (the example above),
        # M_eff is diag(lumped) and the defect is exactly zero.
        kept, _ = element_subset(basis, np.random.default_rng(subset_seed),
                                 0.3)
        dofs = basis.element_dofs
        marked = np.zeros(basis.n_bf, dtype=bool)
        marked[dofs[~kept]] = True
        filled = marked[dofs[kept]]
        if np.any(filled != filled[:, :1]):
            assert drift > 1e3
        else:
            assert drift == 0.0


class TestReducedPattern:
    """A ``GridSolver``'s map of ``P^T M P`` and the active set it yields."""

    @settings(max_examples=30, deadline=None)
    @given(mesh_seed=st.integers(0, 7), subset_seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["hat", "ps"]),
           mode=st.sampled_from(list(MassMode)), comp=st.sampled_from((0, 1)),
           drop=st.floats(0.1, 0.8))
    def test_map_matches_dense_triple_product(self, mesh_seed, subset_seed,
                                              kind, mode, comp, drop):
        basis = (cached_hat_basis if kind == "hat" else cached_ps_basis)(
            mesh_seed)
        tri = basis.tri
        rng = np.random.default_rng(subset_seed)
        _, parts = element_subset(basis, rng, drop)
        op = GridAssembler(basis).mass(located(basis, parts), parts.m, mode)
        rows = basis.constraint_rows(rectangle_constraints(tri, PLATE_SIDES))
        red = ConstraintReduction(basis.n_bf, rows[comp])

        solver = GridSolver(op.pattern, red)
        got = solver.pattern.matrix(solver.R @ op.data).toarray()
        p, m = red.P.toarray(), op.pattern.matrix(op.data).toarray()
        want = p.T @ m @ p
        # recursive summation (Higham, section 3.1) on both sides: no entry
        # sums more than 2 n_bf rounded products
        bound = 2 * (2 * basis.n_bf + 2) * np.finfo(float).eps * (
            np.abs(p).T @ np.abs(m) @ np.abs(p))
        assert np.all(np.abs(got - want) <= bound)

        tol = mpm_core.ZERO_MASS_REL_TOL * parts.m.mean()
        factor = solver.factorise(op, tol)
        assert np.array_equal(factor[0], np.diag(got) > tol)
        x = solve_grid(solver, factor, rng.normal(size=basis.n_bf))
        dead = np.abs(red.P) @ factor[0] == 0   # dofs of inactive unknowns
        assert np.all(x[dead] == 0.0)

    @pytest.mark.parametrize("kind", ["hat", "ps"])
    @pytest.mark.parametrize("mode", list(MassMode))
    def test_maps_built_once_and_follow_active_set(self, kind, mode,
                                                   monkeypatch):
        basis = (cached_hat_basis if kind == "hat" else cached_ps_basis)(3)
        tri = basis.tri
        mat = MaterialModel("linear-elastic", E=100.0, nu=0.1)
        system = MpmSystem(basis, mat, dt=1e-3, mass_mode=mode,
                           constraints=rectangle_constraints(tri, PLATE_SIDES))
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=16), rho0=1.0)
        parts.v = 0.01 * np.sin(np.pi * parts.x)
        asm = system.assembler
        tol = mpm_core.ZERO_MASS_REL_TOL * parts.m.mean()
        built = []

        class Counting(GridSolver):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(mpm_core, "GridSolver", Counting)

        def mass_op():
            return asm.mass(asm.located(*parts.loc), parts.m, mode)

        solver = system.solver
        system.step(parts, 0.0)
        assert solver.factorise(mass_op(), tol)[0].all()

        # empty the elements around the vertex nearest the centre: its
        # functions lose every particle and their unknowns turn inactive
        centre = int(np.argmin(np.linalg.norm(tri.nodes - 0.5, axis=1)))
        emptied = np.any(tri.elements == centre, axis=1)
        moved = emptied[parts.loc[0]]
        parts.x[moved] = np.random.default_rng(4).uniform(
            0.02, 0.2, size=(int(moved.sum()), 2))
        parts.loc = basis.locator.locate_many(parts.x)
        for i in range(1, 4):
            system.step(parts, i * system.dt)
        assert not built
        assert system.solver is solver

        op = mass_op()
        assert op.pattern is asm.mass_pattern(mode)
        empty = np.bincount(parts.loc[0], minlength=tri.n_elements) == 0
        assert empty[emptied].all()
        factor = solver.factorise(op, tol)
        assert not factor[0].all()
        rhs = np.random.default_rng(5).normal(size=2 * basis.n_bf)
        got = solve_grid(solver, factor, rhs)
        want = dense_reduced_solve(basis, parts,
                                   marked_dofs(basis, mode, empty),
                                   solver.reduction, rhs)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


class TestConstraintReduction:
    def test_full_block_pin(self):
        rows = [(np.array([3, 4, 5]), np.array([1.0, 0.0, 0.0])),
                (np.array([3, 4, 5]), np.array([0.0, 1.0, 0.0])),
                (np.array([3, 4, 5]), np.array([0.0, 0.0, 1.0]))]
        red = ConstraintReduction(9, rows)
        assert red.P.shape[1] == 6
        assert set(red.free_dofs) == {0, 1, 2, 6, 7, 8}

    def test_solution_satisfies_constraints(self):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=(2, 3))
        rows = [(np.array([1, 2, 3]), coeffs[0]),
                (np.array([1, 2, 3]), coeffs[1])]
        red = ConstraintReduction(6, rows)
        assert red.P.shape[1] == 4
        for _ in range(5):
            c = red.P @ rng.normal(size=red.P.shape[1])
            assert abs(np.dot(coeffs[0], c[1:4])) < 1e-12
            assert abs(np.dot(coeffs[1], c[1:4])) < 1e-12


# The particle arrays a step updates in place.
STEP_STATE = ("x", "u", "v", "D_cm", "J", "sigma_cm", "V", "rho")


def step_state(parts):
    """The arrays a step writes: ``STEP_STATE`` and the location ``loc``."""
    return [getattr(parts, k) for k in STEP_STATE] + list(parts.loc)


class TestStepContracts:
    def make_system(self, mode=MassMode.CONSISTENT, basis=None):
        basis = basis or square_ps_basis(seed=16)
        mat = MaterialModel("linear-elastic", E=100.0, nu=0.1)
        system = MpmSystem(basis, mat, dt=1e-3, mass_mode=mode)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="lattice", nx=10, ny=10),
                               rho0=4.0)
        return system, parts

    def test_quiescent_fixed_point(self):
        system, parts = self.make_system()
        m0 = parts.total_mass()
        for i in range(100):
            system.step(parts, i * system.dt)
        assert np.abs(parts.u).max() < 1e-12
        assert np.abs(parts.v).max() < 1e-12
        assert parts.total_mass() == m0

    def test_rigid_translation_all_modes_and_bases(self):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=17)
        for make in (lambda: hat_basis(tri), lambda: ps_basis(ps_refine(tri))):
            for mode in MassMode:
                basis = make()
                mat = MaterialModel("linear-elastic", E=100.0, nu=0.0)
                system = MpmSystem(basis, mat, dt=1e-3, mass_mode=mode)
                parts = init_particles(
                    basis.locator, ParticleLayout(kind="ppe", ppe=4), rho0=1.0)
                parts.v[:] = [0.4, -0.3]
                x0 = parts.x.copy()
                system.step(parts, 0.0)
                assert_allclose(parts.x - x0,
                                np.broadcast_to([0.4e-3, -0.3e-3], (parts.n, 2)),
                                atol=1e-10)

    def test_momentum_of_projection_consistent(self):
        system, parts = self.make_system(MassMode.CONSISTENT)
        rng = np.random.default_rng(8)
        parts.v = rng.normal(size=(parts.n, 2))
        pts = located(system.basis, parts)
        momentum = system.assembler.momentum(pts, parts)
        target = (parts.m[:, None] * parts.v).sum(axis=0)
        assert_allclose(momentum.sum(axis=0), target, rtol=1e-10)
        op = system.assembler.mass(pts, parts.m, MassMode.CONSISTENT)
        v_hat = np.column_stack([
            solve(op, momentum[:, k],
                  ConstraintReduction(system.basis.n_bf, []), parts.m.mean())
            for k in range(2)])
        assert_allclose((op.pattern.matrix(op.data) @ v_hat).sum(axis=0),
                        target, rtol=1e-8)

    def test_one_factorisation_per_step(self, monkeypatch):
        calls = []
        splu = mpm_core.spla.splu

        def counting(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(mpm_core.spla, "splu", counting)
        for mode in MassMode:
            system, parts = self.make_system(mode)
            parts.v[:, 0] = 0.3 * parts.x[:, 0]
            calls.clear()
            system.step(parts, 0.0)
            assert len(calls) == 1, mode

    def test_deformation_volume_density_updates(self):
        system, parts = self.make_system()
        # spatially linear velocity field: v_x = 0.3 x -> eps_xx = 0.3
        parts.v[:, 0] = 0.3 * parts.x[:, 0]
        system.step(parts, 0.0)
        assert np.abs(parts.D[:, 0, 0] - (1.0 + 0.3 * system.dt)).max() < 1e-4
        assert_allclose(parts.V, parts.J * parts.V0, rtol=1e-14)
        assert_allclose(parts.rho * parts.V, parts.m, rtol=1e-14)

    def test_mass_conserved_over_long_run(self):
        tri = generate_mesh("structured", 0.5, (0.0, 0.0, 1.0, 1.0))
        basis = ps_basis(ps_refine(tri))
        mat = MaterialModel("linear-elastic", E=50.0, nu=0.0)
        constraints = []
        system = MpmSystem(basis, mat, dt=2e-3, mass_mode=MassMode.LUMPED,
                           constraints=constraints)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=25.0)
        parts.v[:, 0] = 0.05 * np.sin(np.pi * parts.x0[:, 0])
        m0 = parts.m.copy()
        for i in range(1000):
            system.step(parts, i * system.dt)
        assert np.array_equal(parts.m, m0)   # bitwise: mass never touched
        assert_allclose(parts.rho * parts.V, parts.m, rtol=1e-12)

    def test_step_is_composition_of_updates(self):
        # step() must equal the hand-rolled sequence of the update ops
        basis = square_ps_basis(seed=18)
        mat = MaterialModel("neo-hookean", E=1e4, nu=0.2)
        system = MpmSystem(basis, mat, dt=5e-4, mass_mode=MassMode.CONSISTENT)
        parts_a = init_particles(basis.locator,
                                 ParticleLayout(kind="ppe", ppe=4), rho0=10.0)
        rng = np.random.default_rng(9)
        parts_a.v = 0.01 * rng.normal(size=(parts_a.n, 2))
        parts_b = init_particles(basis.locator,
                                 ParticleLayout(kind="ppe", ppe=4), rho0=10.0)
        parts_b.v = parts_a.v.copy()

        system.step(parts_a, 0.0)

        dofs, vals, grads = basis.evaluate_located(*parts_b.loc)
        pts = system.assembler.located(*parts_b.loc)
        op = system.assembler.mass(pts, parts_b.m, MassMode.CONSISTENT)
        f_int, f_body = system.assembler.forces(pts, parts_b)
        rhs = f_body - f_int
        red = system.solver.reduction        # both components, stacked
        a_hat = solve(op, rhs.T.ravel(), red,
                      parts_b.m.mean()).reshape(2, -1).T
        parts_b.v += system.dt * np.einsum('pf,pfk->pk', vals, a_hat[dofs])
        momentum = system.assembler.momentum(pts, parts_b)
        v_hat = solve(op, momentum.T.ravel(), red,
                      parts_b.m.mean()).reshape(2, -1).T
        grad_v = np.einsum('pfk,pfl->pkl', v_hat[dofs], grads)
        eps = 0.5 * (grad_v + np.swapaxes(grad_v, 1, 2))
        eye = np.tile(np.eye(2), (parts_b.n, 1, 1))
        parts_b.D = np.einsum('pij,pjk->pik', eye + system.dt * eps, parts_b.D)
        parts_b.J = np.linalg.det(parts_b.D)
        parts_b.sigma = system.material.stress(
            parts_b.D.transpose(1, 2, 0), parts_b.J).transpose(2, 0, 1)
        parts_b.V = parts_b.J * parts_b.V0
        parts_b.rho = parts_b.m / parts_b.V
        vel = np.einsum('pf,pfk->pk', vals, v_hat[dofs])
        parts_b.x = parts_b.x + system.dt * vel
        parts_b.u = parts_b.u + system.dt * vel

        assert_allclose(parts_a.x, parts_b.x, atol=1e-15)
        assert_allclose(parts_a.v, parts_b.v, atol=1e-15)
        assert_allclose(parts_a.sigma, parts_b.sigma, atol=1e-12)
        assert_allclose(parts_a.D, parts_b.D, atol=1e-15)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2 ** 16))
    def test_spline_plate_reruns_bitwise(self, seed):
        states = []
        for _ in range(2):
            system, parts = build_system(mms_plate_spec("ps", 0.25, 16, seed))
            system.run(parts, 4)
            states.append([a.tobytes() for a in (
                parts.x, parts.u, parts.v, parts.D, parts.J, parts.sigma,
                parts.V, parts.rho, *parts.loc)])
        assert states[0] == states[1]

    def test_nonpositive_jacobian_detected(self):
        basis = square_ps_basis(seed=19)
        mat = MaterialModel("linear-elastic", E=1.0, nu=0.0)
        system = MpmSystem(basis, mat, dt=1.0, mass_mode=MassMode.LUMPED)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=1.0)
        # strong compression field: eps_xx * dt < -1 flips the Jacobian
        parts.v[:, 0] = -2.0 * (parts.x[:, 0] - 0.5)
        with pytest.raises((NonPositiveJacobian, ParticleLeftDomain)):
            system.step(parts, 0.0)

    def test_nonpositive_jacobian_leaves_stress_volume_density(self):
        # D and J are written before the check; sigma, V and rho are not
        basis = square_ps_basis(seed=19)
        mat = MaterialModel("linear-elastic", E=1.0, nu=0.0)
        system = MpmSystem(basis, mat, dt=1.0, mass_mode=MassMode.LUMPED)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=1.0)
        parts.v[:, 0] = -2.0 * (parts.x[:, 0] - 0.5)
        before = {k: getattr(parts, k).copy() for k in STEP_STATE}
        with pytest.raises(NonPositiveJacobian):
            system.step(parts, 0.0)
        assert (parts.J <= 0.0).any()
        for k in ("D_cm", "J"):
            assert not np.array_equal(getattr(parts, k), before[k]), k
        for k in ("x", "u", "sigma_cm", "V", "rho"):
            assert getattr(parts, k).tobytes() == before[k].tobytes(), k

    def test_strain_increment_failure_writes_no_deformation(self):
        system, parts = self.make_system()
        parts.v[:, 0] = 600.0 * (parts.x[:, 0] - 0.5)
        before = {k: getattr(parts, k).copy() for k in STEP_STATE}
        with pytest.raises(SolverDiverged, match="strain-increment"):
            system.step(parts, 0.5)
        for k in ("x", "u", "D_cm", "J", "sigma_cm", "V", "rho"):
            assert getattr(parts, k).tobytes() == before[k].tobytes(), k

    def test_velocity_kick_check_reports_value_threshold_and_time(self):
        system, parts = self.make_system()
        # a uniform body force is reproduced exactly: every kick is dt * 1e6
        system.body_force = lambda x0, t: np.tile([1e6, 0.0], (len(x0), 1))
        limit = 10.0 * system.material.wave_speed(4.0)
        with pytest.raises(SolverDiverged) as err:
            system.step(parts, 0.25)
        msg = str(err.value)
        assert msg.startswith("velocity-kick check at t=0.25:")
        assert "by 1e+03 m/s" in msg
        assert f"threshold {limit:.3g} m/s" in msg

    def test_strain_increment_check_reports_value_threshold_and_time(self):
        system, parts = self.make_system()
        # a linear velocity field is projected exactly: dt * 600 = 0.6
        parts.v[:, 0] = 600.0 * (parts.x[:, 0] - 0.5)
        with pytest.raises(SolverDiverged) as err:
            system.step(parts, 0.5)
        msg = str(err.value)
        assert msg.startswith("strain-increment check at t=0.5:")
        assert "strain increment of 0.6," in msg
        assert "threshold 0.5" in msg

    def test_run_reports_failing_step_and_start_time(self):
        # a step called on its own raises without run's context
        system, parts = self.make_system()
        parts.v[:, 0] = 600.0 * (parts.x[:, 0] - 0.5)
        with pytest.raises(SolverDiverged) as err:
            system.step(parts, 0.5)
        assert err.value.step is None and err.value.t is None
        # the consistent soil column diverges partway through its run
        system, parts = build_system(soil_column_spec(MassMode.CONSISTENT))
        ends = []
        with pytest.raises(SolverDiverged) as err:
            system.run(parts, 100, on_step=lambda i, t, p: ends.append(t))
        assert len(ends) > 10
        assert err.value.step == len(ends) + 1
        assert err.value.t == ends[-1] == len(ends) * system.dt

    @pytest.mark.parametrize("kind", ["hat", "ps"])
    def test_stepped_positions_locate_as_fresh_ones(self, kind):
        # a step's hinted location of the positions it moved must be the
        # full search's to the bit, which needs C-ordered positions (numpy
        # lays out a C-plus-F sum in F order only for large arrays, hence
        # 32 761 particles)
        system, parts = build_system(mms_plate_spec(kind, 0.25, 1024, seed=7))
        for i in range(3):
            system.step(parts, i * system.dt)
            assert parts.x.flags.c_contiguous and parts.u.flags.c_contiguous
            fresh = system.basis.locator.locate_many(parts.x)
            for got, want in zip(parts.loc, fresh):
                assert got.tobytes() == want.tobytes()

    def test_step_start_locate_check_names_particle(self):
        system, parts = self.make_system()
        parts.x[7] = [1.5, 0.5]
        parts.loc = None
        with pytest.raises(ParticleOutsideMesh) as err:
            system.step(parts, 0.25)
        msg = str(err.value)
        assert msg.startswith("particle 7 at (")
        assert msg.endswith("is outside the mesh at step start (t=0.25)")
        assert "1.5" in msg

    def test_locate_messages_print_plain_floats(self):
        # numpy 2 prints a tuple of array scalars as (np.float64(1.5), ...)
        basis = square_ps_basis(seed=16)
        with pytest.raises(ParticleOutsideMesh) as init:
            init_particles(basis.locator, ParticleLayout(
                kind="lattice", nx=2, ny=1, domain=(0.0, 0.0, 3.0, 1.0)),
                rho0=1.0)
        system, parts = self.make_system(MassMode.LUMPED, basis)
        parts.x[7], parts.loc = [1.5, 0.5], None
        with pytest.raises(ParticleOutsideMesh) as start:
            system.step(parts, 0.25)
        system, parts = self.make_system(MassMode.LUMPED, basis)
        parts.v[:] = [100.0, 0.0]    # the right column leaves in one step
        with pytest.raises(ParticleLeftDomain) as left:
            system.step(parts, 0.0)
        with pytest.raises(OutsideDomain) as point:
            basis.eval_at((3.0, 3.0))
        msgs = [str(err.value) for err in (init, start, left, point)]
        assert "at (2.25, 0.5) is outside the mesh" in msgs[0]
        assert "at (1.5, 0.5) is outside the mesh at step start" in msgs[1]
        assert re.search(r"\(position \([0-9.e-]+, [0-9.e-]+\)\)$", msgs[2])
        assert "point (3.0, 3.0) is outside the mesh" in msgs[3]
        assert not any("float64" in m for m in msgs)

    def test_particle_exit_aborts(self):
        basis = square_ps_basis(seed=20)
        mat = MaterialModel("linear-elastic", E=1e3, nu=0.0)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=1.0)
        parts.v[:] = [50.0, 0.0]     # leaves the unit square in one step
        system = MpmSystem(basis, mat, dt=1e-2, mass_mode=MassMode.LUMPED)
        with pytest.raises(ParticleLeftDomain):
            system.step(parts, 0.0)


def gathering_bary(inv, cell, x, y):
    """``mesh._bary`` as it was: one (3, 3, ...) gather of the whole map."""
    a = np.take(inv, cell, axis=2, mode="clip")
    eta = a[:, 0] * x
    eta += a[:, 2]
    eta += np.multiply(a[:, 1], y, out=a[:, 1])
    eta += 0.0
    return eta


def traced_step(kind):
    """(particles, traced peak, traced memory left) of the third step of the
    h = 1/8, 256 ppe plate; the arrays that exist before it are untraced,
    so the two counts are what the step allocates."""
    system, parts = build_system(mms_plate_spec(kind, 1 / 8, 256, seed=1))
    system.run(parts, 2)
    tracemalloc.start()
    try:
        system.step(parts, 2 * system.dt)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return parts, peak, kept


class TestStepWorkingSet:
    """What one step holds, counted in particle rows of n floats.

    The particle state is updated in place, so a step's allocations are its
    temporaries and the new ``loc``.  A particle-cell operator with W
    entries per particle holds W data rows, W/2 rows of int32 column
    indices and half a row of int32 row pointers.  The value operator
    (K = 6 Bernstein values for splines, 3 for hats) lives from the
    relocation until the new velocities are read; the gradient operator
    (W = 3 gradient weights for splines, 1 for hats) is built for the
    internal force and again for the velocity gradient, and freed after
    each; the Bernstein values are filled in chunks of particles.  The
    step peaks in one of three phases: the internal force (both operators
    and one row of ``V sigma_ab``), the manufactured forcing (the value
    operator and the forcing's five rows) or the deform phase (the new
    velocities, the velocity gradient, the rows of ``I + dt eps`` and the
    scratch pair of ``deformation_update``).  Grid-sized arrays (moments,
    mass operator, reduced matrix, coefficients) add under a row for
    splines at this size and 0.05 rows for hats.
    """

    OPERATORS = {"ps": (6, 3), "hat": (3, 1)}       # (K, W)
    STRESS_ROW = 1
    FORCING = 5
    DEFORM = {"velocities": 2, "velocity gradient": 4, "I + dt eps": 3,
              "scratch pair": 2}
    GRID = {"ps": 1.0, "hat": 0.5}
    LOC = {"elem": 1, "sub": 1, "eta": 3}

    @staticmethod
    def operator_rows(w):
        return w + w / 2 + 0.5

    def bound(self, kind):
        value, gradient = map(self.operator_rows, self.OPERATORS[kind])
        phases = (value + gradient + self.STRESS_ROW, value + self.FORCING,
                  sum(self.DEFORM.values()))
        return max(phases) + self.GRID[kind]

    @pytest.mark.parametrize("kind", ["hat", "ps"])
    def test_peak_and_kept_rows(self, kind):
        parts, peak, kept = traced_step(kind)
        row = 8 * parts.n
        assert parts.n == 181 ** 2
        assert peak <= self.bound(kind) * row
        # the new loc, plus a few kB of Python objects
        assert sum(self.LOC.values()) * row <= kept
        assert kept <= (sum(self.LOC.values()) + 0.05) * row

    def test_whole_map_gather_breaks_the_bound(self, monkeypatch):
        # the hinted locate's (3, 3, n) gather of the inverse maps alone
        # outgrows the bound on the hat plate, where the cell view is small
        monkeypatch.setattr(mesh, "_bary", gathering_bary)
        parts, peak, _ = traced_step("hat")
        assert peak > self.bound("hat") * 8 * parts.n

    @pytest.mark.parametrize("kind", ["hat", "ps"])
    def test_state_arrays_are_updated_in_place(self, kind):
        system, parts = build_system(mms_plate_spec(kind, 0.25, 16, seed=2))
        arrays = [getattr(parts, k) for k in STEP_STATE]
        loc = parts.loc
        system.run(parts, 3)
        for k, a in zip(STEP_STATE, arrays):
            assert getattr(parts, k) is a, k
        assert parts.loc is not loc

    @pytest.mark.parametrize("kind", ["hat", "ps"])
    def test_alternating_particle_sets_share_a_system(self, kind):
        # nothing of one particle set stays with the system: two sets of
        # different sizes stepped in turn on one system give the bytes of
        # each stepped on its own
        specs = [mms_plate_spec(kind, 0.25, ppe, seed=2) for ppe in (16, 36)]
        shared, first = build_system(specs[0])
        second = build_system(specs[1])[1]
        for i in range(3):
            for parts in (first, second):
                shared.step(parts, i * shared.dt)
        for spec, parts in zip(specs, (first, second)):
            system, alone = build_system(spec)
            system.run(alone, 3)
            assert alone.n == parts.n
            for got, want in zip(step_state(parts), step_state(alone)):
                assert got.tobytes() == want.tobytes()

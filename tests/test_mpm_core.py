"""Particle init, assembly, mass modes, solves, and step-level contracts."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from psmpm import mpm_core
from psmpm.basis import DirichletConstraint, hat_basis, ps_basis
from psmpm.benchmarks import build_system, mms_plate_spec, rectangle_constraints
from psmpm.cli_io import generate_mesh
from psmpm.errors import (NonPositiveJacobian, ParticleLeftDomain,
                          ParticleOutsideMesh, SolverDiverged,
                          ValidationError)
from psmpm.mesh import Triangulation, ps_refine
from psmpm.mpm_core import (ConstraintReduction, GridAssembler, MassMode,
                            MaterialModel, MpmSystem, ParticleLayout,
                            Particles, Transfer, deformation_update,
                            init_particles, solve_grid)


def unit_square_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Triangulation(nodes, np.array([[0, 1, 2], [0, 2, 3]]))


def square_ps_basis(h=0.25, seed=7):
    tri = generate_mesh("jittered", h, (0.0, 0.0, 1.0, 1.0), seed=seed)
    return ps_basis(ps_refine(tri))


def evaluated(basis, particles):
    """Located elements and the particle-dof operator of ``particles``."""
    elem, sub, eta = particles.loc
    return elem, Transfer(basis.n_bf, *basis.evaluate_located(elem, sub, eta))


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
            assert_allclose(mat.stress(eye, ones), 0.0, atol=1e-16)

    def test_linear_elastic_uniaxial(self):
        # nu = 0: sigma_xx = E * (D_xx - 1), sigma_yy = 0
        mat = MaterialModel("linear-elastic", E=50.0, nu=0.0)
        d = np.array([[[1.07, 0.0], [0.0, 1.0]]])
        s = mat.stress(d, np.array([1.07]))
        assert_allclose(s[0, 0, 0], 50.0 * 0.07, rtol=1e-14)
        assert_allclose(s[0, 1, 1], 0.0, atol=1e-14)

    def test_neo_hookean_scalar_oracle(self):
        mat = MaterialModel("neo-hookean", E=1e7, nu=0.3)
        dxx, dyy = 1.1, 1.0
        d = np.array([[[dxx, 0.0], [0.0, dyy]]])
        j = dxx * dyy
        s = mat.stress(d, np.array([j]))
        lam, mu = mat.lam, mat.mu
        assert_allclose(s[0, 0, 0],
                        lam * np.log(j) / j + mu / j * (dxx ** 2 - 1), rtol=1e-14)
        assert_allclose(s[0, 1, 1],
                        lam * np.log(j) / j + mu / j * (dyy ** 2 - 1), rtol=1e-14)
        assert_allclose(s[0, 0, 1], 0.0, atol=1e-14)

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


class TestKernelsMatchReference:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["linear-elastic", "neo-hookean"]),
           E=st.floats(1.0, 1e9), nu=st.floats(-0.9, 0.49))
    def test_stress_equals_tensor_form(self, seed, kind, E, nu):
        mat = MaterialModel(kind, E=E, nu=nu)
        D, J = near_identity(seed)
        assert mat.stress(D, J).tobytes() == ref_stress(mat, D, J).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dt=st.floats(1e-6, 1e-2))
    def test_deformation_update_matches_matmul(self, seed, dt):
        D, _ = near_identity(seed)
        g = np.random.default_rng(seed + 1).normal(size=D.shape)
        eps = 0.5 * (g + np.swapaxes(g, 1, 2))
        got, J = deformation_update(D, dt, eps[:, 0, 0], eps[:, 1, 1],
                                    eps[:, 0, 1])
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
        elem, tr = evaluated(basis, parts)
        op = asm.mass(tr, elem, parts.m, MassMode.CONSISTENT)
        assert_allclose(op.matrix.toarray(), np.full((3, 3), 1.5 / 9.0),
                        atol=1e-15)

    def test_lumped_equals_row_sums(self):
        basis = square_ps_basis()
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=7.0)
        asm = GridAssembler(basis)
        elem, tr = evaluated(basis, parts)
        op_c = asm.mass(tr, elem, parts.m, MassMode.CONSISTENT)
        op_l = asm.mass(tr, elem, parts.m, MassMode.LUMPED)
        rows = np.asarray(op_c.matrix.sum(axis=1)).ravel()
        assert np.abs(rows - op_l.lumped).max() < 1e-12 * op_l.lumped.max()

    def test_total_mass_all_modes(self):
        basis = square_ps_basis(seed=9)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.05, 0.95, size=(40, 2))
        parts = Particles(pts, rng.uniform(0.001, 0.02, 40), 5.0)
        parts.loc = basis.locator.locate_many(parts.x)
        asm = GridAssembler(basis)
        elem, tr = evaluated(basis, parts)
        for mode in MassMode:
            op = asm.mass(tr, elem, parts.m, mode)
            assert_allclose(op.matrix.sum(), parts.m.sum(), rtol=1e-12)
            assert_allclose(op.total_mass(), parts.m.sum(), rtol=1e-12)

    def test_consistent_symmetry(self):
        basis = square_ps_basis(seed=10)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=1.0)
        asm = GridAssembler(basis)
        elem, tr = evaluated(basis, parts)
        op = asm.mass(tr, elem, parts.m, MassMode.CONSISTENT)
        diff = op.matrix - op.matrix.T
        assert abs(diff).max() < 1e-14 if diff.nnz else True

    def test_partial_marks_vertices_next_to_empty_elements(self):
        tri = unit_square_mesh()
        basis = ps_basis(ps_refine(tri))
        # particles only inside element 0: element 1 is empty
        pts = np.array([[0.6, 0.3], [0.7, 0.2], [0.8, 0.35], [0.55, 0.1]])
        parts = Particles(pts, np.full(4, 0.05), 1.0)
        parts.loc = basis.locator.locate_many(parts.x)
        asm = GridAssembler(basis)
        elem, tr = evaluated(basis, parts)
        op = asm.mass(tr, elem, parts.m, MassMode.PARTIAL)
        marked_vertices = {d // 3 for d in np.nonzero(op.marked)[0]}
        # element 1 = (0, 2, 3): all its vertices are marked; vertex 1 is not
        assert marked_vertices == {0, 2, 3}

    def test_partial_row_replacement_semantics(self):
        basis = square_ps_basis(seed=11)
        pts = np.random.default_rng(1).uniform(0.3, 0.7, size=(30, 2))
        parts = Particles(pts, np.full(30, 1e-3), 2.0)
        parts.loc = basis.locator.locate_many(parts.x)
        asm = GridAssembler(basis)
        elem, tr = evaluated(basis, parts)
        op = asm.mass(tr, elem, parts.m, MassMode.PARTIAL)
        assert op.marked.any()
        x = np.random.default_rng(2).normal(size=basis.n_bf)
        y = op.matrix @ x
        y_c = asm.mass(tr, elem, parts.m, MassMode.CONSISTENT).matrix @ x
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
        elem, tr = evaluated(basis, parts)
        for mode in MassMode:
            op = GridAssembler(basis).mass(tr, elem, parts.m, mode)
            assert_allclose(op.total_mass(), parts.m.sum(), rtol=1e-12)


class TestTransfer:
    def test_operators_share_one_int32_pattern(self):
        basis = square_ps_basis()
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=1.0)
        _, tr = evaluated(basis, parts)
        assert tr.N.indices.dtype == tr.N.indptr.dtype == np.int32
        for g in (tr.Gx, tr.Gy):
            assert np.shares_memory(g.indices, tr.N.indices)
            assert np.shares_memory(g.indptr, tr.N.indptr)
        dofs, vals, grads = basis.evaluate_located(*parts.loc)
        rows = np.arange(parts.n)[:, None]
        assert_allclose(tr.N.toarray()[rows, dofs], vals, rtol=0, atol=0)
        assert_allclose(tr.Gx.toarray()[rows, dofs], grads[:, :, 0],
                        rtol=0, atol=0)
        assert_allclose(tr.Gy.toarray()[rows, dofs], grads[:, :, 1],
                        rtol=0, atol=0)


class TestForces:
    def test_zero_state_zero_forces(self):
        basis = square_ps_basis()
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=1.0)
        asm = GridAssembler(basis)
        elem, tr = evaluated(basis, parts)
        f_int, f_body = asm.forces(tr, parts)
        assert_allclose(f_int, 0.0)
        assert_allclose(f_body, 0.0)

    def test_gravity_sums_to_total_weight(self):
        basis = square_ps_basis(seed=12)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="lattice", nx=7, ny=7),
                               rho0=3.0)
        asm = GridAssembler(basis)
        elem, tr = evaluated(basis, parts)
        g = np.broadcast_to([0.0, -9.81], (parts.n, 2))
        _, f_body = asm.forces(tr, parts, body=g)
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
        elem, tr = evaluated(basis, parts)
        f_int, _ = asm.forces(tr, parts)
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
        elem, tr = evaluated(basis, parts)
        op = asm.mass(tr, elem, parts.m, mode)
        red = ConstraintReduction(basis.n_bf, [])
        return basis, parts, op, red

    def test_zero_rhs_zero_solution(self):
        for mode in MassMode:
            basis, parts, op, red = self.make(mode)
            x = solve_grid(op, np.zeros(basis.n_bf), red, parts.m.mean())
            assert_allclose(x, 0.0)

    def test_lumped_is_direct_division(self):
        basis, parts, op, red = self.make(MassMode.LUMPED)
        rhs = np.random.default_rng(3).normal(size=basis.n_bf)
        x = solve_grid(op, rhs, red, parts.m.mean())
        ok = op.lumped > 1e-12 * parts.m.mean()
        assert_allclose(x[ok], rhs[ok] / op.lumped[ok], rtol=1e-14)
        assert_allclose(x[~ok], 0.0)

    def test_consistent_residual(self):
        basis, parts, op, red = self.make(MassMode.CONSISTENT)
        rhs = op.matrix @ np.random.default_rng(4).normal(size=basis.n_bf)
        x = solve_grid(op, rhs, red, parts.m.mean())
        resid = np.linalg.norm(op.matrix @ x - rhs) / np.linalg.norm(rhs)
        assert resid < 1e-9

    def test_partial_solves_row_replaced_system(self):
        basis = square_ps_basis(seed=14)
        pts = np.random.default_rng(5).uniform(0.35, 0.65, size=(40, 2))
        parts = Particles(pts, np.full(40, 1e-3), 2.0)
        parts.loc = basis.locator.locate_many(parts.x)
        asm = GridAssembler(basis)
        elem, tr = evaluated(basis, parts)
        op = asm.mass(tr, elem, parts.m, MassMode.PARTIAL)
        assert op.marked.any() and not op.marked.all()
        rhs = np.zeros(basis.n_bf)
        active = op.lumped > 1e-12 * parts.m.mean()
        rhs[active] = np.random.default_rng(6).normal(size=int(active.sum()))
        x = solve_grid(op, rhs, ConstraintReduction(basis.n_bf, []),
                       parts.m.mean())
        resid = op.matrix @ x - rhs
        assert np.abs(resid[active]).max() < 1e-8 * max(1.0, np.abs(rhs).max())

    def test_singular_support_raises(self):
        # many active functions supported by a single particle: the
        # consistent system is rank deficient and the solve must fail
        basis = square_ps_basis(seed=15)
        parts = Particles(np.array([[0.52, 0.48]]), np.array([0.1]), 1.0)
        parts.loc = basis.locator.locate_many(parts.x)
        asm = GridAssembler(basis)
        elem, tr = evaluated(basis, parts)
        op = asm.mass(tr, elem, parts.m, MassMode.CONSISTENT)
        rhs = np.zeros(basis.n_bf)
        rhs[tr.N.indices[0]] = 1.0
        with pytest.raises(SolverDiverged, match="solve residual"):
            solve_grid(op, rhs, ConstraintReduction(basis.n_bf, []),
                       parts.m.mean())


    def test_diagonal_ratio_checks_consistent_rows_only(self):
        # three particles hug the edge y = 0 of element 0 = (0, 1, 2), where
        # the hat of vertex 2 = (1, 1) equals y: its diagonal is ~1e-9 of
        # the others
        basis = hat_basis(unit_square_mesh())
        pts = np.array([[0.3, 1e-5], [0.6, 1e-5], [0.9, 2e-5]])
        parts = Particles(pts, np.full(3, 0.1), 1.0)
        parts.loc = basis.locator.locate_many(parts.x)
        elem, tr = evaluated(basis, parts)
        asm = GridAssembler(basis)
        red = ConstraintReduction(basis.n_bf, [])
        rhs = np.ones(basis.n_bf)
        op = asm.mass(tr, elem, parts.m, MassMode.CONSISTENT)
        with pytest.raises(SolverDiverged, match="diagonal ratio"):
            solve_grid(op, rhs, red, parts.m.mean())
        # element 1 is empty: partial mode lumps vertex 2's row and checks
        # vertex 1's alone; lumped mode checks no row
        op = asm.mass(tr, elem, parts.m, MassMode.PARTIAL)
        assert op.marked.tolist() == [True, False, True, True]
        assert np.isfinite(solve_grid(op, rhs, red, parts.m.mean())).all()
        op = asm.mass(tr, elem, parts.m, MassMode.LUMPED)
        assert np.isfinite(solve_grid(op, rhs, red, parts.m.mean())).all()

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
        elem, tr = evaluated(basis, parts)
        asm = GridAssembler(basis)
        op = asm.mass(tr, elem, parts.m, MassMode.CONSISTENT)
        eig = np.linalg.eigvalsh(op.matrix.toarray())
        assert eig[0] < 1e-14 * eig[-1]
        momentum = asm.momentum(tr, parts)
        red = ConstraintReduction(basis.n_bf, [])
        v_hat = np.column_stack([
            solve_grid(op, momentum[:, k], red, parts.m.mean())
            for k in range(2)])
        assert_allclose(tr.N @ v_hat, parts.v, rtol=0, atol=1e-10)

    def test_inhomogeneous_reduction_rejected(self):
        basis, parts, op, _ = self.make(MassMode.CONSISTENT)
        vertex = int(basis.tri.boundary_nodes[0])
        rows = basis.constraint_rows([DirichletConstraint(
            vertex=vertex, component=0, value=0.25, tangent=(1.0, 0.0))])
        with pytest.raises(ValidationError, match="right-hand side 0.25"):
            ConstraintReduction(basis.n_bf, rows[0])
        rhs = np.ones(basis.n_bf)
        # the same rows with a zero value give a homogeneous reduction
        rows = basis.constraint_rows([DirichletConstraint(
            vertex=vertex, component=0, value=0.0, tangent=(1.0, 0.0))])
        red = ConstraintReduction(basis.n_bf, rows[0])
        assert np.all(np.isfinite(solve_grid(op, rhs, red, parts.m.mean())))


class TestSolveProperty:
    @settings(max_examples=30, deadline=None)
    @given(mesh_seed=st.integers(0, 7), subset_seed=st.integers(0, 2 ** 32 - 1),
           mode=st.sampled_from(list(MassMode)), comp=st.sampled_from((0, 1)))
    def test_matches_dense_reduced_solve(self, mesh_seed, subset_seed, mode,
                                         comp):
        basis = cached_ps_basis(mesh_seed)
        tri = basis.tri
        rng = np.random.default_rng(subset_seed)
        # particles of a random subset of elements; at least one is empty
        kept = rng.random(tri.n_elements) > 0.3
        kept[rng.integers(tri.n_elements)] = False
        full = init_particles(basis.locator,
                              ParticleLayout(kind="ppe", ppe=16), rho0=1.0)
        keep = kept[full.loc[0]]
        parts = Particles(full.x[keep], full.V[keep], 1.0)
        parts.loc = tuple(a[keep] for a in full.loc)
        elem, tr = evaluated(basis, parts)
        op = GridAssembler(basis).mass(tr, elem, parts.m, mode)
        rows = basis.constraint_rows(rectangle_constraints(tri, PLATE_SIDES))
        red = ConstraintReduction(basis.n_bf, rows[comp])
        rhs = rng.normal(size=basis.n_bf)
        got = solve_grid(op, rhs, red, parts.m.mean())

        # dense oracle: the row-replaced matrix, reduced, on the active dofs
        dofs, vals, _ = basis.evaluate_located(*parts.loc)
        n_mat = np.zeros((parts.n, basis.n_bf))
        np.put_along_axis(n_mat, dofs, vals, axis=1)
        consistent = n_mat.T @ (parts.m[:, None] * n_mat)
        lumped = consistent.sum(axis=1)
        marked = np.full(basis.n_bf, mode is MassMode.LUMPED)
        if mode is MassMode.PARTIAL:
            marked[np.unique(basis.element_dofs[~kept])] = True
            assert np.array_equal(op.marked, marked)
        effective = np.where(marked[:, None], np.diag(lumped), consistent)
        p = red.P.toarray()
        a = p.T @ effective @ p
        active = np.diag(a) > 1e-12 * parts.m.mean()
        x = np.zeros(p.shape[1])
        x[active] = np.linalg.solve(a[np.ix_(active, active)],
                                    (p.T @ rhs)[active])
        want = p @ x
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


class TestConstraintReduction:
    def test_full_block_pin(self):
        rows = [(np.array([3, 4, 5]), np.array([1.0, 0.0, 0.0]), 0.0),
                (np.array([3, 4, 5]), np.array([0.0, 1.0, 0.0]), 0.0),
                (np.array([3, 4, 5]), np.array([0.0, 0.0, 1.0]), 0.0)]
        red = ConstraintReduction(9, rows)
        assert red.n_reduced == 6
        assert set(red.free_dofs) == {0, 1, 2, 6, 7, 8}

    def test_inconsistent_rows_rejected(self):
        rows = [(np.array([0]), np.array([1.0]), 0.0),
                (np.array([0]), np.array([1.0]), 1.0)]
        with pytest.raises(ValidationError):
            ConstraintReduction(4, rows)

    def test_solution_satisfies_constraints(self):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=(2, 3))
        rows = [(np.array([1, 2, 3]), coeffs[0], 0.0),
                (np.array([1, 2, 3]), coeffs[1], 0.0)]
        red = ConstraintReduction(6, rows)
        assert red.n_reduced == 4
        for _ in range(5):
            c = red.P @ rng.normal(size=red.n_reduced)
            assert abs(np.dot(coeffs[0], c[1:4])) < 1e-12
            assert abs(np.dot(coeffs[1], c[1:4])) < 1e-12


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
        elem, tr = evaluated(system.basis, parts)
        momentum = system.assembler.momentum(tr, parts)
        target = (parts.m[:, None] * parts.v).sum(axis=0)
        assert_allclose(momentum.sum(axis=0), target, rtol=1e-10)
        op = system.assembler.mass(tr, elem, parts.m, MassMode.CONSISTENT)
        v_hat = np.column_stack([
            solve_grid(op, momentum[:, k],
                       ConstraintReduction(system.basis.n_bf, []),
                       parts.m.mean())
            for k in range(2)])
        assert_allclose((op.matrix @ v_hat).sum(axis=0), target, rtol=1e-8)

    def test_one_factorisation_per_component_per_step(self, monkeypatch):
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
            assert len(calls) == 2, mode

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

        elem, sub, eta = parts_b.loc
        dofs, vals, grads = basis.evaluate_located(elem, sub, eta)
        tr = Transfer(basis.n_bf, dofs, vals, grads)
        op = system.assembler.mass(tr, elem, parts_b.m, MassMode.CONSISTENT)
        f_int, f_body = system.assembler.forces(tr, parts_b)
        rhs = f_body - f_int
        red = system.reductions
        a_hat = np.column_stack([
            solve_grid(op, rhs[:, k], red[k], parts_b.m.mean())
            for k in range(2)])
        parts_b.v += system.dt * np.einsum('pf,pfk->pk', vals, a_hat[dofs])
        momentum = system.assembler.momentum(tr, parts_b)
        v_hat = np.column_stack([
            solve_grid(op, momentum[:, k], red[k], parts_b.m.mean())
            for k in range(2)])
        grad_v = np.einsum('pfk,pfl->pkl', v_hat[dofs], grads)
        eps = 0.5 * (grad_v + np.swapaxes(grad_v, 1, 2))
        eye = np.tile(np.eye(2), (parts_b.n, 1, 1))
        parts_b.D = np.einsum('pij,pjk->pik', eye + system.dt * eps, parts_b.D)
        parts_b.J = np.linalg.det(parts_b.D)
        parts_b.sigma = system.material.stress(parts_b.D, parts_b.J)
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

    def test_particle_exit_aborts(self):
        basis = square_ps_basis(seed=20)
        mat = MaterialModel("linear-elastic", E=1e3, nu=0.0)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=1.0)
        parts.v[:] = [50.0, 0.0]     # leaves the unit square in one step
        system = MpmSystem(basis, mat, dt=1e-2, mass_mode=MassMode.LUMPED)
        with pytest.raises(ParticleLeftDomain):
            system.step(parts, 0.0)

    def test_constraints_must_be_homogeneous(self):
        tri = generate_mesh("structured", 0.5, (0.0, 0.0, 1.0, 1.0))
        basis = hat_basis(tri)
        mat = MaterialModel("linear-elastic", E=1.0, nu=0.0)
        bad = [DirichletConstraint(vertex=int(tri.boundary_nodes[0]),
                                   component=0, value=1.0)]
        with pytest.raises(ValidationError):
            MpmSystem(basis, mat, dt=1e-3, constraints=bad)

"""Particle init, assembly, mass modes, solves, and step-level contracts."""

import re
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from psmpm import mpm_core
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
    return solve_grid(solver, solver.factorise(op, tol, ""), rhs)


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


class TestKernelsMatchReference:
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
        assert_allclose(op.matrix.toarray(), np.full((3, 3), 1.5 / 9.0),
                        atol=1e-15)

    def test_lumped_equals_row_sums(self):
        basis = square_ps_basis()
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=7.0)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        op_c = asm.mass(pts, parts.m, MassMode.CONSISTENT)
        op_l = asm.mass(pts, parts.m, MassMode.LUMPED)
        rows = np.asarray(op_c.matrix.sum(axis=1)).ravel()
        assert np.abs(rows - op_l.lumped).max() < 1e-12 * op_l.lumped.max()

    def test_consistent_lumped_is_the_matrix_row_sums(self):
        # consistent mode sums its assembled rows instead of the moments
        basis = square_ps_basis(seed=12)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=3.0)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        op = asm.mass(pts, parts.m, MassMode.CONSISTENT)
        assert_allclose(op.lumped, op.matrix.toarray().sum(axis=1),
                        rtol=1e-14, atol=0.0)
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
            assert_allclose(op.matrix.sum(), parts.m.sum(), rtol=1e-12)
            assert_allclose(op.lumped.sum(), parts.m.sum(), rtol=1e-12)

    def test_consistent_symmetry(self):
        basis = square_ps_basis(seed=10)
        parts = init_particles(basis.locator,
                               ParticleLayout(kind="ppe", ppe=4), rho0=1.0)
        asm = GridAssembler(basis)
        pts = located(basis, parts)
        op = asm.mass(pts, parts.m, MassMode.CONSISTENT)
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
        y = op.matrix @ x
        y_c = asm.mass(pts, parts.m, MassMode.CONSISTENT).matrix @ x
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
            assert op.matrix.indices.dtype == op.matrix.indptr.dtype == np.int32
            assert op.pattern is asm.pattern
            assert np.shares_memory(op.matrix.indices, asm.pattern.indices)
            assert np.shares_memory(op.matrix.indptr, asm.pattern.indptr)
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
        f_int, f_body = asm.forces(pts, parts, body=body)
        got = {"lumped": op.lumped, "matrix": op.matrix.toarray(),
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


def ref_gather(pts, weights, table):
    """The gather before the clipped ``take``: one buffered ``take`` per
    table row into an (n,) work buffer, weighted and added in place."""
    table, work = np.ascontiguousarray(table), np.empty(len(pts.cell))
    out = np.zeros(table.shape[:-2] + (len(pts.cell),))
    for idx in np.ndindex(table.shape[:-2]):
        for r, w in enumerate(weights):
            np.take(table[idx + (r,)], pts.cell, out=work)
            work *= w
            out[idx] += work
    return out


class TestGatherMatchesPerRowReference:
    @pytest.mark.parametrize("kind", ["hat", "ps"])
    def test_values_and_gradients_bitwise(self, kind, monkeypatch):
        system, parts = build_system(mms_plate_spec(kind, 0.25, 16, seed=3))
        system.run(parts, 1)
        asm = system.assembler
        pts = asm.located(*parts.loc)
        coeffs = np.random.default_rng(5).normal(size=(2, asm.n_bf, 2))
        got = [f(pts, c) for c in coeffs for f in (asm.values, asm.gradients)]
        assert got[0].flags.c_contiguous and got[0].shape == (parts.n, 2)
        monkeypatch.setattr(GridAssembler, "_gather", staticmethod(ref_gather))
        want = [f(pts, c) for c in coeffs for f in (asm.values, asm.gradients)]
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


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
        _, f_body = asm.forces(pts, parts, body=g)
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
        rhs = op.matrix @ np.random.default_rng(4).normal(size=basis.n_bf)
        x = solve(op, rhs, red, parts.m.mean())
        resid = np.linalg.norm(op.matrix @ x - rhs) / np.linalg.norm(rhs)
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
        resid = op.matrix @ x - rhs
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
        eig = np.linalg.eigvalsh(op.matrix.toarray())
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
    p = red.P.toarray()
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


@lru_cache(maxsize=None)
def cached_hat_basis(seed):
    return hat_basis(generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0),
                                   seed=seed))


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
        p, m = red.P.toarray(), op.matrix.toarray()
        want = p.T @ m @ p
        # recursive summation (Higham, section 3.1) on both sides: no entry
        # sums more than 2 n_bf rounded products
        bound = 2 * (2 * basis.n_bf + 2) * np.finfo(float).eps * (
            np.abs(p).T @ np.abs(m) @ np.abs(p))
        assert np.all(np.abs(got - want) <= bound)

        tol = mpm_core.ZERO_MASS_REL_TOL * parts.m.mean()
        factor = solver.factorise(op, tol, "")
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

        solvers = list(system.solvers)
        system.step(parts, 0.0)
        assert all(solver.factorise(mass_op(), tol, "")[0].all()
                   for solver in solvers)

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
        assert all(a is b for a, b in zip(system.solvers, solvers))

        op = mass_op()
        assert op.pattern is asm.mass_pattern(mode)
        empty = np.bincount(parts.loc[0], minlength=tri.n_elements) == 0
        assert empty[emptied].all()
        rng = np.random.default_rng(5)
        for solver in solvers:
            factor = solver.factorise(op, tol, "")
            assert not factor[0].all()
            rhs = rng.normal(size=basis.n_bf)
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

        dofs, vals, grads = basis.evaluate_located(*parts_b.loc)
        pts = system.assembler.located(*parts_b.loc)
        op = system.assembler.mass(pts, parts_b.m, MassMode.CONSISTENT)
        f_int, f_body = system.assembler.forces(pts, parts_b)
        rhs = f_body - f_int
        red = [solver.reduction for solver in system.solvers]
        a_hat = np.column_stack([
            solve(op, rhs[:, k], red[k], parts_b.m.mean())
            for k in range(2)])
        parts_b.v += system.dt * np.einsum('pf,pfk->pk', vals, a_hat[dofs])
        momentum = system.assembler.momentum(pts, parts_b)
        v_hat = np.column_stack([
            solve(op, momentum[:, k], red[k], parts_b.m.mean())
            for k in range(2)])
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

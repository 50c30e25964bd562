"""Particle state, particle-dof transfers, mass-matrix modes and the step.

Each step builds one sparse particle-dof operator (``Transfer``) from the
located basis evaluation: ``N`` holds the basis values and ``Gx``/``Gy``
the basis gradients at the particles.  Every transfer is a product with
these matrices: lumped mass ``N^T m``, consistent mass ``N^T diag(m) N``,
internal force ``Gx^T (V sigma)_x + Gy^T (V sigma)_y``, body force
``N^T (m b)`` and momentum ``N^T (m v)``; grid coefficients come back to
the particles as ``N @ c`` and velocity gradients as ``[Gx @ v, Gy @ v]``.

One time step projects particle mass and internal/body forces onto the
basis, solves for grid accelerations, increments particle velocities,
re-projects momentum for the end-of-step velocity field (density-weighted
L2 projection), and finally updates deformation, stress, volume, density
and positions from that field.  Grid quantities are rebuilt every step.

The mass matrix is consistent, fully lumped (row sums on the diagonal),
or partially lumped: only rows whose basis function has at least one
particle-free element in its support are replaced by their lumped
diagonal, which preserves every row sum (hence the total mass).  Each
mode is one effective sparse matrix and every grid solve takes one path:
reduce the matrix under the constraint change of unknowns, drop the
unknowns without mass, factorise the rest once per step with a sparse LU,
and reuse that factor for the acceleration and the velocity-projection
solves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (NonPositiveJacobian, ParticleLeftDomain,
                     ParticleOutsideMesh, SolverDiverged, ValidationError)

# Grid dofs with lumped mass below this fraction of the mean particle mass
# are excluded from solves (their coefficients are set to zero).
ZERO_MASS_REL_TOL = 1e-12

# Each reduced system A x = b is factorised as A + FACTOR_SHIFT * diag(A)
# and every solve takes one step of iterative refinement against A.  On a
# well-posed system the refined solution is exact to rounding (the shift's
# error is squared away).  When too few particles sample a group of basis
# functions, A is singular but a momentum projection is still consistent;
# the shift keeps the factor defined and leaves the unsampled combination
# at rounding size.
FACTOR_SHIFT = 1e-10

# A solve whose residual |A x - b| exceeds this fraction of |b| has no
# solution: the right-hand side has a component along a singular direction
# of A.  Well-posed systems measure below 1e-15.
RESIDUAL_RTOL = 1e-10

# For an SPD matrix the condition number is at least max(diag)/min(diag);
# past this ratio a 1e-10 residual no longer bounds the error and the
# consistent solve is declared diverged.  Checked on the consistent rows
# of the reduced matrix: every active row in consistent mode, the unmarked
# rows in partial mode, none in lumped mode.  Well-supported systems
# measure below 1e2, a draining support region sweeps through 1e8 on its
# way to empty.
ILL_CONDITION_RATIO = 1e8

# A single acceleration step that kicks a particle past this multiple of the
# material wave speed marks the step as diverged: the motions simulated
# here are far subsonic, so a kick of that size is no resolved physics.
VELOCITY_BLOWUP_FACTOR = 10.0

# A velocity projection whose strain increment over one step exceeds this
# marks the step as diverged: half a unit of strain in one step cannot come
# from resolved physics.
STRAIN_INCREMENT_LIMIT = 0.5


class MassMode(enum.Enum):
    CONSISTENT = "consistent"
    LUMPED = "lumped"
    PARTIAL = "partial"

    @classmethod
    def parse(cls, name):
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise ValidationError(
                f"unknown mass mode {name!r}; expected consistent|lumped|partial"
            ) from None


@dataclass
class MaterialModel:
    """Linear-elastic or neo-Hookean material defined by E and nu."""

    kind: str
    E: float
    nu: float

    def __post_init__(self):
        if self.kind not in ("linear-elastic", "neo-hookean"):
            raise ValidationError(f"unknown material kind {self.kind!r}")
        if self.E <= 0.0:
            raise ValidationError("Young's modulus must be positive")
        if not -1.0 < self.nu < 0.5:
            raise ValidationError("Poisson ratio must lie in (-1, 0.5)")

    @property
    def lam(self):
        return self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))

    @property
    def mu(self):
        return self.E / (2.0 * (1.0 + self.nu))

    def wave_speed(self, rho):
        return np.sqrt(self.E / rho)

    def stress(self, D, J):
        """Cauchy stress for a batch of deformation gradients (n, 2, 2).

        Written per component: linear-elastic ``lam tr(e) I + 2 mu e`` with
        ``e = (D + D^T)/2 - I``, neo-Hookean
        ``lam ln(J)/J I + mu/J (D D^T - I)``.
        """
        a, b, c, d = D[:, 0, 0], D[:, 0, 1], D[:, 1, 0], D[:, 1, 1]
        sigma = np.empty_like(D)
        if self.kind == "linear-elastic":
            exx, eyy = a - 1.0, d - 1.0
            lam_tr = self.lam * (exx + eyy)
            two_mu = 2.0 * self.mu
            sigma[:, 0, 0] = lam_tr + two_mu * exx
            sigma[:, 1, 1] = lam_tr + two_mu * eyy
            sigma[:, 0, 1] = sigma[:, 1, 0] = two_mu * (0.5 * (b + c))
            return sigma
        vol = self.lam * np.log(J) / J
        shear = self.mu / J
        sigma[:, 0, 0] = vol + shear * (a * a + b * b - 1.0)
        sigma[:, 1, 1] = vol + shear * (c * c + d * d - 1.0)
        sigma[:, 0, 1] = sigma[:, 1, 0] = shear * (a * c + b * d)
        return sigma


class Particles:
    """State arrays of the material points.

    Particle mass is fixed at construction (m = V0 * rho0); volume and
    density evolve through the deformation-gradient determinant so that
    m = V * rho holds at all times.
    """

    def __init__(self, positions, volumes, rho0):
        positions = np.asarray(positions, dtype=float)
        n = len(positions)
        self.x0 = positions.copy()          # reference coordinates
        self.x = positions.copy()
        self.u = np.zeros((n, 2))
        self.v = np.zeros((n, 2))
        self.D = np.zeros((n, 2, 2))
        self.D[:, 0, 0] = self.D[:, 1, 1] = 1.0
        self.J = np.ones(n)
        self.sigma = np.zeros((n, 2, 2))
        self.V0 = np.asarray(volumes, dtype=float).copy()
        self.V = self.V0.copy()
        self.rho = np.broadcast_to(np.asarray(rho0, dtype=float), (n,)).copy()
        self.m = self.V0 * self.rho
        # cached location (element/sub/eta) carried between steps
        self.loc = None

    @property
    def n(self):
        return len(self.x)

    def total_mass(self):
        return float(self.m.sum())


@dataclass
class ParticleLayout:
    """Either a global lattice (nx x ny cell centers over a rectangle) or a
    fixed per-element count placed by recursive uniform splitting."""

    kind: str                      # "lattice" | "ppe"
    nx: int = 0
    ny: int = 0
    ppe: int = 0
    domain: tuple | None = None    # (x0, y0, x1, y1); default mesh bbox


def _split_factors(ppe):
    factors = []
    r = int(ppe)
    if r < 1:
        raise ValidationError("ppe must be >= 1")
    while r % 4 == 0:
        factors.append(4)
        r //= 4
    while r % 3 == 0:
        factors.append(3)
        r //= 3
    if r != 1:
        raise ValidationError(
            f"ppe={ppe} not supported; must factor into 3s and 4s")
    return factors


def _subdivision_centroids(factors):
    """Barycentric centroids of the recursive 3/4-way uniform splits."""
    tris = [np.eye(3)]
    for f in factors:
        nxt = []
        for t in tris:
            v0, v1, v2 = t
            if f == 4:
                m01, m12, m02 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v0 + v2)
                nxt += [np.array([v0, m01, m02]), np.array([m01, v1, m12]),
                        np.array([m02, m12, v2]), np.array([m01, m12, m02])]
            else:
                g = (v0 + v1 + v2) / 3.0
                nxt += [np.array([v0, v1, g]), np.array([v1, v2, g]),
                        np.array([v2, v0, g])]
        tris = nxt
    return np.array([t.mean(axis=0) for t in tris])


def init_particles(locator, layout: ParticleLayout, rho0) -> Particles:
    """Create particles over the mesh with identity deformation, zero
    velocity/stress, and total volume equal to the covered area.

    Raises:
        ParticleOutsideMesh: if a lattice point does not locate into the mesh.
    """
    tri = locator.tri
    if layout.kind == "lattice":
        if layout.nx < 1 or layout.ny < 1:
            raise ValidationError("lattice layout needs nx, ny >= 1")
        if layout.domain is None:
            lo, hi = tri.bbox()
            x0, y0, x1, y1 = lo[0], lo[1], hi[0], hi[1]
        else:
            x0, y0, x1, y1 = layout.domain
        dx = (x1 - x0) / layout.nx
        dy = (y1 - y0) / layout.ny
        xs = x0 + dx * (np.arange(layout.nx) + 0.5)
        ys = y0 + dy * (np.arange(layout.ny) + 0.5)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pos = np.column_stack([gx.ravel(), gy.ravel()])
        vol = np.full(len(pos), (x1 - x0) * (y1 - y0) / len(pos))
    elif layout.kind == "ppe":
        bary = _subdivision_centroids(_split_factors(layout.ppe))
        verts = tri.nodes[tri.elements]                    # (n_e, 3, 2)
        pos = np.einsum('kb,ebd->ekd', bary, verts).reshape(-1, 2)
        vol = np.repeat(tri.areas / layout.ppe, layout.ppe)
    else:
        raise ValidationError(f"unknown particle layout {layout.kind!r}")

    particles = Particles(pos, vol, rho0)
    elem, sub, eta = locator.locate_many(pos)
    if np.any(elem < 0):
        bad = int(np.nonzero(elem < 0)[0][0])
        raise ParticleOutsideMesh(
            f"particle {bad} at {tuple(pos[bad])} is outside the mesh")
    particles.loc = (elem, sub, eta)
    return particles


class Transfer:
    """Particle-dof operator of one step.

    ``N`` holds the basis values and ``Gx``/``Gy`` the x/y basis gradients
    at the particles, each an (n_p, n_bf) CSR matrix; all three share one
    int32 pattern, the dofs active at each particle.
    """

    def __init__(self, n_bf, dofs, vals, grads):
        n, k = dofs.shape
        self.shape = (n, n_bf)
        self.indices = np.asarray(dofs, dtype=np.int32).ravel()
        self.indptr = np.arange(0, n * k + 1, k, dtype=np.int32)
        self.N = self.with_values(vals)
        self.Gx = self.with_values(grads[:, :, 0])
        self.Gy = self.with_values(grads[:, :, 1])

    def with_values(self, values):
        """CSR matrix on the shared pattern with per-particle ``values``."""
        return sp.csr_matrix((np.ravel(values), self.indices, self.indptr),
                             shape=self.shape)


class MassOperator:
    """Assembled grid mass in one of the three modes.

    ``lumped`` holds the row sums (equal to the consistent row sums by
    partition of unity) and ``matrix`` the effective operator:
    ``diag(lumped)`` in lumped mode, the consistent matrix in consistent
    mode and, in partial mode, the consistent matrix with the rows flagged
    by ``marked`` replaced by ``lumped[i] * e_i``.  Every mode keeps every
    row sum and hence the total mass.  ``factors`` memoises the factorised
    reduced systems of ``solve_grid``, one per constraint reduction; an
    operator lives for one step.
    """

    def __init__(self, mode, lumped, matrix, marked=None):
        self.mode = mode
        self.lumped = lumped
        self.matrix = matrix
        self.marked = marked
        self.factors = {}

    def total_mass(self):
        return float(self.lumped.sum())


class GridAssembler:
    """Projection of particle mass, forces and momentum onto the basis,
    each a product with the step's ``Transfer``."""

    def __init__(self, basis):
        self.basis = basis
        self.n_bf = basis.n_bf

    def mass(self, transfer: Transfer, elem, masses,
             mode: MassMode) -> MassOperator:
        lumped = transfer.N.T @ masses
        if mode is MassMode.LUMPED:
            return MassOperator(mode, lumped, sp.diags(lumped, format="csr"))
        vals = transfer.N.data.reshape(len(masses), -1)
        matrix = transfer.N.T @ transfer.with_values(masses[:, None] * vals)
        if mode is MassMode.CONSISTENT:
            return MassOperator(mode, lumped, matrix)

        empty = np.bincount(elem, minlength=self.basis.tri.n_elements) == 0
        marked = np.zeros(self.n_bf, dtype=bool)
        marked[self.basis.element_dofs[empty]] = True
        matrix = (sp.diags((~marked).astype(float)) @ matrix
                  + sp.diags(np.where(marked, lumped, 0.0)))
        return MassOperator(mode, lumped, matrix, marked)

    def forces(self, transfer: Transfer, particles, body=None):
        """Internal and body force vectors, each (n_bf, 2)."""
        stress = particles.V[:, None, None] * particles.sigma
        f_int = (transfer.Gx.T @ stress[:, 0, :]
                 + transfer.Gy.T @ stress[:, 1, :])
        if body is None:
            f_body = np.zeros((self.n_bf, 2))
        else:
            f_body = transfer.N.T @ (particles.m[:, None] * body)
        return f_int, f_body

    def momentum(self, transfer: Transfer, particles):
        return transfer.N.T @ (particles.m[:, None] * particles.v)


class ConstraintReduction:
    """Change of unknowns that makes constrained combinations explicit.

    Constraint rows touch one vertex block each (one dof for hats, three
    for splines).  Per block, an SVD of the stacked rows yields the
    particular (minimum-norm) solution ``offset`` and an orthonormal basis
    of the free directions; the prolongation ``P`` keeps unconstrained dofs
    as-is, so a reduced consistent matrix stays symmetric positive
    definite.  A reduction built with no rows is the identity.
    """

    def __init__(self, n_bf, rows):
        grouped = {}
        for dofs, coeffs, rhs in rows:
            key = tuple(int(d) for d in dofs)
            grouped.setdefault(key, []).append((np.asarray(coeffs, float), rhs))

        constrained = set()
        blocks = []               # (dofs array, nullspace (k, m))
        offset = np.zeros(n_bf)
        for key in sorted(grouped):
            a = np.array([r[0] for r in grouped[key]])
            b = np.array([r[1] for r in grouped[key]])
            _, s, vt = np.linalg.svd(a, full_matrices=True)
            tol = max(a.shape) * np.finfo(float).eps * (s[0] if len(s) else 0.0)
            rank = int((s > tol).sum())
            sol, *_ = np.linalg.lstsq(a, b, rcond=None)
            if np.linalg.norm(a @ sol - b) > 1e-9 * max(1.0, np.linalg.norm(b)):
                raise ValidationError(f"inconsistent constraints on dofs {key}")
            offset[list(key)] = sol
            blocks.append((np.asarray(key, dtype=int), vt[rank:].T))
            constrained.update(key)

        self.free_dofs = np.asarray(
            [d for d in range(n_bf) if d not in constrained], dtype=int)
        self.offset = offset

        free = self.free_dofs
        data, rix, cix = [np.ones(len(free))], [free], [np.arange(len(free))]
        ci = len(free)
        for dofs, null in blocks:
            for j in range(null.shape[1]):
                data.append(null[:, j])
                rix.append(dofs)
                cix.append(np.full(len(dofs), ci))
                ci += 1
        self.P = sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rix), np.concatenate(cix))),
            shape=(n_bf, ci))

    @property
    def n_reduced(self):
        return self.P.shape[1]


def _factorised(mass_op: MassOperator, reduction: ConstraintReduction, tol,
                context):
    """Active mask, active reduced matrix and its shifted LU factor.

    Memoised on ``mass_op`` per reduction, so every solve of a step under
    one reduction shares one factorisation.
    """
    key = (reduction, tol)
    if key in mass_op.factors:
        return mass_op.factors[key]
    p = reduction.P
    a = (p.T @ mass_op.matrix @ p).tocsr()
    diag = a.diagonal()
    active = diag > tol
    if mass_op.mode is not MassMode.LUMPED:
        checked = active
        if mass_op.marked is not None:
            # reduced unknowns on unmarked dofs (constraint blocks and marks
            # are both per vertex, so no unknown straddles the two)
            checked = active & (abs(p).T @ mass_op.marked == 0)
        dsub = diag[checked]
        if dsub.size and dsub.max() > ILL_CONDITION_RATIO * dsub.min():
            raise SolverDiverged(
                f"consistent mass matrix is ill-conditioned "
                f"(diagonal ratio {dsub.max() / dsub.min():.1e} in "
                f"{context or 'solve'}); a basis function has (almost) "
                "no particle support")
    asub = a[active][:, active]
    lu = None
    if asub.shape[0]:
        lu = spla.splu(sp.csc_matrix(
            asub + FACTOR_SHIFT * sp.diags(diag[active])))
    mass_op.factors[key] = (active, asub, lu)
    return active, asub, lu


def solve_grid(mass_op: MassOperator, rhs, reduction: ConstraintReduction,
               mean_particle_mass, context=""):
    """Solve the grid system M c = rhs under the constraint reduction.

    ``M`` is the mass operator's effective matrix in every mode, so partial
    mode solves exactly the row-replaced operator of the partial-lumping
    rule.  With ``P`` the reduction's prolongation, ``A = P^T M P`` keeps
    the unknowns whose diagonal exceeds the zero-mass tolerance (the others
    get zero coefficients).  ``A + FACTOR_SHIFT * diag(A)`` is factorised
    once per step with a sparse LU, and each solve refines the factor's
    answer once against ``A``: exact to rounding on a well-posed system,
    and still defined when too few particles leave a combination of basis
    functions without mass.  Constraints are imposed homogeneously.

    Raises:
        ValidationError: when ``reduction`` comes from inhomogeneous
            constraint rows (a nonzero ``offset``), which this solve would
            otherwise silently drop.
        SolverDiverged: when the diagonal ratio of the consistent rows of
            ``A`` exceeds ``ILL_CONDITION_RATIO``, or when the residual
            ``|A x - b|`` exceeds ``RESIDUAL_RTOL * |b|``.
    """
    if np.any(reduction.offset):
        raise ValidationError(
            f"{context or 'solve'}: solve_grid imposes constraints "
            "homogeneously; this reduction has a nonzero offset")
    active, a, lu = _factorised(
        mass_op, reduction, ZERO_MASS_REL_TOL * mean_particle_mass, context)
    x = np.zeros(reduction.n_reduced)
    if lu is not None:
        b = (reduction.P.T @ rhs)[active]
        y = lu.solve(b)
        y += lu.solve(b - a @ y)
        resid = np.linalg.norm(b - a @ y)
        if resid > RESIDUAL_RTOL * np.linalg.norm(b):
            raise SolverDiverged(
                f"solve residual {resid / np.linalg.norm(b):.1e} exceeds "
                f"{RESIDUAL_RTOL:.0e} of the right-hand side in "
                f"{context or 'solve'}; the mass matrix is singular along "
                "the right-hand side")
        x[active] = y
    return reduction.P @ x


def deformation_update(D, dt, exx, eyy, exy):
    """``(I + dt eps) D`` and its determinant for a batch of deformation
    gradients (n, 2, 2) and symmetric strain rates given per component."""
    axx, ayy, axy = 1.0 + dt * exx, 1.0 + dt * eyy, dt * exy
    dxx, dxy, dyx, dyy = D[:, 0, 0], D[:, 0, 1], D[:, 1, 0], D[:, 1, 1]
    out = np.empty_like(D)
    out[:, 0, 0] = nxx = axx * dxx + axy * dyx
    out[:, 0, 1] = nxy = axx * dxy + axy * dyy
    out[:, 1, 0] = nyx = axy * dxx + ayy * dyx
    out[:, 1, 1] = nyy = axy * dxy + ayy * dyy
    return out, nxx * nyy - nxy * nyx


class MpmSystem:
    """A configured simulation: basis, material, mass mode, step size, BCs.

    ``body_force`` is a callable ``(reference_coords, t) -> (n, 2)`` or
    None; manufactured-solution forcing uses the reference coordinates.
    ``step`` advances particles in place and reuses the location cache.
    """

    def __init__(self, basis, material: MaterialModel, dt,
                 mass_mode=MassMode.CONSISTENT, constraints=(),
                 body_force=None, on_exit="abort"):
        self.basis = basis
        self.material = material
        self.dt = float(dt)
        self.mass_mode = mass_mode if isinstance(mass_mode, MassMode) \
            else MassMode.parse(mass_mode)
        self.body_force = body_force
        if on_exit not in ("abort", "clamp"):
            raise ValidationError("on_exit must be 'abort' or 'clamp'")
        self.on_exit = on_exit
        self.assembler = GridAssembler(basis)

        rows = basis.constraint_rows(constraints) if constraints else {0: [], 1: []}
        for comp_rows in rows.values():
            for _, _, rhs in comp_rows:
                if rhs != 0.0:
                    raise ValidationError(
                        "time stepping supports homogeneous constraints only")
        self.reductions = [ConstraintReduction(basis.n_bf, rows[k])
                           for k in (0, 1)]

    def step(self, particles: Particles, t=0.0):
        """Advance one time step; mutates ``particles``."""
        basis = self.basis
        if particles.loc is None:
            elem, sub, eta = basis.locator.locate_many(particles.x)
            if np.any(elem < 0):
                raise ParticleOutsideMesh("unlocatable particle at step start")
            particles.loc = (elem, sub, eta)
        elem, sub, eta = particles.loc
        transfer = Transfer(basis.n_bf,
                            *basis.evaluate_located(elem, sub, eta))

        mean_mass = float(particles.m.mean())
        mass_op = self.assembler.mass(transfer, elem, particles.m,
                                      self.mass_mode)

        body = None
        if self.body_force is not None:
            body = np.asarray(self.body_force(particles.x0, t), dtype=float)
        f_int, f_body = self.assembler.forces(transfer, particles, body=body)
        rhs = f_body - f_int

        a_hat = np.empty((basis.n_bf, 2))
        for k in range(2):
            a_hat[:, k] = solve_grid(mass_op, rhs[:, k], self.reductions[k],
                                     mean_mass, context=f"acceleration[{k}]")

        dv = self.dt * (transfer.N @ a_hat)
        if self.mass_mode is not MassMode.LUMPED:
            wave = self.material.wave_speed(float(particles.rho.mean()))
            kick = float(np.abs(dv).max())
            limit = VELOCITY_BLOWUP_FACTOR * wave
            if kick > limit:
                raise SolverDiverged(
                    f"velocity-kick check at t={t:.6g}: the acceleration "
                    f"solve changed a particle velocity by {kick:.3g} m/s "
                    f"in one step, above the threshold {limit:.3g} m/s "
                    f"({VELOCITY_BLOWUP_FACTOR:g} wave speeds)")
        particles.v += dv

        momentum = self.assembler.momentum(transfer, particles)
        v_hat = np.empty((basis.n_bf, 2))
        for k in range(2):
            v_hat[:, k] = solve_grid(mass_op, momentum[:, k],
                                     self.reductions[k], mean_mass,
                                     context=f"velocity[{k}]")

        # columns of Gx @ v_hat: d v_x / dx, d v_y / dx (Gy alike for y)
        dvx = transfer.Gx @ v_hat
        dvy = transfer.Gy @ v_hat
        exx, eyy = dvx[:, 0], dvy[:, 1]
        exy = 0.5 * (dvy[:, 0] + dvx[:, 1])
        if self.mass_mode is not MassMode.LUMPED:
            increment = self.dt * float(np.maximum(
                np.maximum(np.abs(exx), np.abs(eyy)), np.abs(exy)).max())
            if increment > STRAIN_INCREMENT_LIMIT:
                raise SolverDiverged(
                    f"strain-increment check at t={t:.6g}: the velocity "
                    f"projection gave a one-step strain increment of "
                    f"{increment:.3g}, above the threshold "
                    f"{STRAIN_INCREMENT_LIMIT:g}")
        particles.D, particles.J = deformation_update(particles.D, self.dt,
                                                      exx, eyy, exy)
        if np.any(particles.J <= 0.0):
            bad = int(np.argmin(particles.J))
            raise NonPositiveJacobian(
                f"particle {bad}: det(D) = {particles.J[bad]:.3e} at t={t:.6g}")
        particles.sigma = self.material.stress(particles.D, particles.J)
        particles.V = particles.J * particles.V0
        particles.rho = particles.m / particles.V

        vel = transfer.N @ v_hat
        particles.x = particles.x + self.dt * vel
        particles.u = particles.u + self.dt * vel

        new_elem, new_sub, new_eta = basis.locator.locate_many(
            particles.x, hint=elem)
        outside = new_elem < 0
        if outside.any():
            if self.on_exit == "abort":
                bad = int(np.nonzero(outside)[0][0])
                raise ParticleLeftDomain(
                    f"particle {bad} left the mesh at t={t + self.dt:.6g} "
                    f"(position {tuple(particles.x[bad])})")
            lo, hi = basis.tri.bbox()
            span = np.maximum(hi - lo, 1e-300)
            inset = 1e-12 * span
            particles.x[outside] = np.clip(particles.x[outside],
                                           lo + inset, hi - inset)
            new_elem, new_sub, new_eta = basis.locator.locate_many(
                particles.x, hint=elem)
            if np.any(new_elem < 0):
                raise ParticleLeftDomain("clamped particle still unlocatable")
        particles.loc = (new_elem, new_sub, new_eta)

    def run(self, particles: Particles, n_steps, t0=0.0, on_step=None):
        """Step ``n_steps`` times; ``on_step(i, t, particles)`` runs after
        each step with t the end-of-step time."""
        t = t0
        for i in range(n_steps):
            self.step(particles, t)
            t = t0 + (i + 1) * self.dt
            if on_step is not None:
                on_step(i, t, particles)
        return particles

"""Particle state, particle-dof transfers, mass-matrix modes and the step.

Transfers work per cell (a sub-triangle for splines, an element for
hats), where every active function is an extraction table times the
Bernstein polynomials of the cell barycentrics and its gradient is linear
in the basis's gradient weights.  Sparse particle-cell operators of the
Bernstein values and gradient weights carry them: particle-to-grid
transfers are their transposes' per-cell moments (``sum m B_k B_l``,
``sum V sigma w``, ``sum m b B_k``, ``sum m v B_k``, and ``sum m B_k`` in
lumped mode) contracted with the cell's tables; grid-to-particle values
and gradients are their products with per-cell coefficients.  The step
keeps the particles' deformation gradient and stress component-major.

``MpmSystem.run`` is the time loop.  A step runs the phases relocate, mass
and factorise, accelerate, project momentum (density-weighted L2), deform
and move; grid quantities are rebuilt every step.  A failed check raises a
``PsmpmError`` to which ``run`` adds the step number and start time.

The mass matrix is consistent, fully lumped (row sums on the diagonal),
or partially lumped: only rows whose basis function has at least one
particle-free element in its support are replaced by their lumped
diagonal, which preserves every row sum (hence the total mass).  Each
mode is one effective sparse matrix on a pattern fixed at setup: the union
of the element mass blocks (consistent and partial) or the diagonal
(lumped).  Every grid solve takes one path: one ``GridSolver`` for both
velocity components (see there) maps the step's matrix to the reduced,
block-diagonal ``P^T diag(M, M) P``, factorises it once with a sparse LU,
and reuses that factor for the acceleration and velocity-projection solves.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (NonPositiveJacobian, ParticleLeftDomain,
                     ParticleOutsideMesh, PsmpmError, SolverDiverged,
                     ValidationError)
from .mesh import _ragged_arange

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
        """The mode named ``name`` (a ``MassMode`` comes back unchanged)."""
        if isinstance(name, cls):
            return name
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

    def stress(self, D, J, out=None):
        """Cauchy stress for component-major deformation gradients (2, 2, n)
        in ``out`` (fresh when None; not overlapping D or J), per component:
        linear-elastic ``lam tr(e) I + 2 mu e`` with ``e = (D + D^T)/2 - I``,
        neo-Hookean ``lam ln(J)/J I + mu/J (D D^T - I)``.  The rows of
        ``out`` hold the partial terms, with one scratch row."""
        (a, b), (c, d) = D
        sigma = np.empty_like(D) if out is None else out
        (sxx, sxy), (syx, syy) = sigma
        row = np.empty_like(J)          # lam tr(e), or lam ln(J) / J
        if self.kind == "linear-elastic":
            np.add(np.subtract(a, 1.0, out=sxx), np.subtract(d, 1.0, out=syy),
                   out=row)
            row *= self.lam
            np.multiply(np.add(b, c, out=sxy), 0.5, out=sxy)
            scale = 2.0 * self.mu
        else:
            for s, (p, q) in ((sxx, (a, b)), (syy, (c, d))):
                np.add(np.multiply(p, p, out=s), np.multiply(q, q, out=sxy),
                       out=s)
                s -= 1.0
            np.add(np.multiply(a, c, out=sxy), np.multiply(b, d, out=syx),
                   out=sxy)
            np.multiply(np.log(J, out=row), self.lam, out=row)
            row /= J
            scale = np.divide(self.mu, J, out=syx)
        for s in (sxx, syy, sxy):
            s *= scale
        sxx += row
        syy += row
        np.copyto(syx, sxy)
        return sigma


def _component_major(name):
    """(n, 2, 2) view of the (2, 2, n) array ``name``; set from (n, 2, 2)."""
    return property(lambda p: getattr(p, name).transpose(2, 0, 1),
                    lambda p, v: setattr(p, name, np.ascontiguousarray(
                        np.moveaxis(v, 0, -1))))


class Particles:
    """State arrays of the material points.

    Particle mass is fixed at construction (m = V0 * rho0); volume and
    density evolve through the deformation-gradient determinant so that
    m = V * rho holds at all times.  ``D`` and ``sigma`` are (n, 2, 2)
    views of the step's component-major ``D_cm`` and ``sigma_cm`` (2, 2, n).
    A step updates the state arrays in place: copy one to keep its value.
    """

    D, sigma = _component_major("D_cm"), _component_major("sigma_cm")

    def __init__(self, positions, volumes, rho0):
        positions = np.asarray(positions, dtype=float)
        n = len(positions)
        self.x0 = positions.copy()          # reference coordinates
        self.x0.flags.writeable = False     # read-only: a cache key
        self.x = positions.copy()
        self.u = np.zeros((n, 2))
        self.v = np.zeros((n, 2))
        self.D_cm = np.repeat(np.eye(2)[:, :, None], n, axis=2)
        self.J = np.ones(n)
        self.sigma_cm = np.zeros((2, 2, n))
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
    particles.loc = locate_all(locator, pos, ParticleOutsideMesh,
                               "particle {} at {} is outside the mesh")
    return particles


def locate_all(locator, points, error, message, hint=None):
    """``locator.locate_many(points, hint)``; raises ``error`` with ``message``
    formatted by the first off-mesh point's index and position."""
    loc = locator.locate_many(points, hint=hint)
    if np.any(loc[0] < 0):
        bad = int(np.nonzero(loc[0] < 0)[0][0])
        raise error(message.format(bad, tuple(points[bad].tolist())))
    return loc


class SparsePattern:
    """Fixed compressed pattern of an n x n grid matrix.

    Built from the sorted keys ``major * n + minor`` of its stored entries:
    a CSR pattern (``major`` is every slot's row) or, with ``csc``, a CSC
    one (``major`` is every slot's column).  ``diag_slot`` is the slot of
    every diagonal entry, which must be stored.
    """

    def __init__(self, n, keys, csc=False):
        self.n = n
        self.compressed = sp.csc_matrix if csc else sp.csr_matrix
        self.major = keys // n
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.searchsorted(self.major,
                                      np.arange(n + 1)).astype(np.int32)
        self.diag_slot = np.searchsorted(keys, np.arange(n) * (n + 1))

    def matrix(self, data):
        return self.compressed((data, self.indices, self.indptr),
                               shape=(self.n, self.n))


# Assembled grid mass in one of the three modes: ``lumped`` holds the row
# sums (moments ``sum m N_i`` in lumped mode, else summed from the matrix)
# and ``data`` the effective operator on the fixed ``pattern`` of its mode
# (``pattern.matrix(data)`` is it as CSR): ``diag(lumped)`` in lumped mode,
# the consistent matrix in consistent mode and, in partial mode, the
# consistent matrix with the rows flagged by ``marked`` replaced by
# ``lumped[i] * e_i``.  Every mode keeps every row sum, hence the total mass.
MassOperator = namedtuple("MassOperator", "mode lumped data pattern marked",
                          defaults=(None,))


OPERATOR_CHUNK = 8192     # particles per batch of Bernstein temporaries

# One step's view of the located particles: element and sub-triangle ids
# (n,), cell barycentrics (3, n), the value operator ``S`` and ``S.T``.
CellPoints = namedtuple("CellPoints", "elem sub eta S S_t")


class GridAssembler:
    """Particle-grid transfers through sparse particle-cell operators.

    On cell c the active functions are ``N = O_c B(eta)`` (``ords``) and
    ``grad N = sum_w weights_w Z_c[:, w]`` (``grad_ops``), with the basis's
    gradient weights: the barycentrics for splines, one row of ones for
    hats, whose gradients are constant per cell.  These tables and the cell
    dofs are the basis's own; the CSR pattern of the element mass blocks
    (with the slot of every block entry), the diagonal pattern of lumped
    mass and ``scatter``, which sums per-cell dof values per dof, are built
    once here.  A step's value operator ``S`` (CSR, n x n_cells K) holds
    particle p's K Bernstein values at columns ``cell_p K + k``, its
    gradient operator the W gradient weights alike.  Products with their
    CSC transposes sum each cell moment over ascending particles, products
    with them each particle over ascending k, from 0.
    """

    def __init__(self, basis):
        self.basis = basis
        self.n_bf = n_bf = basis.n_bf
        self.ords = basis.cell_ordinates
        self.n_cells, _, self.n_bern = self.ords.shape
        self.cell_dofs, self.grad_ops = basis.cell_dofs, basis.grad_ops
        flat = self.cell_dofs.ravel()
        self.scatter = sp.csr_matrix((np.ones(flat.size), (
            flat, np.arange(flat.size))), shape=(n_bf, flat.size))
        ed = basis.element_dofs
        keys, slots = np.unique(ed[:, :, None] * np.int64(n_bf) + ed[:, None],
                                return_inverse=True)
        self.slots = slots.reshape(len(ed), -1)
        self.pattern = SparsePattern(n_bf, keys)
        self.diag_pattern = SparsePattern(n_bf, np.arange(n_bf) * (n_bf + 1))

    def mass_pattern(self, mode: MassMode) -> SparsePattern:
        return self.diag_pattern if mode is MassMode.LUMPED else self.pattern

    def located(self, elem, sub, eta) -> CellPoints:
        eta = np.ascontiguousarray(np.asarray(eta).T)
        bern = np.empty((len(elem), self.n_bern))
        for lo in range(0, len(elem), OPERATOR_CHUNK):
            part = slice(lo, lo + OPERATOR_CHUNK)
            bern[part] = self.basis.bernstein(eta[:, part]).T
        s = self._operator((elem, sub), bern.T)
        return CellPoints(elem, sub, eta, s, s.T)

    def _operator(self, loc, rows):
        """Int32 CSR whose row p holds ``rows[:, p]`` at ``cell_p W + w``."""
        w, n = rows.shape
        cols = np.add.outer(w * self.basis.locator.cell_of(*loc[:2]).astype(
            np.int32), np.arange(w, dtype=np.int32))
        return sp.csr_matrix((rows.T.ravel(), cols.ravel(),
                              np.arange(0, n * w + 1, w, dtype=np.int32)),
                             shape=(n, self.n_cells * w))

    def _project(self, pts: CellPoints, m, w):
        """(n_bf, 2) sums ``sum_p N(x_p) m_p w_p``; m is (n,), w (n, 2)."""
        q = (pts.S_t @ (m[:, None] * w)).reshape(self.n_cells, self.n_bern, 2)
        return self.scatter @ (self.ords @ q).reshape(-1, 2)

    def mass(self, pts: CellPoints, masses, mode: MassMode) -> MassOperator:
        pattern, shape = self.mass_pattern(mode), (self.n_cells, self.n_bern)
        if mode is MassMode.LUMPED:
            b = (pts.S_t @ masses).reshape(shape)
            lumped = self.scatter @ (self.ords @ b[..., None]).ravel()
            return MassOperator(mode, lumped, lumped, pattern)
        k_b = self.n_bern
        s = np.empty((self.n_cells, k_b, k_b))
        for k, row in enumerate(pts.S.data.reshape(-1, k_b).T):
            q = (pts.S_t @ (masses * row)).reshape(shape)   # sum m B_k B_l
            s[:, k, k:] = s[:, k:, k] = q[:, k:]
        blocks = self.ords @ s @ self.ords.transpose(0, 2, 1)
        blocks = blocks.reshape((len(self.slots), -1) + blocks.shape[1:])
        data = np.bincount(self.slots.ravel(), blocks.sum(axis=1).ravel(),
                           minlength=len(pattern.indices))
        lumped = np.bincount(pattern.major, data, minlength=self.n_bf)
        if mode is MassMode.CONSISTENT:
            return MassOperator(mode, lumped, data, pattern)
        empty = np.bincount(pts.elem, minlength=len(self.slots)) == 0
        marked = np.zeros(self.n_bf, dtype=bool)
        marked[self.basis.element_dofs[empty]] = True
        data[marked[pattern.major]] = 0.0
        data[pattern.diag_slot[marked]] = lumped[marked]
        return MassOperator(mode, lumped, data, pattern, marked)

    def forces(self, pts: CellPoints, particles, body_force=None, t=0.0):
        """Internal and body force vectors, each (n_bf, 2): the moments
        ``sum V sigma_ab w`` of each cell (symmetric sigma, every gradient
        weight row w), and the body force per unit mass
        ``body_force(particles.x0, t)`` (none when None) projected first."""
        f_body = np.zeros((self.n_bf, 2)) if body_force is None else (
            self._project(pts, particles.m, np.asarray(
                body_force(particles.x0, t), dtype=float)))
        g_t = self._operator(pts, self.basis.gradient_weights(pts.eta)).T
        n_w = g_t.shape[0] // self.n_cells
        mom = np.empty((self.n_cells, n_w, 2, 2))      # [c, w, b, a]
        for a, b in ((0, 0), (0, 1), (1, 1)):
            vs = g_t @ (particles.V * particles.sigma_cm[a, b])
            mom[:, :, a, b] = mom[:, :, b, a] = vs.reshape(-1, n_w)
        f_int = self.grad_ops @ mom.reshape(self.n_cells, -1, 2)
        return self.scatter @ f_int.reshape(-1, 2), f_body

    def momentum(self, pts: CellPoints, particles):
        return self._project(pts, particles.m, particles.v)

    def values(self, pts: CellPoints, coeffs):
        """(n, 2) fields ``sum_d N_d coeffs[d]`` at the particles (C order)."""
        table = self.ords.transpose(0, 2, 1) @ coeffs[self.cell_dofs]
        return pts.S @ table.reshape(-1, 2)

    def gradients(self, pts: CellPoints, coeffs):
        """(2, 2, n) gradients ``d field_a / d x_b`` at the particles."""
        table = self.grad_ops.transpose(0, 2, 1) @ coeffs[self.cell_dofs]
        g = self._operator(pts, self.basis.gradient_weights(pts.eta))
        return (g @ table.reshape(-1, 4)).reshape(-1, 2, 2).transpose(2, 1, 0)


class ConstraintReduction:
    """Change of unknowns that imposes homogeneous constraint rows.

    Constraint rows touch one vertex block each (one dof for hats, three
    for splines).  Per block, an SVD of the stacked rows yields an
    orthonormal basis of the directions the rows leave free; every
    ``P @ z`` satisfies the rows.  The prolongation ``P`` keeps
    unconstrained dofs as-is, so a reduced consistent matrix stays
    symmetric positive definite.  A reduction built with no rows is the
    identity.
    """

    def __init__(self, n_bf, rows):
        grouped = {}
        for dofs, coeffs in rows:
            grouped.setdefault(tuple(int(d) for d in dofs), []).append(coeffs)
        free = np.ones(n_bf, dtype=bool)
        nulls = []                # (block dofs, one free direction)
        for key in sorted(grouped):
            a = np.array(grouped[key], dtype=float)
            _, s, vt = np.linalg.svd(a, full_matrices=True)
            rank = int((s > max(a.shape) * np.finfo(float).eps * s[0]).sum())
            nulls += [(np.asarray(key), v) for v in vt[rank:]]
            free[list(key)] = False
        self.free_dofs = np.nonzero(free)[0]
        n_free = len(self.free_dofs)
        self.P = sp.csr_matrix((
            np.concatenate([np.ones(n_free)] + [v for _, v in nulls]),
            (np.concatenate([self.free_dofs] + [d for d, _ in nulls]),
             np.concatenate([np.arange(n_free)] + [np.full(len(d), n_free + j)
                                                   for j, (d, _) in enumerate(nulls)]))),
            shape=(n_bf, n_free + len(nulls)))
        self.PT = self.P.T.tocsr()
        self.abs_PT = abs(self.PT)


class GridSolver:
    """The reduced system ``A = P^T diag(M, ..., M) P`` of stacked components.

    ``M`` is any mass operator on ``mass_pattern`` (n x n) and ``P`` the
    constraint prolongation of ``P.shape[0] // n`` stacked field components:
    dof ``c n + i`` is dof ``i`` of component ``c``.  Every entry of ``A`` is
    a fixed combination ``sum P_ki P_lj M_kl`` of the stored entries of
    ``M``, so ``A.data = R @ M.data`` on ``pattern``, whose keys are
    column-major: ``A`` comes out in the CSC order the sparse LU takes.
    Constraint blocks never mix components, so ``A`` is block diagonal and
    ``component`` labels each reduced unknown with its component.  A system
    builds one solver; each step factorises it once.
    """

    def __init__(self, mass_pattern: SparsePattern,
                 reduction: ConstraintReduction):
        self.reduction = reduction
        p, n, nnz = reduction.P, mass_pattern.n, len(mass_pattern.indices)
        self.n_comp = p.shape[0] // n
        shift = np.repeat(np.arange(self.n_comp) * n, nnz)
        rows = np.tile(mass_pattern.major, self.n_comp) + shift
        cols = np.tile(mass_pattern.indices, self.n_comp) + shift
        # every (P row k entry, P row l entry) pair of every slot (k, l)
        nl = np.diff(p.indptr)[cols]
        count = np.diff(p.indptr)[rows] * nl
        slot = np.repeat(np.arange(len(rows)), count)
        pair = _ragged_arange(count)
        ik = p.indptr[rows][slot] + pair // nl[slot]
        jl = p.indptr[cols][slot] + pair % nl[slot]
        keys, entry = np.unique(
            p.indices[jl].astype(np.int64) * p.shape[1] + p.indices[ik],
            return_inverse=True)
        self.pattern = SparsePattern(p.shape[1], keys, csc=True)
        self.R = sp.csr_matrix((p.data[ik] * p.data[jl], (entry, slot % nnz)),
                               shape=(len(keys), nnz))
        self.component = reduction.PT.indices[reduction.PT.indptr[:-1]] // n

    def factorise(self, mass_op: MassOperator, tol):
        """``(active, A, lu)``: the unknowns whose diagonal exceeds ``tol``,
        ``A`` with the others turned into identity rows and columns, and
        the LU factor of ``A + FACTOR_SHIFT * diag(A)`` (None when no
        unknown is active).

        Raises:
            SolverDiverged: when the diagonal ratio of the consistent rows
                of ``A`` (all components) exceeds ``ILL_CONDITION_RATIO``.
        """
        pattern = self.pattern
        data = self.R @ mass_op.data
        diag = data[pattern.diag_slot]
        active = diag > tol
        if mass_op.mode is not MassMode.LUMPED:
            checked = active
            if mass_op.marked is not None:
                # reduced unknowns on unmarked dofs (constraint blocks and
                # marks are both per vertex, so no unknown straddles the two)
                checked = active & (self.reduction.abs_PT @ np.tile(
                    mass_op.marked, self.n_comp) == 0)
            dsub = diag[checked]
            if dsub.size and dsub.max() > ILL_CONDITION_RATIO * dsub.min():
                raise SolverDiverged(
                    f"consistent mass matrix is ill-conditioned "
                    f"(diagonal ratio {dsub.max() / dsub.min():.1e}); a "
                    "basis function has (almost) no particle support")
        lu = None
        if active.any():
            inactive = ~active
            data[inactive[pattern.major] | inactive[pattern.indices]] = 0.0
            data[pattern.diag_slot[inactive]] = 1.0
            shifted, d = data.copy(), pattern.diag_slot
            shifted[d] += FACTOR_SHIFT * shifted[d]
            lu = spla.splu(pattern.matrix(shifted))
        return active, pattern.matrix(data), lu


def solve_grid(solver: GridSolver, factor, rhs, context=""):
    """Solve M c = rhs, components stacked, with ``solver.factorise(M, ...)``.

    ``M`` is the mass operator's effective matrix in every mode, so partial
    mode solves exactly the row-replaced operator of the partial-lumping
    rule.  The reduced right-hand side ``P^T rhs`` is zeroed on inactive
    unknowns, so their coefficients come back exactly zero.  The shifted
    factor's answer is refined once against ``A``: exact to rounding on a
    well-posed system, and still defined when too few particles leave a
    combination of basis functions without mass.  The solution ``P x``
    satisfies the reduction's (homogeneous) constraint rows.

    Raises:
        SolverDiverged: when a component's residual ``|A x - b|`` exceeds
            ``RESIDUAL_RTOL * |b|``; the message names those components.
    """
    active, a, lu = factor
    if lu is None:
        return np.zeros(len(rhs))
    reduction = solver.reduction
    b = reduction.PT @ rhs
    b[~active] = 0.0
    y = lu.solve(b)
    y += lu.solve(b - a @ y)
    resid, norm = (np.sqrt(np.bincount(solver.component, v * v))
                   for v in (b - a @ y, b))
    bad = np.nonzero(resid > RESIDUAL_RTOL * norm)[0]
    if bad.size:
        raise SolverDiverged(
            f"solve residual {(resid[bad] / norm[bad]).max():.1e} exceeds "
            f"{RESIDUAL_RTOL:.0e} of the right-hand side in "
            f"{context or 'solve'}{bad.tolist()}; the mass matrix is "
            "singular along the right-hand side")
    return reduction.P @ y


def deformation_update(D, dt, exx, eyy, exy, out=None):
    """``(I + dt eps) D`` and its determinant for component-major deformation
    gradients (2, 2, n) and per-component strain rates, into ``out = (D_new,
    J)`` (fresh when None); ``D_new`` may be ``D``, with a (2, n) scratch."""
    D_new, J = (np.empty_like(D), np.empty_like(exx)) if out is None else out
    axx, ayy, axy = 1.0 + dt * exx, 1.0 + dt * eyy, dt * exy
    p, q = np.empty((2,) + np.shape(exx))
    for (dx, dy), (nx, ny) in zip(D.swapaxes(0, 1), D_new.swapaxes(0, 1)):
        np.multiply(axy, dy, out=p)
        np.multiply(ayy, dy, out=q)
        np.add(np.multiply(axy, dx, out=ny), q, out=ny)   # ny may be dy
        np.add(np.multiply(axx, dx, out=nx), p, out=nx)
    (nxx, nxy), (nyx, nyy) = D_new
    np.subtract(np.multiply(nxx, nyy, out=J), np.multiply(nxy, nyx, out=p),
                out=J)
    return D_new, J


class MpmSystem:
    """A configured simulation: basis, material, mass mode, step size, BCs.

    ``body_force`` is a callable ``(reference_coords, t) -> (n, 2)`` or
    None; manufactured-solution forcing uses the reference coordinates.
    ``constraints`` pin field values (and, for splines, tangential
    derivatives) to zero; ``solver`` is the ``GridSolver`` of both velocity
    components, stacked.  ``run`` is the time loop; ``step`` runs its
    phases in place.
    """

    def __init__(self, basis, material: MaterialModel, dt,
                 mass_mode=MassMode.CONSISTENT, constraints=(),
                 body_force=None):
        self.basis = basis
        self.material = material
        self.dt = float(dt)
        self.mass_mode = MassMode.parse(mass_mode)
        self.body_force = body_force
        self.assembler = GridAssembler(basis)

        n, rows = basis.n_bf, basis.constraint_rows(constraints)
        self.solver = GridSolver(
            self.assembler.mass_pattern(self.mass_mode),
            ConstraintReduction(2 * n, rows[0] + [(dofs + n, c)
                                                  for dofs, c in rows[1]]))

    def step(self, particles: Particles, t=0.0):
        """Advance one time step from time ``t``.  Phases: relocate,
        factorise, accelerate, project momentum, deform, move.  The state is
        updated in place (only ``loc`` is replaced): copy arrays to keep
        them.  Its value operator is freed once the new velocities are
        read, before the deform phase builds the gradient operator."""
        pts = self._relocate(particles, t)
        factor = self._factorise(pts, particles)
        self._accelerate(pts, factor, particles, t)
        v_hat = self._solve(factor, self.assembler.momentum(pts, particles),
                            "velocity")           # project momentum
        vel = self.assembler.values(pts, v_hat)
        pts = pts._replace(S=None, S_t=None)      # freed before deform
        self._deform(pts, v_hat, particles, t)
        self._move(vel, particles, t)

    def _relocate(self, particles, t):
        """Cell view of the particles at the location the last step cached
        (its hinted locate), or at a full search's when none is cached."""
        if particles.loc is None:
            particles.loc = locate_all(
                self.basis.locator, particles.x, ParticleOutsideMesh,
                f"particle {{}} at {{}} is outside the mesh at step start "
                f"(t={t:.6g})")
        return self.assembler.located(*particles.loc)

    def _factorise(self, pts, particles):
        """Assemble the mass operator and factorise it."""
        mass_op = self.assembler.mass(pts, particles.m, self.mass_mode)
        tol = ZERO_MASS_REL_TOL * float(particles.m.mean())
        return self.solver.factorise(mass_op, tol)

    def _solve(self, factor, rhs, name):
        """Grid coefficients (n_bf, 2) of ``rhs`` (n_bf, 2) in one solve."""
        return solve_grid(self.solver, factor, rhs.T.ravel(),
                          name).reshape(2, -1).T

    def _accelerate(self, pts, factor, particles, t):
        """Kick the particle velocities by the grid acceleration of the body
        and internal forces.  Outside lumped mode a kick above
        ``VELOCITY_BLOWUP_FACTOR`` wave speeds raises ``SolverDiverged``."""
        f_int, f_body = self.assembler.forces(pts, particles, self.body_force,
                                              t)
        a_hat = self._solve(factor, f_body - f_int, "acceleration")
        dv = self.assembler.values(pts, a_hat)
        dv *= self.dt
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

    def _deform(self, pts, v_hat, particles, t):
        """Check the strain increment (outside lumped mode; a failure writes
        nothing), then update D and J and, unless a J <= 0 raises, sigma, V
        and rho in place from the projected velocity ``v_hat``."""
        grad = self.assembler.gradients(pts, v_hat)   # d v_a / d x_b
        (exx, exy), (scratch, eyy) = grad     # rates and the check's scratch
        np.multiply(np.add(exy, scratch, out=exy), 0.5, out=exy)
        if self.mass_mode is not MassMode.LUMPED:
            increment = self.dt * float(np.max(
                [np.abs(e, out=scratch).max() for e in (exx, eyy, exy)]))
            if increment > STRAIN_INCREMENT_LIMIT:
                raise SolverDiverged(
                    f"strain-increment check at t={t:.6g}: the velocity "
                    f"projection gave a one-step strain increment of "
                    f"{increment:.3g}, above the threshold "
                    f"{STRAIN_INCREMENT_LIMIT:g}")
        p = particles
        deformation_update(p.D_cm, self.dt, exx, eyy, exy, out=(p.D_cm, p.J))
        if np.any(p.J <= 0.0):
            bad = int(np.argmin(p.J))
            raise NonPositiveJacobian(
                f"particle {bad}: det(D) = {p.J[bad]:.3e} at t={t:.6g}")
        self.material.stress(p.D_cm, p.J, out=p.sigma_cm)
        np.multiply(p.J, p.V0, out=p.V)
        np.divide(p.m, p.V, out=p.rho)

    def _move(self, vel, particles, t):
        """Move the particles by ``dt vel`` (``vel`` is overwritten) and
        locate them with their old location as hint."""
        vel *= self.dt
        particles.x += vel
        particles.u += vel
        particles.loc = locate_all(
            self.basis.locator, particles.x, ParticleLeftDomain,
            f"particle {{}} left the mesh at t={t + self.dt:.6g} "
            f"(position {{}})", hint=particles.loc[:2])

    def run(self, particles: Particles, n_steps, on_step=None):
        """The time loop: ``n_steps`` steps from t = 0, each followed by
        ``on_step(i, t, particles)`` (t: end of step; the arrays are live,
        so copy any kept).  A ``PsmpmError`` from step i leaves with
        ``step = i + 1`` and ``t = i * dt`` set on it."""
        for i in range(n_steps):
            try:
                self.step(particles, i * self.dt)
            except PsmpmError as exc:
                exc.step, exc.t = i + 1, i * self.dt
                raise
            if on_step is not None:
                on_step(i, (i + 1) * self.dt, particles)
        return particles

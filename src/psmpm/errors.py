"""Exception types shared across the package."""


class PsmpmError(Exception):
    """Base class for all errors raised by this package."""

    step = t = None     # set by ``MpmSystem.run`` on an error from a step


class DegenerateTriangle(PsmpmError):
    """Triangle area is below the degeneracy tolerance."""


class MeshDegenerate(PsmpmError):
    """A mesh violates the triangulation invariants."""


class RefinementFailed(PsmpmError):
    """A split point of the six-way refinement fell outside its edge."""


class CollinearPoints(PsmpmError):
    """A point set required to span 2D is (numerically) collinear."""


class SingularControlTriangle(PsmpmError):
    """Control-triangle system is singular; triplets cannot be computed."""


class InteriorVertexConstrained(PsmpmError):
    """A Dirichlet constraint was placed on a non-boundary vertex."""


class UnsupportedBoundaryTangent(PsmpmError):
    """Only axis-aligned boundary tangents are supported."""


class OutsideDomain(PsmpmError):
    """Evaluation point lies outside the mesh."""


class ParticleOutsideMesh(PsmpmError):
    """Initial particle layout produced points outside the mesh."""


class SolverDiverged(PsmpmError):
    """A step stopped being a trustworthy solution: an ill-conditioned or
    singular grid mass system, or a velocity kick or strain increment no
    resolved physics produces."""


class NonPositiveJacobian(PsmpmError):
    """Deformation gradient determinant dropped to zero or below."""


class ParticleLeftDomain(PsmpmError):
    """A particle position update moved it off the mesh."""


class ParseError(PsmpmError):
    """Config or mesh file could not be parsed. Carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(PsmpmError):
    """A parsed value is out of range or a key is unknown."""

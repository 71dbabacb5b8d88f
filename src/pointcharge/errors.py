"""Exception types shared across the package."""


class PointChargeError(Exception):
    """Base class for all package errors."""


class NoConvergence(PointChargeError):
    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"root finder did not converge after {iterations} iterations "
            f"(worst residual {residual:.3e})"
        )


class OnWorldline(PointChargeError):
    """Observer point coincides with the worldline; retarded distance is 0."""


class BehindHorizon(PointChargeError):
    """Observer point lies behind the worldline's past horizon: its past
    light cone meets no point of the worldline, so it has no retarded time."""


class InvalidMollifier(PointChargeError):
    pass


class SmoothnessRequired(PointChargeError):
    """Operation needs H'' but the family was built from a piecewise mollifier."""


class NoTrend(PointChargeError):
    """Pairing values show no decreasing trend toward the target."""


class UnsupportedAtom(PointChargeError):
    """Requested distribution atom exceeds the configured maximum order."""


class ClosureViolation(PointChargeError):
    """A rewrite produced a term outside the atom alphabet."""


class OutOfRange(PointChargeError):
    def __init__(self, message, infimum=None):
        self.infimum = infimum
        super().__init__(message)


class ConfigError(PointChargeError):
    pass

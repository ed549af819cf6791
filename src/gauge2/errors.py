"""Exception taxonomy shared across the package."""


class Gauge2Error(Exception):
    """Base class for all package errors."""


class StructureError(Gauge2Error):
    """Malformed algebraic input (bad table, wrong shape, broken axiom);
    ``part`` names the argument at fault, where one is."""

    def __init__(self, message, part=None):
        super().__init__(message)
        self.part = part


class DomainError(Gauge2Error):
    """Operands belong to different algebraic structures or wrong domain."""


class ComposabilityError(Gauge2Error):
    """Source/target mismatch for a categorical composition."""

    def __init__(self, message, mismatch=None):
        super().__init__(message)
        self.mismatch = mismatch


class EquivarianceError(Gauge2Error):
    """A map failed an equivariance/naturality check; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BranchError(Gauge2Error):
    """Matrix logarithm requested outside the principal branch."""


class MembershipError(Gauge2Error):
    """Matrix fails the group membership predicate beyond tolerance."""


class SamplingError(Gauge2Error):
    """A sampling plan was degenerate for the requested check."""


class ParseError(Gauge2Error):
    """Expression syntax error with position and expected-token info."""

    def __init__(self, message, line, column, expected=()):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
        self.expected = tuple(expected)


class EvalError(Gauge2Error):
    """Runtime expression-evaluation failure."""


class UnboundVariableError(EvalError):
    def __init__(self, name):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class MathDomainError(EvalError):
    def __init__(self, op, value):
        super().__init__(f"domain error in {op!r} at operand value {value!r}")
        self.op = op
        self.value = value


class ConfigError(Gauge2Error):
    """Config failed schema validation; carries the offending JSON path."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path

"""Exception hierarchy. Every error carries a minimal witness of the failure."""

from __future__ import annotations


class FinstackError(Exception):
    """Base class for all input and axiom errors raised by this package."""


class DanglingId(FinstackError):
    """A table referenced an object or arrow id that was never declared."""

    def __init__(self, table: str, key: object, value: object = None):
        self.table = table
        self.key = key
        self.value = value
        super().__init__(f"{table}: undeclared id {value if value is not None else key!r} (at {key!r})")


class AxiomViolation(FinstackError):
    """A groupoid or category axiom failed; `witness` names the offending cells."""

    def __init__(self, axiom: str, witness: object):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"axiom {axiom} fails at {witness!r}")


class NotAnAction(FinstackError):
    def __init__(self, witness: object):
        self.witness = witness
        super().__init__(f"not a right action: {witness!r}")


class MismatchedTarget(FinstackError):
    pass


class UnknownObject(FinstackError):
    def __init__(self, obj: object):
        self.obj = obj
        super().__init__(f"unknown object {obj!r}")


class UnknownBasepoint(UnknownObject):
    pass


class InsufficientTruncation(FinstackError):
    """The requested degree needs more simplicial levels than were built."""

    def __init__(self, degree: int, cap: int):
        self.degree = degree
        self.cap = cap
        super().__init__(f"degree {degree} needs truncation cap >= {degree + 1}, have {cap}")


class EnumerationBudgetExceeded(FinstackError):
    def __init__(self, budget: int, search: str, unit: str):
        self.budget = budget
        super().__init__(f"{search} exceeded budget of {budget} {unit}")


class LevelInactive(FinstackError):
    def __init__(self, level: int, simplex: object):
        self.level = level
        self.simplex = simplex
        super().__init__(f"level {level} not active on {simplex!r}")


class NotSameOrbit(FinstackError):
    pass


class C1Violation(FinstackError):
    def __init__(self, w: object, i: object, j: object, detail: str = ""):
        self.witness = (w, i, j)
        super().__init__(f"C1 fails at w={w!r}, (i,j)=({i!r},{j!r}) {detail}".rstrip())


class C2Violation(FinstackError):
    def __init__(self, w: object, i: object, j: object, k: object):
        self.witness = (w, i, j, k)
        super().__init__(f"C2 fails at w={w!r}, (i,j,k)=({i!r},{j!r},{k!r})")


class InvalidClass(FinstackError):
    """The designated morphism class is not closed under the required operations."""

    def __init__(self, reason: str, witness: object):
        self.witness = witness
        super().__init__(f"invalid morphism class: {reason} at {witness!r}")


class OracleMissing(FinstackError):
    def __init__(self, pair: object):
        self.pair = pair
        super().__init__(f"pullback oracle undefined on {pair!r}")


class HypothesisFails(FinstackError):
    def __init__(self, witness: object):
        self.witness = witness
        super().__init__(f"section hypothesis fails for {witness!r}")


class NotFComplete(FinstackError):
    def __init__(self, at: object, witness: object):
        self.at = at
        self.witness = witness
        super().__init__(f"indexed category not complete at {at!r}: {witness!r}")


class NoFinalObject(FinstackError):
    pass


class NotFunctorial(FinstackError):
    def __init__(self, witness: object):
        self.witness = witness
        super().__init__(f"assignment is not functorial at {witness!r}")


class SchemaError(FinstackError):
    """A JSON document does not match the expected interchange schema."""


class UsageError(FinstackError):
    """Bad command line; message includes subcommand help."""

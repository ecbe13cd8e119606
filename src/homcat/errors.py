"""Structured errors shared by every engine module.

Each error carries the witness data that falsifies the input, so callers
(and the CLI) can report exactly which axiom broke and where.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class; ``payload`` holds witness data as plain JSON-able values."""

    def __init__(self, message: str, **payload):
        super().__init__(message)
        self.message = message
        self.payload = dict(payload)

    def report(self) -> dict:
        return {"error": type(self).__name__, "message": self.message, **self.payload}


class SchemaError(EngineError):
    """Input file does not match the expected JSON schema."""


class InvalidStructure(EngineError):
    """Well-shaped data whose tables break a semantic law (functoriality,
    simplicial identities, naturality)."""


class DuplicateName(EngineError):
    pass


class BadEndpoints(EngineError):
    pass


class MissingComposite(EngineError):
    pass


class NonAssociative(EngineError):
    """Carries a witness triple (h, g, f) with (h∘g)∘f != h∘(g∘f)."""


class EndpointMismatch(EngineError):
    pass


class UnknownObject(EngineError):
    pass


class NotBijective(EngineError):
    """Raised when a verified-bijective map fails enumeration; signals a bug."""


class NotUniversal(EngineError):
    """Carries the test functor witnessing a failed universal property."""


class BudgetExceeded(EngineError):
    pass


class CapExceeded(EngineError):
    pass


class NotMonotone(EngineError):
    pass


class BadIndices(EngineError):
    pass


class IndexOutOfRange(EngineError):
    pass


class InvalidAssignment(EngineError):
    pass


class NotAGroup(EngineError):
    pass


class NotAssociative(EngineError):
    pass


class NoUnit(EngineError):
    pass


class UnitAxiomFailed(EngineError):
    pass


class AssocAxiomFailed(EngineError):
    pass


class BaseNotFound(EngineError):
    pass


class DimensionTooLow(EngineError):
    pass


class Budget:
    """Mutable countdown shared across a search; raises when exhausted.
    Every search charges it once per value tried for a key, and an
    exhausted one says how much was spent and on what.  A negative limit
    is bad input, not an exhausted search."""

    def __init__(self, limit: int):
        self.limit = int(limit)
        if self.limit < 0:
            raise SchemaError(
                f"search budget must be nonnegative, got {limit}", budget=self.limit
            )
        self.spent = 0

    def charge(self, amount: int = 1, what: str = "search") -> None:
        self.spent += amount
        if self.spent > self.limit:
            raise BudgetExceeded(
                f"{what}: budget of {self.limit} values exhausted",
                limit=self.limit,
                spent=self.spent,
                what=what,
            )


DEFAULT_FUNCTOR_BUDGET = 10**7
DEFAULT_HORN_BUDGET = 10**6

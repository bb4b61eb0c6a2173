"""Domain error types. The CLI reports these by class name with exit code 1."""


class DomainError(Exception):
    """Base class for all domain-level failures raised by this package."""


# field construction / arithmetic
class NonPrimeP(DomainError): pass
class BadDegreeDivisibility(DomainError): pass
class GcdViolation(DomainError): pass
class NonPrimitiveModpoly(DomainError): pass
class FieldTooLarge(DomainError): pass
class DivisionByZero(DomainError): pass
class ParseError(DomainError): pass


# skew polynomials
class MixedContexts(DomainError): pass
class DivisionByZeroPoly(DomainError): pass
class ZeroInput(DomainError): pass


# conjugacy
class ZeroArgument(DomainError): pass
class ZeroConjugator(DomainError): pass
class WrongClass(DomainError): pass
class InapplicableField(DomainError): pass


# minimal polynomials / closures
class MixedClasses(DomainError): pass


# matroid
class TooLargeToEnumerate(DomainError): pass
class NotC1Flat(DomainError): pass


# network simulation
class RankOutOfRange(DomainError): pass
class EmptyInput(DomainError): pass
class SpecInvalid(DomainError): pass

"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: InputError and DomainError are user/domain
problems (exit 1); ResourceCapError means a configured cap was hit (exit 2);
CertificateError means a check behind an exact result failed, which is a bug
in the package, not in the input (exit 3).
"""


class CoxlenError(Exception):
    """Base class for all package errors."""


class InputError(CoxlenError):
    """Malformed input text or matrix data."""


class DomainError(CoxlenError):
    """Structurally valid input outside an operation's domain."""


class ResourceCapError(CoxlenError):
    """A configured node/size cap was exceeded before completion."""


class CertificateError(CoxlenError):
    """A certificate check failed: a re-multiplied witness, a proven bound or
    an exactness invariant did not hold.  Raised explicitly, so the checks
    still run under `python -O`."""


class UnsupportedParametersError(DomainError):
    """Parameter combination outside the supported (rational) range."""


class ConstructionFailedError(CoxlenError):
    """A verify-and-retry construction exhausted its schedule."""


class SearchExhaustedError(CoxlenError):
    """A bounded search ended without a witness."""


class NotCertifiedError(CoxlenError):
    """Refusal to certify: the defect has not stabilized, or no positive
    constant exists."""

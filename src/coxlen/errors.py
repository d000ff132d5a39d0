"""Exception hierarchy shared across the package: one kind per exit code.

InputError and DomainError are problems with the input (exit 1);
ResourceCapError means a fixed cap was hit (exit 2); CertificateError means a
check behind an exact result failed, which is a bug in the package, not in
the input (exit 3).  Every certificate check goes through `require`, so no
other module constructs a CertificateError.
"""


class CoxlenError(Exception):
    """Base class for all package errors."""


class InputError(CoxlenError):
    """Malformed input text or matrix data."""


class DomainError(CoxlenError):
    """Structurally valid input outside an operation's domain, including a
    bounded search or construction that ends without a result."""


class ResourceCapError(CoxlenError):
    """A configured node/size cap was exceeded before completion."""


class CertificateError(CoxlenError):
    """A certificate check failed: a re-multiplied witness, a proven bound or
    an exactness invariant did not hold."""


def require(ok, message, *args):
    """Raise CertificateError(message % args) unless `ok`.  The message is
    formatted only on failure, and the check is an explicit raise, so it
    still runs under `python -O`."""
    if not ok:
        raise CertificateError(message % args)

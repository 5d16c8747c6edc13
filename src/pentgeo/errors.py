"""Exception types shared across the package.

Every error the package raises deliberately is one of three classes, one per
pentctl exit code:

- PentError, exit 1: a negative verdict.  A design, geometry or plan failed
  its check, no recipe here builds a requested ingredient, or a construction
  cannot use its input.
- UsageError(PentError), exit 2: the request itself is malformed.  A file
  does not parse, or a parameter is outside its domain.
- ClimbFailed(PentError), exit 3: a hill climb exhausted its budget on every
  restart.

The message says what failed and quotes its witness (the pair, point, line
or file line) where there is one; callers and tests tell errors of one
family apart by it.  Add a class only when an except clause must tell it
apart from the rest of its family.
"""

from __future__ import annotations


class PentError(Exception):
    """A negative verdict; the base class of every error raised here."""


class UsageError(PentError):
    """Malformed input, or parameters outside their domain."""


class ClimbFailed(PentError):
    """Hill climbing exhausted its budget on every restart."""

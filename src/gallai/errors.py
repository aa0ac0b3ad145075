"""Exception types shared across the package.

The CLI maps these onto exit codes: malformed input and size-guard
violations are usage errors (exit 2), infeasibility and rainbow triangles
are semantic negatives (exit 1).  NotGallaiError is the one refusal of
rainbow input; no input raises InternalConsistencyError, so it means a bug.

Messages never echo unbounded input: sequences are shown through
``preview``, which keeps a fixed prefix and states the entry count, and
text through ``clip``, which keeps a fixed prefix and states its length.
"""

import re
from contextlib import suppress

PREVIEW_ENTRIES = 8
PREVIEW_CHARS = 80
ECHO_CHARS = 40  # longest text prefix an error message repeats


def preview(values) -> str:
    """``values`` as a list literal, or for a long list its first entries
    (at most PREVIEW_CHARS characters of them) and the entry count."""
    head = "[" + ", ".join(str(v) for v in values[:PREVIEW_ENTRIES])
    if len(values) <= PREVIEW_ENTRIES and len(head) <= PREVIEW_CHARS:
        return head + "]"
    return f"{head[:PREVIEW_CHARS]} ...] ({len(values)} entries)"


# errors="surrogateescape", used for CLI documents and for argv on POSIX,
# reads a byte 0x80-0xFF that is not UTF-8 as U+DC80-U+DCFF, which repr
# writes "\udcXX".  Matching an escaped backslash as a whole keeps it from
# starting a match.
_SURROGATE_ESCAPE = re.compile(r"\\(\\|udc[89a-f][0-9a-f])")


def _as_byte(match: re.Match) -> str:
    escape = match[1]
    return match[0] if escape == "\\" else "\\x" + escape[3:]


def clip(text: str) -> str:
    """``text`` as a string literal, or for long text the literal of its
    first ECHO_CHARS characters and the character count.  A surrogate
    escape is shown as the byte it stands for."""
    shown = _SURROGATE_ESCAPE.sub(_as_byte, repr(text[:ECHO_CHARS]))
    if len(text) > ECHO_CHARS:
        shown += f"... ({len(text)} characters)"
    return shown


def require_count(value, low: int, what: str) -> None:
    """Raise ValueError unless ``value`` is an int >= low; a bool is refused."""
    with suppress(TypeError):  # None, "3": no order with ints, so not too small
        if value < low:
            raise ValueError(f"{what} must be >= {low}, got {value}")
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")


class GallaiError(Exception):
    """Base class for all errors raised by this package."""


class MalformedSequenceError(GallaiError, ValueError):
    """A candidate degree sequence is not a valid input: empty, unsorted,
    negative, or zero-valued with more than one vertex."""


class InfeasibleSequenceError(GallaiError, ValueError):
    """A degree sequence failed the suffix inequalities; carries the report."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"sequence {preview(report.values)} is infeasible "
            f"(first violation at k={report.first_violation})"
        )


class SizeGuardError(GallaiError, ValueError):
    """An instance exceeds the hard size limit of an exhaustive routine."""


class NotGallaiError(GallaiError, ValueError):
    """The one refusal of rainbow input: an operation needing a Gallai
    coloring got one with a rainbow triangle, carried as ``witness``."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"coloring contains rainbow triangle {witness.vertices} "
            f"with colors {witness.colors}"
        )


class DocumentError(GallaiError, ValueError):
    """A coloring document failed to parse or violates the file schema."""


class InternalConsistencyError(GallaiError, RuntimeError):
    """A consequence of a proved statement failed.  No input raises it, so
    seeing it means a bug; it is raised instead of returning garbage."""

"""Exception types shared across the package.

The CLI maps these onto exit codes: malformed input and size-guard
violations are usage errors (exit 2), infeasibility and rainbow triangles
are semantic negatives (exit 1), and internal-consistency failures mean a
proven statement was observed to fail, i.e. a bug.

Messages never echo unbounded input: sequences are shown through
``preview``, which keeps a fixed prefix and states the entry count, and
text through ``clip``, which keeps a fixed prefix and states its length.
"""

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


def clip(text: str) -> str:
    """``text`` as a string literal, or for long text the literal of its
    first ECHO_CHARS characters and the character count."""
    shown = repr(text[:ECHO_CHARS])
    if len(text) > ECHO_CHARS:
        shown += f"... ({len(text)} characters)"
    return shown


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
    """An operation requiring a rainbow-triangle-free coloring got one with
    a rainbow triangle; carries the witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"coloring contains rainbow triangle {witness.vertices} "
            f"with colors {witness.colors}"
        )


class IllDefinedMergeError(GallaiError, ValueError):
    """Component compression found an outside vertex seeing two distinct
    colors into the component, so the merge is not well defined.

    This can only happen when a precondition was violated (the split does
    not belong to the coloring, or the coloring is not rainbow-free)."""


class DocumentError(GallaiError, ValueError):
    """A coloring document failed to parse or violates the file schema."""


class InternalConsistencyError(GallaiError, RuntimeError):
    """A consequence of a proved statement failed on valid input.

    Raised instead of returning garbage: seeing this means either the input
    violated a precondition undetectably or there is a bug."""

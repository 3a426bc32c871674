"""Exception hierarchy for the DGGT reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can install a single ``except ReproError`` guard around a synthesis
call.  :class:`SynthesisTimeout` is special: the evaluation harness treats it
as an *error case at the cut-off time*, exactly as the paper's Section VII-B
does for its 20-second budget.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GrammarError(ReproError):
    """A problem with a BNF grammar definition or grammar-graph construction."""


class BNFSyntaxError(GrammarError):
    """The BNF source text could not be parsed.

    Carries the line number (1-based) of the offending production when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.bare_message = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

    def __reduce__(self):
        # Default exception pickling replays __init__ with ``self.args``,
        # which here is the already-prefixed message; reconstruct from the
        # original arguments instead so ``line`` survives a worker pipe.
        return (type(self), (self.bare_message, self.line))


class TokenizationError(ReproError):
    """The query tokenizer hit input it cannot segment (e.g. unclosed quote)."""


class ParseError(ReproError):
    """The dependency parser could not produce a tree for the query."""


class SynthesisError(ReproError):
    """Synthesis failed to produce any grammar-valid codelet for the query."""


class InvalidRequestError(ReproError):
    """The caller asked for something the library cannot resolve — an
    unknown engine name.  Maps to the stable ``invalid_request``
    wire code (HTTP 400), so serving clients get a structured rejection
    instead of a 500."""


class InvalidExamplesError(ReproError):
    """The request's input→output examples cannot be used: a malformed
    examples payload (wrong types, missing fields, oversized texts) or a
    domain with no registered candidate executor
    (:mod:`repro.verify.executors`).  Maps to the stable
    ``invalid_examples`` wire code (HTTP 400)."""


class SynthesisTimeout(SynthesisError):
    """Cooperative timeout raised inside an engine's hot loop.

    The elapsed time at the moment of the raise is recorded so the harness
    can clamp it to the budget.  The staged pipeline
    (:mod:`repro.synthesis.stages`) annotates the exception in flight:
    ``stage`` names the Fig. 3 stage the budget expired in, and ``trace``
    (when tracing was on) carries the spans recorded up to that point —
    both ride :meth:`__reduce__`'s ``__dict__`` element across the
    process-pool worker pipe, like ``partial_stats``.
    """

    def __init__(self, budget_seconds: float, elapsed_seconds: float):
        self.budget_seconds = budget_seconds
        self.elapsed_seconds = elapsed_seconds
        super().__init__(
            f"synthesis exceeded its {budget_seconds:.3g}s budget "
            f"(elapsed {elapsed_seconds:.3g}s)"
        )

    def __reduce__(self):
        # Default exception pickling replays __init__ with ``self.args``
        # (the formatted message) — a TypeError for this two-argument
        # signature.  Process-pool workers ship timeouts over a pipe, so
        # reconstruct from the numeric fields; the third element restores
        # any extra attributes (e.g. ``partial_stats``).
        return (
            type(self),
            (self.budget_seconds, self.elapsed_seconds),
            self.__dict__,
        )


class DeadlineExceeded(ReproError):
    """A served request's deadline expired while it was still waiting in
    the admission queue — it never reached a worker.

    Distinct from :class:`SynthesisTimeout` (the budget ran out *during*
    synthesis): this failure is decided by the request scheduler before
    dispatch, so no engine time was spent.  ``waited_seconds`` is the
    time the request spent queued.
    """

    def __init__(self, waited_seconds: float):
        self.waited_seconds = waited_seconds
        super().__init__(
            f"deadline expired after {waited_seconds:.3g}s in the "
            "admission queue; the request was never dispatched"
        )

    def __reduce__(self):
        # Reconstruct from the numeric field (default exception pickling
        # would replay __init__ with the formatted message).
        return (type(self), (self.waited_seconds,))


class DomainError(ReproError):
    """A problem with a domain registration (missing APIs, bad document)."""


class PackError(DomainError):
    """A domain pack failed to load or validate.

    Carries the structured :class:`~repro.packs.spec.PackIssue` records
    (``issues``) the validator produced — each names the offending file
    and, when known, the 1-based line — alongside the usual formatted
    message.
    """

    def __init__(self, message: str, issues: "tuple | list" = ()):
        self.issues = tuple(issues)
        if self.issues:
            message = (
                message + "\n" + "\n".join(str(i) for i in self.issues)
            )
        super().__init__(message)

    def __reduce__(self):
        # Rebuild from the original arguments so ``issues`` survives a
        # process-pool worker pipe (default pickling replays __init__ with
        # the already-joined message).
        first = self.args[0].split("\n", 1)[0] if self.args else ""
        return (type(self), (first, self.issues))


class CacheSnapshotError(ReproError):
    """A persistent PathCache snapshot could not be used: unreadable or
    corrupt file, unknown format version, or a grammar hash that does not
    match the domain it is being loaded into (stale snapshot)."""


#: Stable machine-readable codes for the error classes above, most-derived
#: first (:func:`error_code` walks this in order, so a subclass must appear
#: before its base).  These codes are part of the serving wire format —
#: ``BatchItem.to_json()`` and every ``repro.server`` response embed them —
#: so add new codes freely but never rename existing ones.
ERROR_CODES: "tuple[tuple[type, str], ...]" = (
    (SynthesisTimeout, "timeout"),
    (DeadlineExceeded, "deadline_exceeded"),
    (SynthesisError, "synthesis_failed"),
    (BNFSyntaxError, "bnf_syntax"),
    (GrammarError, "grammar"),
    (TokenizationError, "tokenization"),
    (ParseError, "parse"),
    (PackError, "pack_invalid"),
    (DomainError, "unknown_domain"),
    (CacheSnapshotError, "cache_snapshot"),
    (InvalidRequestError, "invalid_request"),
    (InvalidExamplesError, "invalid_examples"),
    (ReproError, "error"),
)


def error_code(exc: BaseException) -> str:
    """The stable wire code for an exception (``"internal"`` for anything
    outside the :class:`ReproError` hierarchy)."""
    for cls, code in ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "internal"

"""Cooperative timeout support.

The paper's evaluation sets a 20-second budget per query and counts a
timeout as an error case (Sec. VII-B).  Both engines poll a
:class:`Deadline` inside their hot loops — enumeration in HISyn, combination
processing in DGGT — and raise :class:`~repro.errors.SynthesisTimeout` when
the budget is exhausted.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import SynthesisTimeout


class Deadline:
    """A wall-clock budget; ``check()`` is cheap enough for inner loops."""

    def __init__(self, budget_seconds: Optional[float] = None):
        if budget_seconds is not None and budget_seconds < 0:
            raise ValueError("budget_seconds must be non-negative (or None)")
        # A zero budget is legal and expires immediately: callers that
        # forward a user-supplied timeout (Synthesizer, the batch API) must
        # treat 0 as "no time at all", never as "unlimited".
        self.budget_seconds = budget_seconds
        self._start = time.monotonic()
        #: Monotonic time at which the budget runs out (None: unlimited).
        self.expires_at = (
            None if budget_seconds is None else self._start + budget_seconds
        )

    @classmethod
    def unlimited(cls) -> "Deadline":
        return cls(None)

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self._start

    @property
    def expired(self) -> bool:
        return (
            self.expires_at is not None
            and time.monotonic() >= self.expires_at
        )

    def check(self) -> None:
        """Raise :class:`SynthesisTimeout` when the budget is exhausted."""
        self.check_at(time.monotonic())

    def check_at(self, now: float) -> None:
        """:meth:`check` against a ``time.monotonic()`` reading the caller
        already took (the stage runner times its span from the same one)."""
        if self.expires_at is not None and now >= self.expires_at:
            raise SynthesisTimeout(self.budget_seconds, now - self._start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        budget = "unlimited" if self.budget_seconds is None else f"{self.budget_seconds}s"
        return f"Deadline({budget}, elapsed={self.elapsed:.3f}s)"

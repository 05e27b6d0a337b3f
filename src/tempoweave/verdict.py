"""Four-valued verdict lattice used by the impartial monitor.

The domain has two final values (TRUE, FALSE) that a monitor never revokes,
and two current values (TRUE_C, FALSE_C) that may still change as more
events arrive.  Meet, join and complement generalize and/or/not.
"""

from __future__ import annotations

import enum


class Verdict(enum.IntEnum):
    """Element of the verdict lattice, totally ordered by truth.

    FALSE < FALSE_C < TRUE_C < TRUE
    """

    FALSE = 0
    FALSE_C = 1
    TRUE_C = 2
    TRUE = 3

    @property
    def is_final(self) -> bool:
        return self in (Verdict.FALSE, Verdict.TRUE)

    @property
    def short(self) -> str:
        return _SHORT[self]

    @classmethod
    def from_short(cls, text: str) -> "Verdict":
        try:
            return _FROM_SHORT[text]
        except KeyError:
            raise ValueError(f"unknown verdict {text!r}") from None


_SHORT = {
    Verdict.TRUE: "T",
    Verdict.TRUE_C: "Tc",
    Verdict.FALSE_C: "Fc",
    Verdict.FALSE: "F",
}
_FROM_SHORT = {s: v for v, s in _SHORT.items()}


def meet(a: Verdict, b: Verdict) -> Verdict:
    """Lattice meet: minimum under the truth order (generalized *and*)."""
    return a if a <= b else b


def join(a: Verdict, b: Verdict) -> Verdict:
    """Lattice join: maximum under the truth order (generalized *or*)."""
    return a if a >= b else b


def complement(a: Verdict) -> Verdict:
    """Lattice complement (generalized *not*): swaps T/F and Tc/Fc."""
    return Verdict(3 - a)

"""Arithmetic contexts: exact rationals or floats with a global tolerance.

Every quantity in the engine is a plain Python number.  In exact mode the
numbers are ``fractions.Fraction`` and equality means equality; in float mode
they are ``float`` and equality means agreement within a relative tolerance.
All comparison decisions go through an :class:`Arithmetic` so the two modes
share one code path everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Union

Num = Union[Fraction, float, int]

EXACT_MODE = "exact"
FLOAT_MODE = "float"
DEFAULT_TOLERANCE = 1e-9


class ArithmeticError_(ValueError):
    """Raised for numbers that cannot be parsed in the requested mode."""


@dataclass(frozen=True)
class Arithmetic:
    """Comparison and parsing rules for one run of the engine.

    mode:       "exact" (Fraction) or "float".
    tolerance:  relative comparison tolerance, used only in float mode.
    """

    mode: str = EXACT_MODE
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.mode not in (EXACT_MODE, FLOAT_MODE):
            raise ArithmeticError_(f"unknown arithmetic mode {self.mode!r}")
        if self.mode == FLOAT_MODE and not 0 < self.tolerance < math.inf:
            raise ArithmeticError_("float mode needs a positive finite tolerance")

    @property
    def exact(self) -> bool:
        return self.mode == EXACT_MODE

    def decimal(self, raw):
        """A JSON decimal (a ``Decimal``, as ``parse_document`` reads one) as
        this mode reads it: the exact Fraction, or the nearest float (-0.0
        kept, inf past the float range).  Any other value as it is."""
        if type(raw) is Decimal:
            return Fraction(raw) if self.exact else float(raw)
        return raw

    def parse(self, raw) -> Num:
        """Turn a scenario-file value into a number of this mode.

        Accepts ints, floats, JSON decimals, Fractions and strings like
        "3/5" or "0.25".  Exact mode keeps everything rational and returns
        a Fraction input itself; decimals are read as exact decimals ("0.1"
        becomes 1/10, not a binary float).  NaN and infinities are rejected
        in both modes, as is a finite value too large for a float in float
        mode.
        """
        raw = self.decimal(raw)
        if isinstance(raw, bool):
            raise ArithmeticError_(f"expected a number, got {raw!r}")
        if isinstance(raw, (int, Fraction, str)):
            try:
                value = raw if isinstance(raw, Fraction) else Fraction(raw)
            except (ValueError, ZeroDivisionError) as exc:
                raise ArithmeticError_(f"cannot parse number {raw!r}") from exc
        elif isinstance(raw, float):
            if not math.isfinite(raw):
                raise ArithmeticError_(f"not a finite number: {raw!r}")
            value = Fraction(raw) if self.exact else raw
        else:
            raise ArithmeticError_(f"expected a number, got {raw!r}")
        if self.exact:
            return value
        try:
            return float(value)
        except OverflowError as exc:
            raise ArithmeticError_(f"number {raw!r} is too large for a float") from exc

    def eq(self, a: Num, b: Num) -> bool:
        if self.exact:
            return a == b
        return abs(a - b) <= self.tolerance * max(1.0, abs(a), abs(b))

    def is_zero(self, x: Num) -> bool:
        return self.eq(x, 0)

    def negligible(self, x: Num, scale: Num = 1) -> bool:
        """Pivot/rank test: is x indistinguishable from zero at this scale?"""
        if self.exact:
            return x == 0
        return abs(x) <= self.tolerance * max(1.0, abs(scale))

    def fmt(self, x: Num) -> str | float:
        """JSON-friendly rendering: 'p/q' strings exactly, numbers in float mode."""
        if self.exact:
            return str(Fraction(x))
        return float(x)


EXACT = Arithmetic(EXACT_MODE)
FLOAT = Arithmetic(FLOAT_MODE, DEFAULT_TOLERANCE)

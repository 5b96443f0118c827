"""Text syntax for root systems, weights, and partitions (shared with the CLI).

Root systems: "B3", "A2xB2" (case-insensitive, factors joined by 'x').
Weights: comma-separated rationals "3/2,1/2,-1", or fundamental-weight
coefficients "fw:[0,1,0]".  The slice parameter --nu: comma-separated
rationals "2,1".  Partitions: comma-separated parts where each item
is "k" or "k^multiplicity", e.g. "2^4" or "3,1,1" or "4,2^2".
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .errors import UnsupportedType
from .rootsys import RootSystem, Vec

_FACTOR_RE = re.compile(r"^([A-Da-d])\s*(\d+)$")
_PART_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_root_system(text: str) -> RootSystem:
    factors = []
    for chunk in text.strip().split("x"):
        match = _FACTOR_RE.match(chunk.strip())
        if not match:
            raise UnsupportedType(
                f"cannot parse root-system factor {chunk!r}; expected like 'B3' or 'A2xB2'"
            )
        factors.append((match.group(1).upper(), int(match.group(2))))
    return RootSystem(tuple(factors))


def parse_weight(text: str, rs: RootSystem) -> Vec:
    text = text.strip()
    if not text.startswith("fw:"):
        return rs.canonical(_rationals(text, "weight"))
    body = text[3:].strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise UnsupportedType(f"fundamental-weight syntax is fw:[c1,...,cr], got {text!r}")
    try:
        coeffs = [int(c) for c in body[1:-1].split(",")] if body[1:-1].strip() else []
    except ValueError as exc:
        raise UnsupportedType(f"cannot parse weight {text!r}: {exc}") from None
    return rs.from_fundamental(coeffs)


def parse_nu(text: Optional[str]) -> Optional[list[Fraction]]:
    """The slice parameter nu, e.g. "2,1"; None when it is not given."""
    return _rationals(text, "--nu") if text else None


def _rationals(text: str, what: str) -> list[Fraction]:
    try:
        return [Fraction(c) for c in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UnsupportedType(f"cannot parse {what} {text!r}: {exc}") from None


def parse_partition(text: str) -> tuple[int, ...]:
    parts: list[int] = []
    for chunk in text.strip().split(","):
        match = _PART_RE.match(chunk.strip())
        if not match:
            raise UnsupportedType(
                f"cannot parse partition item {chunk!r}; expected like '2^4' or '3,1,1'"
            )
        part = int(match.group(1))
        multiplicity = int(match.group(2) or 1)
        parts.extend([part] * multiplicity)
    return tuple(sorted(parts, reverse=True))

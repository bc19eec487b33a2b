"""Rational-safe JSON conventions.

Rationals travel as decimal-free "p/q" strings end to end; floats appear
only in solver reports.  Canonical dumps (sorted keys, no whitespace
surprises) back the input-hash provenance of CLI reports.
"""

from __future__ import annotations

import hashlib
import json
import re
from decimal import Decimal
from fractions import Fraction

from .errors import InputError


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_FACET_ID = re.compile(r"0|[1-9][0-9]*")


def frac_to_str(x) -> str:
    f = Fraction(x)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:  # past the int-to-str digit limit, which Decimal lacks
        return f"{Decimal(f.numerator)}/{Decimal(f.denominator)}"


def frac_from_obj(obj) -> Fraction:
    """A JSON integer, or an integer or "p/q" string, matched before any
    number is built (a string like "1e5000" would build 10^5000)."""
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise InputError(f"expected rational, got {obj!r}")
    try:
        if isinstance(obj, int) or _RATIONAL.fullmatch(obj):
            return Fraction(obj)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"bad rational string {obj!r}")


def int_from_obj(obj) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise InputError(f"expected integer, got {obj!r}")
    return obj


def facet_id(key) -> int:
    """A facet id written as a JSON object key, in its one canonical form:
    ASCII digits without a leading zero (int would also read " 1", "1_0",
    non-ASCII digits, and "02" as the same facet as "2")."""
    if not isinstance(key, str) or not _FACET_ID.fullmatch(key):
        raise InputError(f"facet ids must be integers, got {key!r}")
    return int(key)


def int_vector(obj, length=None) -> tuple[int, ...]:
    if not isinstance(obj, list):
        raise InputError(f"expected integer vector, got {obj!r}")
    v = tuple(int_from_obj(x) for x in obj)
    if length is not None and len(v) != length:
        raise InputError(f"expected vector of length {length}, got {len(v)}")
    return v


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_of(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()

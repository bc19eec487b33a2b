"""Exact inputs and rational-safe JSON conventions.

The readers here are the one input policy of the package; every public
constructor reads its exact data and its containers through them, once,
and nothing downstream checks them again.  An integer is an ``int`` (not a
``bool``); a rational is an ``int``, a ``Fraction`` or a decimal-free "p/q"
string, never a float; a vector or other list argument is a list or a
tuple (``items``); a mapping is a ``Mapping`` (``mapping``); a JSON object
is a ``dict`` with its required keys (``fields``); a package object (a
polytope, a sublattice, a sheaf, a subspace) is an instance of its class
(``instance``); a search option lies within the bounds of the function that
reads it.  Anything else is an ``InputError``.  Rationals travel as "p/q"
strings end to end; floats appear only in solver reports.  Canonical dumps
back the input hash of CLI reports; ``report_dumps`` renders them.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import DimensionMismatch, InputError


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_FACET_ID = re.compile(r"0|[1-9][0-9]*")


def frac_to_str(x) -> str:
    f = Fraction(x)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:  # past the int-to-str digit limit, which Decimal lacks
        return f"{Decimal(f.numerator)}/{Decimal(f.denominator)}"


def _shown(obj) -> str:
    """repr(obj) for a message; its type past the int-to-str digit limit."""
    try:
        return repr(obj)
    except ValueError:
        return f"<{type(obj).__name__} too large to print>"


def frac_from_obj(obj) -> Fraction:
    """An integer, a Fraction, or an integer or "p/q" string, matched before
    any number is built (a string like "1e5000" would build 10^5000)."""
    if isinstance(obj, Fraction):
        return obj
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise InputError(f"expected rational, got {_shown(obj)}")
    try:
        if isinstance(obj, int) or _RATIONAL.fullmatch(obj):
            return Fraction(obj)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"bad rational string {_shown(obj)}")


def int_from_obj(obj) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise InputError(f"expected integer, got {_shown(obj)}")
    return obj


def int_option(name: str, obj, low=-float("inf"), high=float("inf")) -> int:
    """An integer search option in [low, high]."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise InputError(f'option "{name}" must be an integer, got {_shown(obj)}')
    if not low <= obj <= high:
        raise InputError(f'option "{name}" must lie in [{low}, {high}]')
    return obj


def float_option(name: str, obj, low: float) -> float:
    """A finite real search option >= low, as a float."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)) \
            or not low <= obj <= sys.float_info.max:  # exact for ints of any size
        raise InputError(f'option "{name}" must be a finite number >= {low:g}')
    return float(obj)


def facet_id(key) -> int:
    """A facet id written as a JSON object key, in its one canonical form:
    ASCII digits without a leading zero (int would also read " 1", "1_0",
    non-ASCII digits, and "02" as the same facet as "2")."""
    if not isinstance(key, str) or not _FACET_ID.fullmatch(key):
        raise InputError(f"facet ids must be integers, got {_shown(key)}")
    return int(key)


def int_vector(obj, length=None) -> tuple[int, ...]:
    return items(obj, int_from_obj, length, "integer vector")


def frac_vector(obj, length=None) -> tuple[Fraction, ...]:
    return items(obj, frac_from_obj, length, "rational vector")


def items(obj, read=None, length=None, kind="list") -> tuple:
    """A list or tuple, its entries read by ``read``, then its length checked."""
    if not isinstance(obj, (list, tuple)):
        raise InputError(f"expected {kind}, got {_shown(obj)}")
    v = tuple(obj) if read is None else tuple(map(read, obj))
    if length is not None and len(v) != length:
        raise DimensionMismatch(f"expected {kind} of length {length}, got {len(v)}")
    return v


def mapping(obj, key=None, value=None, kind="mapping") -> dict:
    """A mapping, its keys read by ``key`` and its values by ``value``."""
    if not isinstance(obj, Mapping):
        raise InputError(f"expected {kind}, got {_shown(obj)}")
    return {k if key is None else key(k): v if value is None else value(v)
            for k, v in obj.items()}


def instance(obj, cls):
    """A package object of class ``cls``, such as an ``HPolytope`` argument."""
    if not isinstance(obj, cls):
        raise InputError(f"expected {cls.__name__}, got {_shown(obj)}")
    return obj


def fields(obj, kind: str, *keys) -> tuple:
    """The values of the required keys of a JSON object, in order."""
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        raise InputError(f"{kind} JSON must have keys " + " and ".join(f'"{k}"' for k in keys))
    return tuple(obj[k] for k in keys)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_of(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def report_dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, without the
    pure-Python encoder json runs when indent is set: strings quoted by the C
    ``encode_basestring_ascii``, other scalars and keys by ``json.dumps``."""
    return _dumps(obj, "\n")


def _dumps(obj, nl: str) -> str:
    if type(obj) is int:  # the most frequent value of a report
        return repr(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if not isinstance(obj, (list, tuple, dict)):
        return json.dumps(obj)  # null, a bool, a float, or a TypeError
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = nl + "  "
    if isinstance(obj, dict):
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(json.dumps(k) if k is None or isinstance(k, (int, float))
                                    else k) + ": " + _dumps(v, inner)
            for k, v in sorted(obj.items())) + nl + "}"
    return "[" + inner + ("," + inner).join([_dumps(x, inner) for x in obj]) + nl + "]"

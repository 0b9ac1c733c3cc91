"""Shared helpers: bignum logarithms, decimal writing, the JSON document base and field writer, canonical JSON,
JSON key and value checks, confidence intervals."""

from __future__ import annotations

import json
import math
import reprlib
import sys
from dataclasses import fields
from functools import partial
from typing import Any, Callable, Sequence

# z quantile for a two-sided 99% interval
Z_99 = 2.5758293035489004


def log2_int(n: int) -> float:
    """log2 of a positive integer, safe for values far beyond float range.

    Splits off the high 64 bits so the float conversion never overflows;
    accuracy is limited only by the 53-bit mantissa of the result.
    """
    if n <= 0:
        raise ValueError("log2_int requires a positive integer")
    bl = n.bit_length()
    if bl <= 64:
        return math.log2(n)
    shift = bl - 64
    return shift + math.log2(n >> shift)


def ln_int(n: int) -> float:
    """Natural log of a positive integer via log2_int."""
    return log2_int(n) * math.log(2.0)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("wilson_interval requires trials >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    z = Z_99
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def decimal_strs(elements: Sequence[int], name: str) -> list[str]:
    """Each element in decimal. Python writes at most
    sys.get_int_max_str_digits() digits (4300 by default), so a longer element
    is refused naming `name`, the element's position and its digit count."""
    try:
        return [str(n) for n in elements]
    except ValueError:
        limit = sys.get_int_max_str_digits()
        least = 10**limit  # the least integer of limit + 1 digits
        i, n = next((i, abs(n)) for i, n in enumerate(elements) if abs(n) >= least)
        digits = math.floor((n.bit_length() - 1) * math.log10(2)) + 1
        digits += n >= 10**digits
        raise ValueError(
            f"{name}: element {i + 1} of {len(elements)} has {digits} digits, past the {limit} digits"
            " that can be written in decimal"
        ) from None


def decimal_lines(elements: Sequence[int], name: str) -> str:
    """Each element in decimal on a line of its own, the text that
    "\n".join([*decimal_strs(elements, name), ""]) gives, from one format call
    (%s writes str() of each); an element too long to write is refused as
    decimal_strs refuses it."""
    try:
        return ("%s\n" * len(elements)) % tuple(elements)
    except ValueError:
        return "\n".join([*decimal_strs(elements, name), ""])


def fraction_strs(values: Sequence, name: str) -> list[str]:
    """Each rational as "numerator/denominator" in decimal; a part too long to
    write is refused as decimal_strs refuses it."""
    nums = decimal_strs([v.numerator for v in values], f"{name} (numerators)")
    dens = decimal_strs([v.denominator for v in values], f"{name} (denominators)")
    return [f"{a}/{b}" for a, b in zip(nums, dens)]


class Doc:
    """A document written as JSON. A subclass gives to_json_dict, and
    from_json_dict(doc, *args) if it can be read back."""

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str | bytes, *args):
        """The document in `text`. Python reads at most
        sys.get_int_max_str_digits() digits of an integer literal (4300 by
        default), so a longer one is refused naming the document; malformed
        JSON and undecodable bytes keep json.loads's own errors."""
        try:
            doc = json.loads(text)
        except ValueError as err:
            if "integer string conversion" not in str(err):
                raise
            raise ValueError(
                f"{cls.__name__} JSON: an integer literal has more than {sys.get_int_max_str_digits()} digits,"
                " the most that can be read in decimal"
            ) from None
        return cls.from_json_dict(doc, *args)


def _written(value):
    # a tuple as a list of its written items, a document as its own dict
    if isinstance(value, tuple):
        return [_written(v) for v in value]
    return value.to_json_dict() if isinstance(value, Doc) else value


def fields_json_dict(doc) -> dict:
    """A dataclass's fields by name, each value written by one rule: a tuple
    as a list, a nested document as its own dict."""
    return {f.name: _written(getattr(doc, f.name)) for f in fields(doc)}


def canonical_json(obj: Any) -> str:
    """Deterministic JSON used for hashing and golden comparisons."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def check_keys(doc: dict, required, known=None, prefix: str = "", context: str = "") -> None:
    """Refuse a JSON document that is not an object, lacks a required key or,
    when `known` is given, holds a key outside it; each key is named as
    prefix + key."""
    if type(doc) is not dict:
        raise ValueError(f"expected a JSON object{context}, got {type(doc).__name__}")
    missing = [f"{prefix}{key}" for key in required if key not in doc]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(missing)}{context}")
    if known is not None:
        unknown = sorted(f"{prefix}{key}" for key in set(doc) - set(known))
        if unknown:
            raise ValueError(f"unknown key(s) {', '.join(unknown)}{context}")


def json_int(value) -> int:
    """A JSON integer, or a decimal string as big integers are written; a
    bool or a float is refused."""
    if type(value) not in (int, str):
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


def json_list(value, item: Callable = lambda v: v) -> list:
    """A JSON array, each entry passed through `item`."""
    if type(value) is not list:
        raise TypeError(f"not a list: {value!r}")
    return [item(v) for v in value]


json_ints = partial(json_list, item=json_int)


def json_distinct_ints(value) -> list[int]:
    """A JSON array of integers, none repeated."""
    if len(set(ints := json_ints(value))) != len(ints):
        raise ValueError(f"repeats an element: {value!r}")
    return ints


def json_str(value) -> str:
    """A JSON string."""
    if type(value) is not str:
        raise TypeError(f"not a string: {value!r}")
    return value


def read_json(doc: dict, key: str, convert: Callable, what: str, context: str = "", name: str | None = None):
    """convert(doc[key]), refused with a ValueError naming the key (as `name`
    when given) when the value is not `what`."""
    try:
        return convert(doc[key])
    except (TypeError, ValueError, ArithmeticError):
        raise ValueError(f"key {name or key!r}{context} must be {what}, got {reprlib.repr(doc[key])}") from None

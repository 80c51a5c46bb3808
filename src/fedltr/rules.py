"""Value rules of the configuration, one table per config section, and the
one function that checks a table.

A table maps each field to a tuple of the values it may take, or to a kind
("integer", "real", "bool" or "string") and, for a number, the interval it
must lie in, as in "integer [1, inf)" or "real (0, 1]": a bracket closes its
end, a parenthesis opens it. No integer or real is a bool; a real is finite.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

_KINDS = {
    "integer": ("an integer", lambda value: isinstance(value, Integral)),
    "real": ("a finite real", lambda value: isinstance(value, Real) and math.isfinite(value)),
    "bool": ("true or false", lambda value: isinstance(value, bool)),
    "string": ("a string", lambda value: isinstance(value, str)),
}


def check(section: str, rules: dict, values: dict) -> None:
    """Raise `<section>.<field> must be <rule>, got <value!r>` as a
    ValueError for the first field of `rules` whose value in `values` breaks
    its rule; an empty section leaves the field alone. Fields that `values`
    lacks are not checked."""
    for field, rule in rules.items():
        if field not in values:
            continue
        value = values[field]
        if isinstance(rule, tuple):
            ok, words = value in rule, f"one of {rule}"
        else:
            kind, _, bounds = rule.partition(" ")
            words, is_kind = _KINDS[kind]
            # A bool is an Integral: True would pass as the integer 1.
            ok = is_kind(value) and (kind == "bool" or not isinstance(value, bool))
            if bounds:
                low, high = bounds[1:-1].split(", ")
                ok = ok and (float(low) <= value if bounds[0] == "[" else float(low) < value)
                ok = ok and (value <= float(high) if bounds[-1] == "]" else value < float(high))
                at_least = ">=" if bounds[0] == "[" else ">"
                words += f" in {bounds}" if high != "inf" else f" {at_least} {low}"
        if not ok:
            where = f"{section}.{field}" if section else field
            raise ValueError(f"{where} must be {words}, got {value!r}")

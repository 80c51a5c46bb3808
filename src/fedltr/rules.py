"""Value rules of the configuration, one table per config section, and the
one function that checks a table.

A table maps each field to a tuple of the values it may take, or to a kind
("integer", "real", "bool", "string" or "list", a JSON list) and, for a
number, the interval it must lie in, as in "integer [1, inf)" or "real (0,
1]": a bracket closes its end, a parenthesis opens it. No integer or real is
a bool; a real is finite, and an integer lies within int64 range. A field
whose rule is a table is a section: a JSON object holding only that table's
keys, each checked by it. A rule of None leaves the field to the code that
takes its value.
"""

from __future__ import annotations

import sys
from numbers import Integral, Real

# A real must lie within float range, which rules out nan and the infinities;
# unlike math.isfinite, the comparison does not raise on an integer too large
# for a float. An integer must lie within int64 range, as numpy stores it.
INT64_MAX = 2**63 - 1
_KINDS = {
    "integer": ("an integer", lambda value: isinstance(value, Integral)),
    "real": ("a finite real", lambda v: isinstance(v, Real) and abs(v) <= sys.float_info.max),
    "bool": ("true or false", lambda value: isinstance(value, bool)),
    "string": ("a string", lambda value: isinstance(value, str)),
    "list": ("a JSON list", lambda value: isinstance(value, list)),
}


def check(section: str, rules: dict, values: dict, name: str | None = None) -> None:
    """Raise `<section>.<field> must be <rule>, got <value!r>` as a
    ValueError for the first field of `rules` whose value in `values` breaks
    its rule; an empty section leaves the field alone. Fields that `values`
    lacks are not checked. With `name`, `values` may hold only the fields of
    `rules`: another key raises `unknown <name> keys: [...]`."""
    unknown = set(values) - set(rules) if name else set()
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    for field, rule in rules.items():
        if field not in values or rule is None:
            continue
        value = values[field]
        where = f"{section}.{field}" if section else field
        if isinstance(rule, dict):
            ok, words = isinstance(value, dict), "a JSON object"
            if ok:
                check(where, rule, value, where)
        elif isinstance(rule, tuple):
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
            if ok and kind == "integer" and abs(value) > INT64_MAX:
                ok, words = False, f"{words} within int64 range"
        if not ok:
            raise ValueError(f"{where} must be {words}, got {value!r}")

"""The one walker that checks every JSON the program reads against its table:
the run, sweep and suite configs of `cli` and the run record of `solver`.
`_walk` checks a tree before anything is built, normalises what it accepts
and names the field's dotted path in every error.  The module imports
nothing from the package and does no work at import time.
"""
from __future__ import annotations

import cmath
import math


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


class _NotFinite(ConfigError):
    """A NaN or infinite number where its entry admits none; a list passes
    it on, so the message names the item."""


# --- tables and their walker --------------------------------------------------
#
# An entry is (dotted path, kind, bounds, default).  Kinds and their bounds:
#   number, integer   bounds (lo, hi) closed, hi None for no upper bound, or
#                     (lo, hi, "open"); an integral float counts as an integer
#   bool, complex     no bounds; complex is a number, [re, im] or {re, im}
#   string            bounds: None or the tuple of allowed values
#   list              bounds (item kind, item bounds, min length, max length);
#                     the lengths are equal, or min is 0, or min is 1 and max INF
#   section           an object whose keys are the entries below its path; it
#                     needs its own entry only to be required or, with no
#                     entries below it, to take any keys (a record's series)
# default is REQUIRED, NULLABLE (required, and null is a value), None (absent:
# the dataclass default applies) or the value used when the key is absent.
# Bools and strings are never numbers and, but for NULLABLE, null is never a
# value.  json reads NaN and Infinity, but a number or complex value must be
# finite; only the bounds (lo, INF), closed at INF, admit inf.

REQUIRED = object()
NULLABLE = object()
INF = math.inf


def _table(*entries) -> dict:
    """Nest the entries by section, a section's bounds slot holding the
    table of its keys; a section entry comes before its keys."""
    root = {}
    for path, kind, bounds, default in entries:
        *parents, key = path.split(".")
        node = root
        for part in parents:
            node = node.setdefault(part, ("section", {}, None))[1]
        node[key] = (kind, {} if kind == "section" else bounds, default)
    return root


def _number(v):
    return float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else None


def _integer(v):
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return v if isinstance(v, int) and not isinstance(v, bool) else None


def _complex(v):
    if isinstance(v, dict) and v.keys() <= {"re", "im"}:
        v = [v.get("re", 0.0), v.get("im", 0.0)]
    if isinstance(v, list) and len(v) == 2:
        re, im = _number(v[0]), _number(v[1])
        return None if re is None or im is None else complex(re, im)
    return None if _number(v) is None else complex(v)


# kind -> (normaliser returning None for a value of another kind, noun, plural)
_KINDS = {
    "number": (_number, "a number", "numbers"),
    "integer": (_integer, "an integer", "integers"),
    "bool": (lambda v: v if isinstance(v, bool) else None, "true or false", "bools"),
    "string": (lambda v: v if isinstance(v, str) else None, "a string", "strings"),
    "complex": (_complex, "a number, [re, im] or {re, im}", "complex numbers"),
    "section": (None, "an object", "objects"),
}


def _range(bounds) -> str:
    lo, hi, *is_open = bounds
    if is_open:
        return f"in ({lo}, {hi})"
    return f">= {lo}" if hi is None else f"in [{lo}, {hi}]"


def _noun(kind: str, bounds, plural: bool = False) -> str:
    """What a value of this kind must be: 'a number', 'a list of at most 3
    numbers', 'a list of one or more numbers in (0.0, inf)', ..."""
    if kind != "list":
        return _KINDS[kind][1 + plural]
    item, item_bounds, lo, hi = bounds
    size = f"{lo} " if lo == hi else f"at most {hi} " if hi < INF else "one or more " if lo else ""
    items = _noun(item, item_bounds, plural=True)
    if item_bounds and item in ("number", "integer"):
        items += " " + _range(item_bounds)
    return ("lists" if plural else "a list") + f" of {size}{items}"


def _unknown(what: str, name: str, valid) -> ConfigError:
    """The error for a key or value outside `valid`, naming the nearest one."""
    from difflib import get_close_matches

    near = get_close_matches(name, list(valid), n=1)
    hint = f"did you mean {near[0]!r}?" if near else "valid: " + ", ".join(map(repr, valid))
    return ConfigError(f"{what} {name!r}; {hint}")


def _at(path: str, index: int | None) -> str:
    return path if index is None else f"{path}[{index}]"


def _value(val, kind: str, bounds, path: str, index: int | None = None):
    """val checked against its kind and bounds and normalised: numbers to
    float, integers to int, complex forms to complex, lists to tuples.  With
    index, val is that item of the list at path, and the item's own path
    (_at) is formatted only where it is read: in an error, or below it."""
    if index is not None and kind in ("section", "list"):
        path, index = _at(path, index), None
    if kind == "section":
        return _walk(val, bounds, path)
    if kind == "list":
        item, item_bounds, lo, hi = bounds
        if isinstance(val, list) and lo <= len(val) <= hi:
            try:
                return tuple(_value(v, item, item_bounds, path, i) for i, v in enumerate(val))
            except _NotFinite:
                raise
            except ConfigError:
                pass
        raise ConfigError(f"field {path!r} must be {_noun(kind, bounds)}")
    out = _KINDS[kind][0](val)
    if out is None:
        raise ConfigError(f"field {_at(path, index)!r} must be {_noun(kind, bounds)}")
    if kind in ("number", "complex") and not cmath.isfinite(out) and not (
            out == INF and bounds is not None and bounds[1:] == (INF,)):
        raise _NotFinite(f"field {_at(path, index)!r} must be finite")
    if bounds is None:
        return out
    if kind == "string":
        if out not in bounds:
            raise _unknown(f"field {_at(path, index)!r} has unknown value", out, bounds)
        return out
    lo, hi, *is_open = bounds
    if not (lo < out < hi if is_open else lo <= out and (hi is None or out <= hi)):
        text = _range(bounds)
        raise ConfigError(
            f"field {_at(path, index)!r} must {'be' if text[0] == '>' else 'lie'} {text}")
    return out


def _walk(node, table: dict, path: str = "", root: str = "the config") -> dict:
    """Check one object against its table; returns the normalised values of
    the keys given, plus the default of each absent key that has one.  An
    absent optional section is walked as {}, so its own defaults apply.
    Unknown keys are rejected first: a misspelt key is more often the cause
    of an error than the value it was meant to set.  root names the tree in
    the errors of its top level."""
    where = f"field {path!r}" if path else root
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be an object")
    if not table:
        return dict(node)
    for key in node:
        if key not in table:
            raise _unknown(f"{where} has unknown key", key, table)
    out = {}
    for key, (kind, bounds, default) in table.items():
        sub = f"{path}.{key}" if path else key
        if key in node:
            v = node[key]
            out[key] = None if v is None and default is NULLABLE else _value(v, kind, bounds, sub)
        elif default is REQUIRED or default is NULLABLE:
            raise ConfigError(f"missing required field {sub!r}")
        elif kind == "section":
            out[key] = _walk({}, bounds, sub)
        elif default is not None:
            out[key] = default
    return out

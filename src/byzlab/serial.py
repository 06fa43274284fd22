"""Canonical JSON forms of haps and guards, and the checked reader of
scenario files and traces.

`FORMS` is the one table of forms, a legend of their argument kinds:
`agent` lies in 1..n; `copy` (default 0) and `GMI or null` (default
null) may be left off the end; `time`, a gsend's sent_at, may be null
in a menu for the menu's timestamp; the other kinds nest a form, and
`...` repeats the kind before it.  A form is the JSON array of its name
and exactly its arguments; a grecv names the `GSend` it delivers, its
GMI, by the bare array of the send's arguments.  `to_json` writes a
hap, `decode` and `decode_haps` read forms back, checking every
argument and their count, and `hap_key`, a hap's compact JSON text,
orders hap sets, so equal sets give identical text.

Scenario files and traces are read through `read_text` and
`parse_json`, and every check of a JSON value read from them goes
through `typed` and `field`; all of these raise
`InputError(where, message)`.
"""

from __future__ import annotations

import itertools
import json
import sys

from .haps import (
    ByzAction, ByzEvent, External, GExternal, GRecv, GSend, Go, Hib, Recv,
    Send, Sleep, fail,
)

# family -> form name -> (builder, argument kinds in JSON order); a
# guard's builder is None, for it is the tuple (name, *arguments)
FORMS = {
    "local hap": {"send": (Send, ("agent", "string", "copy")),
                  "recv": (Recv, ("agent", "string")),
                  "ext": (External, ("string",))},
    "global hap": {
        "gsend": (GSend, ("agent", "agent", "string", "integer", "time")),
        "grecv": (GRecv, ("agent", "agent", "string", "GMI or null")),
        "gext": (GExternal, ("agent", "string")),
        "byz_action": (ByzAction, ("agent", "gsend or null", "gsend or null")),
        "byz_event": (ByzEvent, ("agent", "grecv or gext")),
        "fail": (fail, ("agent",)), "go": (Go, ("agent",)),
        "sleep": (Sleep, ("agent",)), "hib": (Hib, ("agent",))},
    "GMI": {"": (GSend, ("agent", "agent", "string", "integer", "integer"))},
    "guard": {"always": (None, ()), "self_faulty": (None, ()),
              "received": (None, ("agent", "string")),
              "sent": (None, ("agent", "string")),
              "observed": (None, ("local hap",)), "initial": (None, ("string",)),
              "active_at_least": (None, ("integer",)),
              "not": (None, ("guard",)), "all": (None, ("guard", ...)),
              "any": (None, ("guard", ...))},
}


class InputError(ValueError):
    """Malformed input; `where` is a JSON path or a `file:line`."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


_KIND_NAMES = {int: "an integer", str: "a string", bool: "true or false",
               list: "a list", dict: "an object"}


def typed(v, where: str, kind: type, lo=None, hi=None):
    """`v` when it is a JSON value of `kind` (a bool is not an int) and,
    if `lo` is given, its value (an int) or length (a str or list) lies
    in lo..hi; InputError at `where` otherwise.  None is of no kind."""
    if type(v) is not kind and (kind is int or not isinstance(v, kind)):
        raise InputError(where, f"need {_KIND_NAMES[kind]}, got {v!r}")
    if lo is not None:
        size = v if kind is int else len(v)
        if size < lo or (hi is not None and size > hi):
            span = f"{lo} or more" if hi is None else f"in {lo}..{hi}"
            what = "" if kind is int else " whose length is"
            raise InputError(
                where, f"need {_KIND_NAMES[kind]}{what} {span}, got {v!r}")
    return v


def read_text(path: str) -> str:
    """The text of the file at `path`; InputError at `path:line` when
    its bytes are not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise InputError(f"{path}:{line}", f"not UTF-8 text ({e.reason} "
                         f"at byte {e.start})") from None


def parse_json(text: str, where: str):
    """The JSON value `text` holds; InputError at `where` when it is not
    JSON or nests past the interpreter's recursion limit.  The limit is
    checked here too, since from Python 3.13 on json reads deeper."""
    limit = sys.getrecursionlimit()
    try:
        v = json.loads(text)
        if text.count("[") + text.count("{") > limit and \
                _nests_past(v, limit):
            raise RecursionError
        return v
    except json.JSONDecodeError as e:
        raise InputError(where, f"not valid JSON ({e})") from None
    except RecursionError:
        raise InputError(where, "JSON nested too deeply to read") from None


def _nests_past(v, limit: int) -> bool:
    """Whether lists and objects nest in `v` more than `limit` deep."""
    level = [v]
    for _ in range(limit):
        level = [x for y in level if isinstance(y, (list, dict))
                 for x in (y.values() if isinstance(y, dict) else y)]
    return any(isinstance(y, (list, dict)) for y in level)


def field(doc: dict, key: str, where: str, kind: type, default=None,
          lo=None, hi=None):
    """`typed(doc[key], where, ...)`, or of `default` when the key is
    absent; a key without a default is required."""
    return typed(doc.get(key, default), where, kind, lo, hi)


def _plain(kind: type, lo=None):
    """The reader of a JSON value of `kind`, in lo..n if `lo` is given."""
    return lambda v, what, n, t: v if type(v) is kind and (
        lo is None or lo <= v <= n) else typed(v, what, kind, lo, lo and n)


def _nested(family: str, names, null: bool = False):
    """The reader of a form of `family` named in `names`, or of null."""
    def read(v, what, n, t):
        if v is None and null:
            return None
        if typed(v, family, list, lo=1)[0] not in names:
            raise ValueError(f"need {what}, got {v!r}")
        return _read(v, family, n, t)
    return read


def _read(v, family: str, n: int, t):
    """The value the form `v` of `family` spells; ValueError if none."""
    if type(v) is not list or not v:
        typed(v, family, list, lo=1)
    try:
        build, readers, least, most = _SHAPES[family][v[0]]
    except (KeyError, TypeError):
        raise ValueError(f"{v[0]!r} is no {family}") from None
    if not least <= len(v) <= most:
        raise ValueError(f"{v[0] or family!r} takes {len(readers)} "
                         f"argument(s), got {v!r}")
    if most > 1 + len(readers):
        readers *= len(v) - 1
    values = []
    for (read, kind), x in zip(readers, v[1:]):
        values.append(read(x, kind, n, t))
    return (v[0], *values) if build is None else build(*values)


# kind -> reader of an argument, given it, its kind, n and the menu's t
_READERS = {
    "agent": _plain(int, 1), "string": _plain(str), "integer": _plain(int),
    "copy": _plain(int), "time": lambda v, what, n, t: typed(
        t if v is None and t is not None else v, what, int),
    "GMI or null": lambda v, what, n, t: None if v is None else _read(
        ["", *typed(v, what, list)], "GMI", n, t),  # a bare array, unnamed
    "gsend or null": _nested("global hap", ("gsend",), null=True),
    "grecv or gext": _nested("global hap", ("grecv", "gext")),
    # a nested family recurses into `_read` directly, one frame per level
    "local hap": _read, "guard": _read,
}


def _shape(build, kinds) -> tuple:
    """(builder, (reader, kind) per argument, least and most lengths)."""
    readers = tuple((_READERS[k], k) for k in kinds if k is not ...)
    optional = ... in kinds or kinds[-1:] in (("copy",), ("GMI or null",))
    most = 1 << 30 if ... in kinds else 1 + len(readers)
    return build, readers, 1 + len(readers) - bool(optional), most


_SHAPES = {family: {name: _shape(*form) for name, form in forms.items()}
           for family, forms in FORMS.items()}


def decode(v, where: str, family: str, n: int, t=None):
    """The hap or guard of `family` the JSON value `v` spells, its agents
    in 1..n, in a menu at time `t` if given; else InputError at `where`."""
    try:
        return _read(v, family, n, t)
    except (ValueError, TypeError, LookupError, RecursionError) as e:
        raise InputError(where, f"bad {family}: {e}") from None


def decode_haps(v, where: str, family: str, n: int, t=None) -> frozenset:
    """The set of the haps `decode` reads from the JSON list `v`."""
    return frozenset(decode(h, where, family, n, t)
                     for h in typed(v, where, list))


# hap type -> (form name, its fields in JSON order); `fail` is the
# ByzAction without sides
_WRITERS = {build: (name, build._fields[:len(kinds)])
            for forms in FORMS.values() for name, (build, kinds) in forms.items()
            if isinstance(build, type) and name}


def to_json(h) -> list:
    """The canonical JSON form of a hap."""
    name, fields = _WRITERS[type(h)]
    if name == "byz_action" and h.performed is h.recorded is None:
        name, fields = "fail", fields[:1]
    args = [to_json(a) if type(a) in _WRITERS else a
            for a in map(getattr, itertools.repeat(h), fields)]
    if name == "grecv" and h.gmi is not None:
        args[3] = args[3][1:]  # the GMI: the send's bare array
    return [name, *args]


_key = json.JSONEncoder(separators=(",", ":")).encode  # compact JSON text


def hap_key(h) -> str:
    """The canonical key of a hap: its JSON form as compact text."""
    return _key(to_json(h))


def order_sets(sets) -> tuple:
    """Hap sets in canonical order: by their members' keys, sorted and
    joined with "|".  Each distinct hap's key is computed once."""
    keys = {h: hap_key(h) for h in frozenset().union(*sets)}
    return tuple(sorted(sets, key=lambda X: "|".join(sorted(keys[h] for h in X))))


def hapset_to_json(haps) -> list:
    """The JSON forms of a set of haps, in `hap_key` order."""
    return sorted(map(to_json, haps), key=_key)

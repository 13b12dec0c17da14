"""On-disk document format for recognizable sets.

One JSON object per automaton:

    {
      "format_version": 1,
      "base": 2,
      "state_count": 3,
      "initial": 0,
      "finals": [1],
      "transitions": [[0, 1, 1], [1, 0, 2], ...],   # [from, digit, to]
      "contains_zero": false
    }

Strict loading (the default) rejects unknown fields and automata accepting a
word with a leading zero; lenient loading tolerates unknown fields and repairs
only leading-zero acceptance, with a fresh start state, numbered `state_count`,
that reads only the old start's nonzero digits; every document state keeps its
number, and every other fault is reported as strict loading reports it.
"""

from __future__ import annotations

import json
from pathlib import Path

from .automata import Dfa, RecognizableSet, _accepts_leading_zero, restrict_to_canonical
from .errors import ValidationError

FORMAT_VERSION = 1

_FIELDS = ("format_version", "base", "state_count", "initial",
           "finals", "transitions", "contains_zero")


def document_from_set(s: RecognizableSet) -> dict:
    """Plain-data document for a set; transitions in (state, digit) order, for determinism."""
    return {
        "format_version": FORMAT_VERSION,
        "base": s.base,
        "state_count": s.dfa.state_count,
        "initial": s.dfa.initial,
        "finals": sorted(s.dfa.finals),
        "transitions": [[src, d, dst] for src, row in enumerate(s.dfa.rows)
                        for d, dst in enumerate(row) if dst >= 0],
        "contains_zero": s.contains_zero,
    }


def set_from_document(doc, *, strict: bool = True) -> RecognizableSet:
    """Check the object, its fields and version and build the set, which checks the values;
    lenient loading first repairs the automaton, only if it accepts a leading zero."""
    if not isinstance(doc, dict):
        raise ValidationError("automaton document must be a JSON object")
    missing = [f for f in _FIELDS if f not in doc]
    if missing:
        raise ValidationError(f"missing fields: {', '.join(missing)}")
    if strict:
        unknown = sorted(set(doc) - set(_FIELDS))
        if unknown:
            raise ValidationError(f"unknown fields: {', '.join(unknown)}")
    version = doc["format_version"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    if not isinstance(doc["finals"], list):
        raise ValidationError("field 'finals' must be a list of state indices")
    if not isinstance(doc["transitions"], list):
        raise ValidationError("field 'transitions' must be a list of [from, digit, to] triples")
    dfa = Dfa(doc["base"], doc["state_count"], doc["initial"], doc["finals"], doc["transitions"])
    if not strict and _accepts_leading_zero(dfa):
        dfa = restrict_to_canonical(dfa)
    return RecognizableSet(dfa, doc["contains_zero"])


def dumps_automaton(s: RecognizableSet) -> str:
    """Deterministic text form: sorted keys, one field per line, inline lists."""
    doc = document_from_set(s)
    lines = ["{"]
    for i, key in enumerate(sorted(doc)):
        value = json.dumps(doc[key], separators=(",", ":"))
        comma = "," if i < len(doc) - 1 else ""
        lines.append(f'  "{key}": {value}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def loads_automaton(text: str, *, strict: bool = True) -> RecognizableSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(
            f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise ValidationError("parse error: the document nests too deeply") from e
    except ValueError as e:  # an integer past the int-to-str digit limit
        raise ValidationError(f"parse error: {e}") from e
    return set_from_document(doc, strict=strict)


def write_automaton(path, s: RecognizableSet) -> None:
    try:
        Path(path).write_text(dumps_automaton(s), encoding="utf-8")
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}") from e


def read_automaton(path, *, strict: bool = True) -> RecognizableSet:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    return loads_automaton(text, strict=strict)

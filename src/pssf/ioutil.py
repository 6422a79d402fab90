"""CSV/JSON artifact helpers with fixed, reproducible formatting, and the rule walker that checks what is read in."""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path, header, rows) -> None:
    """Comma-separated, header row, LF line endings, 17-digit floats; rows stream. A row of Python floats is one
    ``%.17g`` format (no float needs quoting); any other row goes through the csv writer, each cell through ``_cell``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if all(type(v) is float for v in row):
                fh.write(",".join(["%.17g"] * len(row)) % tuple(row) + "\n")
            else:
                writer.writerow([_cell(v) for v in row])


def read_csv(path):
    """Header plus rows of strings; empty cells stay empty strings."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def write_json(path, obj) -> None:
    """Deterministic JSON artifact (sorted keys, exact float round trip)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _is_type(kind: str, value) -> bool:
    """JSON's types, where an integer is no bool or float and a number fits a finite float (not .inf, .nan or 1e400)."""
    if isinstance(value, bool):
        return kind == "boolean"
    if kind == "number":
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, {"object": dict, "array": list, "integer": int, "boolean": bool, "null": type(None)}[kind])


POSITIVE = {"type": "number", "exclusiveMinimum": 0}
AT_LEAST_ONE = {"type": "integer", "minimum": 1}


def rule_block(properties: dict, **extra) -> dict:
    """The rule of an object whose keys are exactly ``properties``."""
    return {"type": "object", "additionalProperties": False, **extra, "properties": properties}


def _rule_errors(rule: dict, value, path: tuple) -> list:
    """Each way ``value`` breaks ``rule``, in the rule's keyword order, as (path, is a type error, message)."""
    if "type" in rule and not _is_type(rule["type"], value):
        return [(path, True, f"{value!r} is not of type {rule['type']!r}")]
    errors = []
    for keyword, arg in rule.items():
        if keyword == "enum" and value not in arg:
            errors.append((path, False, f"{value!r} is not one of {arg!r}"))
        elif keyword == "minimum" and value < arg:
            errors.append((path, False, f"{value!r} is less than the minimum of {arg!r}"))
        elif keyword == "exclusiveMinimum" and value <= arg:
            errors.append((path, False, f"{value!r} is less than or equal to the minimum of {arg!r}"))
        elif keyword == "minItems" and len(value) < arg:
            errors.append((path, False, f"{value!r} is too short"))
        elif keyword == "maxItems" and len(value) > arg:
            errors.append((path, False, f"{value!r} is too long"))
        elif keyword == "required":
            errors += [(path, False, f"{key!r} is a required property") for key in arg if key not in value]
        elif keyword == "additionalProperties" and value.keys() - rule["properties"]:
            extra = sorted(value.keys() - rule["properties"], key=str)
            errors.append((path, False, f"Additional properties are not allowed ({', '.join(map(repr, extra))} "
                                        f"{'was' if len(extra) == 1 else 'were'} unexpected)"))
        elif keyword == "properties":
            for key, sub in arg.items():
                if key in value:
                    errors += _rule_errors(sub, value[key], path + (key,))
        elif keyword == "items":
            for index, item in enumerate(value):
                errors += _rule_errors(arg, item, path + (index,))
        elif keyword == "anyOf" and all(branches := [_rule_errors(sub, value, path) for sub in arg]):
            # An entry of an object that every branch's enum rejects (alpha's family, a map's kind) is a tag no branch
            # takes: its error lists every branch's values, beside the errors that all branches share.
            for key in value if isinstance(value, dict) else ():
                enums = [sub.get("properties", {}).get(key, {}).get("enum", [value[key]]) for sub in arg]
                if all(value[key] not in enum for enum in enums):
                    errors.append((path + (key,), False, f"{value[key]!r} is not one of {sum(enums, [])!r}"))
                    errors += [error for error in branches[0] if all(error in found for found in branches[1:])]
                    break
            else:
                # The branch that fails in fewest ways, a branch that rejects the value's type failing most.
                best = min(branches, key=lambda found: (found[0][:2] == (path, True), len(found)))
                if best[0][:2] == (path, True):
                    best = [(path, True, f"{value!r} is not valid under any of the given schemas")]
                errors += best
    return errors


def rule_error(rule: dict, value) -> str | None:
    """``<path>: <message>`` of the error reported (``pssf.config`` says which), or None if ``value`` keeps ``rule``."""
    errors = _rule_errors(rule, value, ())
    if errors:
        where, _, message = min(errors, key=lambda error: (len(error[0]), not error[1]))
        return f"{'.'.join(map(str, where)) or '<root>'}: {message}"
    return None

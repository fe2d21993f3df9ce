"""Shared exception types.

The CLI maps these onto exit codes: input/validation problems exit 2,
numeric failures (non-finite values mid-run) exit 3.
"""

import json


class GraphScmError(Exception):
    """Base class for all package errors."""


class DimensionError(GraphScmError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(GraphScmError, ArithmeticError):
    """A computation produced or encountered a non-finite value, or rounding
    broke a guarantee of its algorithm."""


class LoadError(GraphScmError, ValueError):
    """A dataset or checkpoint file is missing, malformed, or inconsistent."""


class ContractError(GraphScmError, ValueError):
    """An operation was called outside its documented preconditions."""


class ConfigError(GraphScmError, ValueError):
    """A run configuration is invalid (empty split, bad parameter, ...)."""


def not_utf8(path: str) -> LoadError:
    """A LoadError naming the line of the first byte of ``path`` that is not
    UTF-8, counting lines by their newline bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return LoadError(f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x})")
    return LoadError(f"{path}: not UTF-8 text")


def is_json_int(value) -> bool:
    """Whether a parsed JSON value is an integer: floats, strings and booleans are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_json(path: str):
    """Parse a JSON file; malformed text raises LoadError naming file, line and column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise not_utf8(path) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}") from exc

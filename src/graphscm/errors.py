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
    """A computation produced or encountered a non-finite value."""


class LoadError(GraphScmError, ValueError):
    """A dataset or checkpoint file is missing, malformed, or inconsistent."""


class ContractError(GraphScmError, ValueError):
    """An operation was called outside its documented preconditions."""


class ConfigError(GraphScmError, ValueError):
    """A run configuration is invalid (empty split, bad parameter, ...)."""


def read_json(path: str):
    """Parse a JSON file; malformed text raises LoadError naming file, line and column."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}") from exc

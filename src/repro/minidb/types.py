"""Column types and value coercion for minidb.

minidb supports a deliberately small set of scalar types — the set Exp-DB
actually needs for its laboratory schema.  Values are stored in their
canonical Python representation and coerced on the way in, so that a row
read back always compares equal to the row written.
"""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Any

from repro.errors import TypeMismatchError


class ColumnType(enum.Enum):
    """Scalar column types supported by minidb."""

    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"
    BOOLEAN = "boolean"
    TIMESTAMP = "timestamp"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnType.{self.name}"


#: Canonical Python type for each column type.
_PYTHON_TYPES = {
    ColumnType.INTEGER: int,
    ColumnType.REAL: float,
    ColumnType.TEXT: str,
    ColumnType.BOOLEAN: bool,
    ColumnType.TIMESTAMP: _dt.datetime,
}

#: ISO-8601 format used to persist timestamps in the WAL.
_TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S.%f"


def coerce(value: Any, column_type: ColumnType, context: str = "value") -> Any:
    """Coerce ``value`` to the canonical representation of ``column_type``.

    ``None`` passes through untouched (nullability is checked separately by
    the engine).  Raises :class:`TypeMismatchError` when the value cannot be
    represented losslessly.

    ``context`` is included in error messages to identify the offending
    column.
    """
    if value is None:
        return None

    if column_type is ColumnType.INTEGER:
        # bool is an int subclass; accepting True as 1 silently would make
        # type errors invisible, so reject it explicitly.
        if isinstance(value, bool):
            raise TypeMismatchError(f"{context}: boolean given for INTEGER column")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value, 10)
            except ValueError:
                pass
        raise TypeMismatchError(f"{context}: cannot coerce {value!r} to INTEGER")

    if column_type is ColumnType.REAL:
        if isinstance(value, bool):
            raise TypeMismatchError(f"{context}: boolean given for REAL column")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
        raise TypeMismatchError(f"{context}: cannot coerce {value!r} to REAL")

    if column_type is ColumnType.TEXT:
        if isinstance(value, str):
            return value
        raise TypeMismatchError(f"{context}: cannot coerce {value!r} to TEXT")

    if column_type is ColumnType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise TypeMismatchError(f"{context}: cannot coerce {value!r} to BOOLEAN")

    if column_type is ColumnType.TIMESTAMP:
        if isinstance(value, _dt.datetime):
            return value
        if isinstance(value, str):
            # 26 characters is the only length at which strptime accepts
            # the format, all fields at full width: there fromisoformat
            # parses the same value, many times faster.
            if len(value) == 26:
                try:
                    return _dt.datetime.fromisoformat(value)
                except ValueError:
                    pass
            try:
                return _dt.datetime.strptime(value, _TIMESTAMP_FORMAT)
            except ValueError:
                try:
                    return _dt.datetime.fromisoformat(value)
                except ValueError:
                    pass
        raise TypeMismatchError(f"{context}: cannot coerce {value!r} to TIMESTAMP")

    raise TypeMismatchError(f"{context}: unsupported column type {column_type!r}")


def to_wire(value: Any, column_type: ColumnType) -> Any:
    """Render a canonical value as a JSON-serialisable scalar for the WAL."""
    if value is None:
        return None
    if column_type is ColumnType.TIMESTAMP:
        return value.strftime(_TIMESTAMP_FORMAT)
    return value


def from_wire(value: Any, column_type: ColumnType) -> Any:
    """Parse a WAL scalar back into the canonical representation."""
    if value is None:
        return None
    return coerce(value, column_type, context="wal")


def python_type(column_type: ColumnType) -> type:
    """Return the canonical Python type stored for ``column_type``."""
    return _PYTHON_TYPES[column_type]

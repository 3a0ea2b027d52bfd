"""Typed XML documents carrying relational rows between system boundaries.

Document shape::

    <task-input kind="dispatch" task-instance="42">
      <table name="Experiment">
        <row>
          <column name="experiment_id" type="integer">17</column>
          <column name="name" type="text">pcr-17</column>
          <column name="score" type="real" null="true"/>
        </row>
      </table>
      <table name="Sample"> ... </table>
    </task-input>

Every ``<column>`` element records the minidb column type, making the
relational→XML→relational roundtrip lossless, including NULLs and
timestamps.  Root attributes are free-form strings used for routing
metadata (task ids, message kinds, ...).

Rendering writes the XML text directly (the same bytes ElementTree's
serializer would give); parsing goes through ElementTree.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Iterable

from repro.errors import XmlExtractionError, XmlTranslationError
from repro.minidb.engine import Database
from repro.minidb.schema import TableSchema
from repro.minidb.types import ColumnType, from_wire, to_wire


def _escape_text(text: str) -> str:
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def _escape_attribute(text: str) -> str:
    text = _escape_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


class RelationalDocument:
    """An ordered collection of (table, rows) destined for XML transfer."""

    def __init__(self, root_tag: str = "document", **attributes: str) -> None:
        if not root_tag or not root_tag.replace("-", "").replace("_", "").isalnum():
            raise XmlExtractionError(f"invalid root tag: {root_tag!r}")
        self.root_tag = root_tag
        self.attributes: dict[str, str] = {
            key.replace("_", "-"): str(value) for key, value in attributes.items()
        }
        # table name -> (schema snapshot {column: type}, list of rows)
        self._tables: dict[str, tuple[dict[str, ColumnType], list[dict[str, Any]]]]
        self._tables = {}

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def add_rows(
        self,
        schema: TableSchema,
        rows: Iterable[dict[str, Any]],
        extra_columns: dict[str, ColumnType] | None = None,
    ) -> None:
        """Append rows belonging to ``schema``'s table.

        ``extra_columns`` types any columns beyond the schema — used for
        merged parent/child reads where the child row carries inherited
        parent columns.
        """
        types = {column.name: column.type for column in schema.columns}
        if extra_columns:
            types.update(extra_columns)
        existing_types, existing_rows = self._tables.get(schema.name, (types, []))
        existing_types.update(types)
        for row in rows:
            for column in row:
                if column not in existing_types:
                    raise XmlExtractionError(
                        f"row for table {schema.name!r} carries untyped "
                        f"column {column!r}"
                    )
            existing_rows.append(dict(row))
        self._tables[schema.name] = (existing_types, existing_rows)

    def add_table_from_db(
        self, db: Database, table: str, rows: Iterable[dict[str, Any]]
    ) -> None:
        """Append rows typed via the live schema (merging parent columns)."""
        schema = db.schema(table)
        extra: dict[str, ColumnType] = {}
        parent_name = schema.parent
        while parent_name is not None:
            parent_schema = db.schema(parent_name)
            for column in parent_schema.columns:
                extra.setdefault(column.name, column.type)
            parent_name = parent_schema.parent
        self.add_rows(schema, rows, extra_columns=extra)

    def tables(self) -> list[str]:
        """Table names present in the document, in insertion order."""
        return list(self._tables)

    def rows(self, table: str) -> list[dict[str, Any]]:
        """The rows stored for ``table`` (copies)."""
        if table not in self._tables:
            return []
        return [dict(row) for row in self._tables[table][1]]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_xml(self) -> str:
        """Render the document as an XML string.

        Written directly as strings, in the form ElementTree's
        ``tostring(..., encoding="unicode")`` gives: attributes in
        insertion order, ``&``, ``<``, ``>`` escaped in text (and
        ``"``, CR, LF, tab too in attribute values), a childless
        element as ``<tag ... />``, no XML declaration.
        """
        parts = ["<", self.root_tag]
        for key, value in self.attributes.items():
            parts.append(f' {key}="{_escape_attribute(value)}"')
        if not self._tables:
            parts.append(" />")
            return "".join(parts)
        parts.append(">")
        for table_name, (types, rows) in self._tables.items():
            head = f'<table name="{_escape_attribute(table_name)}"'
            if not rows:
                parts.append(head + " />")
                continue
            parts.append(head + ">")
            # column -> (element start, type), built once per table.
            columns = {
                column: (
                    f'<column name="{_escape_attribute(column)}" '
                    f'type="{column_type.value}"',
                    column_type,
                )
                for column, column_type in types.items()
            }
            for row in rows:
                if not row:
                    parts.append("<row />")
                    continue
                parts.append("<row>")
                for column, value in row.items():
                    start, column_type = columns[column]
                    if value is None:
                        parts.append(start + ' null="true" />')
                        continue
                    text = str(to_wire(value, column_type))
                    if text:
                        parts.append(f"{start}>{_escape_text(text)}</column>")
                    else:
                        parts.append(start + " />")
                parts.append("</row>")
            parts.append("</table>")
        parts.append(f"</{self.root_tag}>")
        return "".join(parts)

    @staticmethod
    def from_xml(xml_text: str) -> "RelationalDocument":
        """Parse a document produced by :meth:`to_xml` (or by an agent).

        Each ``(column, type)`` attribute pair of a table is resolved
        to its :class:`ColumnType` once; every value goes through
        :func:`from_wire`.
        """
        try:
            root = ET.fromstring(xml_text)
        except ET.ParseError as error:
            raise XmlTranslationError(f"malformed XML: {error}") from None
        document = RelationalDocument.__new__(RelationalDocument)
        document.root_tag = root.tag
        document.attributes = dict(root.attrib)
        document._tables = {}
        for table_element in root.iterfind("table"):
            table_name = table_element.get("name")
            if not table_name:
                raise XmlTranslationError("<table> element without name")
            types: dict[str, ColumnType] = {}
            # (name, type) attributes -> (column, type)
            resolved: dict[
                tuple[str | None, str | None], tuple[str, ColumnType]
            ] = {}
            rows: list[dict[str, Any]] = []
            for row_element in table_element.iterfind("row"):
                row: dict[str, Any] = {}
                for column_element in row_element.iterfind("column"):
                    attributes = column_element.attrib
                    key = (attributes.get("name"), attributes.get("type"))
                    known = resolved.get(key)
                    if known is None:
                        column, type_name = key
                        if not column or not type_name:
                            raise XmlTranslationError(
                                f"<column> in table {table_name!r} missing "
                                "name or type"
                            )
                        try:
                            column_type = ColumnType(type_name)
                        except ValueError:
                            raise XmlTranslationError(
                                f"unknown column type {type_name!r} in table "
                                f"{table_name!r}"
                            ) from None
                        known = resolved[key] = (column, column_type)
                    column, column_type = known
                    types[column] = column_type
                    if attributes.get("null") == "true":
                        row[column] = None
                        continue
                    try:
                        row[column] = from_wire(
                            column_element.text or "", column_type
                        )
                    except Exception as error:
                        raise XmlTranslationError(
                            f"bad value for {table_name}.{column}: {error}"
                        ) from None
                rows.append(row)
            if table_name in document._tables:
                existing_types, existing_rows = document._tables[table_name]
                existing_types.update(types)
                existing_rows.extend(rows)
            else:
                document._tables[table_name] = (types, rows)
        return document

    # ------------------------------------------------------------------
    # Applying back to the database
    # ------------------------------------------------------------------

    def validate_against(self, db: Database) -> None:
        """Check every row fits the live schema (tables/columns exist)."""
        for table_name, (__, rows) in self._tables.items():
            if not db.has_table(table_name):
                raise XmlTranslationError(
                    f"document references unknown table {table_name!r}"
                )
            schema = db.schema(table_name)
            known = set(schema.column_names())
            parent_name = schema.parent
            while parent_name is not None:
                parent_schema = db.schema(parent_name)
                known.update(parent_schema.column_names())
                parent_name = parent_schema.parent
            for row in rows:
                unknown = set(row) - known
                if unknown:
                    raise XmlTranslationError(
                        f"document row for {table_name!r} has unknown "
                        f"columns {sorted(unknown)}"
                    )

    def insert_into(self, db: Database, table: str) -> list[dict[str, Any]]:
        """Insert this document's rows for ``table``, returning stored rows.

        Columns not belonging to ``table`` itself (inherited parent
        columns echoed back by an agent) are dropped, mirroring how the
        original system's translator writes each table separately.
        """
        schema = db.schema(table)
        own_columns = set(schema.column_names())
        inserted = []
        for row in self.rows(table):
            trimmed = {
                column: value
                for column, value in row.items()
                if column in own_columns
            }
            inserted.append(db.insert(table, trimmed))
        return inserted

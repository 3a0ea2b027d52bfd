"""``to_xml`` writes exactly what ElementTree's serializer writes.

The reference renderer below builds the element tree and calls
``ET.tostring(..., encoding="unicode")``, as the document renderer once
did; the direct writer must match it byte for byte on any document:
markup characters, CR/LF/tab, non-ASCII text, empty strings, NULLs,
tables with no rows, rows with no columns, a root with no tables.

``from_xml`` resolves each column type once per table; it still accepts
what ``from_wire`` accepts and words each malformed input's error as
before.
"""

from __future__ import annotations

import datetime
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XmlTranslationError
from repro.minidb import ColumnType
from repro.minidb.types import from_wire, to_wire
from repro.xmlbridge import RelationalDocument

text = st.text(
    alphabet=st.sampled_from("&<>\"'\r\n\t aZ0;#é€ \U0001f600")
    | st.characters(blacklist_categories=("Cs",)),
    max_size=12,
)
names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
values = {
    ColumnType.INTEGER: st.integers(min_value=-(2**63), max_value=2**63),
    ColumnType.REAL: st.floats(allow_nan=False),
    ColumnType.TEXT: text,
    ColumnType.BOOLEAN: st.booleans(),
    ColumnType.TIMESTAMP: st.datetimes(
        min_value=datetime.datetime(1000, 1, 1),
        max_value=datetime.datetime(9999, 12, 31),
    ),
}


@st.composite
def tables(draw):
    """(table name, {column: type}, rows) with rows over any subset of
    the columns, including none."""
    columns = draw(
        st.dictionaries(text.filter(bool), st.sampled_from(list(ColumnType)), max_size=4)
    )
    rows = []
    for __ in range(draw(st.integers(min_value=0, max_value=4))):
        chosen = draw(st.lists(st.sampled_from(list(columns)), unique=True)) if columns else []
        rows.append(
            {
                column: draw(st.none() | values[columns[column]])
                for column in chosen
            }
        )
    return columns, rows


documents = st.tuples(
    st.from_regex(r"[a-z][a-z0-9_-]{0,8}", fullmatch=True),
    st.dictionaries(names, text, max_size=3),
    st.dictionaries(text.filter(bool), tables(), max_size=3),
)


def build(root_tag, attributes, content) -> RelationalDocument:
    """The document for ``content``.  Table and column names of a
    parsed document need not be identifiers, so the schema is a bare
    stand-in and every column is typed through ``extra_columns``."""
    document = RelationalDocument(root_tag, **attributes)
    for table_name, (columns, rows) in content.items():
        schema = SimpleNamespace(name=table_name, columns=[])
        document.add_rows(schema, rows, extra_columns=columns)  # type: ignore[arg-type]
    return document


def reference_xml(root_tag, attributes, content) -> str:
    root = ET.Element(
        root_tag, {key.replace("_", "-"): value for key, value in attributes.items()}
    )
    for table_name, (columns, rows) in content.items():
        table_element = ET.SubElement(root, "table", {"name": table_name})
        for row in rows:
            row_element = ET.SubElement(table_element, "row")
            for column, value in row.items():
                attrs = {"name": column, "type": columns[column].value}
                if value is None:
                    attrs["null"] = "true"
                    ET.SubElement(row_element, "column", attrs)
                    continue
                column_element = ET.SubElement(row_element, "column", attrs)
                column_element.text = str(to_wire(value, columns[column]))
    return ET.tostring(root, encoding="unicode")


@given(documents)
@settings(max_examples=300, deadline=None)
def test_to_xml_matches_elementtree_byte_for_byte(spec):
    assert build(*spec).to_xml() == reference_xml(*spec)


@pytest.mark.parametrize(
    "spec",
    [
        ("doc", {}, {}),
        ("doc", {"note": "a&b<c>\"d\"'e'\r\n\t"}, {}),
        ("doc", {}, {"empty": ({"c": ColumnType.TEXT}, [])}),
        ("doc", {}, {"t": ({"c": ColumnType.TEXT}, [{}, {"c": ""}, {"c": None}])}),
        ("doc", {}, {"t": ({"c": ColumnType.TEXT}, [{"c": "x & <y> \"z\" 'w'\r\n\té€"}])}),
    ],
)
def test_to_xml_matches_elementtree_on_edge_cases(spec):
    assert build(*spec).to_xml() == reference_xml(*spec)


def _column_document(cells: str) -> str:
    return f'<doc><table name="T">{cells}</table></doc>'


@pytest.mark.parametrize(
    "xml_text, message",
    [
        ("<doc><table /></doc>", "<table> element without name"),
        (
            _column_document('<row><column type="integer">1</column></row>'),
            "<column> in table 'T' missing name or type",
        ),
        (
            _column_document('<row><column name="c">1</column></row>'),
            "<column> in table 'T' missing name or type",
        ),
        (
            _column_document('<row><column name="c" type="blob">1</column></row>'),
            "unknown column type 'blob' in table 'T'",
        ),
        (
            _column_document(
                '<row><column name="c" type="integer">1</column></row>'
                '<row><column name="c" type="integer">x</column></row>'
            ),
            "bad value for T.c: wal: cannot coerce 'x' to INTEGER",
        ),
        (
            _column_document('<row><column name="c" type="real">one</column></row>'),
            "bad value for T.c: wal: cannot coerce 'one' to REAL",
        ),
        (
            _column_document('<row><column name="c" type="boolean">yes</column></row>'),
            "bad value for T.c: wal: cannot coerce 'yes' to BOOLEAN",
        ),
        (
            _column_document(
                '<row><column name="c" type="timestamp">'
                "2024-13-01T00:00:00.000000</column></row>"
            ),
            "bad value for T.c: wal: cannot coerce "
            "'2024-13-01T00:00:00.000000' to TIMESTAMP",
        ),
    ],
)
def test_from_xml_words_malformed_input_as_before(xml_text, message):
    with pytest.raises(XmlTranslationError) as caught:
        RelationalDocument.from_xml(xml_text)
    assert str(caught.value) == message


def test_from_xml_reports_malformed_xml():
    with pytest.raises(XmlTranslationError, match="^malformed XML: "):
        RelationalDocument.from_xml("<doc><table></doc>")


@pytest.mark.parametrize(
    "column_type, wire",
    [
        (ColumnType.INTEGER, " 7 "),
        (ColumnType.REAL, "1e3"),
        (ColumnType.BOOLEAN, "TRUE"),
        (ColumnType.TEXT, ""),
        (ColumnType.TIMESTAMP, "2024-01-02T03:04:05.000006"),
        (ColumnType.TIMESTAMP, "2024-01-02T03:04:05.5"),
        (ColumnType.TIMESTAMP, "2024-01-02 03:04:05"),
    ],
)
def test_from_xml_accepts_what_from_wire_accepts(column_type, wire):
    document = RelationalDocument.from_xml(
        _column_document(
            f'<row><column name="c" type="{column_type.value}">{wire}</column></row>'
        )
    )
    assert document.rows("T") == [{"c": from_wire(wire, column_type)}]

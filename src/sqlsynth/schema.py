"""Schema catalog: DDL ingestion, metadata inference, and canonical rendering.

The catalog is the ground truth every other stage resolves against. It is
built from CREATE TABLE text, optionally augmented with inferred foreign keys
(name-based matching against single-column primary keys) and with column
metadata sampled from data files or a live engine: distinct counts, small
enumerated domains, label-like columns (version strings), and value ranges.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Protocol

from .errors import DdlSyntaxError, DuplicateObjectError, UnknownObjectError
from .engine import read_rows
from .sqltree import Token, TokenCursor, sql_name
from .util import SCHEMA_VERSION, dump_json, fields_of, load_json

logger = logging.getLogger(__name__)

# sql_type families; every declared column type maps onto one of these.
_TYPE_FAMILIES = {
    "int": "integer",
    "integer": "integer",
    "bigint": "integer",
    "smallint": "integer",
    "tinyint": "integer",
    "decimal": "decimal",
    "dec": "decimal",
    "numeric": "decimal",
    "float": "float",
    "real": "float",
    "double": "float",
    "double precision": "float",
    "char": "char",
    "character": "char",
    "varchar": "varchar",
    "character varying": "varchar",
    "text": "varchar",
    "string": "varchar",
    "date": "date",
    "datetime": "date",
    "time": "date",
    "timestamp": "date",
    "boolean": "boolean",
    "bool": "boolean",
}

#: Families whose declared length/precision is kept in the canonical type text.
_PARAM_FAMILIES = {"char", "varchar", "decimal"}

NUMERIC_FAMILIES = frozenset({"integer", "decimal", "float"})

#: Version-like strings ("3.0.1") that mark a column as a label.
LABEL_PATTERN = re.compile(r"^\d+(\.\d+)+$")


@dataclass
class ColumnMetadata:
    distinct_value_count: int | None = None
    enumerated_values: list[str] | None = None
    is_label: bool = False
    value_range: tuple[str, str] | None = None


@dataclass
class ColumnDef:
    name: str
    sql_type: str  # one of the families above
    type_text: str  # canonical declared type, e.g. "decimal(15,2)"
    nullable: bool = True
    metadata: ColumnMetadata = field(default_factory=ColumnMetadata)

    @property
    def is_numeric(self) -> bool:
        return self.sql_type in NUMERIC_FAMILIES


@dataclass
class ForeignKey:
    from_table: str
    from_columns: tuple[str, ...]
    to_table: str
    to_columns: tuple[str, ...]
    provenance: str = "declared"  # declared | inferred

    def key(self) -> tuple:
        """Identity ignoring provenance, used for duplicate suppression."""
        return (self.from_table, self.from_columns, self.to_table, self.to_columns)


@dataclass
class TableDef:
    name: str
    primary_key: list[str] = field(default_factory=list)
    columns: list[ColumnDef] = field(default_factory=list)

    def column(self, name: str) -> ColumnDef | None:
        name = name.lower()
        for col in self.columns:
            if col.name == name:
                return col
        return None

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


@dataclass
class SchemaCatalog:
    name: str
    tables: list[TableDef] = field(default_factory=list)
    fk_edges: list[ForeignKey] = field(default_factory=list)
    view_names: list[str] = field(default_factory=list)
    advisories: list[str] = field(default_factory=list)

    def table(self, name: str) -> TableDef | None:
        name = name.lower()
        for tab in self.tables:
            if tab.name == name:
                return tab
        return None

    def require_table(self, name: str) -> TableDef:
        tab = self.table(name)
        if tab is None:
            raise UnknownObjectError(f"unknown table {name!r}")
        return tab


# ---------------------------------------------------------------------------
# DDL ingestion
# ---------------------------------------------------------------------------


class _DdlReader(TokenCursor):
    """Cursor over the token stream of a full DDL script."""

    statement_index = 0

    def done(self) -> bool:
        return self.peek().kind == "end"

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise DdlSyntaxError(message, self.statement_index, tok.pos)

    def skip_balanced_to_semicolon(self):
        depth = 0
        while not self.done():
            tok = self.peek()
            if tok.kind == "op":
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    depth -= 1
                elif tok.text == ";" and depth == 0:
                    return
            self.next()


def ingest_ddl(ddl_text: str, name: str = "schema") -> SchemaCatalog:
    """Build a catalog from CREATE TABLE / CREATE VIEW statements.

    Declared PRIMARY KEY and FOREIGN KEY clauses are captured with
    provenance ``declared``. View bodies are skipped; only names are kept.
    """
    try:
        reader = _DdlReader(ddl_text)
    except Exception as exc:  # tokenizer reports its own position
        raise DdlSyntaxError(str(exc), 0, getattr(exc, "position", 0)) from exc
    catalog = SchemaCatalog(name=name)
    pending_fks: list[ForeignKey] = []
    while True:
        while reader.take_op(";"):
            pass
        if reader.done():
            break
        reader.expect_kw("create")
        if reader.take_kw("view"):
            view_name = reader.expect_name("view name")
            if catalog.table(view_name) or view_name in catalog.view_names:
                raise DuplicateObjectError(f"duplicate object name {view_name!r}")
            catalog.view_names.append(view_name)
            reader.skip_balanced_to_semicolon()
        else:
            reader.expect_kw("table")
            if reader.take_kw("if"):
                reader.expect_kw("not")
                reader.expect_kw("exists")
            table, fks = _parse_table(reader)
            if catalog.table(table.name) or table.name in catalog.view_names:
                raise DuplicateObjectError(f"duplicate table name {table.name!r}")
            catalog.tables.append(table)
            pending_fks.extend(fks)
        reader.statement_index += 1
    _check_foreign_keys(catalog, pending_fks, reader.statement_index)
    catalog.fk_edges.extend(pending_fks)
    return catalog


def _parse_table(reader: _DdlReader) -> tuple[TableDef, list[ForeignKey]]:
    table_name = reader.expect_name("table name")
    table = TableDef(name=table_name)
    fks: list[ForeignKey] = []
    reader.expect_op("(")
    while True:
        if reader.at_kw("primary"):
            reader.next()
            reader.expect_kw("key")
            cols = _parse_name_list(reader)
            if table.primary_key:
                reader.error(f"table {table_name!r} declares two primary keys")
            table.primary_key = cols
        elif reader.at_kw("foreign"):
            reader.next()
            reader.expect_kw("key")
            from_cols = _parse_name_list(reader)
            reader.expect_kw("references")
            to_table = reader.expect_name("referenced table")
            to_cols = _parse_name_list(reader) if reader.at_op("(") else []
            fks.append(
                ForeignKey(
                    from_table=table_name,
                    from_columns=tuple(from_cols),
                    to_table=to_table,
                    to_columns=tuple(to_cols),
                )
            )
        elif reader.take_kw("unique"):
            _parse_name_list(reader)
        elif reader.take_kw("constraint"):
            reader.expect_name("constraint name")
            continue  # re-enter the loop to parse the constraint body
        elif reader.take_kw("check"):
            _skip_parenthesized(reader)
        else:
            column, col_fk = _parse_column(reader, table)
            if table.column(column.name):
                reader.error(f"duplicate column {column.name!r} in table {table_name!r}")
            table.columns.append(column)
            if col_fk is not None:
                fks.append(col_fk)
        if reader.take_op(","):
            continue
        reader.expect_op(")")
        break
    if not table.columns:
        reader.error(f"table {table_name!r} has no columns")
    for pk_col in table.primary_key:
        if table.column(pk_col) is None:
            reader.error(f"primary key column {pk_col!r} not in table {table_name!r}")
    return table, fks


def _parse_column(reader: _DdlReader, table: TableDef) -> tuple[ColumnDef, ForeignKey | None]:
    col_name = reader.expect_name("column name")
    type_word = reader.expect_name("column type")
    if type_word in ("double", "character") and reader.at_kw("precision", "varying"):
        type_word = f"{type_word} {reader.next().norm}"
    family = _TYPE_FAMILIES.get(type_word)
    if family is None:
        reader.error(f"unsupported column type {type_word!r}")
    params = ""
    if reader.take_op("("):
        nums = [reader.next().text]
        while reader.take_op(","):
            nums.append(reader.next().text)
        reader.expect_op(")")
        if family in _PARAM_FAMILIES:
            params = f"({','.join(nums)})"
    type_text = family + params
    nullable = True
    fk = None
    while True:
        if reader.take_kw("not"):
            reader.expect_kw("null")
            nullable = False
        elif reader.take_kw("null"):
            nullable = True
        elif reader.at_kw("primary"):
            reader.next()
            reader.expect_kw("key")
            if table.primary_key:
                reader.error(f"table {table.name!r} declares two primary keys")
            table.primary_key = [col_name]
        elif reader.take_kw("references"):
            to_table = reader.expect_name("referenced table")
            to_cols = _parse_name_list(reader) if reader.at_op("(") else []
            fk = ForeignKey(
                from_table=table.name,
                from_columns=(col_name,),
                to_table=to_table,
                to_columns=tuple(to_cols),
            )
        elif reader.take_kw("unique"):
            pass
        elif reader.take_kw("default"):
            _skip_default_value(reader)
        elif reader.take_kw("check"):
            _skip_parenthesized(reader)
        else:
            break
    column = ColumnDef(name=col_name, sql_type=family, type_text=type_text, nullable=nullable)
    return column, fk


def _parse_name_list(reader: _DdlReader) -> list[str]:
    reader.expect_op("(")
    names = [reader.expect_name("column name")]
    while reader.take_op(","):
        names.append(reader.expect_name("column name"))
    reader.expect_op(")")
    return names


def _skip_parenthesized(reader: _DdlReader):
    reader.expect_op("(")
    depth = 1
    while depth and not reader.done():
        tok = reader.next()
        if tok.kind == "op" and tok.text == "(":
            depth += 1
        elif tok.kind == "op" and tok.text == ")":
            depth -= 1
    if depth:
        reader.error("unbalanced parentheses")


def _skip_default_value(reader: _DdlReader):
    if reader.at_op("("):
        _skip_parenthesized(reader)
        return
    tok = reader.next()
    if tok.kind == "op" and tok.text in ("-", "+"):
        reader.next()
    elif tok.kind == "name" and reader.at_op("("):
        _skip_parenthesized(reader)


def _check_foreign_keys(catalog: SchemaCatalog, fks: list[ForeignKey], statement_index: int):
    for fk in fks:
        target = catalog.table(fk.to_table)
        if target is None:
            raise DdlSyntaxError(
                f"foreign key references unknown table {fk.to_table!r}", statement_index, 0
            )
        if not fk.to_columns:
            fk.to_columns = tuple(target.primary_key)
        if not fk.to_columns or len(fk.to_columns) != len(fk.from_columns):
            raise DdlSyntaxError(
                f"foreign key {fk.from_table}->{fk.to_table} has mismatched column lists",
                statement_index,
                0,
            )
        source = catalog.table(fk.from_table)
        for col in fk.from_columns:
            if source.column(col) is None:
                raise DdlSyntaxError(
                    f"foreign key column {col!r} not in table {fk.from_table!r}",
                    statement_index,
                    0,
                )
        if list(fk.to_columns) != target.primary_key:
            raise DdlSyntaxError(
                f"foreign key {fk.from_table}->{fk.to_table} must reference the primary key",
                statement_index,
                0,
            )


# ---------------------------------------------------------------------------
# Foreign-key inference
# ---------------------------------------------------------------------------


def derive_column_prefixes(catalog: SchemaCatalog) -> dict[str, str]:
    """Per-table column-name prefix (text up to the first underscore).

    TPC-H style: nation's columns all start with ``n_``, lineitem's with
    ``l_``. A table gets a prefix only when every column shares it.
    """
    prefixes: dict[str, str] = {}
    for table in catalog.tables:
        heads = {c.name.split("_", 1)[0] for c in table.columns}
        if len(heads) == 1 and all("_" in c.name for c in table.columns):
            prefixes[table.name] = next(iter(heads)) + "_"
        else:
            prefixes[table.name] = ""
    return prefixes


def infer_foreign_keys(
    catalog: SchemaCatalog, prefixes: dict[str, str] | None = None
) -> SchemaCatalog:
    """Add provenance=inferred edges by prefix-stripped name matching.

    A column ``c`` of table A matches table B's single-column primary key
    ``p`` when ``c`` stripped of A's prefix equals ``p`` stripped of B's
    prefix. Ambiguous matches (two candidate targets) are skipped and noted
    in the catalog's advisory list. Idempotent; never removes or duplicates
    edges.
    """
    if prefixes is None:
        prefixes = derive_column_prefixes(catalog)
    existing = {fk.key() for fk in catalog.fk_edges}
    new_edges: list[ForeignKey] = []
    advisories: list[str] = []

    def strip(name: str, table: str) -> str:
        prefix = prefixes.get(table, "")
        return name[len(prefix):] if prefix and name.startswith(prefix) else name

    pk_targets: list[tuple[str, str, str]] = []  # (stripped pk name, table, pk column)
    for table in catalog.tables:
        if len(table.primary_key) == 1:
            pk = table.primary_key[0]
            pk_targets.append((strip(pk, table.name), table.name, pk))

    for table in catalog.tables:
        for column in table.columns:
            stripped = strip(column.name, table.name)
            candidates = [
                (tab, pk) for (spk, tab, pk) in pk_targets if spk == stripped and tab != table.name
            ]
            if len(candidates) > 1:
                names = ", ".join(tab for tab, _ in candidates)
                advisories.append(
                    f"ambiguous foreign-key match for {table.name}.{column.name}: {names}"
                )
                continue
            if not candidates:
                continue
            to_table, to_col = candidates[0]
            fk = ForeignKey(
                from_table=table.name,
                from_columns=(column.name,),
                to_table=to_table,
                to_columns=(to_col,),
                provenance="inferred",
            )
            if fk.key() in existing:
                continue
            existing.add(fk.key())
            new_edges.append(fk)

    return replace(
        catalog,
        fk_edges=list(catalog.fk_edges) + new_edges,
        advisories=list(catalog.advisories) + advisories,
    )


# ---------------------------------------------------------------------------
# Column profiling
# ---------------------------------------------------------------------------


class ValueSampler(Protocol):
    """Yields up to ``limit`` raw values for a column; the only I/O boundary."""

    def sample(self, table: str, column: str, limit: int) -> list: ...


class CsvDirSampler:
    """Samples from a directory of table data files, read as the SQLite
    engine loads them (:func:`~sqlsynth.engine.read_rows`):
    ``<table>.tbl`` (pipe-delimited) or else ``<table>.csv`` (after a header
    line that names the catalog's columns in order), each positional per
    catalog column order.

    It holds the rows of the last table it read, so profiling a table
    column by column reads its file once. A file that fails to read is
    tried again for each column, and each column gets the error."""

    def __init__(self, directory: str | Path, catalog: SchemaCatalog):
        self.directory = Path(directory)
        self.catalog = catalog
        self._held = (None, [])  # ((table, limit), the rows read for them)

    def sample(self, table: str, column: str, limit: int) -> list:
        names = self.catalog.require_table(table).column_names()
        index = names.index(column)
        if self._held[0] != (table, limit):
            rows = list(read_rows(str(self.directory), table, names, limit))
            self._held = ((table, limit), rows)
        return [row[index] for row in self._held[1]]


def profile_columns(
    catalog: SchemaCatalog,
    sampler: ValueSampler,
    sample_cap: int = 10_000,
    enum_threshold: int = 20,
    label_columns: set[tuple[str, str]] = frozenset(),
    label_share: float = 0.9,
) -> SchemaCatalog:
    """Fill column metadata from sampled values.

    Distinct counts are taken over at most ``sample_cap`` values; domains
    with at most ``enum_threshold`` distinct values are recorded as
    enumerations; textual columns whose sampled values are at least
    ``label_share`` version-like strings are flagged as labels (arithmetic
    on them is rejected downstream). Sampler failures leave the column's
    metadata absent and add an advisory; they never abort.
    """
    advisories = list(catalog.advisories)
    new_tables: list[TableDef] = []
    for table in catalog.tables:
        new_columns: list[ColumnDef] = []
        for column in table.columns:
            meta = ColumnMetadata(is_label=(table.name, column.name) in label_columns)
            try:
                raw = sampler.sample(table.name, column.name, sample_cap)
            except Exception as exc:
                advisories.append(f"sampling failed for {table.name}.{column.name}: {exc}")
                logger.warning("sampling failed for %s.%s: %s", table.name, column.name, exc)
                new_columns.append(replace(column, metadata=meta))
                continue
            values = [str(v) for v in raw if v is not None and str(v) != ""]
            if values:
                _fill_metadata(meta, column, values, enum_threshold, label_share)
            new_columns.append(replace(column, metadata=meta))
        new_tables.append(replace(table, columns=new_columns))
    return replace(catalog, tables=new_tables, advisories=advisories)


def _fill_metadata(
    meta: ColumnMetadata,
    column: ColumnDef,
    values: list[str],
    enum_threshold: int,
    label_share: float,
):
    distinct = sorted(set(values), key=_sort_key(column))
    meta.distinct_value_count = len(distinct)
    if len(distinct) <= enum_threshold:
        meta.enumerated_values = distinct
    if column.sql_type in ("char", "varchar"):
        matches = sum(1 for v in values if LABEL_PATTERN.match(v))
        if matches / len(values) >= label_share:
            meta.is_label = True
    if column.is_numeric:
        try:
            # nan, inf and -inf bound no range a query can write
            numeric = sorted(x for x in map(float, values) if math.isfinite(x))
        except ValueError:
            numeric = []
        if numeric:
            meta.value_range = (_format_number(numeric[0]), _format_number(numeric[-1]))
    elif column.sql_type == "date":
        meta.value_range = (min(values), max(values))


def _sort_key(column: ColumnDef):
    if column.is_numeric:
        def key(v: str):
            try:
                number = float(v)
            except ValueError:
                return (1, 0.0, v)
            # nan compares with nothing, so it sorts as text
            return (1, 0.0, v) if math.isnan(number) else (0, number, v)
        return key
    return lambda v: (0, 0.0, v)


def _format_number(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_create_statements(
    catalog: SchemaCatalog,
    table_filter: set[str] | None = None,
    column_filter: dict[str, set[str]] | None = None,
) -> list[str]:
    """Deterministic canonical CREATE TABLE text, one string per table.

    ``table_filter`` selects tables; ``column_filter`` restricts a table to a
    column subset (used for gap-targeted prompting). Key clauses that would
    mention a filtered-out column or table are dropped rather than rendered
    partially.
    """
    if table_filter is not None:
        table_filter = {t.lower() for t in table_filter}
        for name in table_filter:
            catalog.require_table(name)
    if column_filter is not None:
        column_filter = {t.lower(): {c.lower() for c in cols} for t, cols in column_filter.items()}
        for tname, cols in column_filter.items():
            table = catalog.require_table(tname)
            for col in cols:
                if table.column(col) is None:
                    raise UnknownObjectError(f"unknown column {tname}.{col}")

    selected = [t for t in catalog.tables if table_filter is None or t.name in table_filter]
    selected_names = {t.name for t in selected}

    def retained(table: TableDef) -> list[ColumnDef]:
        if column_filter is None or table.name not in column_filter:
            return table.columns
        keep = column_filter[table.name]
        return [c for c in table.columns if c.name in keep]

    statements = []
    for table in selected:
        columns = retained(table)
        if not columns:
            raise UnknownObjectError(f"column filter for {table.name!r} retains no columns")
        kept_names = {c.name for c in columns}
        lines = []
        for col in columns:
            null_text = "" if col.nullable else " NOT NULL"
            lines.append(f"  {sql_name(col.name)} {col.type_text}{null_text}")
        if table.primary_key and all(c in kept_names for c in table.primary_key):
            lines.append(f"  PRIMARY KEY ({_name_list(table.primary_key)})")
        for fk in catalog.fk_edges:
            if fk.from_table != table.name or fk.to_table not in selected_names:
                continue
            if not all(c in kept_names for c in fk.from_columns):
                continue
            target = catalog.require_table(fk.to_table)
            target_kept = {c.name for c in retained(target)}
            if not all(c in target_kept for c in fk.to_columns):
                continue
            lines.append(
                f"  FOREIGN KEY ({_name_list(fk.from_columns)}) "
                f"REFERENCES {sql_name(fk.to_table)} ({_name_list(fk.to_columns)})"
            )
        body = ",\n".join(lines)
        statements.append(f"CREATE TABLE {sql_name(table.name)} (\n{body}\n);")
    return statements


def _name_list(names) -> str:
    return ", ".join(map(sql_name, names))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_catalog(catalog: SchemaCatalog, path: str | Path) -> None:
    dump_json({"schema_version": SCHEMA_VERSION, "kind": "catalog", **fields_of(catalog)}, path)


def load_catalog(path: str | Path) -> SchemaCatalog:
    return load_json(path, "catalog", SchemaCatalog)

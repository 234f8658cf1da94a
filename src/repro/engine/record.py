"""Record schemas and fixed-width binary serialization.

Tables in this reproduction follow the paper's synthetic setup (Section 4.1):
fixed-width records (100 bytes with a 4-byte integer primary key in the range
scan study) clustered on the primary key.  A :class:`Schema` describes the
fields, packs record tuples to bytes, and unpacks them back.

Field type codes:
    ``u32`` / ``u64``  — unsigned integers (4 / 8 bytes)
    ``i64``            — signed integer (8 bytes)
    ``f64``            — IEEE double (8 bytes)
    ``s<N>``           — UTF-8 string padded with NULs to exactly N bytes
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from repro.errors import SchemaError

_STRUCT_CODES = {"u32": "I", "u64": "Q", "i64": "q", "f64": "d"}
_NUMPY_CODES = {"u32": "<u4", "u64": "<u8", "i64": "<i8", "f64": "<f8"}


@dataclass(frozen=True)
class Field:
    """One column: a name and a type code (see module docstring).

    The layout facts every codec needs — ``is_string``, ``width`` and the
    ``struct``/numpy format codes — are derived from the type code once, at
    construction; ``offset`` is the column's byte position inside a packed
    record, assigned by the owning :class:`Schema`.
    """

    name: str
    type_code: str
    offset: int = field(default=0, compare=False)
    is_string: bool = field(init=False, compare=False)
    width: int = field(init=False, compare=False)
    _struct_code: str = field(init=False, compare=False, repr=False)
    _numpy_code: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        code = self.type_code
        if code in _STRUCT_CODES:
            is_string = False
            struct_code = _STRUCT_CODES[code]
            numpy_code = _NUMPY_CODES[code]
            width = struct.calcsize("<" + struct_code)
        elif code[:1] == "s" and code[1:].isdigit():
            is_string = True
            width = int(code[1:])
            struct_code = f"{width}s"
            numpy_code = f"S{width}"
        else:
            raise SchemaError(f"unknown field type {code!r}")
        for attr, value in (
            ("is_string", is_string),
            ("width", width),
            ("_struct_code", struct_code),
            ("_numpy_code", numpy_code),
        ):
            object.__setattr__(self, attr, value)

    def struct_code(self) -> str:
        return self._struct_code


class Schema:
    """An ordered set of fields; the first field is the clustering key
    unless ``key`` names another field.

    Records are plain tuples in field order — cheap, hashable, and easy for
    tests to construct.  The schema provides all interpretation, and compiles
    its layout once, here: the whole-record ``struct.Struct``, each field's
    ``(offset, width, is_string)`` (stored on the :class:`Field`), and the
    numpy structured ``dtype`` that decodes a page of back-to-back records in
    one ``frombuffer`` call.  Every pack/unpack/decode path reads these.
    """

    def __init__(self, fields: Sequence[tuple[str, str]], key: str | None = None):
        if not fields:
            raise SchemaError("a schema needs at least one field")
        names = [name for name, _ in fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in {names}")
        compiled = []
        offset = 0
        for name, code in fields:
            compiled.append(Field(name, code, offset))
            offset += compiled[-1].width
        self.fields = compiled
        self._index = {f.name: i for i, f in enumerate(self.fields)}
        self.key_field = key if key is not None else self.fields[0].name
        if self.key_field not in self._index:
            raise SchemaError(f"key field {self.key_field!r} not in schema")
        self.key_pos = self._index[self.key_field]
        #: ``record -> key`` as a C-level callable (sort keys, key columns).
        self.key_of = itemgetter(self.key_pos)
        self._struct = struct.Struct("<" + "".join(f.struct_code() for f in self.fields))
        self.record_size = self._struct.size
        #: (position, width) of every string column.
        self._strings = tuple(
            (i, f.width) for i, f in enumerate(self.fields) if f.is_string
        )
        #: One packed record as a numpy structured scalar type.
        self.dtype = np.dtype(
            {
                "names": [f"f{i}" for i in range(len(self.fields))],
                "formats": [f._numpy_code for f in self.fields],
                "offsets": [f.offset for f in self.fields],
                "itemsize": self.record_size,
            }
        )

    # ----------------------------------------------------------- field access
    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no field named {name!r}") from None

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def key(self, record: Sequence) -> int:
        """The clustering-key value of a record tuple."""
        return record[self.key_pos]

    # --------------------------------------------------------- (de)serialize
    def pack(self, record: Sequence) -> bytes:
        """Serialize a record tuple to its fixed-width binary form."""
        if len(record) != len(self.fields):
            raise SchemaError(
                f"record has {len(record)} values, schema has {len(self.fields)}"
            )
        if self._strings:
            record = list(record)
            for i, width in self._strings:
                value = record[i]
                raw = value.encode("utf-8") if isinstance(value, str) else bytes(value)
                if len(raw) > width:
                    raise SchemaError(
                        f"value for {self.fields[i].name!r} is {len(raw)} bytes, "
                        f"field holds {width}"
                    )
                record[i] = raw
        try:
            return self._struct.pack(*record)
        except struct.error as exc:
            raise SchemaError(f"cannot pack record {record!r}: {exc}") from exc

    def unpack(self, data: bytes) -> tuple:
        """Deserialize bytes produced by :meth:`pack` back into a tuple."""
        if len(data) != self.record_size:
            raise SchemaError(
                f"expected {self.record_size} bytes, got {len(data)}"
            )
        return self.unpack_from(data, 0)

    def unpack_from(self, data: bytes, offset: int) -> tuple:
        """Deserialize the record starting at ``offset`` of a larger buffer."""
        values = self._struct.unpack_from(data, offset)
        if not self._strings:
            return values
        out = list(values)
        for i, _ in self._strings:
            out[i] = out[i].rstrip(b"\x00").decode("utf-8")
        return tuple(out)

    def pack_many(self, records: Iterable[Sequence]) -> bytes:
        """Serialize records back-to-back (bulk-load fast path)."""
        return b"".join(self.pack(r) for r in records)

    def unpack_many(self, data) -> list[tuple]:
        """Deserialize back-to-back fixed-width records in one pass:
        ``bytes``, any contiguous byte buffer, or a structured array of
        :attr:`dtype` (what a scan's join hands over).

        The batch counterpart of :meth:`unpack`: one ``frombuffer`` over the
        compiled :attr:`dtype`, then :meth:`rows` — where a scan's row
        tuples are built.
        """
        if isinstance(data, np.ndarray) and data.dtype == self.dtype:
            return self.rows(data)
        if len(data) % self.record_size:
            raise SchemaError(
                f"{len(data)} bytes is not a multiple of the "
                f"{self.record_size}-byte record size"
            )
        return self.rows(np.frombuffer(data, dtype=self.dtype))

    def rows(self, array) -> list[tuple]:
        """Record tuples of a structured array of :attr:`dtype`.

        Column at a time: each field's ``tolist()`` yields native Python
        values (numpy's ``S`` type already drops the NUL padding), string
        columns take one UTF-8 decode pass, and ``zip`` assembles the tuples
        — no per-record interpreter work.
        """
        columns = [array[name].tolist() for name in self.dtype.names]
        for i, _ in self._strings:
            columns[i] = map(bytes.decode, columns[i])
        return list(zip(*columns))

    def apply_modification(self, record: tuple, changes: dict) -> tuple:
        """Return a copy of ``record`` with named fields set to new values."""
        values = list(record)
        index = self._index
        try:
            for name, value in changes.items():
                values[index[name]] = value
        except KeyError:
            raise SchemaError(f"no field named {name!r}") from None
        return tuple(values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Schema)
            and self.fields == other.fields
            and self.key_field == other.key_field
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spec = ", ".join(f"{f.name}:{f.type_code}" for f in self.fields)
        return f"Schema({spec}; key={self.key_field})"


def synthetic_schema(record_size: int = 100) -> Schema:
    """The synthetic table of Section 4.1: 4-byte key + payload filler.

    ``record_size`` must leave room for the key (default 100 bytes total).
    """
    payload = record_size - 4
    if payload < 1:
        raise SchemaError(f"record_size {record_size} too small for a u32 key")
    return Schema([("key", "u32"), ("payload", f"s{payload}")])

"""Stream schemas.

A :class:`Schema` is an ordered list of named :class:`Field` objects.
Schemas are immutable and hashable, so operators can share and compare
them cheaply.  Punctuations are defined *against a schema*: a
punctuation carries one pattern per schema field, in field order
(Tucker et al.'s "ordered set of patterns").

Because schemas and fields are immutable they are also **interned**:
structurally equal instances built through :meth:`Schema.of`,
:meth:`Schema.project`, :meth:`Schema.concat` or :func:`intern_schema`
resolve to one shared object per process.  Repeated operator builds
(repeated runs, shard stacks, equivalence reruns) then share one schema
instance instead of allocating a fresh field list each time, and the
schema's hash is computed once and cached.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence, Tuple as PyTuple

from repro.errors import SchemaError


class Field:
    """One named attribute of a schema.

    Parameters
    ----------
    name:
        Attribute name.  Must be a non-empty string, unique within the
        schema.
    dtype:
        Optional Python type used for validation (e.g. ``int``).  When
        ``None`` (the default) the field accepts any value.
    """

    __slots__ = ("name", "dtype")

    def __init__(self, name: str, dtype: Optional[type] = None) -> None:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"field name must be a non-empty string, got {name!r}")
        if dtype is not None and not isinstance(dtype, type):
            raise SchemaError(f"field dtype must be a type or None, got {dtype!r}")
        self.name = name
        self.dtype = dtype

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` if *value* does not fit this field.

        ``None`` is accepted for every field (streams may carry nulls);
        ``bool`` is not accepted where ``int`` or ``float`` is declared,
        since that is almost always a bug in workload code.
        """
        if value is None or self.dtype is None:
            return
        if isinstance(value, bool) and self.dtype in (int, float):
            raise SchemaError(
                f"field {self.name!r} expects {self.dtype.__name__}, got bool {value!r}"
            )
        if self.dtype is float and isinstance(value, int) and not isinstance(value, bool):
            return  # ints are acceptable where floats are declared
        if not isinstance(value, self.dtype):
            raise SchemaError(
                f"field {self.name!r} expects {self.dtype.__name__}, "
                f"got {type(value).__name__} {value!r}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return self.name == other.name and self.dtype == other.dtype

    def __hash__(self) -> int:
        return hash((self.name, self.dtype))

    def __repr__(self) -> str:
        if self.dtype is None:
            return f"Field({self.name!r})"
        return f"Field({self.name!r}, {self.dtype.__name__})"


class Schema:
    """An immutable, ordered collection of :class:`Field` objects.

    Examples
    --------
    >>> open_schema = Schema.of("item_id", "seller", "open_price")
    >>> open_schema.index_of("seller")
    1
    >>> typed = Schema([Field("item_id", int), Field("price", float)])
    """

    __slots__ = ("fields", "_index", "name", "_hash")

    def __init__(self, fields: Iterable[Field], name: str = "") -> None:
        field_list: PyTuple[Field, ...] = tuple(fields)
        if not field_list:
            raise SchemaError("a schema needs at least one field")
        for field in field_list:
            if not isinstance(field, Field):
                raise SchemaError(f"expected Field, got {field!r}")
        names = [field.name for field in field_list]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate field names in schema: {duplicates}")
        self.fields = field_list
        self._index = {field.name: i for i, field in enumerate(field_list)}
        self.name = name
        self._hash: Optional[int] = None

    @classmethod
    def of(cls, *names: str, name: str = "") -> "Schema":
        """Build an untyped schema from field names only (interned)."""
        return intern_schema(cls([intern_field(n) for n in names], name=name))

    @property
    def arity(self) -> int:
        """Number of fields in the schema."""
        return len(self.fields)

    @property
    def field_names(self) -> PyTuple[str, ...]:
        return tuple(field.name for field in self.fields)

    def index_of(self, field_name: str) -> int:
        """Return the position of *field_name*, raising if absent."""
        try:
            return self._index[field_name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name or '<anonymous>'} has no field {field_name!r}; "
                f"fields are {list(self.field_names)}"
            ) from None

    def has_field(self, field_name: str) -> bool:
        return field_name in self._index

    def validate_values(self, values: Sequence[Any]) -> None:
        """Raise :class:`SchemaError` unless *values* conforms."""
        if len(values) != len(self.fields):
            raise SchemaError(
                f"schema {self.name or '<anonymous>'} has arity {self.arity}, "
                f"got {len(values)} values"
            )
        for field, value in zip(self.fields, values):
            field.validate(value)

    def project(self, field_names: Sequence[str], name: str = "") -> "Schema":
        """Return the schema restricted to *field_names* (interned)."""
        return intern_schema(
            Schema([self.fields[self.index_of(n)] for n in field_names], name=name)
        )

    def concat(self, other: "Schema", name: str = "") -> "Schema":
        """Concatenate two schemas, prefixing clashing names.

        Used to build a join output schema.  If a field name appears in
        both inputs, both copies are renamed ``<schema>.<field>`` (or
        ``left.``/``right.`` when the schemas are anonymous).  The
        result is interned: every operator joining the same schema pair
        under the same name shares one output schema instance.
        """
        left_prefix = (self.name or "left") + "."
        right_prefix = (other.name or "right") + "."
        clashes = set(self.field_names) & set(other.field_names)
        fields = []
        for field in self.fields:
            if field.name in clashes:
                fields.append(intern_field(left_prefix + field.name, field.dtype))
            else:
                fields.append(field)
        for field in other.fields:
            if field.name in clashes:
                fields.append(intern_field(right_prefix + field.name, field.dtype))
            else:
                fields.append(field)
        return intern_schema(Schema(fields, name=name))

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.fields == other.fields

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(self.fields)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        inner = ", ".join(repr(field) for field in self.fields)
        if self.name:
            return f"Schema(name={self.name!r}, [{inner}])"
        return f"Schema([{inner}])"


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------

#: (name, dtype) -> the one shared Field instance.
_FIELD_CACHE: dict = {}

#: (((field name, dtype), ...), schema name) -> the shared Schema.
_SCHEMA_CACHE: dict = {}


def intern_field(name: str, dtype: Optional[type] = None) -> Field:
    """The process-wide shared :class:`Field` for ``(name, dtype)``."""
    key = (name, dtype)
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = _FIELD_CACHE[key] = Field(name, dtype)
    return field


def intern_schema(schema: Schema) -> Schema:
    """Resolve *schema* to the process-wide shared instance.

    Keyed on field structure *and* schema name (equality ignores the
    name, but two same-shaped schemas with different names are distinct
    objects for error messages and manifests).  Safe because schemas
    are immutable; the first instance seen becomes canonical.
    """
    key = (
        tuple((field.name, field.dtype) for field in schema.fields),
        schema.name,
    )
    cached = _SCHEMA_CACHE.get(key)
    if cached is None:
        _SCHEMA_CACHE[key] = schema
        return schema
    return cached

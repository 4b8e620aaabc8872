"""Schema primitive tests."""

import pytest

from repro.common.errors import SchemaError
from repro.common.types import DataType, Field, Schema


def make_schema():
    return Schema.of(
        ("id", DataType.INT),
        ("name", DataType.STRING),
        ("price", DataType.DOUBLE),
        primary_key=("id",),
    )


class TestField:
    def test_requires_name(self):
        with pytest.raises(SchemaError):
            Field("", DataType.INT)

    def test_byte_widths_positive(self):
        for dtype in DataType:
            assert dtype.byte_width > 0

    def test_string_wider_than_int(self):
        assert DataType.STRING.byte_width > DataType.INT.byte_width


class TestSchema:
    def test_field_names_ordered(self):
        assert make_schema().field_names == ("id", "name", "price")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(("a", DataType.INT), ("a", DataType.INT))

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            Schema.of(("a", DataType.INT), primary_key=("missing",))

    def test_has_field(self):
        schema = make_schema()
        assert schema.has_field("name")
        assert not schema.has_field("nope")

    def test_field_type(self):
        assert make_schema().field_type("price") is DataType.DOUBLE

    def test_field_type_unknown_raises(self):
        with pytest.raises(SchemaError):
            make_schema().field_type("nope")

    def test_row_width_includes_header(self):
        schema = make_schema()
        assert schema.row_width == 4 + 24 + 8 + 8

    def test_project_subset_and_order(self):
        projected = make_schema().project(["price", "id"])
        assert projected.field_names == ("price", "id")
        assert projected.primary_key == ("id",)

    def test_project_drops_pk_not_kept(self):
        projected = make_schema().project(["name"])
        assert projected.primary_key == ()

    def test_project_missing_raises(self):
        with pytest.raises(SchemaError):
            make_schema().project(["ghost"])


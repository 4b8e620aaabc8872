"""The golden records themselves: coverage, size, and a safe re-record."""

from __future__ import annotations

import pytest

from tests import golden


@pytest.mark.parametrize("name", golden.MODULES)
def test_record_holds_its_cells_in_under_a_megabyte(name):
    record = golden.record(name)
    assert list(golden.load(record.path)) == list(record.cells)
    assert record.path.stat().st_size < 1 << 20


def test_rerecord_writes_nothing_until_every_cell_ran(tmp_path, monkeypatch):
    def run(cell):
        if cell == "b":
            raise RuntimeError("crashed mid-run")
        return {"facet": "one\ntwo", "bulky": "text"}

    fake = golden.Record("cells", ("a", "b"), run, frozenset({"bulky"}))
    monkeypatch.setattr(golden, "RECORDS_DIR", tmp_path)
    monkeypatch.setattr(golden, "record", lambda name: fake)
    fake.path.write_text("committed")
    with pytest.raises(RuntimeError):
        golden.main(["cells"])
    assert [p.name for p in tmp_path.iterdir()] == ["cells.json"]
    assert fake.path.read_text() == "committed"

    fake = golden.Record("cells", ("a",), run, frozenset({"bulky"}))
    assert golden.main(["cells"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["cells.json"]
    assert golden.load(fake.path) == {
        "a": {"facet": ["one", "two"], "bulky": golden.digest("text")}
    }
    assert golden.main(["nope"]) == 2

"""``reports.write_outputs``: every output of a command, or none."""

from __future__ import annotations

import pytest

from rahar.reports import write_json, write_outputs


def test_writes_in_order_into_new_directories(tmp_path):
    order = []

    def text(name):
        def write(result, stream):
            order.append(name)
            stream.write(f"{result}\r\né\n")
            return name

        return write

    outputs = {tmp_path / "a" / "b" / "x.txt": text("x"), str(tmp_path / "y.txt"): text("y")}
    returned = write_outputs(outputs, 7)
    assert order == ["x", "y"]
    assert returned == {tmp_path / "a" / "b" / "x.txt": "x", tmp_path / "y.txt": "y"}
    assert (tmp_path / "y.txt").read_bytes() == "7\r\né\n".encode("utf-8")


def test_a_failed_write_removes_what_the_call_created(tmp_path):
    (tmp_path / "kept").mkdir()
    (tmp_path / "old.json").write_text("old")

    def fail(result, stream):
        stream.write("partial")
        raise OSError("disk full")

    outputs = {
        tmp_path / "old.json": write_json,
        tmp_path / "kept" / "new" / "deeper" / "a.json": write_json,
        tmp_path / "kept" / "new" / "b.json": fail,
    }
    with pytest.raises(OSError, match="disk full"):
        write_outputs(outputs, {"x": 1})
    # the overwritten file goes too: it no longer holds what it held
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept"]

"""Deterministic report writers: CSV, JSON, and a minimal SVG ROC plot,
and ``write_outputs``, the one function that opens an output file.

All writers produce byte-identical output for identical inputs: floats
are rendered with repr (shortest round-trip form), JSON keys are sorted,
and the SVG is assembled from fixed-format strings rather than a plotting
library.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, TextIO

# writes a command's result to one output stream
Writer = Callable[[Any, TextIO], Any]


def write_outputs(outputs: Mapping[str | Path, Writer], result) -> dict[Path, Any]:
    """Write ``result`` to every output in order: each path's writer gets it and
    the path open as UTF-8 text with ``newline=""``.  A missing parent directory
    is created.  A write that fails removes every file and directory the call
    created, an overwritten file too, then re-raises, so a command writes all
    its outputs or none.  Returns what each writer returned, by path."""
    created: list[Path] = []
    returned = {}
    try:
        for path, write in outputs.items():
            path = Path(path)
            for parent in reversed(path.parents):
                if not parent.is_dir():
                    parent.mkdir()
                    created.append(parent)
            with open(path, "w", newline="", encoding="utf-8") as stream:
                created.append(path)
                returned[path] = write(result, stream)
    except BaseException:
        for path in reversed(created):
            (path.rmdir if path.is_dir() else path.unlink)()
        raise
    return returned


def write_csv(header: list[str], rows: Iterable[Iterable], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_json(payload, stream: TextIO) -> None:
    stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def roc_svg(points: list[tuple[float, float]], title: str = "ROC") -> str:
    """A small standalone SVG: unit box, chance diagonal, ROC polyline."""
    size, margin = 360, 40
    span = size - 2 * margin

    def sx(v: float) -> str:
        return f"{margin + v * span:.2f}"

    def sy(v: float) -> str:
        return f"{size - margin - v * span:.2f}"

    poly = " ".join(f"{sx(fpr)},{sy(tpr)}" for fpr, tpr in points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="white" stroke="black" stroke-width="1"/>',
        f'<line x1="{sx(0.0)}" y1="{sy(0.0)}" x2="{sx(1.0)}" y2="{sy(1.0)}" '
        'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>',
        f'<polyline points="{poly}" fill="none" stroke="#1f5fa6" stroke-width="2"/>',
        f'<text x="{size / 2:.0f}" y="{margin - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<text x="{size / 2:.0f}" y="{size - 8}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">false positive rate</text>',
        f'<text x="12" y="{size / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 12 {size / 2:.0f})">true positive rate</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"

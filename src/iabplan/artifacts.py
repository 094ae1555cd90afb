"""The two artifact formats every writer shares.

JSON: indent 2, sorted keys, one trailing newline.  CSV: sorted `# key=value`
provenance lines ending in LF, then a header row and `fmt % row` rows ending
in CRLF, as `csv.writer` first wrote them.  No field is quoted, so none may
hold a comma, a quote or a line break.
"""

from __future__ import annotations

import json


def write_json(path, payload) -> str:
    """Write `payload` to `path` unless it is None; return the text without
    the trailing newline."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def write_csv(path, meta: dict | None, header, fmt: str, columns) -> None:
    """Write `meta`'s provenance lines, the `header` row and one `fmt` row
    per index of the equal-length sequences `columns`."""
    lines = [f"# {key}={meta[key]}\n" for key in sorted(meta or {})]
    lines.append(",".join(header) + "\r\n")
    lines += [fmt % row + "\r\n" for row in zip(*columns, strict=True)]
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)

"""Plain-text rendering of experiment results, and the report digest.

``rivulet-experiment`` prints every regenerated table through
:func:`render_table`, and every sweep report (experiments, chaos
campaigns, fleets) is digested by :func:`report_digest` and written by
:func:`write_report`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Sequence


def report_digest(report: dict[str, Any]) -> str:
    """A stable hash of a report's content (ignoring any digest field).

    Canonical JSON (sorted keys, no whitespace) through blake2b, so two
    reports are byte-identical iff their digests match. Shared by the
    three sweep reports — experiments, chaos campaign and fleet (either
    fleet path); the ``--jobs N`` == ``--jobs 1`` determinism guarantee
    is stated in terms of this digest.
    """
    content = {k: v for k, v in report.items() if k != "digest"}
    canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def write_report(report: dict[str, Any], out_path: str | None) -> None:
    """Write a report as indented, key-sorted JSON; no path, no file."""
    if out_path is None:
        return
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


class DigestVersionMismatch(ValueError):
    """A stored report was produced under a different trace-digest format.

    Digests from different format versions are incomparable by
    construction (the version seeds the hash prefix), so replaying or
    diffing across versions would report a mismatch on every run even
    when the simulation is bit-identical. Callers refuse loudly instead.
    """


def require_digest_version(
    report: dict[str, Any], *, source: str = "report"
) -> None:
    """Refuse to compare a report recorded under another digest version.

    Reports written before versioning carry no ``digest_version`` field
    and are treated as version 1 (the text encoding they were built with).
    """
    from repro.sim.tracing import DIGEST_VERSION

    found = report.get("digest_version", 1)
    if found != DIGEST_VERSION:
        raise DigestVersionMismatch(
            f"{source} was recorded under trace-digest v{found}, but this "
            f"build produces v{DIGEST_VERSION}; digests across versions are "
            "incomparable by design — regenerate the stored report with "
            "this build instead of comparing across formats"
        )


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    notes: Sequence[str] = (),
) -> str:
    """A boxed ASCII table with a title and footnotes."""
    formatted = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(col) for col in columns]
    for row in formatted:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(char: str = "-") -> str:
        return "+" + "+".join(char * (w + 2) for w in widths) + "+"

    def fmt_row(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.rjust(w) for c, w in zip(cells, widths)) + " |"

    out = [f"== {title} ==", line("=")]
    out.append(fmt_row(columns))
    out.append(line("="))
    for row in formatted:
        out.append(fmt_row(row))
    out.append(line())
    for note in notes:
        out.append(f"  note: {note}")
    return "\n".join(out)


@dataclass
class SeriesPlot:
    """A crude ASCII timeline (used for the Fig. 7 event-rate series)."""

    title: str
    x_label: str
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def render(self, width: int = 60) -> str:
        out = [f"== {self.title} =="]
        for name, points in self.series.items():
            if not points:
                continue
            max_y = max(y for _, y in points) or 1.0
            out.append(f"-- {name} (peak {max_y:g}) --")
            for x, y in points:
                bar = "#" * int(round(y / max_y * width))
                out.append(f"  {self.x_label}={x:>7.1f} | {y:>7.1f} {bar}")
        return "\n".join(out)

"""ASCII charts for the regenerated figures.

The experiment tables are the ground truth; these renderers turn them into
terminal-friendly charts so ``rivulet-experiment fig4a --chart`` shows the
*shape* of the figure — the thing the reproduction is judged on — without
any plotting dependency.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eval.experiments import ExperimentTable

BAR_CHARS = "#*=+o@%&"


def _format_value(value: float) -> str:
    if abs(value) >= 100:
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.2f}"
    return f"{value:.3f}"


def bar_chart(
    title: str,
    series: dict[str, dict[Any, float]],
    *,
    x_label: str = "",
    width: int = 50,
    notes: Sequence[str] = (),
) -> str:
    """Grouped horizontal bars: one group per x value, one bar per series."""
    xs: list[Any] = []
    for values in series.values():
        for x in values:
            if x not in xs:
                xs.append(x)
    peak = max(
        (v for values in series.values() for v in values.values()), default=1.0
    ) or 1.0
    name_width = max((len(str(n)) for n in series), default=4)
    x_width = max([len(str(x)) for x in xs] + [len(x_label)])

    out = [f"== {title} =="]
    for x in xs:
        out.append(f"{x_label}={str(x):<{x_width}}")
        for index, (name, values) in enumerate(series.items()):
            if x not in values:
                continue
            value = values[x]
            bar = BAR_CHARS[index % len(BAR_CHARS)] * max(
                1, int(round(value / peak * width))
            )
            out.append(
                f"  {str(name):<{name_width}} | {bar} {_format_value(value)}"
            )
    for note in notes:
        out.append(f"  note: {note}")
    return "\n".join(out)


def chart_for(table: "ExperimentTable", width: int = 50) -> str | None:
    """Best-effort chart for a known experiment table; None if not chartable."""
    renderer = CHARTS.get(table.experiment)
    if renderer is None:
        return None
    return renderer(table, width)


def _series_from(
    table: "ExperimentTable", key_columns: list[str], x_column: str,
    value_column: str, *, row_filter: dict[str, Any] | None = None,
) -> dict[str, dict[Any, float]]:
    series: dict[str, dict[Any, float]] = defaultdict(dict)
    key_idx = [table.columns.index(c) for c in key_columns]
    x_idx = table.columns.index(x_column)
    v_idx = table.columns.index(value_column)
    filters = {
        table.columns.index(c): v for c, v in (row_filter or {}).items()
    }
    for row in table.rows:
        if any(row[i] != v for i, v in filters.items()):
            continue
        key = "/".join(str(row[i]) for i in key_idx)
        series[key][row[x_idx]] = float(row[v_idx])
    return dict(series)


def _chart_fig1(table, width):
    series = {
        process: {row[0]: float(row[table.columns.index(process)])
                  for row in table.rows}
        for process in ("hub", "tv", "fridge")
    }
    return bar_chart("Fig. 1 — events received per process", series,
                     x_label="sensor", width=width, notes=table.notes)


def _chart_fig4(table, width, which):
    series = _series_from(table, ["guarantee"], "processes", "delay_ms",
                          row_filter={"event_bytes": 4})
    return bar_chart(f"Fig. {which} — delay (ms), 4 B events", series,
                     x_label="n", width=width, notes=table.notes)


def _chart_fig5(table, width):
    series = _series_from(table, ["protocol"], "receiving",
                          "normalized_vs_gap", row_filter={"event_bytes": 4})
    return bar_chart("Fig. 5 — overhead normalized vs Gap, 4 B events",
                     series, x_label="receivers", width=width,
                     notes=table.notes)


def _chart_fig6(table, width):
    series = _series_from(table, ["guarantee", "receiving"], "loss_rate",
                          "delivered_pct")
    # Keep the paper's headline series to stay readable.
    keep = {"gap/2", "gapless/2", "gapless/4", "gapless/5"}
    series = {k: v for k, v in series.items() if k in keep}
    return bar_chart("Fig. 6 — % delivered under link loss", series,
                     x_label="loss", width=width, notes=table.notes)


def _chart_fig7(table, width):
    from repro.eval.report import SeriesPlot

    plot = SeriesPlot(title="Fig. 7 — events/second across the crash",
                      x_label="t")
    for guarantee in ("gap", "gapless"):
        plot.series[guarantee] = [
            (row[1], row[2]) for row in table.rows
            if row[0] == guarantee and 18 <= row[1] <= 32
        ]
    return plot.render(width=width)


def _chart_fig8(table, width):
    series = _series_from(table, ["mode"], "sensor", "polls_per_epoch")
    return bar_chart("Fig. 8 — polls per epoch (optimal = 1.0)", series,
                     x_label="sensor", width=width, notes=table.notes)


CHARTS = {
    "fig1": _chart_fig1,
    "fig4a": lambda t, w: _chart_fig4(t, w, "4a"),
    "fig4b": lambda t, w: _chart_fig4(t, w, "4b"),
    "fig5": _chart_fig5,
    "fig6": _chart_fig6,
    "fig7": _chart_fig7,
    "fig8": _chart_fig8,
}

"""Smoke + shape tests for the evaluation harness itself.

Each experiment runs with reduced parameters; assertions target the paper's
qualitative claims, not absolute numbers.
"""

import pytest

from repro.core.home import Home
from repro.eval import experiments, metrics
from repro.eval.experiments import (
    EXPERIMENTS,
    fig1_deployment_skew,
    fig4a_delay_farthest,
    fig4b_delay_local,
    fig5_network_overhead,
    fig6_link_loss,
    fig7_process_failure,
    fig8_coordinated_polling,
    table1_app_catalog,
    table3_sensor_classes,
)


def test_registry_covers_every_table_and_figure():
    assert set(EXPERIMENTS) == {
        "fig1", "table1", "table3", "fig4a", "fig4b", "fig5", "fig6",
        "fig7", "fig8",
    }


def test_fig1_door_skew_dominates():
    table = fig1_deployment_skew(days=2.0)
    skew = {row[0]: row[5] for row in table.rows}
    assert skew["door1"] > 10 * max(v for k, v in skew.items() if k != "door1")
    emitted = {row[0]: row[1] for row in table.rows}
    received = {row[0]: max(row[2], row[3], row[4]) for row in table.rows}
    # The best link for every sensor loses almost nothing.
    for sensor in emitted:
        assert received[sensor] >= emitted[sensor] * 0.97


def test_table1_all_apps_live():
    table = table1_app_catalog(duration=40.0)
    assert len(table.rows) == 13
    assert all(row[3] > 0 for row in table.rows), "every app must process events"
    assert all(row[6] == 0 for row in table.rows), "no operator errors"
    deliveries = {row[0]: row[2] for row in table.rows}
    assert deliveries["Intrusion-detection"] == "gapless"
    assert deliveries["Automated lighting"] == "gap"


def test_table3_classes():
    table = table3_sensor_classes()
    for row in table.rows:
        kind, size_class, _mode, _tech, event_bytes, wire_bytes = row
        if size_class == "small":
            assert 4 <= event_bytes <= 8
        else:
            assert event_bytes >= 1024
        assert wire_bytes > event_bytes


def test_fig4a_shapes():
    table = fig4a_delay_farthest(duration=20.0, sizes=(4, 20_480))
    gap_small = [table.cell("delay_ms", guarantee="gap", event_bytes=4,
                            processes=n) for n in (2, 3, 4, 5)]
    gapless_small = [table.cell("delay_ms", guarantee="gapless", event_bytes=4,
                                processes=n) for n in (2, 3, 4, 5)]
    # Gap is ~flat; Gapless grows with the ring length.
    assert gap_small[-1] - gap_small[0] < 2.0
    assert gapless_small[-1] > gapless_small[0] + 4.0
    # Gapless premium at 2-3 processes is in the high-single-digit ms range.
    assert 4.0 < gapless_small[0] - gap_small[0] < 12.0
    # Larger events cost more.
    assert table.cell("delay_ms", guarantee="gap", event_bytes=20_480,
                      processes=5) > gap_small[-1]


def test_fig4b_local_delivery_is_1_to_2_ms():
    table = fig4b_delay_local(duration=20.0)
    for row in table.rows:
        assert 0.8 <= row[3] <= 2.2


def test_fig5_shapes():
    table = fig5_network_overhead(duration=15.0, sizes=(4,))
    gapless = {row[2]: row[4] for row in table.rows if row[0] == "gapless"}
    bcast = {row[2]: row[4] for row in table.rows if row[0] == "naive-broadcast"}
    # Gapless constant in #receivers; broadcast grows ~linearly.
    assert max(gapless.values()) / min(gapless.values()) < 1.15
    assert bcast[5] / bcast[1] > 4.0
    # The paper's crossover: broadcast cheaper at 1 receiver, then worse.
    assert bcast[1] < gapless[1]
    assert bcast[2] > gapless[2]
    assert bcast[5] / gapless[5] > 2.5


def test_fig5_normalized_overhead_lower_for_large_events():
    table = fig5_network_overhead(duration=10.0, sizes=(4, 20_480),
                                  receiving_counts=(3,))
    small = table.cell("normalized_vs_gap", protocol="gapless", event_bytes=4,
                       receiving=3)
    large = table.cell("normalized_vs_gap", protocol="gapless",
                       event_bytes=20_480, receiving=3)
    assert large < small


def test_fig6_shapes():
    table = fig6_link_loss(duration=60.0, seeds=(42,),
                           loss_rates=(0.0, 0.5), receiving_counts=(1, 2, 5))
    gap_50 = table.cell("delivered_pct", guarantee="gap", receiving=2,
                        loss_rate=0.5)
    gapless_50_2 = table.cell("delivered_pct", guarantee="gapless",
                              receiving=2, loss_rate=0.5)
    gapless_50_5 = table.cell("delivered_pct", guarantee="gapless",
                              receiving=5, loss_rate=0.5)
    assert 40 < gap_50 < 60          # ~ 1 - loss
    assert 65 < gapless_50_2 < 85    # ~ 1 - loss^2
    assert gapless_50_5 > 90         # ~ 1 - loss^5
    # No loss: both deliver everything.
    assert table.cell("delivered_pct", guarantee="gap", receiving=1,
                      loss_rate=0.0) > 99.0


def test_fig7_spike_and_hole():
    table = fig7_process_failure()
    gap = {row[1]: row[2] for row in table.rows if row[0] == "gap"}
    gapless = {row[1]: row[2] for row in table.rows if row[0] == "gapless"}
    # Both deliver ~10/s before the crash and nothing during detection.
    assert gap[20.0] == gapless[20.0] == 10
    assert gap[25.0] == gapless[25.0] == 0
    # Gapless catches up with a burst; Gap just resumes.
    recovery_gapless = max(gapless[t] for t in (26.0, 27.0))
    recovery_gap = max(gap[t] for t in (26.0, 27.0))
    assert recovery_gapless >= 25
    assert recovery_gap <= 15


def test_fig8_bands():
    table = fig8_coordinated_polling(seeds=(42,), duration=100.0)
    for row in table.rows:
        sensor, mode, ratio, _gaps = row
        if mode == "coordinated":
            assert 0.98 <= ratio <= 1.2, (sensor, ratio)
        elif mode == "uncoordinated":
            assert 1.4 <= ratio <= 2.6, (sensor, ratio)
        else:  # single poller: optimal, possibly missing failed epochs
            assert ratio <= 1.15, (sensor, ratio)


# -- figure homes keep only the kinds their metric reads ------------------------------


def _capture_homes(monkeypatch, *, keep_all: bool) -> list[Home]:
    """Record every home a figure builds; ``keep_all`` gives it a full trace
    (what the figures built before they named the kinds their metric reads)."""
    homes: list[Home] = []
    single_sensor_home = experiments.single_sensor_home

    def sensor_home(**kwargs):
        if keep_all:
            kwargs["keep_trace_kinds"] = None
        home, sensor = single_sensor_home(**kwargs)
        homes.append(home)
        return home, sensor

    def plain_home(**kwargs):
        if keep_all:
            kwargs["keep_trace_kinds"] = None
        homes.append(Home(**kwargs))
        return homes[-1]

    monkeypatch.setattr(experiments, "single_sensor_home", sensor_home)
    monkeypatch.setattr(experiments, "Home", plain_home)
    return homes


@pytest.mark.parametrize("figure, kwargs, kept_kinds", [
    (fig4a_delay_farthest,
     dict(duration=5.0, sizes=(4,), process_counts=(3,)), {"logic_delivery"}),
    (fig4b_delay_local,
     dict(duration=5.0, sizes=(8,), process_counts=(2,)), {"logic_delivery"}),
    (fig5_network_overhead,
     dict(duration=5.0, sizes=(4,), receiving_counts=(1, 3)), set()),
    (fig6_link_loss,
     dict(duration=10.0, seeds=(42,), loss_rates=(0.25,), receiving_counts=(2,)),
     {"logic_delivery"}),
    (fig7_process_failure, dict(crash_at=6.0, duration=12.0), {"logic_delivery"}),
    (fig8_coordinated_polling, dict(seeds=(42,), duration=30.0), {"poll_request"}),
])
def test_restricted_figure_homes_give_the_keep_all_table(
    monkeypatch, figure, kwargs, kept_kinds
):
    with monkeypatch.context() as patch:
        full_homes = _capture_homes(patch, keep_all=True)
        full = figure(**kwargs)
    with monkeypatch.context() as patch:
        homes = _capture_homes(patch, keep_all=False)
        restricted = figure(**kwargs)

    assert restricted.to_dict() == full.to_dict()
    assert len(homes) == len(full_homes) > 0
    for home, full_home in zip(homes, full_homes):
        # Same run (every kind counted the same), a fraction of it stored.
        assert home.trace.counts == full_home.trace.counts
        assert {e.kind for e in home.trace.events} <= kept_kinds
        assert len(full_home.trace.events) == sum(full_home.trace.counts.values())
        # The oracle for the tallied byte metric: scan the kept records.
        sends = [e for e in full_home.trace.of_kind("net_send")
                 if e["kind"] in metrics.EVENT_CARRYING_KINDS]
        assert metrics.event_bytes_sent(home.trace) == sum(e["bytes"] for e in sends)
        assert metrics.event_messages_sent(home.trace) == len(sends)


def test_render_produces_text():
    table = table3_sensor_classes()
    text = table.render()
    assert "table3" in text
    assert "temperature" in text


def test_cli_runs_an_experiment(capsys):
    from repro.eval.cli import main

    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Off-the-shelf sensor classification" in out


def test_cli_passes_parameters(capsys):
    from repro.eval.cli import main

    assert main(["fig4b", "--duration", "5", "--seeds", "42"]) == 0
    assert "app-bearing process receives directly" in capsys.readouterr().out

"""Extension — the paper's future-work features (sections 6.2.1 and 6.2.4).

* Deadline-aware configuration choice: "the model finds the best
  configuration that still finishes before the deadline".
* Time-shifted scheduling on spot price and carbon intensity: the Vestas /
  Lancium scenario of the introduction.
"""


from repro.analysis.tables import TextTable
from repro.energymarket.scheduling import DeadlineConfigSelector, TimeShiftScheduler
from repro.energymarket.traces import HOUR, CarbonTrace, PriceTrace
from repro.hpcg.performance_model import PAPER_TOTAL_FLOPS


def run_extension_suite(rows):
    by_cfg = {r.configuration: r for r in rows}

    # (a) deadline sweep
    selector = DeadlineConfigSelector(rows, PAPER_TOTAL_FLOPS, safety_margin=0.05)
    deadline_rows = []
    for deadline_min in (18.0, 19.8, 25.0, 60.0):
        try:
            cfg = selector.select(deadline_min * 60.0)
            row = by_cfg[cfg]
            deadline_rows.append(
                (deadline_min, cfg, row.gflops_per_watt,
                 selector.predicted_runtime_s(row) / 60.0)
            )
        except Exception:
            deadline_rows.append((deadline_min, None, 0.0, 0.0))

    # (b) time shifting on price and carbon
    best = max(rows, key=lambda r: r.gflops_per_watt)
    duration = PAPER_TOTAL_FLOPS / (best.gflops * 1e9)
    price = TimeShiftScheduler(PriceTrace.synthetic(days=7, seed=3))
    carbon = TimeShiftScheduler(CarbonTrace.synthetic(days=7, seed=3),
                                unit_energy_wh=1e3)
    price_decision = price.best_start(duration, best.avg_system_w,
                                      deadline_s=2 * 24 * HOUR)
    carbon_decision = carbon.best_start(duration, best.avg_system_w,
                                        deadline_s=2 * 24 * HOUR)
    return deadline_rows, price_decision, carbon_decision


def test_extension_energymarket(benchmark, sweep_rows):
    deadline_rows, price_decision, carbon_decision = benchmark(
        run_extension_suite, sweep_rows
    )

    table = TextTable(
        ["Deadline (min)", "Chosen configuration", "GFLOPS/W", "Pred. runtime (min)"],
        title="\nExtension — deadline-aware configuration selection (6.2.1)",
    )
    for deadline, cfg, eff, runtime in deadline_rows:
        table.add_row(
            deadline, cfg.to_json() if cfg else "(infeasible)",
            f"{eff:.4f}" if cfg else "-", f"{runtime:.1f}" if cfg else "-",
        )
    print(table.render())
    print("\nExtension — time-shifted scheduling (6.2.4, 48 h deadline)")
    print(f"  cheapest-start  : t={price_decision.start_s / HOUR:.0f} h, "
          f"saves {price_decision.savings_fraction * 100:.1f}% of energy cost")
    print(f"  greenest-start  : t={carbon_decision.start_s / HOUR:.0f} h, "
          f"saves {carbon_decision.savings_fraction * 100:.1f}% of CO2")

    # an 18-minute deadline is infeasible even at full tilt (the fastest
    # run needs ~19.4 min with the safety margin)
    assert deadline_rows[0][1] is None
    # a 19.8-minute deadline forces the fast 2.5 GHz standard family —
    # the efficiency winner (2.2 GHz) would overshoot it
    d_tight = deadline_rows[1]
    assert d_tight[1] is not None
    assert d_tight[1].frequency == 2_500_000
    # a relaxed deadline recovers the efficiency winner (32 @ 2.2 GHz)
    d60 = deadline_rows[-1]
    assert d60[1].cores == 32 and d60[1].frequency == 2_200_000
    # the deadline never picks something slower than allowed
    for deadline, cfg, _, runtime in deadline_rows:
        if cfg is not None:
            assert runtime <= deadline + 1e-9
    # time shifting within 2 days finds meaningful savings on both axes
    assert price_decision.savings_fraction > 0.10
    assert carbon_decision.savings_fraction > 0.10

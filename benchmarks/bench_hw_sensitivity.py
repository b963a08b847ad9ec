"""Hardware-sensitivity extension benchmark."""

from __future__ import annotations

from repro.campaign.plan import run_plan
from repro.experiments.registry import get_plan


def test_hw_sensitivity(benchmark, profile, publish):
    result = benchmark.pedantic(
        run_plan, args=(get_plan("hwsens", profile),), rounds=1, iterations=1
    )
    publish(result)
    rows = {row["variant"]: row for row in result.rows}

    paper = rows["paper"]
    cheap = rows["cheap-memory"]
    pricey = rows["pricey-memory"]
    hungry = rows["hungry-disk"]
    laptop = rows["laptop-disk"]

    # The break-even memory size moves as derived in docs/THEORY.md S0.
    assert cheap["break_even_mem_gb"] > paper["break_even_mem_gb"]
    assert pricey["break_even_mem_gb"] < paper["break_even_mem_gb"]
    assert hungry["break_even_mem_gb"] > paper["break_even_mem_gb"]

    # The manager follows it: much cheaper memory buys strictly more
    # cache; pricier memory never buys more (the decision is otherwise
    # knee-dominated and robust to ~2x constant changes -- see the
    # experiment docstring).
    assert cheap["mean_memory_gb"] > paper["mean_memory_gb"]
    assert pricey["mean_memory_gb"] <= paper["mean_memory_gb"] + 0.5
    assert hungry["mean_memory_gb"] >= paper["mean_memory_gb"]

    # The laptop drive: shorter break-even time, smaller powers, and the
    # manager banks the difference.
    assert laptop["break_even_time_s"] < paper["break_even_time_s"]
    assert laptop["total_energy"] < paper["total_energy"]

"""Figure 6: A/B robustness of daisy vs Polly, icc, and Tiramisu on the 15
PolyBench benchmarks (LARGE datasets)."""

from bench_helpers import attach_rows
from repro.experiments import figure6

#: The Figure 6 pairs whose A and B variants normalize apart: a `*`
#: dependence cycle that cannot exist keeps their body fused (ROADMAP
#: item 10; ``tests/test_canonical_convergence.py`` names the cause).
AB_APART = {"correlation", "covariance"}


def test_figure6_ab_robustness(benchmark, settings):
    rows = benchmark.pedantic(figure6.run, args=(settings,), rounds=1, iterations=1)
    attach_rows(benchmark, rows)

    summary = figure6.robustness_summary(rows)
    by_scheduler = {row["scheduler"]: row for row in summary}

    # daisy: A and B variants perform the same on essentially all benchmarks
    # (paper: mean difference 5%, with correlation/covariance as the noted
    # exception where a loop nest fails to lift).
    assert by_scheduler["daisy"]["median_ab_ratio"] < 1.1
    assert by_scheduler["daisy"]["robust_benchmarks"] >= 12
    # daisy outperforms every baseline in the geometric mean (paper: 2.31x
    # over Polly, 1.58x over icc, 2.89x over Tiramisu).
    for name in ("polly", "icc", "tiramisu"):
        assert by_scheduler[name]["geo_speedup_of_daisy_A"] > 1.0
        assert by_scheduler[name]["geo_speedup_of_daisy_B"] > 1.0
    # Every other pair lands on one canonical form, so daisy schedules it
    # once and its A/B runtimes tie exactly.
    daisy = {(row["benchmark"], row["variant"]): row["runtime_s"]
             for row in rows if row["scheduler"] == "daisy"}
    session = settings.session()
    for spec in settings.selected_benchmarks():
        a, b = (session.normalize(f"{spec.name}:{variant}").canonical_hash
                for variant in "ab")
        assert (a == b) == (spec.name not in AB_APART), spec.name
        assert a != b or daisy[spec.name, "A"] == daisy[spec.name, "B"]
    session.close()
    benchmark.extra_info["summary"] = [
        {k: (float(v) if isinstance(v, float) else v) for k, v in row.items()}
        for row in summary]

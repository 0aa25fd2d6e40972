#!/usr/bin/env python3
"""Fig. 7-style ablation of the expression-rewrite pass family.

For each workload (the three FEM-assembly kernels of
:mod:`repro.workloads.fem` plus a slice of expression-heavy fuzz programs)
and each pipeline ablation (``a-priori`` baseline, ``rewrite-licm-only``,
``rewrite-cse-only``, the full ``rewrite`` family, and the combined
``a-priori+rewrite``), this benchmark normalizes the program and reports:

* the interpreter flop count before and after (``repro.analysis
  .program_flops``), i.e. how much arithmetic the rewrites removed,
* the rewrite counters the passes emit (``hoisted``, ``cse_hits``,
  ``factored``, ``flops_saved``, ...),
* per-pass wall-clock timings,
* reference-interpreter wall time of the original and rewritten programs,
  checked for agreement (``rtol=1e-6`` — reassociating pipelines are not
  bit-exact by design).

Acceptance: LICM+CSE (the ``rewrite`` pipeline) must show a measurable flop
reduction on at least one FEM workload.  The committed ``BENCH_rewrite.json``
is regenerated by running this script from the repo root.

Run: ``PYTHONPATH=src python benchmarks/bench_rewrite_passes.py``
(``--smoke`` or ``REPRO_BENCH_SMOKE=1`` for the seconds-long CI
configuration: mini problem sizes and fewer fuzz seeds).
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.analysis import program_flops
from repro.fuzz.generator import generate_program
from repro.interp import run_program
from repro.normalization import NormalizationOptions, normalize
from repro.workloads import benchmark

PIPELINES = ("a-priori", "rewrite-licm-only", "rewrite-cse-only",
             "rewrite", "a-priori+rewrite")
FEM_WORKLOADS = ("fem-mass", "fem-stiffness", "fem-rhs")
#: Counters the rewrite passes emit; summed across passes per pipeline run.
REWRITE_COUNTERS = ("hoisted", "hoisted_uses", "cse_hits", "cse_temps",
                    "factored", "expanded", "exprs_folded", "flops_saved")


def _inputs_for(program, parameters, scalars, seed=11):
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, arr in program.arrays.items():
        if arr.transient:
            continue
        if name in scalars:
            inputs[name] = np.array(scalars[name])
        else:
            inputs[name] = rng.uniform(0.5, 1.5,
                                       size=arr.concrete_shape(parameters))
    return inputs


def _timed_run(program, parameters, inputs):
    started = time.perf_counter()
    result = run_program(program, parameters, inputs)
    return time.perf_counter() - started, result


def _workloads(smoke, fuzz_seeds):
    size = "mini" if smoke else "small"
    for name in FEM_WORKLOADS:
        spec = benchmark(name)
        yield name, spec.variant("a"), spec.sizes(size), dict(spec.scalars)
    for seed in range(fuzz_seeds):
        generated = generate_program(seed, "expression-heavy")
        yield (f"fuzz:expression-heavy-{seed}", generated.program,
               dict(generated.parameters), {})


def _ablate(name, program, parameters, scalars, outputs):
    inputs = _inputs_for(program, parameters, scalars)
    base_flops = program_flops(program, parameters)
    base_wall, reference = _timed_run(program, parameters, inputs)
    # Transient scratch arrays are renamed/expanded by normalization and are
    # not observable outputs; compare the persistent containers only.
    observable = [arr_name for arr_name, arr in program.arrays.items()
                  if not arr.transient]
    rows = []
    for pipeline in PIPELINES:
        rewritten, report = normalize(program, NormalizationOptions(pipeline))
        flops = program_flops(rewritten, parameters)
        wall, result = _timed_run(rewritten, parameters, inputs)
        agree = all(np.allclose(reference[out], result[out],
                                rtol=1e-6, atol=1e-6, equal_nan=True)
                    for out in observable if out in reference and out in result)
        counters = {}
        for pass_result in report.passes:
            for counter, amount in pass_result.counters.items():
                if counter in REWRITE_COUNTERS:
                    counters[counter] = counters.get(counter, 0) + amount
        rows.append({
            "workload": name,
            "pipeline": pipeline,
            "flops_before": base_flops,
            "flops_after": flops,
            "flop_ratio": flops / base_flops if base_flops else 1.0,
            "interp_wall_before_s": base_wall,
            "interp_wall_after_s": wall,
            "outputs_agree": agree,
            "counters": counters,
            "pass_timings": report.pass_timings(),
        })
        print(f"  {name:28s} {pipeline:18s} flops {base_flops:>9d} -> "
              f"{flops:>9d} ({flops / base_flops if base_flops else 1.0:.2%})"
              f"{'' if agree else '  OUTPUT MISMATCH'}")
        if not agree:
            outputs["mismatches"].append({"workload": name,
                                          "pipeline": pipeline})
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        default=bool(os.environ.get("REPRO_BENCH_SMOKE")),
                        help="CI-sized run: mini sizes, fewer fuzz seeds")
    parser.add_argument("--fuzz-seeds", type=int, default=None,
                        help="number of expression-heavy fuzz programs "
                             "(default: 3 smoke, 8 full)")
    parser.add_argument("--json", default="BENCH_rewrite.json",
                        help="output path ('' to skip writing)")
    args = parser.parse_args(argv)
    fuzz_seeds = args.fuzz_seeds
    if fuzz_seeds is None:
        fuzz_seeds = 3 if args.smoke else 8

    results = {"smoke": args.smoke, "mismatches": [], "rows": []}
    for name, program, parameters, scalars in _workloads(args.smoke,
                                                         fuzz_seeds):
        results["rows"].extend(
            _ablate(name, program, parameters, scalars, results))

    fem_rewrite = [row for row in results["rows"]
                   if row["workload"] in FEM_WORKLOADS
                   and row["pipeline"] == "rewrite"]
    best = min(fem_rewrite, key=lambda row: row["flop_ratio"])
    results["best_fem_flop_ratio"] = best["flop_ratio"]
    results["best_fem_workload"] = best["workload"]
    print(f"best FEM flop ratio under 'rewrite': {best['flop_ratio']:.2%} "
          f"({best['workload']})")

    failures = []
    if results["mismatches"]:
        failures.append(f"output mismatches: {results['mismatches']}")
    # Acceptance: LICM+CSE measurably reduce interpreter flops on >= 1 FEM
    # workload (observed ~0.41-0.79x; assert a conservative bar).
    if best["flop_ratio"] > 0.9:
        failures.append(
            f"no measurable FEM flop reduction: best ratio "
            f"{best['flop_ratio']:.2%} on {best['workload']}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if failures:
        print("FAILED: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""CLOUDSC case study (Section 5): normalizing a production-style code.

Reproduces, on the CLOUDSC proxy:

* Table 1  — the cloud-erosion loop nest before/after normalization
             (runtime plus L1 loads and evictions from the cache simulator),
* Figure 11 — full-model sequential runtime of the Fortran/C/DaCe/daisy versions,
* Figure 12 — strong and weak scaling.
"""

from repro.api import Session, to_pseudocode
from repro.experiments import (ExperimentSettings, figure11, figure12, table1)
from repro.experiments.cloudsc_pipeline import daisy_optimize


def show_erosion_transformation():
    session = Session()
    kernel = session.load("erosion")
    print("=== erosion loop nest, as written (Figure 10a) ===")
    print(to_pseudocode(kernel))
    optimized, info = daisy_optimize(kernel)
    print("\n=== after scalar expansion, maximal fission, producer/consumer "
          "fusion and array contraction (Figure 10b) ===")
    print(to_pseudocode(optimized))
    print("\npipeline report:", info)


def main():
    settings = ExperimentSettings.fast()

    show_erosion_transformation()

    print("\n=== Table 1: erosion kernel (NPROMA=128) ===")
    print(table1.format_results(table1.run(settings)))

    print("\n=== Figure 11: full model, sequential (NPROMA=128, NBLOCKS=512) ===")
    print(figure11.format_results(figure11.run(settings)))

    print("\n=== Figure 12a: strong scaling ===")
    print(figure12.format_strong(figure12.run_strong_scaling(settings)))

    print("\n=== Figure 12b: weak scaling ===")
    print(figure12.format_weak(figure12.run_weak_scaling(settings)))


if __name__ == "__main__":
    main()

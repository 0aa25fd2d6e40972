"""Parallel soundness: a loop a schedule marks ``parallel`` computes what it
computes in order.

Each scheduled program runs on one set of inputs three times: in order,
with the iterations of every loop marked ``parallel`` backwards, and with
them in a seeded shuffle.  Every non-transient container must come out
equal — bit for bit, or within ``rtol`` where the schedule parallelizes a
reduction (``Parallelize(allow_reductions=True)``), whose updates
reassociate.  Transient containers are not observable: a privatized one may
end holding another iteration's values.

The corpus is every registered scheduler over the 54 registry variants at
``mini`` sizes, ``fuzz:small-0..79`` and ``fuzz:medium-0..7``; CLOUDSC and
the erosion kernel under daisy and ``annotate_baseline``; and three programs
the classifier once got wrong: a loop that leaves a value in a non-transient
scalar, one whose transient scratch array is read after it, and one that
reads elements of its scratch array it did not write.
"""

import contextlib
import random

import numpy as np
import pytest

from repro.api import Session, program_content_hash
from repro.experiments.cloudsc_pipeline import annotate_baseline
from repro.interp import Executor, allocate_storage, run_program
from repro.ir import ProgramBuilder
from repro.workloads import registry as workloads
from repro.workloads.cloudsc import (CloudscConfiguration, build_cloudsc_model,
                                     build_erosion_kernel)

from test_scheduler import SCHEDULER_NAMES

REGISTRY = [f"{name}:{variant}" for name in workloads.benchmark_names()
            for variant in ("a", "b", "npbench")]
FUZZ = ([f"fuzz:small-{seed}" for seed in range(80)]
        + [f"fuzz:medium-{seed}" for seed in range(8)])
CLOUDSC_SIZES = CloudscConfiguration(nproma=4, nblocks=3, klev=5).parameters()


class ReorderedExecutor(Executor):
    """Runs the iterations of every loop marked ``parallel`` in the order
    ``order`` puts the list of its iterator's values in."""

    def __init__(self, program, parameters, storage, order):
        super().__init__(program, parameters, storage)
        self.order = order

    def execute_loop(self, loop, env):
        if not loop.parallel:
            return super().execute_loop(loop, env)
        start, end, step = (int(self.eval_expr(bound, env))
                            for bound in (loop.start, loop.end, loop.step))
        inner = dict(env)
        for value in self.order(list(range(start, end, step))):
            inner[loop.iterator] = value
            for child in loop.body:
                self.execute_node(child, inner)


def _reversed(values):
    return values[::-1]


def _shuffled(seed):
    rng = random.Random(seed)
    return lambda values: rng.sample(values, len(values))


def unsound_containers(program, parameters, reductions=False):
    """The non-transient containers whose final values a reordered run of
    the loops marked ``parallel`` changes."""
    if not any(loop.parallel for loop in program.iter_loops()):
        return []
    outputs = [name for name, spec in program.arrays.items()
               if not spec.transient]
    generator = np.random.default_rng(0)
    inputs = {name: program.arrays[name].allocate(parameters, rng=generator)
              for name in outputs}
    expected = run_program(program, parameters, inputs)
    changed = set()
    for order in (_reversed, _shuffled(7)):
        storage = allocate_storage(program, parameters, inputs)
        ReorderedExecutor(program, parameters, storage, order).run()
        for name in outputs:
            same = (np.allclose(expected[name], storage[name], rtol=1e-9,
                                atol=1e-12, equal_nan=True) if reductions
                    else np.array_equal(expected[name], storage[name],
                                        equal_nan=True))
            if not same:
                changed.add(name)
    return sorted(changed)


def _parallelizes_reductions(result):
    return any(step.name == "parallelize" and step.allow_reductions
               for recipe in result.recipes() for step in recipe)


def _sizes(name):
    workload, _, key = name.partition(":")
    if workload == "fuzz":
        return workloads.fuzz_program(key)[1]
    return dict(workloads.benchmark(workload).sizes("mini"))


def scalar_left_behind():
    """``for i: s = A[i]; B[i] = 2*s`` with ``s`` observable: the last
    iteration's ``s`` is part of the result, so ``i`` is sequential."""
    b = ProgramBuilder("scalar_left_behind", parameters=["N"])
    b.add_array("A", ("N",))
    b.add_array("B", ("N",))
    b.add_scalar("s")
    with b.loop("i", 0, "N"):
        b.assign(("s",), b.read("A", "i"))
        b.assign(("B", "i"), b.read("s") * 2.0)
    return b.finish()


def scratch_read_after():
    """A transient row ``X`` each iteration of ``i`` rewrites before it
    reads it — and a later nest reads, so the last iteration's row is live
    out of ``i`` and ``i`` is sequential."""
    b = ProgramBuilder("scratch_read_after", parameters=["N", "M"])
    b.add_array("A", ("N", "M"))
    b.add_array("B", ("N", "M"))
    b.add_array("C", ("M",))
    b.add_array("X", ("M",), transient=True)
    with b.loop("i", 0, "N"):
        with b.loop("j", 0, "M"):
            b.assign(("X", "j"), b.read("A", "i", "j") * 3.0)
        with b.loop("j", 0, "M"):
            b.assign(("B", "i", "j"), b.read("X", "j") + 1.0)
    with b.loop("j", 0, "M"):
        b.assign(("C", "j"), b.read("X", "j"))
    return b.finish()


def triangular_scratch():
    """Each iteration of ``i`` writes ``X[0..i)`` and reads ``X[0..M)``:
    the elements from ``i`` on hold what other iterations wrote, so ``X``
    is not private to one and ``i`` is sequential, although ``X`` is
    transient, written before it is read, and read nowhere else."""
    b = ProgramBuilder("triangular_scratch", parameters=["N", "M"])
    b.add_array("A", ("N", "M"))
    b.add_array("B", ("N", "M"))
    b.add_array("X", ("M",), transient=True)
    with b.loop("i", 0, "N"):
        with b.loop("j", 0, "i"):
            b.assign(("X", "j"), b.read("A", "i", "j"))
        with b.loop("j", 0, "M"):
            b.assign(("B", "i", "j"), b.read("X", "j"))
    return b.finish()


HAND_BUILT = {"scalar_left_behind": scalar_left_behind,
              "scratch_read_after": scratch_read_after,
              "triangular_scratch": triangular_scratch}
HAND_SIZES = {"N": 6, "M": 5}


def test_the_reordered_run_sees_an_unsound_mark():
    """The oracle itself: marking a hand-built loop parallel by hand
    changes an output, and marking a DOALL loop does not."""
    for build, output in ((scalar_left_behind, "s"),
                          (scratch_read_after, "C"),
                          (triangular_scratch, "B")):
        program = build()
        program.body[0].parallel = True
        assert unsound_containers(program, HAND_SIZES) == [output]
    program = scratch_read_after()
    program.body[1].parallel = True
    assert unsound_containers(program, HAND_SIZES) == []


@pytest.fixture(scope="module")
def verdicts():
    """``unsound_containers`` by (program content, name, tolerance):
    schedulers often agree, and each verdict costs three interpreted runs."""
    return {}


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_every_parallel_mark_is_sound(scheduler, verdicts):
    with contextlib.closing(Session(threads=4, size="mini")) as session:
        for name in REGISTRY + FUZZ:
            response = session.schedule(name, scheduler=scheduler)
            reductions = _parallelizes_reductions(response.result)
            key = (program_content_hash(response.program), name, reductions)
            if key not in verdicts:
                verdicts[key] = unsound_containers(
                    response.program, _sizes(name), reductions)
            assert verdicts[key] == [], name
        for name, build in HAND_BUILT.items():
            response = session.schedule(build(), HAND_SIZES,
                                        scheduler=scheduler)
            assert unsound_containers(response.program, HAND_SIZES) == [], name


def test_annotate_baseline_marks_only_sound_loops():
    for build in HAND_BUILT.values():
        annotated = annotate_baseline(build())
        assert not annotated.body[0].parallel
        assert unsound_containers(annotated, HAND_SIZES) == []


@pytest.mark.parametrize("build, parameters", [
    (build_cloudsc_model, CLOUDSC_SIZES), (build_erosion_kernel, {"NPROMA": 4})])
def test_cloudsc_parallel_marks_are_sound(build, parameters):
    program = build()
    with contextlib.closing(Session(threads=12,
                                    pipeline="a-priori-keep-names")) as session:
        scheduled = session.schedule(program, parameters,
                                     scheduler="daisy").program
    for candidate in (scheduled, annotate_baseline(program)):
        assert any(loop.parallel for loop in candidate.iter_loops())
        assert unsound_containers(candidate, parameters) == []

"""Cross-pipeline differential execution oracle.

For one generated program the oracle runs, on identical inputs:

1. the untransformed program on the reference interpreter (ground truth;
   uninitialized-read checking on — a failure here is a *generator* bug and
   is reported as ``generator-error``, never as a transform divergence);
2. for every pipeline under test: the normalized program
   (``Session.normalize(pipeline=...)``), executed and compared;
3. for every (pipeline, scheduler) pair: the scheduled program
   (``Session.schedule(..., normalize=False)`` on the normalized form),
   executed and compared;
4. cache consistency: the same schedule requested again — which the
   session's content-addressed cache now serves warm — must execute to the
   same outputs as the cold result.

Comparison is bit-exact for every pipeline: the repo's loop
transformations restructure iteration spaces but never reassociate the
per-element operation order, so even floating-point reductions must match
to the last bit.

Outcomes are counted once, by the :class:`OracleReport` a run returns:
``counts`` by outcome and ``checks`` summed over its verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..api import ScheduleRequest, SearchConfig, Session
from ..interp.executor import ExecutionError, run_program
from ..ir.nodes import Program
from ..passes.registry import has_pipeline, pipeline_names
from ..api.registry import SCHEDULERS, RegistryError
from ..scheduler.tiramisu import MctsConfig
from .generator import GeneratedProgram, generate_program

if TYPE_CHECKING:  # pragma: no cover - import only needed for annotations
    import numpy as np

#: Default scheduler set: the normalizing transfer-tuned scheduler, the
#: polyhedral baseline, and the MCTS baseline — three structurally different
#: transformation engines.
DEFAULT_SCHEDULERS: Tuple[str, ...] = ("daisy", "polly", "tiramisu")


@dataclass(frozen=True)
class FailureSpec:
    """The identity of one failure, for the minimizer to preserve.

    A candidate reproduces the failure when the same ``stage`` (and, for
    stages below ``normalize``, the same pipeline/scheduler) fails with the
    same ``kind`` — and, for crashes, the same exception type.
    """

    stage: str                       # "normalize" | "schedule" | "cache"
    kind: str                        # "mismatch" | "crash"
    pipeline: Optional[str] = None
    scheduler: Optional[str] = None
    error_type: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"stage": self.stage, "kind": self.kind,
                "pipeline": self.pipeline, "scheduler": self.scheduler,
                "error_type": self.error_type}

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "FailureSpec":
        return FailureSpec(stage=str(data["stage"]), kind=str(data["kind"]),
                           pipeline=data.get("pipeline"),
                           scheduler=data.get("scheduler"),
                           error_type=str(data.get("error_type", "")))


@dataclass
class Divergence:
    """One observed semantic break: where, how, and on which arrays."""

    spec: FailureSpec
    seed: int
    size_class: str
    detail: str = ""
    #: Per-array mismatch summaries: name, max |delta|, first differing index.
    mismatches: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {"spec": self.spec.to_dict(), "seed": self.seed,
                "size_class": self.size_class, "detail": self.detail,
                "mismatches": list(self.mismatches)}

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Divergence":
        return Divergence(spec=FailureSpec.from_dict(dict(data["spec"])),
                          seed=int(data["seed"]),
                          size_class=str(data["size_class"]),
                          detail=str(data.get("detail", "")),
                          mismatches=list(data.get("mismatches", [])))


@dataclass
class ProgramVerdict:
    """The oracle's verdict on one generated program."""

    seed: int
    size_class: str
    outcome: str                      # "pass" | "divergence" | "generator-error"
    checks: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    error: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "size_class": self.size_class,
                "outcome": self.outcome, "checks": self.checks,
                "divergences": [d.to_dict() for d in self.divergences],
                "error": self.error}


@dataclass
class OracleReport:
    """Aggregate over one oracle run."""

    verdicts: List[ProgramVerdict] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for verdict in self.verdicts:
            out[verdict.outcome] = out.get(verdict.outcome, 0) + 1
        return out

    @property
    def failures(self) -> List[ProgramVerdict]:
        return [v for v in self.verdicts if v.outcome != "pass"]

    @property
    def checks(self) -> int:
        return sum(v.checks for v in self.verdicts)

    def summary(self) -> str:
        counts = self.counts
        return (f"{len(self.verdicts)} programs, {self.checks} checks: "
                + ", ".join(f"{key}={counts[key]}" for key in sorted(counts)))


@dataclass
class OracleConfig:
    """What to test."""

    pipelines: Optional[Sequence[str]] = None     # None -> all registered
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS
    threads: int = 4
    exec_seed: int = 0

    def resolved_pipelines(self) -> List[str]:
        names = (list(self.pipelines) if self.pipelines is not None
                 else pipeline_names())
        for name in names:
            if not has_pipeline(name):
                raise KeyError(f"unknown pipeline {name!r}; "
                               f"registered: {pipeline_names()}")
        return names


def _shared_inputs(program: Program, parameters: Mapping[str, int],
                   exec_seed: int) -> Dict[str, np.ndarray]:
    """Identical initial contents for every run, keyed by container name.

    Mirrors :func:`repro.interp.executor.allocate_storage`'s fill order so
    the reference run with these inputs equals a plain ``run_program``.
    """
    import numpy as np
    rng = np.random.default_rng(exec_seed)
    inputs: Dict[str, np.ndarray] = {}
    for name, arr in program.arrays.items():
        if not arr.transient:
            inputs[name] = arr.allocate(parameters, rng=rng)
    return inputs


def _outputs(program: Program) -> List[str]:
    """The observable containers: every non-transient array."""
    return [name for name, arr in program.arrays.items() if not arr.transient]


def _compare(reference: Mapping[str, np.ndarray],
             candidate: Mapping[str, np.ndarray],
             names: Sequence[str]) -> List[Dict[str, Any]]:
    import numpy as np
    mismatches: List[Dict[str, Any]] = []
    for name in names:
        expected = reference[name]
        actual = candidate.get(name)
        if actual is None:
            mismatches.append({"array": name, "problem": "missing"})
            continue
        if tuple(actual.shape) != tuple(expected.shape):
            mismatches.append({"array": name, "problem": "shape",
                               "expected": list(expected.shape),
                               "actual": list(actual.shape)})
            continue
        if not np.array_equal(expected, actual, equal_nan=True):
            with np.errstate(invalid="ignore"):
                delta = np.abs(np.asarray(expected) - np.asarray(actual))
            delta = np.where(np.isnan(delta), np.inf, delta)
            flat = int(np.argmax(delta))
            index = list(np.unravel_index(flat, expected.shape)) \
                if expected.shape else []
            mismatches.append({"array": name, "problem": "values",
                               "max_abs_delta": float(np.max(delta)),
                               "first_index": index})
    return mismatches


class Oracle:
    """Differential harness over one :class:`~repro.api.Session`."""

    def __init__(self, config: Optional[OracleConfig] = None,
                 session: Optional[Session] = None):
        self.config = config or OracleConfig()
        self.pipelines = self.config.resolved_pipelines()
        self.schedulers = list(self.config.schedulers)
        for name in self.schedulers:
            if name not in SCHEDULERS:
                raise RegistryError(
                    f"unknown scheduler {name!r}; registered: "
                    f"{SCHEDULERS.names()}")
        # A small search keeps per-program scheduling cheap; results stay
        # deterministic (the session salts search RNGs by program content).
        self.session = session or Session(
            threads=self.config.threads,
            search=SearchConfig(population_size=4, epochs=1,
                                generations_per_epoch=1),
            mcts=MctsConfig(rollouts=8))

    # -- one program -------------------------------------------------------------

    def check(self, generated: GeneratedProgram) -> ProgramVerdict:
        """Round-trip one program through every pipeline x scheduler."""
        verdict = ProgramVerdict(seed=generated.seed,
                                 size_class=generated.size_class,
                                 outcome="pass")
        program, parameters = generated.program, generated.parameters
        outputs = _outputs(program)
        inputs = _shared_inputs(program, parameters, self.config.exec_seed)
        try:
            reference = run_program(program, parameters, inputs,
                                    seed=self.config.exec_seed,
                                    check_uninitialized=True)
        except Exception as error:  # noqa: BLE001 - classified, not hidden
            verdict.outcome = "generator-error"
            verdict.error = f"{type(error).__name__}: {error}"
            return verdict

        for pipeline in self.pipelines:
            divergence = self._check_pipeline(
                generated, pipeline, inputs, outputs, reference, verdict)
            if divergence is not None:
                verdict.divergences.append(divergence)
        if verdict.divergences:
            verdict.outcome = "divergence"
        return verdict

    def _check_pipeline(self, generated: GeneratedProgram, pipeline: str,
                        inputs, outputs, reference,
                        verdict: ProgramVerdict) -> Optional[Divergence]:
        """Run one pipeline (and its schedulers); first divergence wins."""
        program, parameters = generated.program, generated.parameters
        seed_info = dict(seed=generated.seed, size_class=generated.size_class)
        verdict.checks += 1
        try:
            normalized = self.session.normalize(program, pipeline=pipeline)
        except Exception as error:  # noqa: BLE001
            return Divergence(FailureSpec("normalize", "crash", pipeline,
                                          error_type=type(error).__name__),
                              detail=str(error), **seed_info)
        failure = self._execute_and_compare(
            normalized.program, parameters, inputs, outputs, reference,
            FailureSpec("normalize", "mismatch", pipeline), seed_info)
        if failure is not None:
            return failure

        for scheduler in self.schedulers:
            verdict.checks += 1
            request = ScheduleRequest(program=normalized.program,
                                      parameters=parameters,
                                      scheduler=scheduler, normalize=False,
                                      label=generated.name)
            try:
                response = self.session.schedule(request)
            except Exception as error:  # noqa: BLE001
                return Divergence(
                    FailureSpec("schedule", "crash", pipeline, scheduler,
                                error_type=type(error).__name__),
                    detail=str(error), **seed_info)
            failure = self._execute_and_compare(
                response.program, parameters, inputs, outputs, reference,
                FailureSpec("schedule", "mismatch", pipeline, scheduler),
                seed_info)
            if failure is not None:
                return failure

            verdict.checks += 1
            try:
                warm = self.session.schedule(request)
            except Exception as error:  # noqa: BLE001
                return Divergence(
                    FailureSpec("cache", "crash", pipeline, scheduler,
                                error_type=type(error).__name__),
                    detail=str(error), **seed_info)
            failure = self._execute_and_compare(
                warm.program, parameters, inputs, outputs, reference,
                FailureSpec("cache", "mismatch", pipeline, scheduler),
                seed_info, detail="warm cache-served schedule diverged from cold result")
            if failure is not None:
                return failure
        return None

    def _execute_and_compare(self, program: Program, parameters, inputs,
                             outputs, reference, spec: FailureSpec,
                             seed_info: Dict[str, Any],
                             detail: str = "") -> Optional[Divergence]:
        try:
            result = run_program(program, parameters, inputs,
                                 seed=self.config.exec_seed)
        except Exception as error:  # noqa: BLE001
            crash = FailureSpec(spec.stage, "crash", spec.pipeline,
                                spec.scheduler,
                                error_type=type(error).__name__)
            return Divergence(crash, detail=str(error), **seed_info)
        mismatches = _compare(reference, result, outputs)
        if mismatches:
            return Divergence(spec, detail=detail, mismatches=mismatches,
                              **seed_info)
        return None

    # -- many programs -----------------------------------------------------------

    def run(self, seeds: Sequence[int], size_class: str = "small",
            progress=None) -> OracleReport:
        """Generate and check one program per seed."""
        report = OracleReport()
        for seed in seeds:
            try:
                generated = generate_program(seed, size_class)
            except Exception as error:  # noqa: BLE001 - generator bug
                verdict = ProgramVerdict(
                    seed=seed, size_class=size_class,
                    outcome="generator-error",
                    error=f"{type(error).__name__}: {error}")
                report.verdicts.append(verdict)
                continue
            verdict = self.check(generated)
            report.verdicts.append(verdict)
            if progress is not None:
                progress(verdict)
        return report


def reproduces_failure(session: Session, program: Program,
                       parameters: Mapping[str, int], spec: FailureSpec,
                       exec_seed: int = 0) -> bool:
    """Does ``program`` still fail exactly per ``spec``?

    The minimizer's predicate: the reference interpreter must still execute
    the candidate cleanly (otherwise the shrink introduced a *new* problem),
    and the failing stage must fail again with the same kind — and, for
    crashes, the same exception type.
    """
    outputs = _outputs(program)
    inputs = _shared_inputs(program, parameters, exec_seed)
    try:
        reference = run_program(program, parameters, inputs, seed=exec_seed,
                                check_uninitialized=True)
    except Exception:  # noqa: BLE001 - candidate broke the reference run
        return False

    def matches(observed_kind: str, error: Optional[BaseException]) -> bool:
        if observed_kind != spec.kind:
            return False
        if spec.kind == "crash" and spec.error_type:
            return type(error).__name__ == spec.error_type
        return True

    try:
        normalized = session.normalize(program, pipeline=spec.pipeline)
    except Exception as error:  # noqa: BLE001
        return spec.stage == "normalize" and matches("crash", error)
    if spec.stage == "normalize":
        try:
            result = run_program(normalized.program, parameters, inputs,
                                 seed=exec_seed)
        except Exception as error:  # noqa: BLE001
            return matches("crash", error)
        return matches("mismatch", None) and bool(
            _compare(reference, result, outputs))

    request = ScheduleRequest(program=normalized.program,
                              parameters=parameters,
                              scheduler=spec.scheduler, normalize=False)
    try:
        response = session.schedule(request)
        if spec.stage == "cache":
            response = session.schedule(request)
    except Exception as error:  # noqa: BLE001
        return matches("crash", error)
    try:
        result = run_program(response.program, parameters, inputs,
                             seed=exec_seed)
    except Exception as error:  # noqa: BLE001
        return matches("crash", error)
    return matches("mismatch", None) and bool(
        _compare(reference, result, outputs))

"""Seeded random generator of well-formed loop-nest programs.

The generator is safe by construction: every program it emits passes
:func:`repro.ir.validation.validate_program` and executes cleanly on the
reference interpreter with uninitialized-read checking enabled.  In-bounds
indexing is guaranteed by a *cover* discipline — each loop iterator records
the set of size parameters ``P`` for which its values provably stay inside
``[0, P)``, and an index expression for a dimension of extent ``P`` is only
built from iterators covering ``P`` (or wrapped in ``% P``, which is safe
for any non-negative affine value).

The emitted shapes deliberately stress normalization:

* imperfect nesting (statements before, between, and after nested loops),
* shifted / shortened / strided / triangular / ``min``-bounded loops,
* reductions into scalars and array elements (initialized before the loop),
* transient scalar temporaries written before any read,
* multi-statement bodies mixing affine and ``%``-irregular accesses, and
* a conditional-style expression grammar (``select``/``fmin``/``fmax``/
  ``Min``/``Max``) alongside ``sqrt(abs(.))`` and ``tanh``.

Everything derives from one ``random.Random`` seeded with
``f"{size_class}:{seed}"``, so the same ``(seed, size_class)`` pair yields
an identical program on every platform and run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..ir.builder import ProgramBuilder
from ..ir.nodes import Program
from ..ir.serialization import program_from_dict, program_to_dict
from ..ir.symbols import Call, Expr, Max, Min, Mod, const, sym
from ..ir.validation import validate_program

#: Exactly-representable constants; keeping them dyadic keeps the oracle's
#: bit-exact comparison meaningful (no decimal rounding noise).
_CONSTANTS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, -0.5, -1.5)

_PARAM_NAMES = ("N", "M", "K", "L")


@dataclass(frozen=True)
class GeneratorConfig:
    """Size-class knobs bounding one generated program."""

    name: str
    #: Inclusive range of loops in the whole program.
    loops: Tuple[int, int]
    max_depth: int
    #: Inclusive range of computation statements.
    statements: Tuple[int, int]
    #: Inclusive range of non-transient data arrays.
    arrays: Tuple[int, int]
    max_rank: int
    params: Tuple[int, int]
    #: Inclusive range the concrete parameter bindings are drawn from.
    param_values: Tuple[int, int]
    expr_depth: int
    #: Probability of an irregular bound or ``%``-wrapped index.
    irregular: float
    #: Probability of introducing a scalar temporary in a body.
    temporaries: float
    #: Probability of emitting a reduction idiom in a body.
    reductions: float


SIZE_CLASSES: Dict[str, GeneratorConfig] = {
    "tiny": GeneratorConfig("tiny", loops=(1, 2), max_depth=2,
                            statements=(1, 3), arrays=(1, 2), max_rank=2,
                            params=(1, 2), param_values=(3, 5), expr_depth=1,
                            irregular=0.15, temporaries=0.2, reductions=0.2),
    "small": GeneratorConfig("small", loops=(2, 4), max_depth=3,
                             statements=(2, 6), arrays=(2, 3), max_rank=2,
                             params=(2, 3), param_values=(3, 6), expr_depth=2,
                             irregular=0.25, temporaries=0.35, reductions=0.3),
    "medium": GeneratorConfig("medium", loops=(3, 7), max_depth=3,
                              statements=(4, 10), arrays=(2, 4), max_rank=3,
                              params=(2, 3), param_values=(4, 7), expr_depth=3,
                              irregular=0.3, temporaries=0.4, reductions=0.35),
    "large": GeneratorConfig("large", loops=(6, 12), max_depth=4,
                             statements=(8, 18), arrays=(3, 5), max_rank=3,
                             params=(3, 4), param_values=(4, 8), expr_depth=3,
                             irregular=0.35, temporaries=0.45, reductions=0.4),
}


@dataclass
class GeneratedProgram:
    """One generator output: the program plus its concrete size bindings."""

    program: Program
    parameters: Dict[str, int]
    seed: int
    size_class: str

    @property
    def name(self) -> str:
        return self.program.name

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "size_class": self.size_class,
            "parameters": dict(self.parameters),
            "program": program_to_dict(self.program),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "GeneratedProgram":
        return GeneratedProgram(
            program=program_from_dict(dict(data["program"])),
            parameters={str(k): int(v)
                        for k, v in dict(data["parameters"]).items()},
            seed=int(data["seed"]),
            size_class=str(data["size_class"]),
        )


@dataclass
class _Iterator:
    """An open loop iterator and the parameters whose extent it stays under."""

    name: str
    covers: frozenset


@dataclass
class _Scope:
    """What a body being generated may legally reference."""

    iterators: List[_Iterator] = field(default_factory=list)
    #: Transient scalars guaranteed written before this point executes.
    temps: List[str] = field(default_factory=list)

    def child(self) -> "_Scope":
        return _Scope(list(self.iterators), list(self.temps))


class _Sampler:
    """One generation run; all randomness flows through ``self.rng``."""

    def __init__(self, seed: int, config: GeneratorConfig):
        self.rng = random.Random(f"{config.name}:{seed}")
        self.config = config
        self.seed = seed
        self.builder = ProgramBuilder(f"fuzz_{config.name}_{seed}")
        self.params: List[str] = []
        self.bindings: Dict[str, int] = {}
        self.data_arrays: Dict[str, Tuple[str, ...]] = {}
        self.input_scalars: List[str] = []
        self._iterator_count = 0
        self._temp_count = 0
        self.loop_budget = self.rng.randint(*config.loops)
        self.stmt_budget = self.rng.randint(*config.statements)
        self.wrote_data = False

    # -- declarations ----------------------------------------------------------

    def declare(self) -> None:
        rng, config = self.rng, self.config
        for name in _PARAM_NAMES[:rng.randint(*config.params)]:
            self.params.append(name)
            self.bindings[name] = rng.randint(*config.param_values)
        for index in range(rng.randint(*config.arrays)):
            rank = rng.randint(1, config.max_rank)
            shape = tuple(rng.choice(self.params) for _ in range(rank))
            name = f"A{index}"
            self.builder.add_array(name, shape)
            self.data_arrays[name] = shape
        for index in range(rng.randint(0, 2)):
            name = f"c{index}"
            self.builder.add_scalar(name)
            self.input_scalars.append(name)

    def fresh_iterator(self) -> str:
        name = f"i{self._iterator_count}"
        self._iterator_count += 1
        return name

    def fresh_temp(self) -> str:
        name = f"t{self._temp_count}"
        self._temp_count += 1
        self.builder.add_scalar(name, transient=True)
        return name

    # -- index expressions ------------------------------------------------------

    def index_for(self, param: str, scope: _Scope) -> Expr:
        """A random index provably inside ``[0, param)``."""
        rng = self.rng
        covering = [it for it in scope.iterators if param in it.covers]
        choices = ["const"]
        if covering:
            choices += ["plain"] * 4 + ["reverse"]
        if scope.iterators and rng.random() < self.config.irregular:
            choices += ["mod"] * 2
        form = rng.choice(choices)
        if form == "plain":
            return sym(rng.choice(covering).name)
        if form == "reverse":
            return sym(param) - 1 - sym(rng.choice(covering).name)
        if form == "mod":
            # Any non-negative affine combination, wrapped into range.
            first = sym(rng.choice(scope.iterators).name)
            if len(scope.iterators) > 1 and rng.random() < 0.5:
                second = sym(rng.choice(scope.iterators).name)
                return Mod.make(first + second, sym(param))
            return Mod.make(first + rng.randint(0, 3), sym(param))
        # Constants 0/1 are safe: every parameter binding is >= 2 ... except
        # the smallest size classes, so clamp to 0 when the binding is tiny.
        return const(rng.randint(0, 1) if self.bindings[param] >= 2 else 0)

    def access(self, array: str, scope: _Scope) -> Tuple[str, Tuple[Expr, ...]]:
        shape = self.data_arrays[array]
        return array, tuple(self.index_for(param, scope) for param in shape)

    # -- value expressions -------------------------------------------------------

    def leaf(self, scope: _Scope) -> Expr:
        rng = self.rng
        kinds = ["array"] * 4 + ["const"] * 2
        if self.input_scalars:
            kinds.append("scalar")
        if scope.temps:
            kinds += ["temp"] * 2
        if scope.iterators:
            kinds.append("symbol")
        kind = rng.choice(kinds)
        if kind == "array":
            name, indices = self.access(rng.choice(sorted(self.data_arrays)),
                                        scope)
            return self.builder.read(name, *indices)
        if kind == "scalar":
            return self.builder.read(rng.choice(self.input_scalars))
        if kind == "temp":
            return self.builder.read(rng.choice(scope.temps))
        if kind == "symbol":
            names = [it.name for it in scope.iterators] + self.params
            return sym(rng.choice(names))
        return const(rng.choice(_CONSTANTS))

    def expression(self, scope: _Scope, depth: Optional[int] = None) -> Expr:
        rng, config = self.rng, self.config
        depth = config.expr_depth if depth is None else depth
        if depth <= 0 or rng.random() < 0.3:
            return self.leaf(scope)
        op = rng.choice(["add", "add", "mul", "mul", "sub", "min", "max",
                         "fmin", "fmax", "select", "sqrt", "tanh"])
        a = self.expression(scope, depth - 1)
        if op == "sqrt":
            return Call("sqrt", (Call("abs", (a,)),))
        if op == "tanh":
            return Call("tanh", (a,))
        b = self.expression(scope, depth - 1)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "min":
            return Min.make([a, b])
        if op == "max":
            return Max.make([a, b])
        if op in ("fmin", "fmax"):
            return Call(op, (a, b))
        return Call("select", (a, b, self.expression(scope, depth - 1)))

    # -- statements and loops ----------------------------------------------------

    def emit_statement(self, scope: _Scope) -> None:
        """One plain computation; mostly targets observable data arrays."""
        rng = self.rng
        self.stmt_budget -= 1
        value = self.expression(scope)
        if rng.random() < self.config.temporaries or not self.data_arrays:
            temp = self.fresh_temp()
            self.builder.assign((temp,), value)
            scope.temps.append(temp)
            return
        name, indices = self.access(rng.choice(sorted(self.data_arrays)), scope)
        if rng.random() < 0.4:
            # Accumulating writes keep earlier effects observable instead of
            # overwriting them (less divergence masking).
            value = self.builder.read(name, *indices) + value
        self.builder.assign((name,) + indices, value)
        self.wrote_data = True

    def emit_reduction(self, scope: _Scope) -> None:
        """``init; for r: acc = acc + expr`` — acc is a temp or an element."""
        rng = self.rng
        self.stmt_budget -= 2
        self.loop_budget -= 1
        if rng.random() < 0.5 or not self.data_arrays:
            temp = self.fresh_temp()
            target: Tuple[Any, ...] = (temp,)
        else:
            name, indices = self.access(rng.choice(sorted(self.data_arrays)),
                                        scope)
            target = (name,) + indices
        self.builder.assign(target, self.leaf(scope))
        iterator, param, start, end, step, covers = self.loop_shape(scope)
        with self.builder.loop(iterator, start, end, step):
            inner = scope.child()
            inner.iterators.append(_Iterator(iterator, covers))
            self.builder.accumulate(target, self.expression(inner))
        if target[0].startswith("t"):
            scope.temps.append(target[0])
        else:
            self.wrote_data = True

    def loop_shape(self, scope: _Scope):
        """Pick a loop form; returns (iterator, param, start, end, step, covers)."""
        rng = self.rng
        param = rng.choice(self.params)
        iterator = self.fresh_iterator()
        start: Any = 0
        end: Expr = sym(param)
        step = 1
        covers = frozenset({param})
        if rng.random() < self.config.irregular:
            triangular = [it for it in scope.iterators if param in it.covers]
            forms = ["shifted", "shortened", "strided"]
            if triangular:
                forms += ["triangular"] * 2
            others = [p for p in self.params if p != param]
            if others:
                forms.append("minbound")
            form = rng.choice(forms)
            if form == "shifted" and self.bindings[param] >= 2:
                start = 1
            elif form == "shortened" and self.bindings[param] >= 2:
                end = sym(param) - 1
            elif form == "strided":
                step = 2
            elif form == "triangular":
                start = sym(rng.choice(triangular).name)
            elif form == "minbound":
                other = rng.choice(others)
                end = Min.make([sym(param), sym(other)])
                covers = frozenset({param, other})
        return iterator, param, start, end, step, covers

    def emit_loop(self, scope: _Scope, depth: int) -> None:
        self.loop_budget -= 1
        iterator, _param, start, end, step, covers = self.loop_shape(scope)
        with self.builder.loop(iterator, start, end, step):
            inner = scope.child()
            inner.iterators.append(_Iterator(iterator, covers))
            self.emit_body(inner, depth + 1)

    def emit_body(self, scope: _Scope, depth: int) -> None:
        """Fill one loop body: statements and loops in random interleaving."""
        rng, config = self.rng, self.config
        items = rng.randint(1, 3)
        for _ in range(items):
            can_nest = self.loop_budget > 0 and depth < config.max_depth
            roll = rng.random()
            if can_nest and roll < 0.45:
                self.emit_loop(scope, depth)
            elif (roll < 0.45 + config.reductions
                    and self.stmt_budget >= 2 and self.loop_budget > 0
                    and depth < config.max_depth):
                self.emit_reduction(scope)
            else:
                self.emit_statement(scope)
            if self.stmt_budget <= 0:
                break
        if not any(True for _ in self.builder.program.iter_computations()):
            self.emit_statement(scope)

    # -- top level ---------------------------------------------------------------

    def build(self) -> GeneratedProgram:
        self.declare()
        scope = _Scope()
        while self.loop_budget > 0 or self.stmt_budget > 0:
            if self.loop_budget > 0:
                self.emit_loop(scope, depth=1)
            else:
                # Top-level straight-line statements may only touch scalars
                # and constant indices; they exercise loop-free handling.
                self.emit_statement(scope)
        if not self.wrote_data and self.data_arrays:
            self.emit_sink(scope)
        program = self.builder.finish()
        # The builder collected parameters from bounds/shapes; align order
        # with the declared list so bindings always cover them.
        for param in program.parameters:
            self.bindings.setdefault(param, self.config.param_values[0])
        return GeneratedProgram(program=program,
                                parameters={name: self.bindings[name]
                                            for name in self.params},
                                seed=self.seed, size_class=self.config.name)

    def emit_sink(self, scope: _Scope) -> None:
        """Guarantee at least one observable (non-transient) write."""
        name = sorted(self.data_arrays)[0]
        shape = self.data_arrays[name]
        iterators = []
        stack = []
        for param in shape:
            iterator = self.fresh_iterator()
            stack.append(self.builder.loop(iterator, 0, param))
            stack[-1].__enter__()
            iterators.append(iterator)
        value = self.builder.read(name, *iterators)
        for temp in scope.temps[:2]:
            value = value + self.builder.read(temp)
        if not scope.temps:
            value = value + const(0.5)
        self.builder.assign((name,) + tuple(iterators), value)
        for manager in reversed(stack):
            manager.__exit__(None, None, None)
        self.wrote_data = True


def generate_program(seed: int, size_class: str = "small") -> GeneratedProgram:
    """Generate one well-formed random program for ``(seed, size_class)``.

    The result is deterministic in both arguments.  The program is checked
    against :func:`~repro.ir.validation.validate_program` before being
    returned — a failure there is a generator bug, never a caller problem.
    """
    if size_class not in SIZE_CLASSES:
        raise KeyError(f"unknown size class {size_class!r}; "
                       f"known: {sorted(SIZE_CLASSES)}")
    generated = _Sampler(seed, SIZE_CLASSES[size_class]).build()
    validate_program(generated.program)
    return generated

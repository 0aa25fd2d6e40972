"""Symbolic expression engine used throughout the loop-nest IR.

The paper lifts loop nests into a symbolic representation where loop
iterators, domains, and data accesses are symbolic expressions (Section 3).
This module provides that expression language.

The expression language is intentionally small:

* ``Const`` and ``Sym`` are the leaves.
* ``Add`` and ``Mul`` are n-ary and flattened/folded on construction.
* ``FloorDiv`` and ``Mod`` (one division family), ``Min`` and ``Max``
  (one extremum family) cover the shapes introduced by tiling and bounds
  normalization.
* ``Read`` and ``Call`` only appear inside computation bodies (right-hand
  sides); index expressions and loop bounds never contain them.

Each question is answered once, on :class:`Expr`: ``free_symbols`` and
``substitute`` walk ``children()`` and re-fold through :func:`rebuild` (only
the leaves override them).  ``evaluate`` is for index and bound
expressions; statement values belong to the interpreter
(``repro.interp.executor``).  :data:`INTRINSICS`, beside :class:`Call`, is
the one table of the functions a call may name: the interpreter evaluates
through it, the validator refuses any other name, and the flop counter
(``repro.analysis.flops``) reads its weights.

Every expression is immutable and hashable, which lets analyses memoize on
expressions and use them as dictionary keys.

Immutability is also what makes expressions cheap to re-hash: every
expression memoizes its structural hash (and, via ``repro.ir.canonical``,
its canonical JSON fragment) the first time it is computed.

One expression per structure: leaves are interned by :func:`sym` and
:func:`const` (keyed by name and value), and every composite is hash-consed
when it is built, through one bounded table keyed by its kind, its payload
(array or function name) and the *identities* of its children.  The
children are already the one instance of their own structure, so
structurally equal expressions are one object, built by a builder, by
``substitute``, by decoding, by pickle or by deepcopy, and each memo is
derived once per process.  Identity, not ``==``, keeps ``Const(True)`` and
``const(1)`` apart under a composite: they compare equal, but their
canonical fragments differ.  The table is a cache, not a contract: once it
is full, construction returns a correct instance that is simply not
interned, so no code may use ``is`` as its only equality test.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import (Callable, Dict, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

Number = Union[int, float]
ExprLike = Union["Expr", int, float, str]


def _as_expr(value: ExprLike) -> "Expr":
    """Coerce a Python value into an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid symbolic values")
    if isinstance(value, (int, float)):
        return const(value)
    if isinstance(value, str):
        return sym(value)
    raise TypeError(f"cannot convert {value!r} to a symbolic expression")


class Expr:
    """Base class of all symbolic expressions."""

    # Memos, safe to keep forever because expressions are immutable:
    # ``_hash`` the structural hash, ``_frag`` the canonical JSON fragment
    # (written by ``repro.ir.canonical``), ``_affine`` the affine form,
    # ``_free`` the free symbols, ``_reads`` the array reads in order
    # (``repro.ir.nodes``), ``_flops`` the operation count
    # (``repro.analysis.flops``), ``_split`` the subscript's splits into
    # iterator and offset terms (``repro.analysis.affine``).
    __slots__ = ("_hash", "_frag", "_affine", "_free", "_reads", "_flops",
                 "_split")

    # -- construction helpers -------------------------------------------------

    def __add__(self, other: ExprLike) -> "Expr":
        return Add.make([self, _as_expr(other)])

    def __radd__(self, other: ExprLike) -> "Expr":
        return Add.make([_as_expr(other), self])

    def __sub__(self, other: ExprLike) -> "Expr":
        return Add.make([self, Mul.make([const(-1), _as_expr(other)])])

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Add.make([_as_expr(other), Mul.make([const(-1), self])])

    def __mul__(self, other: ExprLike) -> "Expr":
        return Mul.make([self, _as_expr(other)])

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Mul.make([_as_expr(other), self])

    def __neg__(self) -> "Expr":
        return Mul.make([const(-1), self])

    def __floordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv.make(self, _as_expr(other))

    def __mod__(self, other: ExprLike) -> "Expr":
        return Mod.make(self, _as_expr(other))

    def __truediv__(self, other: ExprLike) -> "Expr":
        return Call("div", (self, _as_expr(other)))

    # -- queries ---------------------------------------------------------------

    def free_symbols(self) -> frozenset:
        """Return the set of symbol names appearing in the expression.

        Memoized on the expression asked about, not on its parts: one walk
        on the first call, and every later call returns the same set.
        """
        try:
            return self._free
        except AttributeError:
            pass
        names = set()
        stack = list(self.children())
        while stack:
            expr = stack.pop()
            if isinstance(expr, Sym):
                names.add(expr.name)
            else:
                stack.extend(expr.children())
        self._free = found = frozenset(names)
        return found

    def substitute(self, mapping: Mapping[str, ExprLike]) -> "Expr":
        """Return a new expression with symbols replaced per ``mapping``,
        re-folded through :func:`rebuild`."""
        return rebuild(self, [child.substitute(mapping)
                              for child in self.children()])

    def evaluate(self, env: Mapping[str, Number]) -> Number:
        """Evaluate an index or bound expression; ``env`` maps symbol names
        to numbers.  Statement values (array reads, intrinsic calls) are the
        interpreter's to evaluate (``repro.interp``)."""
        raise TypeError(f"{type(self).__name__} is not an index or bound "
                        "expression; the interpreter evaluates statement values")

    def children(self) -> Tuple["Expr", ...]:
        """Return the direct sub-expressions."""
        return ()

    def as_affine(self) -> Optional[Tuple[Mapping[str, Number], Number]]:
        """Decompose into an affine form ``sum(coeff_s * s) + const``.

        Returns ``None`` if the expression is not affine in its free symbols.
        The form is memoized, so the coefficients are a read-only mapping.
        """
        try:
            return self._affine
        except AttributeError:
            pass
        try:
            coeffs, const = _affine_decompose(self)
            form = (MappingProxyType(coeffs), const)
        except _NotAffine:
            form = None
        self._affine = form
        return form

    # -- protocol --------------------------------------------------------------

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return False
        # Memoized hashes give an O(1) negative answer on most mismatches;
        # only equal hashes fall through to the structural comparison.
        if hash(self) != hash(other):
            return False
        return self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(self._key())
            self._hash = value
            return value

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class _NotAffine(Exception):
    """Raised internally when an expression cannot be decomposed affinely."""


class Const(Expr):
    """A numeric literal."""

    __slots__ = ("value",)

    def __init__(self, value: Number):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        self.value = value

    def free_symbols(self) -> frozenset:
        return frozenset()

    def substitute(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return self

    def evaluate(self, env) -> Number:
        return self.value

    def _key(self) -> tuple:
        return ("const", self.value)

    def __reduce__(self):
        return (const, (self.value,))

    def __str__(self) -> str:
        return str(self.value)


class Sym(Expr):
    """A named symbol: a loop iterator or a size parameter."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError("symbol name must be a non-empty string")
        self.name = name

    def free_symbols(self) -> frozenset:
        try:
            return self._free
        except AttributeError:
            self._free = out = frozenset((self.name,))
            return out

    def substitute(self, mapping: Mapping[str, ExprLike]) -> Expr:
        if self.name in mapping:
            return _as_expr(mapping[self.name])
        return self

    def evaluate(self, env) -> Number:
        if self.name not in env:
            raise KeyError(f"symbol {self.name!r} is not bound")
        return env[self.name]

    def _key(self) -> tuple:
        return ("sym", self.name)

    def __reduce__(self):
        return (sym, (self.name,))

    def __str__(self) -> str:
        return self.name


class Add(Expr):
    """An n-ary sum."""

    __slots__ = ("terms",)

    def __new__(cls, terms: Sequence[Expr]) -> "Add":
        terms = tuple(terms)
        key = (cls, *map(id, terms))
        try:
            return _COMPOSITES[key]
        except KeyError:
            self = object.__new__(cls)
            self.terms = terms
            return _admit(key, self)

    def __reduce__(self):
        return (Add, (self.terms,))

    @staticmethod
    def make(terms: Sequence[Expr]) -> Expr:
        flat = []
        folded = 0
        for term in terms:
            term = _as_expr(term)
            if isinstance(term, Add):
                inner_terms = list(term.terms)
            else:
                inner_terms = [term]
            for t in inner_terms:
                if isinstance(t, Const):
                    folded += t.value
                else:
                    flat.append(t)
        if folded != 0 or not flat:
            flat.append(const(folded))
        if len(flat) == 1:
            return flat[0]
        return Add(flat)

    def evaluate(self, env) -> Number:
        return sum(t.evaluate(env) for t in self.terms)

    def children(self) -> Tuple[Expr, ...]:
        return self.terms

    def _key(self) -> tuple:
        return ("add", tuple(t._key() for t in self.terms))

    def __str__(self) -> str:
        parts = []
        for idx, term in enumerate(self.terms):
            text = str(term)
            if idx > 0 and not text.startswith("-"):
                parts.append("+")
            parts.append(text)
        return " ".join(parts) if parts else "0"


class Mul(Expr):
    """An n-ary product."""

    __slots__ = ("factors",)

    def __new__(cls, factors: Sequence[Expr]) -> "Mul":
        factors = tuple(factors)
        key = (cls, *map(id, factors))
        try:
            return _COMPOSITES[key]
        except KeyError:
            self = object.__new__(cls)
            self.factors = factors
            return _admit(key, self)

    def __reduce__(self):
        return (Mul, (self.factors,))

    @staticmethod
    def make(factors: Sequence[Expr]) -> Expr:
        flat = []
        folded = 1
        for factor in factors:
            factor = _as_expr(factor)
            if isinstance(factor, Mul):
                inner = list(factor.factors)
            else:
                inner = [factor]
            for f in inner:
                if isinstance(f, Const):
                    folded *= f.value
                else:
                    flat.append(f)
        if folded == 0:
            return const(0)
        if folded != 1 or not flat:
            flat.insert(0, const(folded))
        if len(flat) == 1:
            return flat[0]
        return Mul(flat)

    def evaluate(self, env) -> Number:
        result = 1
        for factor in self.factors:
            result *= factor.evaluate(env)
        return result

    def children(self) -> Tuple[Expr, ...]:
        return self.factors

    def _key(self) -> tuple:
        return ("mul", tuple(f._key() for f in self.factors))

    def __str__(self) -> str:
        parts = []
        for factor in self.factors:
            text = str(factor)
            if isinstance(factor, Add):
                text = f"({text})"
            parts.append(text)
        return "*".join(parts)


class _Division(Expr):
    """A numerator over a denominator: the shape ``FloorDiv`` and ``Mod``
    share.  Each keeps its own folding ``make`` and its own ``evaluate``."""

    __slots__ = ("numerator", "denominator")
    _kind: str          # the ``_key`` tag
    _operator: str      # printed between the operands

    def __new__(cls, numerator: Expr, denominator: Expr) -> "_Division":
        key = (cls, id(numerator), id(denominator))
        try:
            return _COMPOSITES[key]
        except KeyError:
            self = object.__new__(cls)
            self.numerator = numerator
            self.denominator = denominator
            return _admit(key, self)

    def __reduce__(self):
        return (type(self), (self.numerator, self.denominator))

    @staticmethod
    def _operands(numerator: ExprLike, denominator: ExprLike) -> Tuple[Expr, Expr]:
        """Coerce both operands, refusing a constant zero denominator."""
        numerator = _as_expr(numerator)
        denominator = _as_expr(denominator)
        if isinstance(denominator, Const) and denominator.value == 0:
            raise ValueError(f"division of {numerator} by a constant zero")
        return numerator, denominator

    def children(self) -> Tuple[Expr, ...]:
        return (self.numerator, self.denominator)

    def _key(self) -> tuple:
        return (self._kind, self.numerator._key(), self.denominator._key())

    def __str__(self) -> str:
        return f"({self.numerator}){self._operator}({self.denominator})"


class FloorDiv(_Division):
    """Integer floor division, produced by tiling and bounds rewriting."""

    __slots__ = ()
    _kind = "floordiv"
    _operator = "//"

    @staticmethod
    def make(numerator: ExprLike, denominator: ExprLike) -> Expr:
        numerator, denominator = _Division._operands(numerator, denominator)
        if isinstance(denominator, Const) and denominator.value == 1:
            return numerator
        if isinstance(numerator, Const) and isinstance(denominator, Const):
            return const(numerator.value // denominator.value)
        return FloorDiv(numerator, denominator)

    def evaluate(self, env) -> Number:
        denom = self.denominator.evaluate(env)
        if denom == 0:
            raise ZeroDivisionError("floor division by zero in symbolic expression")
        return self.numerator.evaluate(env) // denom


class Mod(_Division):
    """Integer modulo."""

    __slots__ = ()
    _kind = "mod"
    _operator = "%"

    @staticmethod
    def make(numerator: ExprLike, denominator: ExprLike) -> Expr:
        numerator, denominator = _Division._operands(numerator, denominator)
        if isinstance(numerator, Const) and isinstance(denominator, Const):
            return const(numerator.value % denominator.value)
        return Mod(numerator, denominator)

    def evaluate(self, env) -> Number:
        return self.numerator.evaluate(env) % self.denominator.evaluate(env)


class _Extremum(Expr):
    """An n-ary ``min`` or ``max``: ``Min`` and ``Max`` differ only in
    which of the two builtins ``_pick`` is."""

    __slots__ = ("args",)
    _kind: str          # "min" or "max": the ``_key`` tag and the printed name

    def __new__(cls, args: Sequence[Expr]) -> "_Extremum":
        args = tuple(args)
        key = (cls, *map(id, args))
        try:
            return _COMPOSITES[key]
        except KeyError:
            self = object.__new__(cls)
            self.args = args
            return _admit(key, self)

    def __reduce__(self):
        return (type(self), (self.args,))

    @classmethod
    def make(cls, args: Sequence[ExprLike]) -> Expr:
        flat = []
        for arg in args:
            arg = _as_expr(arg)
            if isinstance(arg, cls):
                flat.extend(arg.args)
            else:
                flat.append(arg)
        consts = [a.value for a in flat if isinstance(a, Const)]
        others = [a for a in flat if not isinstance(a, Const)]
        unique = []
        for expr in others:
            if expr not in unique:
                unique.append(expr)
        if consts:
            unique.append(const(cls._pick(consts)))
        if len(unique) == 1:
            return unique[0]
        return cls(unique)

    def evaluate(self, env) -> Number:
        return self._pick(a.evaluate(env) for a in self.args)

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def _key(self) -> tuple:
        return (self._kind, tuple(a._key() for a in self.args))

    def __str__(self) -> str:
        return f"{self._kind}(" + ", ".join(str(a) for a in self.args) + ")"


class Min(_Extremum):
    """n-ary minimum, produced by tiling boundary handling."""

    __slots__ = ()
    _kind = "min"
    _pick = staticmethod(min)


class Max(_Extremum):
    """n-ary maximum."""

    __slots__ = ()
    _kind = "max"
    _pick = staticmethod(max)


class Read(Expr):
    """A read of an array element; only valid inside computation bodies."""

    __slots__ = ("array", "indices")

    def __new__(cls, array: str, indices: Sequence[ExprLike]) -> "Read":
        indices = tuple(map(_as_expr, indices))
        key = (cls, array, *map(id, indices))
        try:
            return _COMPOSITES[key]
        except KeyError:
            self = object.__new__(cls)
            self.array = array
            self.indices = indices
            return _admit(key, self)

    def __reduce__(self):
        return (Read, (self.array, self.indices))

    def children(self) -> Tuple[Expr, ...]:
        return self.indices

    def _key(self) -> tuple:
        return ("read", self.array, tuple(i._key() for i in self.indices))

    def __str__(self) -> str:
        if not self.indices:
            return self.array
        return self.array + "[" + ", ".join(str(i) for i in self.indices) + "]"


class Call(Expr):
    """An intrinsic function call inside a computation body."""

    __slots__ = ("func", "args")

    def __new__(cls, func: str, args: Sequence[ExprLike]) -> "Call":
        args = tuple(map(_as_expr, args))
        key = (cls, func, *map(id, args))
        try:
            return _COMPOSITES[key]
        except KeyError:
            self = object.__new__(cls)
            self.func = func
            self.args = args
            return _admit(key, self)

    def __reduce__(self):
        return (Call, (self.func, self.args))

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def _key(self) -> tuple:
        return ("call", self.func, tuple(a._key() for a in self.args))

    def __str__(self) -> str:
        return f"{self.func}(" + ", ".join(str(a) for a in self.args) + ")"


class Intrinsic(NamedTuple):
    """What a :class:`Call` may name: its element-wise scalar evaluator and
    its cost in FLOP equivalents, relative to one multiply-add."""

    evaluate: Callable
    flops: float


#: The one intrinsic table, by name.
INTRINSICS: Mapping[str, Intrinsic] = MappingProxyType({
    "sqrt": Intrinsic(math.sqrt, 6.0),
    "exp": Intrinsic(math.exp, 10.0),
    "log": Intrinsic(math.log, 10.0),
    "abs": Intrinsic(abs, 1.0),
    "pow": Intrinsic(pow, 12.0),
    "div": Intrinsic(lambda a, b: a / b, 4.0),
    "fmax": Intrinsic(max, 1.0),
    "fmin": Intrinsic(min, 1.0),
    "floor": Intrinsic(math.floor, 1.0),
    "ceil": Intrinsic(math.ceil, 1.0),
    "tanh": Intrinsic(math.tanh, 12.0),
    "select": Intrinsic(lambda cond, then, other: then if cond > 0 else other,
                        1.0),
})


def rebuild(expr: Expr, children: Sequence[Expr]) -> Expr:
    """``expr`` over new direct sub-expressions, built through the folding
    ``make`` constructors so constants re-fold; a leaf comes back as is."""
    if isinstance(expr, (Add, Mul, _Extremum)):
        return type(expr).make(children)
    if isinstance(expr, _Division):
        return type(expr).make(*children)
    if isinstance(expr, Read):
        return Read(expr.array, children)
    if isinstance(expr, Call):
        return Call(expr.func, children)
    return expr


# -- affine decomposition ------------------------------------------------------


def _merge_coeffs(a: Dict[str, Number], b: Dict[str, Number],
                  scale: Number = 1) -> Dict[str, Number]:
    out = dict(a)
    for name, coeff in b.items():
        out[name] = out.get(name, 0) + coeff * scale
    return {name: coeff for name, coeff in out.items() if coeff != 0}


def _affine_decompose(expr: Expr) -> Tuple[Dict[str, Number], Number]:
    if isinstance(expr, Const):
        return {}, expr.value
    if isinstance(expr, Sym):
        return {expr.name: 1}, 0
    if isinstance(expr, Add):
        coeffs: Dict[str, Number] = {}
        const: Number = 0
        for term in expr.terms:
            tc, tk = _affine_decompose(term)
            coeffs = _merge_coeffs(coeffs, tc)
            const += tk
        return coeffs, const
    if isinstance(expr, Mul):
        # A product is affine only if at most one factor is non-constant.
        const_part: Number = 1
        symbolic: Optional[Expr] = None
        for factor in expr.factors:
            if isinstance(factor, Const):
                const_part *= factor.value
            elif symbolic is None:
                symbolic = factor
            else:
                raise _NotAffine()
        if symbolic is None:
            return {}, const_part
        coeffs, const = _affine_decompose(symbolic)
        return ({name: coeff * const_part for name, coeff in coeffs.items()},
                const * const_part)
    raise _NotAffine()


# -- hash-consing -----------------------------------------------------------------

#: The one table of composites: ``(class, payload..., id(child)...)`` -> the
#: instance.  An entry holds its children alive, so no id in a key can be
#: reused while the entry exists.  Bounded; once full, composites are
#: simply not interned.
_COMPOSITES: Dict[tuple, Expr] = {}
_COMPOSITE_LIMIT = 65536


def _admit(key: tuple, expr: Expr) -> Expr:
    """Keep a freshly built composite under ``key`` while there is room; if
    another thread stored one first, that one is the instance."""
    if len(_COMPOSITES) < _COMPOSITE_LIMIT:
        return _COMPOSITES.setdefault(key, expr)
    return expr


# -- convenience constructors --------------------------------------------------

#: Interned leaves.  Loop iterators, size parameters, and small constants
#: recur constantly across programs, so every coercion returns the one
#: canonical instance: equality is an identity hit and the memoized
#: hash/fragment is computed once per distinct leaf, not once per use.
#: The tables are bounded; once full, new leaves are simply not interned.
_SYM_INTERN: Dict[str, Sym] = {}
_CONST_INTERN: Dict[Number, Const] = {}
_INTERN_LIMIT = 4096


def sym(name: str) -> Sym:
    """Create a symbol (interned: repeated names share one instance)."""
    try:
        return _SYM_INTERN[name]
    except KeyError:
        value = Sym(name)
        if isinstance(name, str) and len(_SYM_INTERN) < _INTERN_LIMIT:
            _SYM_INTERN[name] = value
        return value
    except TypeError:  # unhashable name: let the constructor reject it
        return Sym(name)


def const(value: Number) -> Const:
    """Create a constant (interned: repeated values share one instance)."""
    if value is True or value is False:
        return Const(value)  # bools alias 1/0 as dict keys; do not intern
    try:
        return _CONST_INTERN[value]
    except KeyError:
        expr = Const(value)
        if len(_CONST_INTERN) < _INTERN_LIMIT:
            # Key by the *coerced* value so const(2.0) and const(2) agree.
            _CONST_INTERN[expr.value] = expr
        return expr
    except TypeError:
        return Const(value)


def read(array: str, *indices: ExprLike) -> Read:
    """Create an array-element read for use in computation bodies."""
    return Read(array, indices)


def call(func: str, *args: ExprLike) -> Call:
    """Create an intrinsic function call."""
    return Call(func, args)


def minimum(*args: ExprLike) -> Expr:
    return Min.make([_as_expr(a) for a in args])


def maximum(*args: ExprLike) -> Expr:
    return Max.make([_as_expr(a) for a in args])


def as_expr(value: ExprLike) -> Expr:
    """Public coercion helper (ints, floats, and names become expressions)."""
    return _as_expr(value)

"""Lowering of the C-like AST into the symbolic loop-nest IR."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ...ir.builder import ProgramBuilder
from ...ir.nodes import Program
from ...ir.symbols import Call, Expr, Read, const, sym
from .ast import (ArrayRef, Assignment, BinaryOp, CallExpr, Declaration,
                  Expression, ForLoop, Identifier, NumberLiteral,
                  SourceProgram, UnaryOp)
from .parser import parse_source

#: Math functions of the source language mapped to IR intrinsics.
_INTRINSIC_NAMES = {"sqrt", "exp", "log", "pow", "fabs", "fmax", "fmin", "tanh"}
_INTRINSIC_RENAMES = {"fabs": "abs"}


class LoweringError(Exception):
    """Raised when a parsed program cannot be expressed in the loop-nest IR."""


class _Lowerer:
    def __init__(self, source_program: SourceProgram):
        self.source = source_program
        self.builder = ProgramBuilder(source_program.name)
        self.declared: Dict[str, int] = {}
        self.loop_iterators: List[str] = []

    # -- expressions -------------------------------------------------------------

    def lower_index(self, expression: Expression) -> Expr:
        """Lower an expression appearing in a subscript or loop bound."""
        if isinstance(expression, NumberLiteral):
            return const(int(expression.value) if float(expression.value).is_integer()
                         else expression.value)
        if isinstance(expression, Identifier):
            return sym(expression.name)
        if isinstance(expression, UnaryOp):
            return -self.lower_index(expression.operand)
        if isinstance(expression, BinaryOp):
            left = self.lower_index(expression.left)
            right = self.lower_index(expression.right)
            if expression.op == "+":
                return left + right
            if expression.op == "-":
                return left - right
            if expression.op == "*":
                return left * right
            if expression.op == "/":
                return left // right
            if expression.op == "%":
                return left % right
        raise LoweringError(f"unsupported subscript expression: {expression!r}")

    def lower_value(self, expression: Expression) -> Expr:
        """Lower a right-hand-side expression."""
        if isinstance(expression, NumberLiteral):
            return const(expression.value)
        if isinstance(expression, Identifier):
            name = expression.name
            if name in self.loop_iterators:
                return sym(name)
            if name in self.declared and self.declared[name] == 0:
                return Read(name, ())
            # Undeclared plain identifiers are size parameters / symbols.
            return sym(name)
        if isinstance(expression, ArrayRef):
            return Read(expression.name,
                        tuple(self.lower_index(index) for index in expression.indices))
        if isinstance(expression, UnaryOp):
            return -self.lower_value(expression.operand)
        if isinstance(expression, CallExpr):
            func = expression.func
            if func not in _INTRINSIC_NAMES:
                raise LoweringError(f"unknown function {func!r}")
            func = _INTRINSIC_RENAMES.get(func, func)
            return Call(func, tuple(self.lower_value(arg) for arg in expression.args))
        if isinstance(expression, BinaryOp):
            left = self.lower_value(expression.left)
            right = self.lower_value(expression.right)
            if expression.op == "+":
                return left + right
            if expression.op == "-":
                return left - right
            if expression.op == "*":
                return left * right
            if expression.op == "/":
                return Call("div", (left, right))
            if expression.op == "%":
                return left % right
        raise LoweringError(f"unsupported expression: {expression!r}")

    # -- statements ---------------------------------------------------------------

    def lower_declaration(self, declaration: Declaration) -> None:
        if declaration.dimensions:
            shape = tuple(self.lower_index(dim) for dim in declaration.dimensions)
            self.builder.add_array(declaration.name, shape, dtype=declaration.dtype)
        else:
            self.builder.add_scalar(declaration.name, dtype=declaration.dtype)
        self.declared[declaration.name] = len(declaration.dimensions)

    def lower_assignment(self, assignment: Assignment) -> None:
        if assignment.target.name not in self.declared:
            raise LoweringError(
                f"assignment to undeclared container {assignment.target.name!r}")
        indices = tuple(self.lower_index(index) for index in assignment.target.indices)
        target = (assignment.target.name, *indices)
        value = self.lower_value(assignment.value)
        if assignment.op:
            current = Read(assignment.target.name, indices)
            if assignment.op == "+":
                value = current + value
            elif assignment.op == "-":
                value = current - value
            elif assignment.op == "*":
                value = current * value
            elif assignment.op == "/":
                value = Call("div", (current, value))
            else:
                raise LoweringError(f"unsupported compound assignment {assignment.op!r}")
        self.builder.assign(target, value)

    def lower_for(self, loop: ForLoop) -> None:
        start = self.lower_index(loop.start)
        end = self.lower_index(loop.end)
        step = self.lower_index(loop.step)
        with self.builder.loop(loop.iterator, start, end, step):
            self.loop_iterators.append(loop.iterator)
            for statement in loop.body:
                self.lower_statement(statement)
            self.loop_iterators.pop()

    def lower_statement(self, statement) -> None:
        if isinstance(statement, ForLoop):
            self.lower_for(statement)
        elif isinstance(statement, Assignment):
            self.lower_assignment(statement)
        else:
            raise LoweringError(f"unsupported statement {statement!r}")

    def lower(self) -> Program:
        for declaration in self.source.declarations:
            self.lower_declaration(declaration)
        for statement in self.source.statements:
            self.lower_statement(statement)
        return self.builder.finish()


def lower_program(source_program: SourceProgram) -> Program:
    """Lower a parsed translation unit into a loop-nest program."""
    return _Lowerer(source_program).lower()


def parse_clike_program(source: str, name: str = "clike_program") -> Program:
    """Parse C-like source text and lower it into the symbolic loop-nest IR."""
    return lower_program(parse_source(source, name))

"""Codec between wQasm annotation text and FPQA instruction objects.

Annotation syntax follows the grammar of paper Figure 4:

====================  ==========================================
``@slm``              ``[(x0, y0), (x1, y1), ...]``
``@aod``              ``[x0, x1, ...] [y0, y1, ...]``
``@bind``             ``q<id> slm <index>`` or ``q<id> aod <col> <row>``
``@transfer``         ``<slm_index> (<aod_col>, <aod_row>)``
``@shuttle``          ``row|column <index> <offset>[ empty][; <move> ...]``
``@raman``            ``global <x> <y> <z>`` or ``local q<id> <x> <y> <z>``
``@rydberg``          (no arguments)
====================  ==========================================

A :class:`repro.fpqa.ParallelShuttle` serializes as one ``@shuttle``
annotation with its moves joined by ``;`` — the grouping is part of the
program's semantics (a parallel batch executes in one movement step, so
it determines the derived duration and EPS), so the text must preserve
it exactly.  A bare single-move payload is a sequential :class:`Shuttle`.
A move's trailing ``empty`` marks an unloaded (fast) displacement — also
timing-relevant, so it round-trips too; loaded is the unmarked default.
"""

from __future__ import annotations

import ast as python_ast
import re
from typing import Any, TypeVar

from ..exceptions import AnnotationError
from ..fpqa.instructions import (
    AodInit,
    BindAtom,
    FPQAInstruction,
    ParallelShuttle,
    RamanGlobal,
    RamanLocal,
    RydbergPulse,
    Shuttle,
    ShuttleMove,
    SlmInit,
    Transfer,
)
from ..qasm.ast import Annotation

_QUBIT_RE = re.compile(r"^q?(\d+)$")
_AOD_RE = re.compile(r"^(\[.*?\])\s*(\[.*?\])$")
_TRANSFER_RE = re.compile(r"^(\d+)\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")
#: A Python float literal (no underscores) with an optional minus, which
#: ``float(text)`` reads as ``ast.literal_eval`` does.
_FLOAT = r"-?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)"
_SLM_PAIR = rf"\(({_FLOAT}), ({_FLOAT})\)"
#: The ``@slm`` payload as :func:`instruction_to_annotation` writes it
#: (every coordinate a float).  A ``uf100`` program holds ~3000 traps,
#: which ``ast.literal_eval`` reads ~7x slower than these two scans; any
#: other payload still goes through it, with its checks and messages.
_SLM_CANONICAL = re.compile(rf"\[(?:{_SLM_PAIR}(?:, {_SLM_PAIR})*)?\]")
_SLM_PAIR_RE = re.compile(_SLM_PAIR)
_N = TypeVar("_N", int, float)


def _number(value: Any, cast: type[_N], what: str) -> _N:
    """``cast(value)`` for a number read from an annotation payload."""
    try:
        return cast(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise AnnotationError(f"malformed {what} payload: {value!r} is not a number") from exc


def _parse_qubit(token: str, what: str) -> int:
    match = _QUBIT_RE.match(token)
    if not match:
        raise AnnotationError(f"expected a qubit id like 'q3', got {token!r}")
    return _number(match.group(1), int, what)


def _literal(text: str, what: str):
    try:
        return python_ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise AnnotationError(f"malformed {what} payload: {text!r}") from exc


def _move_text(move: ShuttleMove) -> str:
    # The trailing "empty" marks an unloaded (fast) move; loaded is the
    # default so typical payloads stay three tokens.
    suffix = "" if move.loaded else " empty"
    return f"{move.axis} {move.index} {move.offset!r}{suffix}"


def _shuttle_move(chunk: str, content: str) -> ShuttleMove:
    """One move of the ``@shuttle`` payload ``content``."""
    parts = chunk.split()
    loaded = True
    if len(parts) == 4 and parts[3] == "empty":
        loaded = False
        parts = parts[:3]
    if len(parts) != 3 or parts[0] not in ("row", "column"):
        raise AnnotationError(f"malformed @shuttle payload: {content!r}")
    return ShuttleMove(
        parts[0],
        _number(parts[1], int, "@shuttle"),
        _number(parts[2], float, "@shuttle"),
        loaded=loaded,
    )


def annotation_to_instruction(
    annotation: Annotation, moves: dict[str, ShuttleMove] | None = None
) -> FPQAInstruction:
    """Decode one ``@keyword content`` annotation into an instruction.

    Every malformed payload raises :class:`AnnotationError`, including a
    number that does not convert (``@shuttle row 0 abc``).  ``moves``
    memoizes ``@shuttle`` moves by their text across calls (a parse
    passes one table, so a move shared by many batches decodes once).
    """
    keyword = annotation.keyword
    content = annotation.content.strip()
    if keyword == "slm":
        if _SLM_CANONICAL.fullmatch(content):
            return SlmInit(
                tuple([(float(x), float(y)) for x, y in _SLM_PAIR_RE.findall(content)])
            )
        positions = _literal(content, "@slm")
        if not isinstance(positions, (list, tuple)):
            raise AnnotationError(f"@slm expects a coordinate list, got {content!r}")
        coords = []
        for item in positions:
            if not (isinstance(item, tuple) and len(item) == 2):
                raise AnnotationError(f"@slm coordinate {item!r} is not an (x, y) pair")
            coords.append((_number(item[0], float, "@slm"), _number(item[1], float, "@slm")))
        return SlmInit(tuple(coords))
    if keyword == "aod":
        match = _AOD_RE.match(content)
        if not match:
            raise AnnotationError(f"@aod expects two bracketed lists, got {content!r}")
        xs = _literal(match.group(1), "@aod xs")
        ys = _literal(match.group(2), "@aod ys")
        if not (isinstance(xs, list) and isinstance(ys, list)):
            raise AnnotationError(f"@aod expects two bracketed lists, got {content!r}")
        return AodInit(
            tuple(_number(x, float, "@aod") for x in xs),
            tuple(_number(y, float, "@aod") for y in ys),
        )
    if keyword == "bind":
        parts = content.split()
        if len(parts) == 3 and parts[1] == "slm":
            return BindAtom(
                qubit=_parse_qubit(parts[0], "@bind"),
                slm_index=_number(parts[2], int, "@bind"),
            )
        if len(parts) == 4 and parts[1] == "aod":
            return BindAtom(
                qubit=_parse_qubit(parts[0], "@bind"),
                aod_col=_number(parts[2], int, "@bind"),
                aod_row=_number(parts[3], int, "@bind"),
            )
        raise AnnotationError(f"malformed @bind payload: {content!r}")
    if keyword == "transfer":
        match = _TRANSFER_RE.match(content)
        if not match:
            raise AnnotationError(f"malformed @transfer payload: {content!r}")
        return Transfer(
            slm_index=_number(match.group(1), int, "@transfer"),
            aod_col=_number(match.group(2), int, "@transfer"),
            aod_row=_number(match.group(3), int, "@transfer"),
        )
    if keyword == "shuttle":
        if moves is None:
            moves = {}
        batch = []
        for chunk in content.split(";"):
            move = moves.get(chunk)
            if move is None:
                move = moves[chunk] = _shuttle_move(chunk, content)
            batch.append(move)
        if len(batch) == 1:
            return Shuttle(batch[0])
        return ParallelShuttle(tuple(batch))
    if keyword == "raman":
        parts = content.split()
        if len(parts) == 4 and parts[0] == "global":
            return RamanGlobal(*(_number(part, float, "@raman") for part in parts[1:]))
        if len(parts) == 5 and parts[0] == "local":
            return RamanLocal(
                _parse_qubit(parts[1], "@raman"),
                *(_number(part, float, "@raman") for part in parts[2:]),
            )
        raise AnnotationError(f"malformed @raman payload: {content!r}")
    if keyword == "rydberg":
        if content:
            raise AnnotationError(f"@rydberg takes no arguments, got {content!r}")
        return RydbergPulse()
    raise AnnotationError(f"unknown wQasm annotation @{keyword}")


def instruction_to_annotation(instruction: FPQAInstruction) -> list[Annotation]:
    """Encode an instruction as one or more annotations (inverse codec)."""
    if isinstance(instruction, SlmInit):
        body = ", ".join(f"({x!r}, {y!r})" for x, y in instruction.positions)
        return [Annotation("slm", f"[{body}]")]
    if isinstance(instruction, AodInit):
        xs = "[" + ", ".join(repr(x) for x in instruction.xs) + "]"
        ys = "[" + ", ".join(repr(y) for y in instruction.ys) + "]"
        return [Annotation("aod", f"{xs} {ys}")]
    if isinstance(instruction, BindAtom):
        if instruction.slm_index is not None:
            return [Annotation("bind", f"q{instruction.qubit} slm {instruction.slm_index}")]
        return [
            Annotation(
                "bind",
                f"q{instruction.qubit} aod {instruction.aod_col} {instruction.aod_row}",
            )
        ]
    if isinstance(instruction, Transfer):
        return [
            Annotation(
                "transfer",
                f"{instruction.slm_index} ({instruction.aod_col}, {instruction.aod_row})",
            )
        ]
    if isinstance(instruction, Shuttle):
        return [Annotation("shuttle", _move_text(instruction.move))]
    if isinstance(instruction, ParallelShuttle):
        body = "; ".join(_move_text(m) for m in instruction.moves)
        return [Annotation("shuttle", body)]
    if isinstance(instruction, RamanLocal):
        return [
            Annotation(
                "raman",
                f"local q{instruction.qubit} {instruction.x!r} {instruction.y!r} {instruction.z!r}",
            )
        ]
    if isinstance(instruction, RamanGlobal):
        return [
            Annotation("raman", f"global {instruction.x!r} {instruction.y!r} {instruction.z!r}")
        ]
    if isinstance(instruction, RydbergPulse):
        return [Annotation("rydberg", "")]
    raise AnnotationError(f"cannot serialize instruction {instruction!r}")

"""PKT001: packet-layer byte-length and checksum-neutrality invariants.

The Yarrp6 stateless design hangs on byte-exact packet contracts: a
header class whose ``HEADER_LENGTH`` disagrees with the struct format
its ``pack()`` emits corrupts every downstream offset, and the 12-byte
probe payload (magic + instance + TTL + elapsed + fudge) is the decode
contract for *every* response.  Those constants live far from the pack
formats they must match; this rule pins them together.

Checks, per module:

* **header classes** — when a module defines ``HEADER_LENGTH`` and one
  class with a ``pack()`` method whose return value is a concatenation
  of ``struct.pack("<literal>", ...)`` calls and 16-byte
  ``address.to_bytes(...)`` terms, the computed byte length must equal
  ``HEADER_LENGTH``.  A module-level ``NAME = struct.Struct("<literal>")``
  is followed: ``NAME.pack(...)`` counts as ``struct.pack`` of that
  format, ``NAME.unpack(...)`` / ``NAME.unpack_from(...)`` as
  ``struct.unpack``.
* **the encoding module** (recognized by defining both
  ``PAYLOAD_LENGTH`` and ``MAGIC``):

  - ``PAYLOAD_LENGTH`` must equal the payload-builder's packed head plus
    its ``fudge.to_bytes(n, ...)`` tail;
  - some ``struct.unpack`` in the module must read exactly the packed
    head back (pack/decode format drift);
  - ``MAGIC`` must fit 4 bytes, ``DEST_PORT`` and ``TARGET_SUM`` 2 bytes
    (``TARGET_SUM`` is the one's-complement constant every probe's
    checksummed region is steered to — checksum neutrality needs it
    representable in 16 bits);
  - every ``checksum = ...`` assignment must be the complement pattern
    ``(~X) & 0xFFFF`` — emitting anything else breaks the per-target
    constant-checksum (Paris traceroute) property.
"""

from __future__ import annotations

import ast
import struct
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core import Program, SourceFile, Violation
from ..index import Scope, dotted_name, int_constant, str_constant

RULE = "PKT001"
DESCRIPTION = (
    "packet byte-length constants must match their struct formats; "
    "emitted checksums must be one's-complement neutral"
)

ADDRESS_BYTES = 16  # an IPv6 address serialized by address.to_bytes


def _module_int_constants(tree: ast.Module) -> Dict[str, int]:
    constants: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = int_constant(node.value)
            if isinstance(target, ast.Name) and value is not None:
                constants[target.id] = value
    return constants


def _calcsize(format_string: str) -> Optional[int]:
    try:
        return struct.calcsize(format_string)
    except struct.error:
        return None


def _module_structs(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = struct.Struct("<literal>")`` -> format."""
    structs: Dict[str, str] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and dotted_name(node.value.func) == "struct.Struct"
            and node.value.args
        ):
            format_string = str_constant(node.value.args[0])
            if format_string is not None:
                structs[node.targets[0].id] = format_string
    return structs


#: Method names of a precompiled ``struct.Struct`` per module function.
_STRUCT_METHODS = {"pack": ("pack",), "unpack": ("unpack", "unpack_from")}


def _call_format(
    node: ast.Call, function: str, structs: Dict[str, str]
) -> Optional[str]:
    """Format of a ``struct.<function>("<literal>", ...)`` call or of the
    same operation on a precompiled module-level struct, else None."""
    name = dotted_name(node.func)
    if name == "struct.%s" % function:
        return str_constant(node.args[0]) if node.args else None
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _STRUCT_METHODS[function]
        and isinstance(node.func.value, ast.Name)
    ):
        return structs.get(node.func.value.id)
    return None


def _packed_size(node: ast.AST, structs: Dict[str, str]) -> Optional[int]:
    """Byte length of an expression built from struct.pack literals,
    ``address.to_bytes(...)`` terms and their concatenation; None when
    any term's size is not statically known."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _packed_size(node.left, structs)
        right = _packed_size(node.right, structs)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(node, ast.Call):
        format_string = _call_format(node, "pack", structs)
        if format_string is not None:
            return _calcsize(format_string)
        if dotted_name(node.func) == "address.to_bytes":
            return ADDRESS_BYTES
        if isinstance(node.func, ast.Attribute) and node.func.attr == "to_bytes":
            return int_constant(node.args[0]) if node.args else None
    if isinstance(node, ast.Constant) and isinstance(node.value, bytes):
        return len(node.value)
    return None


def _struct_call_formats(
    calls: Iterable[ast.Call], function: str, structs: Dict[str, str]
) -> Iterator[Tuple[ast.Call, str]]:
    """Every (call, format) of the given struct operation among ``calls``."""
    for node in calls:
        format_string = _call_format(node, function, structs)
        if format_string is not None:
            yield node, format_string


def _calls_under(scope: Scope) -> List[ast.Call]:
    """Every call in ``scope`` and the scopes nested in it."""
    return [
        site.node
        for nested in scope.walk()
        for site in nested.own
        if isinstance(site.node, ast.Call)
    ]


def check(program: Program) -> List[Violation]:
    violations: List[Violation] = []
    for file in program.files:
        constants = _module_int_constants(file.tree)
        if "HEADER_LENGTH" in constants:
            violations.extend(_check_header_classes(file, constants["HEADER_LENGTH"]))
        if "PAYLOAD_LENGTH" in constants and "MAGIC" in constants:
            violations.extend(_check_encoding_module(file, constants))
    return violations


# -- header classes -------------------------------------------------------


def _check_header_classes(file: SourceFile, header_length: int) -> Iterator[Violation]:
    """Every ``return`` of a class's ``pack()`` method emits HEADER_LENGTH bytes."""
    structs = _module_structs(file.tree)
    for site in file.index.of(ast.Return):
        method, owner = site.scope.node, site.scope.parent
        if not (
            isinstance(method, ast.FunctionDef)
            and method.name == "pack"
            and site.scope.method
            and site.node.value is not None
        ):
            continue
        size = _packed_size(site.node.value, structs)
        if size is not None and size != header_length:
            yield Violation.at(
                RULE,
                file.path,
                site.node,
                "%s.pack() emits %d bytes but HEADER_LENGTH is %d"
                % (owner.node.name, size, header_length),
            )


# -- the Yarrp6 encoding module -------------------------------------------


def _check_encoding_module(
    file: SourceFile, constants: Dict[str, int]
) -> Iterator[Violation]:
    structs = _module_structs(file.tree)
    payload_length = constants["PAYLOAD_LENGTH"]
    head_size = _payload_head_size(file, structs)
    if head_size is not None:
        head_format, head_bytes, fudge_bytes, pack_node = head_size
        if head_bytes + fudge_bytes != payload_length:
            yield Violation.at(
                RULE,
                file.path,
                pack_node,
                "payload head %r (%d B) + fudge (%d B) != PAYLOAD_LENGTH "
                "(%d) — the 12-byte probe encoding contract is broken"
                % (head_format, head_bytes, fudge_bytes, payload_length),
            )
        elif not any(
            _calcsize(format_string) == head_bytes
            for _, format_string in _struct_call_formats(
                _calls_under(file.index.module), "unpack", structs
            )
        ):
            yield Violation.at(
                RULE,
                file.path,
                pack_node,
                "no struct.unpack in this module reads the %d-byte packed "
                "head back — pack/decode format drift" % head_bytes,
            )
    for name, limit in (
        ("MAGIC", 0xFFFFFFFF),
        ("DEST_PORT", 0xFFFF),
        ("TARGET_SUM", 0xFFFF),
    ):
        value = constants.get(name)
        if value is not None and not 0 <= value <= limit:
            yield from _constant_violation(file, name, value, limit)
    yield from _check_checksum_neutrality(file)


def _constant_violation(
    file: SourceFile, name: str, value: int, limit: int
) -> Iterator[Violation]:
    for node in file.tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == name
        ):
            yield Violation.at(
                RULE,
                file.path,
                node,
                "%s = %#x does not fit its %d-byte wire field"
                % (name, value, limit.bit_length() // 8),
            )


def _payload_head_size(file: SourceFile, structs: Dict[str, str]):
    """(format, head bytes, fudge bytes, pack node) from the payload
    builder: the function that both struct.packs a head and returns
    ``head + <fudge>.to_bytes(n, ...)``."""
    for scope in file.index.scopes:
        if not isinstance(scope.node, ast.FunctionDef):
            continue
        calls = _calls_under(scope)
        packs = list(_struct_call_formats(calls, "pack", structs))
        if len(packs) != 1:
            continue
        pack_node, format_string = packs[0]
        fudge_bytes = None
        for call in calls:
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "to_bytes"
                and call.args
            ):
                fudge_bytes = int_constant(call.args[0])
        if fudge_bytes is None:
            continue
        head_bytes = _calcsize(format_string)
        if head_bytes is None:
            continue
        return format_string, head_bytes, fudge_bytes, pack_node
    return None


def _check_checksum_neutrality(file: SourceFile) -> Iterator[Violation]:
    for site in file.index.of(ast.Assign):
        node = site.node
        if len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name) and target.id == "checksum"):
            continue
        if not _is_complement_pattern(node.value):
            yield Violation.at(
                RULE,
                file.path,
                node,
                "checksum must be emitted as the one's complement "
                "'(~steered_sum) & 0xFFFF'; any other expression breaks "
                "per-target checksum constancy (Paris/ECMP neutrality)",
            )


def _is_complement_pattern(node: ast.AST) -> bool:
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitAnd)
        and int_constant(node.right) == 0xFFFF
    ):
        inner = node.left
        while isinstance(inner, ast.BinOp) or (
            isinstance(inner, ast.UnaryOp) and isinstance(inner.op, ast.Invert)
        ):
            if isinstance(inner, ast.UnaryOp):
                return True
            inner = inner.left
    return False

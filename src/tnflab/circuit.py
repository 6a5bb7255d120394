"""Tensor networks that encode classical computation.

Two wire families share one DAG container; every gate kind is defined once
in ``_GATES`` (arity, wire kinds, defining tensor):

* bit legs (extent 2, basis semantics): binary logic circuits built from
  XOR/AND/OR gates and the copy tensor. Basis vectors in keep every
  intermediate a basis vector, so :func:`eval_binary` carries one bit per
  wire and looks each gate up in a truth table read off its tensor, linear
  in the gate count.
* amplitude legs (extent 2, ``(1, x)`` semantics): arithmetic circuits
  where addition and multiplication are (2,2,2) tensors acting on encoded
  reals, contracted by :func:`eval_amp_circuit` through their nonzero
  entries on a float pair per wire, plus variable legs carrying
  discretized grid indices with their own copy tensor.

Wires have a single producer. Bit wires also have a single consumer, with
fan-out realized by explicit copy nodes; amplitude wires may feed several
consumers, standing for the formally duplicated subgraphs that memoized
evaluation contracts only once.

A graph compiles each evaluator's program once, on its first evaluation, into
500-node straight-line Python blocks (25-35 us per node, 0.3 s for 10,000) that
take the operands and return the outputs: a graph of at most 500 nodes is one call.
"""
from __future__ import annotations

import json
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import GraphError, InvariantError, NumericalAbortError, RepresentationError

__all__ = [
    "GateKind",
    "gate_tensor",
    "BitVec",
    "Node",
    "CircuitGraph",
    "CircuitBuilder",
    "build_half_adder",
    "build_full_adder",
    "build_adder",
    "build_multiplier",
    "build_square",
    "eval_binary",
    "float_encode",
    "float_decode",
    "build_amp_function",
    "FnnSpec",
    "compile_fnn",
    "eval_amp_circuit",
    "EvalStats",
]


class GateKind(Enum):
    XOR = "xor"
    AND = "and"
    OR = "or"
    DELTA = "delta"
    PLUS = "plus"
    TIMES = "times"
    CONST_BIT = "const_bit"
    CONST_FLOAT = "const_float"
    FUNC = "func"
    VAR_COPY = "var_copy"
    __hash__ = object.__hash__  # members are singletons; keeps ``_GATES`` lookups out of Python code


def _logic_tensor(entries) -> np.ndarray:
    t = np.zeros((2, 2, 2))
    for idx in entries:
        t[idx] = 1.0
    t.setflags(write=False)
    return t


class _FiniteReals:
    """Payloads of a real constant: an int or float within float range (no NaN or inf), not a bool."""

    def __contains__(self, x) -> bool:
        return type(x) is not bool and isinstance(x, (int, float)) and abs(x) <= sys.float_info.max

    def __repr__(self) -> str:
        return "the finite reals"


_FINITE_REALS = _FiniteReals()


class _Gate(NamedTuple):
    """Arity, wire kinds, defining tensor (output last) and, if restricted, payloads."""

    n_in: int
    n_out: int
    in_kind: str | None
    out_kind: str
    tensor: np.ndarray | None = None
    payloads: tuple | _FiniteReals | None = None


_GATES = {
    GateKind.XOR: _Gate(2, 1, "bit", "bit", _logic_tensor([(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0)])),
    GateKind.AND: _Gate(2, 1, "bit", "bit", _logic_tensor([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)])),
    GateKind.OR: _Gate(2, 1, "bit", "bit", _logic_tensor([(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)])),
    GateKind.DELTA: _Gate(1, 2, "bit", "bit", _logic_tensor([(0, 0, 0), (1, 1, 1)])),
    # (1, x) (+) (1, y) = (1, x + y): the x*y entry (1, 1, *) is dropped.
    GateKind.PLUS: _Gate(2, 1, "amp", "amp", _logic_tensor([(0, 0, 0), (1, 0, 1), (0, 1, 1)])),
    GateKind.TIMES: _Gate(2, 1, "amp", "amp", _logic_tensor([(0, 0, 0), (1, 1, 1)])),
    GateKind.CONST_BIT: _Gate(0, 1, None, "bit", payloads=(0, 1)),
    GateKind.CONST_FLOAT: _Gate(0, 1, None, "amp", payloads=_FINITE_REALS),
    GateKind.FUNC: _Gate(1, 1, "var", "amp"),
    GateKind.VAR_COPY: _Gate(1, 2, "var", "var"),
}


def gate_tensor(kind: GateKind, payload=None) -> np.ndarray:
    """A copy of the defining tensor of a gate.

    Logic gates and the arithmetic (+)/(x) tensors are (2,2,2) with the
    output on the last index; constants are length-2 vectors (a basis vector
    for bits, ``(1, x)`` for reals).
    """
    if kind == GateKind.CONST_BIT:
        v = np.zeros(2)
        v[int(payload)] = 1.0
        return v
    if kind == GateKind.CONST_FLOAT:
        return float_encode(payload)
    tensor = _GATES[kind].tensor
    if tensor is None:
        raise ValueError(f"{kind} has no fixed tensor")
    return tensor.copy()


_BYTE_BITS = tuple(tuple((v >> i) & 1 for i in range(8)) for v in range(256))  # little-endian


@dataclass(frozen=True)
class BitVec:
    """Little-endian bit string: bit i weighs 2^i."""

    bits: tuple[int, ...]

    def __post_init__(self):
        # One C-level pass with the rule of ``b in (0, 1)``: each bit compares equal to 0 or 1.
        if self.bits.count(0) + self.bits.count(1) != len(self.bits):
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def from_int(cls, value: int, n_bits: int) -> "BitVec":
        if value < 0 or value >= (1 << n_bits):
            raise ValueError(f"{value} does not fit in {n_bits} bits")
        if n_bits <= 8:
            return cls(_BYTE_BITS[value][:n_bits])
        return cls(sum((_BYTE_BITS[(value >> s) & 255] for s in range(0, n_bits, 8)), ())[:n_bits])

    def to_int(self) -> int:
        x = 0
        for b in reversed(self.bits):
            x = x + x + b
        return operator.index(x)  # a float bit raises TypeError

    def __len__(self) -> int:
        return len(self.bits)


def _bitvec(bits: tuple[int, ...]) -> BitVec:
    """A :class:`BitVec` of bits already known to be 0 or 1, built without the check."""
    vec = object.__new__(BitVec)
    object.__setattr__(vec, "bits", bits)
    return vec


class Node(NamedTuple):
    kind: GateKind
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    payload: object = None


def _check_node(node: Node, wire_types: Sequence[str], var_grids: Mapping) -> tuple[_Gate, Node]:
    """The one node rule (arity, wire kinds, payload, variable grids, finite ``func`` table
    entries) from ``_GATES``; returns the gate and the node as a graph holds it (a ``func``
    table as row tuples)."""
    gate = _GATES[node.kind]
    if len(node.inputs) != gate.n_in or len(node.outputs) != gate.n_out:
        raise GraphError(f"{node.kind} takes {gate.n_in} inputs and {gate.n_out} outputs")
    for w in node.inputs:
        if wire_types[w] != gate.in_kind:
            raise GraphError(f"{node.kind} reads {gate.in_kind} wires; wire {w} is not one")
    for w in node.outputs:
        if wire_types[w] != gate.out_kind:
            raise GraphError(f"{node.kind} writes {gate.out_kind} wires; wire {w} is not one")
    if gate.payloads is not None and node.payload not in gate.payloads:
        raise GraphError(f"{node.kind} payload {node.payload!r} is not in {gate.payloads}")
    if gate.payloads is None and node.kind != GateKind.FUNC and node.payload is not None:
        raise GraphError(f"{node.kind} takes no payload, got {node.payload!r}")
    if gate.in_kind != "var":
        return gate, node
    grid = var_grids.get(node.inputs[0])
    if any(var_grids.get(w, grid) != grid for w in node.outputs):
        raise GraphError(f"{node.kind} copies a grid of {grid} points to a different grid")
    if node.kind == GateKind.FUNC:
        try:
            table = np.array(node.payload, dtype=float)
        except (TypeError, ValueError):
            table = None
        if table is None or table.shape != (grid, 2):
            raise GraphError(f"function table must have shape ({grid}, 2), the variable's grid")
        rows = tuple(map(tuple, table.tolist()))
        if not all(x in _FINITE_REALS for row in rows for x in row):
            raise GraphError("function table entries must be finite reals")
        node = Node(node.kind, node.inputs, node.outputs, rows)
    return gate, node


def _truth_table(tensor: np.ndarray, n_in: int):
    """``table[b0][b1]...``: the output bits a gate writes for input bits
    ``b0, b1, ...``, or None where its tensor's slice is not one-hot."""
    if n_in:
        return tuple(_truth_table(tensor[b], n_in - 1) for b in (0, 1))
    hot = tensor.nonzero()
    if len(hot[0]) != 1 or tensor[hot][0] != 1.0:
        return None
    return tuple(int(i[0]) for i in hot)


def _wire_ids(ids) -> tuple[int, ...]:
    """Wire ids as plain ints (``operator.index``); any other id raises :class:`GraphError`."""
    try:
        return tuple(map(operator.index, ids))
    except TypeError:
        raise GraphError(f"wire ids must be integers, got {ids!r}") from None


@dataclass(frozen=True)
class CircuitGraph:
    """Immutable directed acyclic gate graph with typed wires, checked once
    when it is made: every ``CircuitGraph`` that exists is valid.

    ``input_groups``/``output_groups`` hold one tuple of wire ids per
    logical operand (a bit string, a real, a variable); ``var_grids`` is a
    read-only map from each variable wire to its grid length.
    """

    nodes: tuple[Node, ...]
    wire_types: tuple[str, ...]
    input_groups: tuple[tuple[int, ...], ...]
    output_groups: tuple[tuple[int, ...], ...]
    var_grids: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "wire_types", tuple(self.wire_types))
        nodes = tuple(self.nodes)
        ids = chain.from_iterable(chain.from_iterable(map(operator.attrgetter("inputs", "outputs"), nodes)))
        if not set(map(type, ids)) <= {int}:  # one C-level pass; rebuilding every node costs more
            nodes = tuple(Node(n.kind, _wire_ids(n.inputs), _wire_ids(n.outputs), n.payload) for n in nodes)
        for name in ("input_groups", "output_groups"):
            object.__setattr__(self, name, tuple(map(_wire_ids, getattr(self, name))))
        grids = dict(zip(_wire_ids(self.var_grids), self.var_grids.values()))
        object.__setattr__(self, "var_grids", MappingProxyType(grids))
        wires = range(len(self.wire_types))
        for w, kind in enumerate(self.wire_types):
            if kind == "var" and w not in self.var_grids:
                raise GraphError(f"variable wire {w} has no grid")
        produced = {w for g in self.input_groups for w in g}
        for w in produced:
            if w not in wires:
                raise GraphError(f"input wire {w} is not a wire of the graph")
        bit_reads: list[int] = []
        checked = []
        for node in nodes:
            for w in node.inputs:
                if w not in produced:
                    raise GraphError(f"wire {w} consumed before production (cycle or unbound)")
            for w in node.outputs:
                if w in produced or w not in wires:
                    raise GraphError(f"wire {w} produced twice or not a wire of the graph")
                produced.add(w)
            gate, node = _check_node(node, self.wire_types, self.var_grids)
            checked.append(node)
            if gate.in_kind == "bit":
                bit_reads.extend(node.inputs)
        object.__setattr__(self, "nodes", tuple(checked))
        for g in self.output_groups:
            for w in g:
                if w not in produced:
                    raise GraphError(f"output wire {w} never produced")
        if len(set(bit_reads)) < len(bit_reads):
            w, count = Counter(bit_reads).most_common(1)[0]
            raise GraphError(f"bit wire {w} has {count} consumers; copy tensors realize fan-out")

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "wire_types": self.wire_types,
                "nodes": [
                    {
                        "kind": n.kind.value,
                        "inputs": list(n.inputs),
                        "outputs": list(n.outputs),
                        "payload": n.payload,
                    }
                    for n in self.nodes
                ],
                "input_groups": self.input_groups,
                "output_groups": self.output_groups,
                "var_grids": {str(k): v for k, v in self.var_grids.items()},
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CircuitGraph":
        data = json.loads(text)
        if data.get("version") != 1:
            raise ValueError(f"unsupported circuit version {data.get('version')}")
        return cls(
            nodes=[
                Node(GateKind(n["kind"]), tuple(n["inputs"]), tuple(n["outputs"]), n["payload"])
                for n in data["nodes"]
            ],
            wire_types=data["wire_types"],
            input_groups=data["input_groups"],
            output_groups=data["output_groups"],
            var_grids={int(k): v for k, v in data.get("var_grids", {}).items()},
        )

    @cached_property
    def _binary_program(self) -> tuple:
        """Every node as straight-line blocks (:func:`_straight_line`) on bit inputs: a
        gate unpacks its output bits from a truth table read off its tensor once per kind
        (a constant's is its one row), indexed by its input bits, after a check that
        raises :class:`InvariantError` if the table has a slice that is not one-hot."""
        if any(self.wire_types[w] != "bit" for group in self.input_groups for w in group):
            raise GraphError("binary circuits take bit inputs only")
        namespace: dict = {"InvariantError": InvariantError}
        tables: dict = {}

        def lines(k: int, node: Node) -> list[str]:
            gate = _GATES[node.kind]
            if gate.out_kind != "bit":
                raise GraphError(f"{node.kind} is not a binary-circuit gate")
            key = int(node.payload) if node.kind == GateKind.CONST_BIT else node.kind
            if key not in tables:
                table = (key,) if node.kind == GateKind.CONST_BIT else _truth_table(gate.tensor, gate.n_in)
                rows = [table]
                for _ in range(gate.n_in):  # down to the rows, None where a slice is not one-hot
                    rows = [row for t in rows for row in t]
                tables[key] = f"T{len(tables)}", None in rows
                namespace[tables[key][0]] = table
            name, checked = tables[key]
            row = name + "".join(f"[w{w:d}]" for w in node.inputs)
            check = [f"if {row} is None: raise InvariantError('non-basis intermediate in binary evaluation')"]
            return check * checked + [f"{''.join(f'w{w:d}, ' for w in node.outputs)}= {row}"]

        return _straight_line(self, self.nodes, lines, namespace)

    @cached_property
    def _amp_program(self) -> tuple:
        """The nodes the outputs reach, in order, as straight-line blocks (see
        :func:`_straight_line`) compiled once, about 30 us per node, and their
        count; a constant's pair and a ``func`` node's rows reach them by name."""
        if any(len(group) != 1 or self.wire_types[group[0]] != "amp" for group in self.output_groups):
            raise GraphError("amp circuits produce one amp wire per output group")
        needed = {w for (w,) in self.output_groups}
        reached = []
        for node in reversed(self.nodes):
            if not needed.isdisjoint(node.outputs):
                if _GATES[node.kind].out_kind == "bit":
                    raise GraphError(f"{node.kind} is not an amplitude-circuit gate")
                needed.update(node.inputs)
                reached.append(node)
        del needed  # freed before the compile, whose peak it would raise
        reached.reverse()
        namespace: dict = {}

        def lines(k: int, node: Node) -> list[str]:
            o, (x, y) = node.outputs[0], (*node.inputs, None, None)[:2]
            if node.kind in (GateKind.PLUS, GateKind.TIMES):
                value = (f"w{x:d}_0 * w{y:d}_1 + w{x:d}_1 * w{y:d}_0" if node.kind is GateKind.PLUS
                         else f"w{x:d}_1 * w{y:d}_1")
                return [f"w{o:d}_0 = 0.0 + w{x:d}_0 * w{y:d}_0", f"w{o:d}_1 = 0.0 + {value}"]
            if node.kind is GateKind.VAR_COPY:
                return [f"w{o:d} = w{node.outputs[1]:d} = w{x:d}"]
            # a constant's pair, or a func node's row at its grid index
            namespace[f"c{k}"] = (1.0, float(node.payload)) if x is None else node.payload
            return [f"w{o:d}_0, w{o:d}_1 = c{k}" + "".join(f"[w{w:d}]" for w in node.inputs)]

        return _straight_line(self, reached, lines, namespace), len(reached)

    @cached_property
    def _tree_contractions(self) -> int:
        """Contractions of the formal expanded tree, each node once per path from the
        outputs, summed in reverse topological order over the wires still to be reached."""
        paths, total = Counter(w for (w,) in self.output_groups), 0
        for node in reversed(self.nodes):
            count = sum(paths.pop(w, 0) for w in node.outputs)
            total += count
            for w in node.inputs if count else ():
                paths[w] += count
        return total


# Nodes per compiled block: CPython compiles a function in super-linear time and memory.
_BLOCK_NODES = 500


def _straight_line(graph: CircuitGraph, nodes: Sequence[Node], lines, namespace: dict) -> tuple:
    """One function per ``_BLOCK_NODES`` nodes (one for none), each compiled before the next
    one's source is made from ``lines(k, node)``, node ``k``'s statements. Wire ``w`` is the
    local ``w<w>``, or ``w<w>_0, w<w>_1`` for an amp wire's ``(lead, value)`` pair. The first
    block takes one operand per input group and unpacks it; the last returns the output
    groups as tuples. Between blocks, a list indexed by wire id holds the wires a later
    block reads. Only wire ids (as ints) and namespace names are formatted into the source."""
    n_blocks = max(1, -(-len(nodes) // _BLOCK_NODES))
    outputs = [w for group in graph.output_groups for w in group]
    last_read = [0] * len(graph.wire_types)  # the last block that reads each wire
    for k, node in enumerate(nodes):
        for w in node.inputs:
            last_read[w] = k // _BLOCK_NODES
    for w in outputs:
        last_read[w] = n_blocks - 1

    def local(w: int) -> str:
        return f"w{w:d}_0, w{w:d}_1" if graph.wire_types[w] == "amp" else f"w{w:d}"

    def locals_tuple(group) -> str:
        return "(" + "".join(f"{local(w)}, " for w in group) + ")"

    functions = []
    for b in range(n_blocks):
        block = nodes[b * _BLOCK_NODES : (b + 1) * _BLOCK_NODES]
        entry = graph.input_groups if b == 0 else ()
        made = dict.fromkeys([w for group in entry for w in group] + [w for node in block for w in node.outputs])
        reads = [w for node in block for w in node.inputs] + (outputs if b == n_blocks - 1 else [])
        body = [f"{locals_tuple(group)} = x{i}" for i, group in enumerate(entry)]
        body += [f"{local(w)} = v[{w:d}]" for w in dict.fromkeys(reads) if w not in made]
        body += [line for k, node in enumerate(block, b * _BLOCK_NODES) for line in lines(k, node)]
        if b == n_blocks - 1:
            body.append(f"return ({''.join(locals_tuple(group) + ', ' for group in graph.output_groups)})")
        else:
            body += [f"v = [None] * {len(graph.wire_types):d}"] * (b == 0)
            body += [f"v[{w:d}] = {local(w)}" for w in made if last_read[w] > b] + ["return v"]
        params = ", ".join(f"x{i}" for i in range(len(entry))) if b == 0 else "v"
        source = f"def block({params}):\n    " + "\n    ".join(body)
        exec(compile(source, f"<circuit block {b}>", "exec"), namespace)
        functions.append(namespace.pop("block"))
    return tuple(functions)


class CircuitBuilder:
    """Appends nodes in topological order; wires are created before use."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.wire_types: list[str] = []
        self.input_groups: list[list[int]] = []
        self.var_grids: dict[int, int] = {}

    def _wire(self, kind: str) -> int:
        self.wire_types.append(kind)
        return len(self.wire_types) - 1

    def input_bits(self, n: int) -> list[int]:
        wires = [self._wire("bit") for _ in range(n)]
        self.input_groups.append(list(wires))
        return wires

    def input_amp(self) -> int:
        w = self._wire("amp")
        self.input_groups.append([w])
        return w

    def input_var(self, grid_len: int) -> int:
        w = self._wire("var")
        self.var_grids[w] = grid_len
        self.input_groups.append([w])
        return w

    def add(self, kind: GateKind, inputs: Sequence[int], payload=None) -> list[int]:
        gate = _GATES[kind]
        outs = [self._wire(gate.out_kind) for _ in range(gate.n_out)]
        node = Node(kind, tuple(inputs), tuple(outs), payload)
        _, node = _check_node(node, self.wire_types, self.var_grids)
        if kind == GateKind.VAR_COPY:
            g = self.var_grids[inputs[0]]
            for w in outs:
                self.var_grids[w] = g
        self.nodes.append(node)
        return outs

    # Convenience spellings for the common gates.
    def xor(self, a, b):
        return self.add(GateKind.XOR, [a, b])[0]

    def and_(self, a, b):
        return self.add(GateKind.AND, [a, b])[0]

    def or_(self, a, b):
        return self.add(GateKind.OR, [a, b])[0]

    def delta(self, a):
        return tuple(self.add(GateKind.DELTA, [a]))

    def plus(self, a, b):
        return self.add(GateKind.PLUS, [a, b])[0]

    def times(self, a, b):
        return self.add(GateKind.TIMES, [a, b])[0]

    def const_bit(self, b):
        return self.add(GateKind.CONST_BIT, [], payload=int(b))[0]

    def const_float(self, x):
        return self.add(GateKind.CONST_FLOAT, [], payload=float(x))[0]

    def func(self, table, var_wire):
        return self.add(GateKind.FUNC, [var_wire], payload=table)[0]

    def var_copy(self, v):
        return tuple(self.add(GateKind.VAR_COPY, [v]))

    def copies(self, wire: int, k: int) -> list[int]:
        """k usable copies of a bit or variable wire via a copy-tensor chain."""
        if k < 1:
            raise GraphError("need at least one copy")
        if k == 1:
            return [wire]
        maker = self.delta if self.wire_types[wire] == "bit" else self.var_copy
        outs = []
        for _ in range(k - 1):
            a, wire = maker(wire)
            outs.append(a)
        return outs + [wire]

    def finish(self, output_groups: list[list[int]]) -> CircuitGraph:
        """The graph of the nodes added so far; later calls do not change it."""
        return CircuitGraph(
            self.nodes, self.wire_types, self.input_groups, output_groups, self.var_grids
        )


# ---------------------------------------------------------------------------
# Binary arithmetic builders


def _half_adder(b: CircuitBuilder, x: int, y: int) -> tuple[int, int]:
    x1, x2 = b.delta(x)
    y1, y2 = b.delta(y)
    return b.xor(x1, y1), b.and_(x2, y2)


def _full_adder(b: CircuitBuilder, cin: int, x: int, y: int) -> tuple[int, int]:
    s1, c1 = _half_adder(b, x, y)
    s, c2 = _half_adder(b, cin, s1)
    return s, b.or_(c1, c2)


def build_half_adder() -> CircuitGraph:
    """Two bits in, (sum, carry) out."""
    b = CircuitBuilder()
    (x,) = b.input_bits(1)
    (y,) = b.input_bits(1)
    s, c = _half_adder(b, x, y)
    return b.finish([[s], [c]])


def build_full_adder() -> CircuitGraph:
    """(carry-in, x, y) in, (sum, carry) out."""
    b = CircuitBuilder()
    (cin,) = b.input_bits(1)
    (x,) = b.input_bits(1)
    (y,) = b.input_bits(1)
    s, c = _full_adder(b, cin, x, y)
    return b.finish([[s], [c]])


def _ripple_add(b: CircuitBuilder, xs: list[int], ys: list[int]) -> list[int]:
    """Sum of two equal-width bit strings, width+1 output bits."""
    if len(xs) != len(ys):
        raise GraphError("ripple adder needs equal widths")
    s, carry = _half_adder(b, xs[0], ys[0])
    out = [s]
    for x, y in zip(xs[1:], ys[1:]):
        s, carry = _full_adder(b, carry, x, y)
        out.append(s)
    return out + [carry]


def build_adder(n_bits: int) -> CircuitGraph:
    """Ripple adder: one half adder then n-1 full adders; n+1 output bits."""
    if n_bits < 1:
        raise ValueError("need at least one bit")
    b = CircuitBuilder()
    xs = b.input_bits(n_bits)
    ys = b.input_bits(n_bits)
    return b.finish([_ripple_add(b, xs, ys)])


def _shifted_accumulate(b: CircuitBuilder, rows: list[list[int]]) -> list[int]:
    """Sum rows[j] << j by sequential equal-width ripple additions."""
    acc = list(rows[0])
    for j in range(1, len(rows)):
        row = rows[j]
        # Bits below the shift pass through; pad both operands to a common
        # width and add the overlap.
        low = acc[:j]
        hi_acc = acc[j:]
        width = max(len(hi_acc), len(row))
        hi_acc = hi_acc + [b.const_bit(0) for _ in range(width - len(hi_acc))]
        row = list(row) + [b.const_bit(0) for _ in range(width - len(row))]
        acc = low + _ripple_add(b, hi_acc, row)
    return acc


def build_multiplier(m_bits: int, n_bits: int) -> CircuitGraph:
    """Long multiplication: AND-array partial products, copy-tensor fan-out,
    summed by shifted ripple adders. Output has m+n bits."""
    if m_bits < 1 or n_bits < 1:
        raise ValueError("need at least one bit per operand")
    b = CircuitBuilder()
    xs = b.input_bits(m_bits)
    ys = b.input_bits(n_bits)
    xcopies = [b.copies(x, n_bits) for x in xs]  # one copy of each x bit per y bit
    ycopies = [b.copies(y, m_bits) for y in ys]
    rows = [[b.and_(xcopies[i][j], ycopies[j][i]) for i in range(m_bits)] for j in range(n_bits)]
    out = _shifted_accumulate(b, rows)
    return b.finish([out[: m_bits + n_bits]])


def build_square(n_bits: int) -> CircuitGraph:
    """z = x^2 from a single copy of the input bit string; all reuse is
    through copy tensors. Output has 2n bits."""
    if n_bits < 1:
        raise ValueError("need at least one bit")
    b = CircuitBuilder()
    xs = b.input_bits(n_bits)
    # Each bit is used n times as a row entry and once as the row selector.
    allcopies = [b.copies(x, n_bits + 1) for x in xs]
    rows = []
    for j in range(n_bits):
        sel_copies = b.copies(allcopies[j][n_bits], n_bits)  # the row selector's copies
        rows.append([b.and_(allcopies[i][j], sel_copies[i]) for i in range(n_bits)])
    out = _shifted_accumulate(b, rows)
    return b.finish([out[: 2 * n_bits]])


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class EvalStats:
    contractions: int = 0


def eval_binary(graph: CircuitGraph, inputs: Sequence[BitVec]) -> list[BitVec]:
    """Evaluate a logic circuit on bit-string inputs, gate by gate.

    A wire holds one bit. Contracting basis vectors into a gate's input legs
    is indexing its tensor by the input bits, so the graph's program, compiled
    to straight-line blocks on the first evaluation that take the operands'
    bits and return the output groups', looks the output bits up in a truth
    table read off the tensor once. A slice that is not one-hot (no product
    state) raises :class:`InvariantError` when an input reaches it. Work is
    linear in the gate count.
    """
    if len(inputs) != len(graph.input_groups):
        raise GraphError(f"expected {len(graph.input_groups)} input operands")
    for group, vec in zip(graph.input_groups, inputs):
        if not isinstance(vec, BitVec):
            raise GraphError(f"operand {vec!r} is not a BitVec")
        if len(group) != len(vec.bits):
            raise GraphError(f"operand width {len(vec)} does not match group {len(group)}")
    blocks = graph._binary_program
    out = blocks[0](*[vec.bits for vec in inputs])
    for block in blocks[1:]:
        out = block(out)
    return list(map(_bitvec, out))  # truth-table bits, or operand bits checked when made


def float_encode(x: float) -> np.ndarray:
    """Real number as the length-2 vector (1, x)."""
    return np.array([1.0, float(x)])


def float_decode(v) -> float:
    """Inverse of :func:`float_encode`; the leading component must be 1."""
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise RepresentationError(f"encoded reals have shape (2,), got {v.shape}")
    if not abs(v[0] - 1.0) <= 1e-12:  # NaN fails this too
        raise RepresentationError(f"leading component {v[0]} is not 1")
    return float(v[1])


def eval_amp_circuit(
    graph: CircuitGraph, inputs: Sequence, memo: bool = True
) -> tuple[list[float], EvalStats]:
    """Evaluate an amplitude-arithmetic circuit on bound inputs.

    ``inputs`` supplies one value per input group: a finite real for an amp
    input, an integer grid index for a variable input; anything else raises
    :class:`GraphError`. The graph's program, compiled to straight-line
    blocks on the first evaluation, holds the nodes the outputs reach, in
    topological order, and one forward pass contracts each of them once and
    reuses its ``(lead, value)`` float pair for all consumers.
    ``EvalStats.contractions`` counts those contractions with ``memo``;
    without it, it counts the formal expanded tree (summed once per graph),
    in which a shared subgraph is contracted once per path. Values are the
    same either way.

    A (+) or (x) node is the bilinear form of its tensor's nonzero entries:
    ``(a0*b0, a0*b1 + a1*b0)`` and ``(a0*b0, a1*b1)``, each sum started at
    ``0.0`` as ``np.einsum("i,j,ijk->k", a, b, tensor)`` starts it, so the
    pair has einsum's bits wherever einsum's is finite. An output pair with
    an entry that is not finite (overflow inside the graph) raises
    :class:`NumericalAbortError` before it is decoded. A product the tensor
    zeroes is never formed, so its overflow, which einsum turns into NaN,
    aborts nothing.
    """
    if len(inputs) != len(graph.input_groups):
        raise GraphError(f"expected {len(graph.input_groups)} inputs")
    operands = []
    for group, value in zip(graph.input_groups, inputs):
        if len(group) != 1:
            raise GraphError("amp circuits bind one wire per input group")
        w = group[0]
        if graph.wire_types[w] == "amp":
            x = float(value) if isinstance(value, (np.integer, np.floating)) else value
            if x not in _GATES[GateKind.CONST_FLOAT].payloads:
                raise GraphError(f"amp input {value!r} is not a finite real")
            operands.append((1.0, float(x)))
        elif graph.wire_types[w] == "var":
            if type(value) is bool or not isinstance(value, (int, np.integer)):
                raise GraphError(f"grid index {value!r} is not an integer")
            if not 0 <= value < graph.var_grids[w]:
                raise GraphError(f"grid index {value} out of range")
            operands.append((int(value),))
        else:
            raise GraphError("binary inputs do not belong in amp evaluation")
    blocks, contractions = graph._amp_program
    pairs = blocks[0](*operands)
    for block in blocks[1:]:
        pairs = block(pairs)
    if not all(map(math.isfinite, sum(pairs, ()))):
        raise NumericalAbortError(f"amplitude circuit outputs {pairs} are not all finite")
    stats = EvalStats(contractions if memo else graph._tree_contractions)
    return list(map(float_decode, pairs)), stats


# ---------------------------------------------------------------------------
# Function composition over variable legs


def build_amp_function(expr, grids: dict[str, int]) -> CircuitGraph:
    """Graph for an expression tree over discretized single-variable
    functions.

    ``expr`` nodes: ``("func", table, varname)``, ``("plus", a, b)``,
    ``("times", a, b)``, ``("const", x)``. Same-variable composition routes
    the variable through copy tensors; each function application is an
    actual tensor in the graph, so ``f*f`` really contains two copies of the
    function tensor constrained to one grid index.
    """
    b = CircuitBuilder()
    var_wires = {name: b.input_var(g) for name, g in grids.items()}

    # Both walks use explicit stacks, so expression depth is not bounded by
    # the recursion limit: uses are counted in pre-order, nodes are emitted
    # in post-order, left operand first.
    counts: dict[str, int] = {name: 0 for name in grids}
    stack = [expr]
    while stack:
        e = stack.pop()
        if e[0] == "func":
            if e[2] not in grids:
                raise GraphError(f"unknown variable {e[2]!r}")
            counts[e[2]] += 1
        elif e[0] in ("plus", "times"):
            stack += [e[2], e[1]]
        elif e[0] != "const":
            raise GraphError(f"unknown expression node {e[0]!r}")
    pools = {
        name: iter(b.copies(var_wires[name], max(1, counts[name]))) for name in grids
    }

    wires: list[int] = []  # outputs of the finished subtrees
    todo = [(expr, False)]
    while todo:
        e, operands_done = todo.pop()
        if e[0] == "func":
            wires.append(b.func(e[1], next(pools[e[2]])))
        elif e[0] == "const":
            wires.append(b.const_float(e[1]))
        elif operands_done:
            c = wires.pop()
            a = wires.pop()
            wires.append(b.plus(a, c) if e[0] == "plus" else b.times(a, c))
        else:
            todo += [(e, True), (e[2], False), (e[1], False)]
    return b.finish([[wires[0]]])


def function_table(f, grid: np.ndarray) -> np.ndarray:
    """Discretized function tensor: row p is (1, f(x_p))."""
    grid = np.asarray(grid, dtype=float)
    return np.stack([np.ones_like(grid), np.array([f(x) for x in grid])], axis=1)


# ---------------------------------------------------------------------------
# Feed-forward networks


@dataclass
class FnnSpec:
    """Layer widths, affine parameters, and polynomial activations.

    ``activations[k]`` lists coefficients ascending in degree for layer k;
    degree must be at least 1.
    """

    widths: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[list[float]]

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("need input and output layers")
        n_layers = len(self.widths) - 1
        if not (len(self.weights) == len(self.biases) == len(self.activations) == n_layers):
            raise ValueError("one weight matrix, bias, and activation per layer")
        for k in range(n_layers):
            w = np.asarray(self.weights[k])
            if w.shape != (self.widths[k + 1], self.widths[k]):
                raise ValueError(f"layer {k} weights {w.shape} != {(self.widths[k+1], self.widths[k])}")
            if np.asarray(self.biases[k]).shape != (self.widths[k + 1],):
                raise ValueError(f"layer {k} bias shape mismatch")
            if len(self.activations[k]) < 2:
                raise GraphError("activation polynomials need degree >= 1")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Direct dense evaluation, the comparison oracle."""
        y = np.asarray(x, dtype=float)
        for w, b, coeffs in zip(self.weights, self.biases, self.activations):
            u = np.asarray(w) @ y + np.asarray(b)
            y = np.polyval(list(reversed(coeffs)), u)
        return y

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "widths": self.widths,
                "weights": [np.asarray(w).reshape(-1).tolist() for w in self.weights],
                "biases": [np.asarray(b).tolist() for b in self.biases],
                "activations": [list(map(float, a)) for a in self.activations],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FnnSpec":
        d = json.loads(text)
        if d.get("version") != 1:
            raise ValueError(f"unsupported fnn version {d.get('version')}")
        widths = d["widths"]
        weights = [
            np.asarray(w, dtype=float).reshape(widths[k + 1], widths[k])
            for k, w in enumerate(d["weights"])
        ]
        biases = [np.asarray(b, dtype=float) for b in d["biases"]]
        return cls(widths, weights, biases, d["activations"])


def compile_fnn(spec: FnnSpec) -> CircuitGraph:
    """Arithmetic-circuit graph of the network.

    Each neuron becomes a chain of (x)/(+) nodes for the affine part and a
    Horner-form polynomial for the activation; layer outputs are shared by
    reference across the next layer's neurons, resolved by memoization at
    evaluation time rather than by duplicating subgraphs.
    """
    b = CircuitBuilder()
    xs = [b.input_amp() for _ in range(spec.widths[0])]
    layer = xs
    for w, bias, coeffs in zip(spec.weights, spec.biases, spec.activations):
        w = np.asarray(w)
        nxt = []
        for i in range(w.shape[0]):
            acc = b.const_float(float(bias[i]))
            for jx in range(w.shape[1]):
                term = b.times(b.const_float(float(w[i, jx])), layer[jx])
                acc = b.plus(acc, term)
            # Horner: (((c_d u + c_{d-1}) u + ...) u + c_0); u is shared.
            poly = b.const_float(float(coeffs[-1]))
            for c in reversed(coeffs[:-1]):
                poly = b.plus(b.times(poly, acc), b.const_float(float(c)))
            nxt.append(poly)
        layer = nxt
    return b.finish([[w] for w in layer])

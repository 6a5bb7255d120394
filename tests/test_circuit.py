"""Binary and amplitude arithmetic circuits."""
import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnflab import circuit
from tnflab.circuit import (
    BitVec,
    CircuitBuilder,
    CircuitGraph,
    EvalStats,
    FnnSpec,
    GateKind,
    Node,
    build_adder,
    build_amp_function,
    build_full_adder,
    build_half_adder,
    build_multiplier,
    build_square,
    compile_fnn,
    eval_amp_circuit,
    eval_binary,
    float_decode,
    float_encode,
    function_table,
    gate_tensor,
)
from tnflab.errors import (
    GraphError,
    InvariantError,
    NumericalAbortError,
    RepresentationError,
    ResourceLimitError,
)


class TestGateTensors:
    def test_xor_entries(self):
        t = gate_tensor(GateKind.XOR)
        hot = {(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0)}
        for idx in np.ndindex(2, 2, 2):
            assert t[idx] == (1.0 if idx in hot else 0.0)

    def test_and_entries(self):
        t = gate_tensor(GateKind.AND)
        hot = {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)}
        for idx in np.ndindex(2, 2, 2):
            assert t[idx] == (1.0 if idx in hot else 0.0)

    def test_or_entries(self):
        t = gate_tensor(GateKind.OR)
        hot = {(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)}
        for idx in np.ndindex(2, 2, 2):
            assert t[idx] == (1.0 if idx in hot else 0.0)

    def test_delta_entries(self):
        t = gate_tensor(GateKind.DELTA)
        for idx in np.ndindex(2, 2, 2):
            assert t[idx] == (1.0 if idx == (0, 0, 0) or idx == (1, 1, 1) else 0.0)

    def test_delta_copy_identity(self):
        # contracting a bit with the copy tensor yields the outer product
        for b in (0, 1):
            x = np.zeros(2)
            x[b] = 1.0
            out = np.tensordot(x, gate_tensor(GateKind.DELTA), axes=([0], [0]))
            assert np.array_equal(out, np.outer(x, x))

    def test_plus_times_semantics(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.standard_normal(2) * 5
            out = np.einsum("i,j,ijk->k", float_encode(x), float_encode(y), gate_tensor(GateKind.PLUS))
            assert out[0] == 1.0 and abs(out[1] - (x + y)) < 1e-12
            out = np.einsum("i,j,ijk->k", float_encode(x), float_encode(y), gate_tensor(GateKind.TIMES))
            assert out[0] == 1.0 and abs(out[1] - x * y) < 1e-12

    def test_xor_and_via_contraction(self):
        one = np.array([0.0, 1.0])
        out = np.einsum("i,j,ijk->k", one, one, gate_tensor(GateKind.XOR))
        assert np.array_equal(out, [1.0, 0.0])  # 1 xor 1 = 0
        out = np.einsum("i,j,ijk->k", one, one, gate_tensor(GateKind.AND))
        assert np.array_equal(out, [0.0, 1.0])  # 1 and 1 = 1


class TestBitVec:
    def test_round_trip(self):
        for v in (0, 1, 5, 13, 31):
            assert BitVec.from_int(v, 5).to_int() == v

    def test_little_endian(self):
        assert BitVec.from_int(6, 3).bits == (0, 1, 1)

    def test_range_check(self):
        with pytest.raises(ValueError):
            BitVec.from_int(8, 3)

    @pytest.mark.parametrize("bit", [True, False, 0.0, 1.0, 0, 1])
    def test_bits_equal_to_0_or_1_accepted(self, bit):
        assert BitVec((1, bit, 0)).bits == (1, bit, 0)

    @pytest.mark.parametrize("bit", [2, -1, 0.5, float("nan"), "1", None])
    def test_other_bits_rejected(self, bit):
        with pytest.raises(ValueError, match="0 or 1"):
            BitVec((0, bit, 1))


class TestAdders:
    def test_half_adder_truth_table(self):
        g = build_half_adder()
        for x in (0, 1):
            for y in (0, 1):
                s, c = eval_binary(g, [BitVec((x,)), BitVec((y,))])
                assert s.bits[0] == (x + y) % 2
                assert c.bits[0] == (x + y) // 2

    def test_full_adder_truth_table(self):
        g = build_full_adder()
        for cin in (0, 1):
            for x in (0, 1):
                for y in (0, 1):
                    s, c = eval_binary(g, [BitVec((cin,)), BitVec((x,)), BitVec((y,))])
                    assert s.bits[0] == (cin + x + y) % 2
                    assert c.bits[0] == (cin + x + y) // 2

    def test_five_plus_three(self):
        (z,) = eval_binary(build_adder(4), [BitVec.from_int(5, 4), BitVec.from_int(3, 4)])
        assert z.to_int() == 8

    def test_add_zero_is_identity(self):
        g = build_adder(5)
        for x in (0, 7, 21, 31):
            (z,) = eval_binary(g, [BitVec.from_int(x, 5), BitVec.from_int(0, 5)])
            assert z.to_int() == x

    def test_exhaustive_six_bits(self):
        g = build_adder(6)
        for x in range(64):
            for y in range(64):
                (z,) = eval_binary(g, [BitVec.from_int(x, 6), BitVec.from_int(y, 6)])
                assert z.to_int() == x + y


class TestMultiplier:
    def test_thirteen_times_five(self):
        (z,) = eval_binary(build_multiplier(4, 3), [BitVec.from_int(13, 4), BitVec.from_int(5, 3)])
        assert z.to_int() == 65

    def test_times_zero(self):
        g = build_multiplier(4, 4)
        for x in (0, 9, 15):
            (z,) = eval_binary(g, [BitVec.from_int(x, 4), BitVec.from_int(0, 4)])
            assert z.to_int() == 0

    def test_exhaustive_five_by_five(self):
        g = build_multiplier(5, 5)
        for x in range(32):
            for y in range(32):
                (z,) = eval_binary(g, [BitVec.from_int(x, 5), BitVec.from_int(y, 5)])
                assert z.to_int() == x * y

    def test_rectangular(self):
        g = build_multiplier(3, 5)
        for x in range(8):
            for y in range(32):
                (z,) = eval_binary(g, [BitVec.from_int(x, 3), BitVec.from_int(y, 5)])
                assert z.to_int() == x * y


class TestSquare:
    def test_three_squared(self):
        (z,) = eval_binary(build_square(2), [BitVec.from_int(3, 2)])
        assert z.to_int() == 9

    def test_zero_squared(self):
        (z,) = eval_binary(build_square(3), [BitVec.from_int(0, 3)])
        assert z.to_int() == 0

    def test_single_input_group(self):
        g = build_square(4)
        assert len(g.input_groups) == 1
        assert len(g.input_groups[0]) == 4

    def test_exhaustive_five_bits(self):
        g = build_square(5)
        for x in range(32):
            (z,) = eval_binary(g, [BitVec.from_int(x, 5)])
            assert z.to_int() == x * x


class TestBinaryEvaluator:
    def test_identity_wire(self):
        b = CircuitBuilder()
        (w,) = b.input_bits(1)
        g = b.finish([[w]])
        (out,) = eval_binary(g, [BitVec((1,))])
        assert out.bits == (1,)

    def test_bit_fanout_requires_delta(self):
        b = CircuitBuilder()
        (w,) = b.input_bits(1)
        b.xor(w, w)  # consumes the same bit wire twice
        with pytest.raises(GraphError):
            b.finish([[]])

    def test_operand_width_checked(self):
        g = build_adder(3)
        with pytest.raises(GraphError):
            eval_binary(g, [BitVec.from_int(1, 2), BitVec.from_int(1, 3)])

    @pytest.mark.parametrize("operand", [5, [1, 0], (1, 0), None, "1"])
    def test_operands_must_be_bitvecs(self, operand):
        with pytest.raises(GraphError):
            eval_binary(build_half_adder(), [BitVec((1,)), operand])

    @pytest.mark.parametrize(
        "kind, table",
        [
            (GateKind.XOR, {(0, 0): (0,), (1, 0): (1,), (0, 1): (1,), (1, 1): (0,)}),
            (GateKind.AND, {(0, 0): (0,), (1, 0): (0,), (0, 1): (0,), (1, 1): (1,)}),
            (GateKind.OR, {(0, 0): (0,), (1, 0): (1,), (0, 1): (1,), (1, 1): (1,)}),
            (GateKind.DELTA, {(0,): (0, 0), (1,): (1, 1)}),
        ],
    )
    def test_gate_truth_tables(self, kind, table):
        b = CircuitBuilder()
        n_in = len(next(iter(table)))
        ins = [b.input_bits(1)[0] for _ in range(n_in)]
        outs = b.add(kind, ins)
        g = b.finish([[w] for w in outs])
        for xs, want in table.items():
            got = eval_binary(g, [BitVec((x,)) for x in xs])
            assert tuple(v.bits[0] for v in got) == want

    @pytest.mark.parametrize("bit", [0, 1])
    def test_const_bit_output_and_and_input(self, bit):
        b = CircuitBuilder()
        (x,) = b.input_bits(1)
        g = b.finish([[b.const_bit(bit)], [b.and_(b.const_bit(bit), x)]])
        for xv in (0, 1):
            c, y = eval_binary(g, [BitVec((xv,))])
            assert c.bits == (bit,)
            assert y.bits == (bit & xv,)

    @pytest.mark.parametrize("payload", [-1, 2])
    def test_const_bit_payload_validated(self, payload):
        b = CircuitBuilder()
        with pytest.raises(GraphError):
            b.finish([[b.const_bit(payload)]])
        text = json.dumps({
            "version": 1,
            "wire_types": ["bit"],
            "nodes": [{"kind": "const_bit", "inputs": [], "outputs": [0], "payload": payload}],
            "input_groups": [],
            "output_groups": [[0]],
            "var_grids": {},
        })
        with pytest.raises(GraphError):
            CircuitGraph.from_json(text)

    @pytest.mark.parametrize("kind", [GateKind.PLUS, GateKind.XOR])
    def test_payload_on_a_gate_that_takes_none_rejected(self, kind):
        """Only constants and ``func`` take a payload; any other gate with
        one is rejected when added and when read from JSON."""
        b = CircuitBuilder()
        x, y = (b.input_amp(), b.input_amp()) if kind == GateKind.PLUS else b.input_bits(2)
        with pytest.raises(GraphError, match="no payload"):
            b.add(kind, [x, y], {"junk": [1, 2]})
        data = json.loads(b.finish([[b.add(kind, [x, y])[0]]]).to_json())
        data["nodes"][0]["payload"] = {"junk": [1, 2]}
        with pytest.raises(GraphError, match="no payload"):
            CircuitGraph.from_json(json.dumps(data))

    def test_amplitude_circuit_rejected(self):
        spec = FnnSpec([1, 1], [np.array([[2.0]])], [np.array([1.0])], [[0.0, 1.0]])
        with pytest.raises(GraphError):
            eval_binary(compile_fnn(spec), [BitVec((1,))])

    def test_cycle_detected(self):
        node = Node(GateKind.XOR, (1, 2), (1,))
        with pytest.raises(GraphError):
            CircuitGraph(
                nodes=[node],
                wire_types=["bit", "bit", "bit"],
                input_groups=[[0], [2]],
                output_groups=[[1]],
            )


class TestGraphConstruction:
    """A CircuitGraph is checked once, when it is made, and never changes."""

    @pytest.mark.parametrize(
        "nodes, wire_types, input_groups, output_groups",
        [
            # a cycle: the XOR reads its own output
            ([Node(GateKind.XOR, (0, 1), (1,))], ["bit", "bit"], [[0]], [[1]]),
            # a binary gate on amplitude wires
            ([Node(GateKind.XOR, (0, 1), (2,))], ["amp", "amp", "amp"], [[0], [1]], [[2]]),
            # a constant bit that is neither 0 nor 1
            ([Node(GateKind.CONST_BIT, (), (0,), 2)], ["bit"], [], [[0]]),
            # wire ids that name no wire: past the end, and negative
            ([Node(GateKind.PLUS, (0, 9), (2,))], ["amp"] * 3, [[0], [1]], [[2]]),
            ([Node(GateKind.PLUS, (0, 1), (9,))], ["amp"] * 3, [[0], [1]], [[9]]),
            ([Node(GateKind.PLUS, (-1, 1), (2,))], ["amp"] * 3, [[-1], [1]], [[2]]),
            # a constant real that is missing, not a number, a bool, or past float range
            ([Node(GateKind.CONST_FLOAT, (), (0,), None)], ["amp"], [], [[0]]),
            ([Node(GateKind.CONST_FLOAT, (), (0,), float("nan"))], ["amp"], [], [[0]]),
            ([Node(GateKind.CONST_FLOAT, (), (0,), True)], ["amp"], [], [[0]]),
            ([Node(GateKind.CONST_FLOAT, (), (0,), 10**400)], ["amp"], [], [[0]]),
        ],
        ids=["cycle", "xor_on_amp", "const_bit_payload", "input_past_end", "output_past_end",
             "negative_wire", "const_float_null", "const_float_nan", "const_float_bool",
             "const_float_huge_int"],
    )
    def test_invalid_graph_not_constructed(self, nodes, wire_types, input_groups, output_groups):
        with pytest.raises(GraphError):
            CircuitGraph(nodes, wire_types, input_groups, output_groups)
        text = json.dumps({
            "version": 1, "wire_types": wire_types, "input_groups": input_groups,
            "output_groups": output_groups, "var_grids": {},
            "nodes": [{"kind": n.kind.value, "inputs": n.inputs, "outputs": n.outputs,
                       "payload": n.payload} for n in nodes],
        })
        with pytest.raises(GraphError):
            CircuitGraph.from_json(text)

    def test_builder_after_finish_leaves_graph_unchanged(self):
        b = CircuitBuilder()
        (x,) = b.input_bits(1)
        (y,) = b.input_bits(1)
        x1, x2 = b.delta(x)
        y1, y2 = b.delta(y)
        g = b.finish([[b.xor(x1, y1)]])
        text = g.to_json()
        b.and_(x1, y1)
        b.and_(x2, y2)
        b.input_bits(2)
        assert len(g.nodes) == 3 and g.to_json() == text
        for xv, yv in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            (z,) = eval_binary(g, [BitVec((xv,)), BitVec((yv,))])
            assert z.bits == (xv ^ yv,)

    def test_fields_frozen(self):
        g = build_half_adder()
        for name in ("nodes", "wire_types", "input_groups", "output_groups", "var_grids"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, getattr(g, name))

    def test_nodes_frozen(self):
        b = CircuitBuilder()
        x = b.input_amp()
        g = b.finish([[b.plus(x, b.const_float(0.5))]])
        with pytest.raises(AttributeError):
            g.nodes[0].payload = 7.0
        assert eval_amp_circuit(g, [1.0])[0] == [1.5]

    def test_var_grids_read_only(self):
        g = self.one_func(np.ones((4, 2)))
        (v,) = g.var_grids
        with pytest.raises(TypeError):
            g.var_grids[v] = 2
        assert g.var_grids == {v: 4}

    @staticmethod
    def one_func(table):
        b = CircuitBuilder()
        x = b.input_var(4)
        return b.finish([[b.func(table, x)]])

    def test_func_tables_and_grids_checked(self):
        data = json.loads(self.one_func(function_table(lambda x: x, np.linspace(0, 1, 4))).to_json())
        no_grid = {**data, "var_grids": {}}
        short = json.loads(json.dumps(data))
        short["nodes"][0]["payload"] = short["nodes"][0]["payload"][:2]
        ragged = json.loads(json.dumps(data))
        ragged["nodes"][0]["payload"][1] = [1.0]
        b = CircuitBuilder()
        x = b.input_var(4)
        y, z = b.var_copy(x)
        copied = json.loads(b.finish([[b.func(np.ones((4, 2)), y)], [z]]).to_json())
        # a copy on a 2-point grid of a 4-point variable, read by a 2-row table
        copied["var_grids"]["1"] = 2
        copied["nodes"][1]["payload"] = [[1.0, 0.0], [1.0, 1.0]]
        for bad in (no_grid, short, ragged, copied):
            with pytest.raises(GraphError):
                CircuitGraph.from_json(json.dumps(bad))
        for table in (np.ones((2, 2)), np.ones((4, 3)), np.ones(8)):
            with pytest.raises(GraphError):
                self.one_func(table)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_func_table_entries_must_be_finite(self, bad):
        """A ``func`` table entry that is not a finite real is a GraphError
        when the graph is built, and when JSON text holding it is read."""
        with pytest.raises(GraphError, match="finite"):
            build_amp_function(("func", [[1, bad], [1, 2]], "x"), {"x": 2})
        table = np.ones((4, 2))
        table[2, 1] = bad
        with pytest.raises(GraphError, match="finite"):
            self.one_func(table)
        data = json.loads(self.one_func(np.ones((4, 2))).to_json())
        data["nodes"][0]["payload"][2][1] = bad
        text = json.dumps(data)
        assert "NaN" in text or "Infinity" in text
        with pytest.raises(GraphError, match="finite"):
            CircuitGraph.from_json(text)

    def test_func_table_is_an_immutable_copy(self):
        tab = function_table(lambda x: x, np.linspace(0, 1, 4))
        g = self.one_func(tab)
        tab[2, 1] = 99.0
        (value,), _ = eval_amp_circuit(g, [2])
        assert value == 2 / 3
        back = CircuitGraph.from_json(g.to_json())
        assert g == back and back.to_json() == g.to_json()
        assert eval_amp_circuit(back, [2])[0] == [value]


class TestFloatEncoding:
    def test_encode(self):
        assert np.array_equal(float_encode(2.5), [1.0, 2.5])
        assert np.array_equal(float_encode(0.0), [1.0, 0.0])

    def test_decode_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = float(rng.standard_normal() * 100)
            assert float_decode(float_encode(x)) == x

    def test_decode_rejects_bad_leading_component(self):
        with pytest.raises(RepresentationError):
            float_decode(np.array([1.5, 2.0]))

    @pytest.mark.parametrize("lead", [math.nan, -math.nan, math.inf, -math.inf, 0.0, 1.0 + 1e-9])
    def test_decode_rejects_any_lead_not_within_1e_12_of_1(self, lead):
        with pytest.raises(RepresentationError):
            float_decode([lead, 2.0])


class TestAmpFunctions:
    def test_plus_zero_is_identity(self):
        grid = np.linspace(-1, 3, 9)
        tab = function_table(lambda x: x**2 - 1, grid)
        g = build_amp_function(("plus", ("func", tab, "x"), ("const", 0.0)), {"x": 9})
        for k in range(9):
            (v,), _ = eval_amp_circuit(g, [k])
            assert abs(v - (grid[k] ** 2 - 1)) < 1e-12

    def test_same_variable_product_squares(self):
        grid = np.linspace(-2, 2, 16)
        tab = function_table(lambda x: x, grid)
        g = build_amp_function(("times", ("func", tab, "x"), ("func", tab, "x")), {"x": 16})
        for k in range(16):
            (v,), _ = eval_amp_circuit(g, [k])
            assert abs(v - grid[k] ** 2) < 1e-12

    def test_polynomial_composition_against_pointwise(self):
        rng = np.random.default_rng(2)
        cf = rng.standard_normal(4)
        cg = rng.standard_normal(4)
        grid = np.linspace(-1.5, 1.5, 12)
        f = lambda x: cf[0] + cf[1] * x + cf[2] * x**2 + cf[3] * x**3
        gfun = lambda x: cg[0] + cg[1] * x + cg[2] * x**2 + cg[3] * x**3
        tf = function_table(f, grid)
        tg = function_table(gfun, grid)
        expr = ("plus", ("times", ("func", tf, "x"), ("func", tg, "x")), ("func", tf, "x"))
        g = build_amp_function(expr, {"x": 12})
        for k in range(12):
            (v,), _ = eval_amp_circuit(g, [k])
            want = f(grid[k]) * gfun(grid[k]) + f(grid[k])
            assert abs(v - want) < 1e-12

    def test_5000_level_expression_builds(self):
        """Far deeper than the recursion limit, nested on both operand sides;
        nodes come out in post-order, left operand first."""
        grid = np.linspace(-1, 1, 8)
        tab = function_table(lambda x: x**3, grid)
        expr = ("func", tab, "x")
        for level in range(5000):
            expr = ("plus", expr, ("const", 1.0)) if level % 2 else ("times", ("const", 1.0), expr)
        g = build_amp_function(expr, {"x": 8})
        assert len(g.nodes) == 10001
        # The left constants of the 2500 products come first, outermost first.
        kinds = [n.kind for n in g.nodes]
        assert kinds[:2500] == [GateKind.CONST_FLOAT] * 2500
        assert kinds[2500:2504] == [GateKind.FUNC, GateKind.TIMES, GateKind.CONST_FLOAT, GateKind.PLUS]
        for k in (0, 5):
            (v,), _ = eval_amp_circuit(g, [k])
            assert abs(v - (grid[k] ** 3 + 2500)) < 1e-9

    def test_unknown_variable_rejected(self):
        tab = function_table(lambda x: x, np.linspace(0, 1, 8))
        with pytest.raises(GraphError):
            build_amp_function(("func", tab, "y"), {"x": 8})

    def test_grid_mismatch_rejected(self):
        tab = function_table(lambda x: x, np.linspace(0, 1, 8))
        with pytest.raises(GraphError):
            build_amp_function(("func", tab, "x"), {"x": 16})


class TestFnn:
    def test_single_neuron_square(self):
        spec = FnnSpec([1, 1], [np.array([[2.0]])], [np.array([1.0])], [[0.0, 0.0, 1.0]])
        g = compile_fnn(spec)
        (v,), _ = eval_amp_circuit(g, [3.0])
        assert v == 49.0

    def test_zero_weights_give_activation_of_bias(self):
        coeffs = [1.0, 2.0, 3.0]
        spec = FnnSpec(
            [2, 3],
            [np.zeros((3, 2))],
            [np.array([0.5, -1.0, 2.0])],
            [coeffs],
        )
        g = compile_fnn(spec)
        vals, _ = eval_amp_circuit(g, [0.7, -0.2])
        for v, b in zip(vals, [0.5, -1.0, 2.0]):
            want = coeffs[0] + coeffs[1] * b + coeffs[2] * b * b
            assert abs(v - want) < 1e-12

    def test_random_net_matches_forward_pass(self):
        rng = np.random.default_rng(3)
        spec = FnnSpec(
            [2, 4, 1],
            [rng.standard_normal((4, 2)), rng.standard_normal((1, 4))],
            [rng.standard_normal(4), rng.standard_normal(1)],
            [[0.1, 0.3, 0.0, 0.5], [0.2, 1.0]],
        )
        g = compile_fnn(spec)
        for _ in range(100):
            x = rng.standard_normal(2)
            vals, _ = eval_amp_circuit(g, list(x))
            assert abs(vals[0] - spec.forward(x)[0]) < 1e-12

    def test_degree_zero_activation_unsupported(self):
        with pytest.raises(GraphError):
            FnnSpec([1, 1], [np.array([[1.0]])], [np.array([0.0])], [[1.0]])

    def test_spec_json_round_trip(self):
        rng = np.random.default_rng(4)
        spec = FnnSpec(
            [2, 3, 2],
            [rng.standard_normal((3, 2)), rng.standard_normal((2, 3))],
            [rng.standard_normal(3), rng.standard_normal(2)],
            [[0.0, 1.0, 0.5], [1.0, 2.0]],
        )
        back = FnnSpec.from_json(spec.to_json())
        x = rng.standard_normal(2)
        assert np.allclose(spec.forward(x), back.forward(x))


class TestMemoization:
    def _net(self):
        rng = np.random.default_rng(5)
        spec = FnnSpec(
            [2, 4, 1],
            [rng.standard_normal((4, 2)), rng.standard_normal((1, 4))],
            [rng.standard_normal(4), rng.standard_normal(1)],
            [[0.1, 0.3, 0.0, 0.5], [0.2, 1.0]],
        )
        return compile_fnn(spec)

    def test_memo_and_naive_agree_bitwise(self):
        g = self._net()
        x = [0.37, -1.2]
        on, _ = eval_amp_circuit(g, x, memo=True)
        off, _ = eval_amp_circuit(g, x, memo=False)
        assert on == off

    def test_memo_count_bounded_by_nodes(self):
        g = self._net()
        _, stats = eval_amp_circuit(g, [0.1, 0.2], memo=True)
        assert stats.contractions <= len(g.nodes)
        _, naive = eval_amp_circuit(g, [0.1, 0.2], memo=False)
        assert naive.contractions > stats.contractions

    def test_deep_composition_linear_node_count(self):
        """f applied to itself 20 and 300 times; each level references its
        input three times, so the expanded tree has 3^levels - 1 nodes while
        the memoized count stays linear in the node count. The 600-node chain
        is deeper than Python's recursion limit allows a recursive walk."""
        for levels in (20, 300):
            b = CircuitBuilder()
            w = b.input_amp()
            for _ in range(levels):
                # f(u) = u * u + u; a small input keeps the iterates finite
                w = b.plus(b.times(w, w), w)
            g = b.finish([[w]])
            (v,), stats = eval_amp_circuit(g, [1e-6], memo=True)
            assert stats.contractions == len(g.nodes) == 2 * levels
            (naive,), tree = eval_amp_circuit(g, [1e-6], memo=False)
            assert naive == v and tree.contractions == 3**levels - 1
            want = 1e-6
            for _ in range(levels):
                want = want * want + want
            assert v == want

    def test_graph_json_round_trip(self):
        g = self._net()
        back = CircuitGraph.from_json(g.to_json())
        x = [0.5, 0.25]
        a, _ = eval_amp_circuit(g, x)
        c, _ = eval_amp_circuit(back, x)
        assert a == c

    def test_json_wire_kinds_validated(self):
        """A gate on wires of the wrong kind, in or out, fails to load."""
        b = CircuitBuilder()
        s = b.plus(b.input_amp(), b.input_amp())
        text = b.finish([[s]]).to_json()
        xor_on_amps = json.loads(text)
        xor_on_amps["nodes"][0]["kind"] = GateKind.XOR.value
        plus_to_bit = json.loads(text)
        plus_to_bit["wire_types"][s] = "bit"
        for data in (xor_on_amps, plus_to_bit):
            with pytest.raises(GraphError):
                CircuitGraph.from_json(json.dumps(data))


class TestInputRules:
    """Evaluator inputs are checked as graph payloads are; bad ones raise GraphError."""

    def _square_on_grid(self):
        return build_amp_function(("func", function_table(np.square, np.arange(4.0)), "x"), {"x": 4})

    @pytest.mark.parametrize("index", [2.7, 2.0, True, np.True_, "2", None, -1, 4, np.int64(4)])
    def test_grid_index_must_be_an_integer_in_range(self, index):
        with pytest.raises(GraphError):
            eval_amp_circuit(self._square_on_grid(), [index])

    @pytest.mark.parametrize("index", [2, np.int64(2), np.uint8(2)])
    def test_integer_grid_indices_accepted(self, index):
        (v,), _ = eval_amp_circuit(self._square_on_grid(), [index])
        assert v == 4.0

    def _sum(self):
        b = CircuitBuilder()
        return b.finish([[b.plus(b.input_amp(), b.input_amp())]])

    @pytest.mark.parametrize(
        "value",
        [math.inf, -math.inf, math.nan, np.float64("inf"), np.float32("nan"), 10**400,
         "3", True, np.True_, None, [1.0]],
    )
    def test_amp_inputs_must_be_finite_reals(self, value):
        """(1, inf) (+) (1, 1) would read NaN: the dropped x*y entry multiplies inf by 0."""
        with pytest.raises(GraphError):
            eval_amp_circuit(self._sum(), [value, 1.0])

    @pytest.mark.parametrize("value", [7, -0.5, np.float64(-2.25), np.float32(0.5), np.int64(3)])
    def test_real_scalars_accepted(self, value):
        (v,), _ = eval_amp_circuit(self._sum(), [value, 1.0])
        assert v == float(value) + 1.0

    def test_overflow_inside_the_graph_aborts(self):
        b = CircuitBuilder()
        w = b.input_amp()
        for _ in range(4):
            w = b.times(w, w)
        g = b.finish([[w]])
        assert eval_amp_circuit(g, [10.0]) == ([1e16], EvalStats(4))
        with pytest.raises(NumericalAbortError):
            eval_amp_circuit(g, [1e100])

    def test_output_with_a_lead_that_is_not_finite_aborts(self):
        """(1e200, 1) (x) (1e200, 1) = (inf, 1), and (inf, 1) (x) (0, 1) = (NaN, 1):
        the dropped zero entries would have carried the overflow into the value."""
        big = ("func", [[1e200, 1.0]], "x")
        grids = {"x": 1, "y": 1}
        with pytest.raises(NumericalAbortError):
            eval_amp_circuit(build_amp_function(("times", big, big), grids), [0, 0])
        nan_lead = build_amp_function(("times", ("times", big, big), ("func", [[0.0, 1.0]], "y")), grids)
        with pytest.raises(NumericalAbortError):
            eval_amp_circuit(nan_lead, [0, 0])

    def test_a_product_the_tensor_zeroes_is_never_formed(self):
        """einsum forms the x*y product of (1, x) (+) (1, y) and weighs it by 0,
        so at x = y = 1e200 it reads NaN; the (+) rule reads the sum."""
        b = CircuitBuilder()
        g = b.finish([[b.plus(b.input_amp(), b.input_amp())]])
        assert eval_amp_circuit(g, [1e200, 1e200]) == ([2e200], EvalStats(1))
        with np.errstate(all="ignore"):
            pair = np.einsum("i,j,ijk->k", [1.0, 1e200], [1.0, 1e200], gate_tensor(GateKind.PLUS))
        assert np.isnan(pair).all()


class TestEvaluatorErrors:
    def _non_basis_and(self, monkeypatch):
        """AND with a (1, 1) slice that is not a basis vector."""
        gate = circuit._GATES[GateKind.AND]
        tensor = np.array(gate.tensor)
        tensor[1, 1] = [0.5, 0.5]
        monkeypatch.setitem(circuit._GATES, GateKind.AND, gate._replace(tensor=tensor))

    def test_non_basis_slice_raises_invariant_error(self, monkeypatch):
        self._non_basis_and(monkeypatch)
        b = CircuitBuilder()
        x, y = b.input_bits(2)
        g = b.finish([[b.and_(x, y)]])
        assert eval_binary(g, [BitVec((1, 0))]) == [BitVec((0,))]
        with pytest.raises(InvariantError):
            eval_binary(g, [BitVec((1, 1))])
        with pytest.raises(GraphError):  # operand widths are checked first
            eval_binary(g, [BitVec((1,))])

    def test_gate_kind_checked_before_invariant(self, monkeypatch):
        self._non_basis_and(monkeypatch)
        b = CircuitBuilder()
        x, y = b.input_bits(2)
        bit = b.and_(x, y)
        amp = b.plus(b.input_amp(), b.input_amp())
        g = b.finish([[bit], [amp]])
        with pytest.raises(GraphError):
            eval_binary(g, [BitVec((1, 1)), BitVec((0,)), BitVec((0,))])

    def test_amp_evaluation_rejects_logic_graphs(self):
        with pytest.raises(GraphError):
            eval_amp_circuit(build_half_adder(), [0, 1])
        b = CircuitBuilder()
        with pytest.raises(GraphError):
            eval_amp_circuit(b.finish([[b.const_bit(1)]]), [])
        with pytest.raises(GraphError):  # outputs are single wires
            eval_amp_circuit(build_adder(2), [0.0, 0.0])
        b = CircuitBuilder()
        with pytest.raises(GraphError):  # ... and amp wires
            eval_amp_circuit(b.finish([[b.input_var(2)]]), [0])


# ---------------------------------------------------------------------------
# The per-call graph walks the compiled programs replaced, kept as the oracle.


def oracle_eval_binary(graph, inputs):
    """Index each gate tensor by its input bits; the slice must be one-hot."""
    if len(inputs) != len(graph.input_groups):
        raise GraphError(f"expected {len(graph.input_groups)} input operands")
    bits = {}
    for group, vec in zip(graph.input_groups, inputs):
        if len(group) != len(vec):
            raise GraphError(f"operand width {len(vec)} does not match group {len(group)}")
        bits.update(zip(group, vec.bits))
    for node in graph.nodes:
        if node.kind == GateKind.CONST_BIT:
            bits[node.outputs[0]] = int(node.payload)
            continue
        gate = circuit._GATES[node.kind]
        if gate.in_kind != "bit":
            raise GraphError(f"{node.kind} is not a binary-circuit gate")
        out = gate.tensor[tuple(bits[w] for w in node.inputs)]
        hot = out.nonzero()
        if len(hot[0]) != 1 or out[hot][0] != 1.0:
            raise InvariantError("non-basis intermediate in binary evaluation")
        bits.update(zip(node.outputs, (int(i[0]) for i in hot)))
    return [BitVec(tuple(bits[w] for w in group)) for group in graph.output_groups]


class ZeroedProductOverflow(NumericalAbortError):
    """einsum reads NaN because a product its gate tensor zeroes overflowed."""


def oracle_eval_amp_circuit(graph, inputs, memo=True):
    """Count each node's paths to the outputs, then contract the nodes with
    any, one forward loop over dicts keyed by wire; an output vector with an
    entry that is not finite aborts before it is decoded."""
    if len(inputs) != len(graph.input_groups):
        raise GraphError(f"expected {len(graph.input_groups)} inputs")
    values = {}
    for group, value in zip(graph.input_groups, inputs):
        w = group[0]
        values[w] = float_encode(float(value)) if graph.wire_types[w] == "amp" else int(value)
    producer = {w: node for node in graph.nodes for w in node.outputs}
    paths = {id(node): 0 for node in graph.nodes}
    for group in graph.output_groups:
        if len(group) != 1:
            raise GraphError("amp circuits produce one wire per output group")
        if group[0] in producer:
            paths[id(producer[group[0]])] += 1
    for node in reversed(graph.nodes):
        for w in node.inputs:
            if w in producer:
                paths[id(producer[w])] += paths[id(node)]
    stats = EvalStats()
    for node in graph.nodes:
        count = paths[id(node)]
        if not count:
            continue
        stats.contractions += 1 if memo else count
        if node.kind == GateKind.CONST_FLOAT:
            out = [float_encode(node.payload)]
        elif node.kind == GateKind.FUNC:
            out = [np.array(node.payload[values[node.inputs[0]]])]
        elif node.kind == GateKind.VAR_COPY:
            idx = values[node.inputs[0]]
            out = [idx, idx]
        elif node.kind in (GateKind.PLUS, GateKind.TIMES):
            x, y = values[node.inputs[0]], values[node.inputs[1]]
            tensor = circuit._GATES[node.kind].tensor
            with np.errstate(all="ignore"):
                products = np.multiply.outer(x, y)
                out = [np.einsum("i,j,ijk->k", x, y, tensor)]
            hot = tensor.any(axis=2)
            if np.isfinite(products[hot]).all() and not np.isfinite(products).all():
                raise ZeroedProductOverflow(f"{node.kind} forms a product it weighs by 0 that overflows")
        else:
            raise GraphError(f"{node.kind} is not an amplitude-circuit gate")
        values.update(zip(node.outputs, out))
    vectors = [values[group[0]] for group in graph.output_groups]
    if not all(np.isfinite(v).all() for v in vectors):
        raise NumericalAbortError(f"amplitude circuit outputs {vectors} are not all finite")
    return [float_decode(v) for v in vectors], stats


def random_logic_circuit(rng):
    """Random xor/and/or/delta/const_bit circuit; every wire nothing reads is an output."""
    b = CircuitBuilder()
    free = [w for _ in range(rng.integers(1, 4)) for w in b.input_bits(int(rng.integers(1, 4)))]
    for _ in range(rng.integers(0, 30)):
        op = rng.choice(["xor", "and_", "or_", "delta", "const_bit"])
        if op == "const_bit":
            free.append(b.const_bit(int(rng.integers(2))))
        elif op == "delta":
            free += b.delta(free.pop(rng.integers(len(free))))
        elif len(free) >= 2:
            x = free.pop(rng.integers(len(free)))
            y = free.pop(rng.integers(len(free)))
            free.append(getattr(b, op)(x, y))
    cuts = sorted(rng.choice(np.arange(1, len(free)), size=min(2, len(free) - 1), replace=False))
    return b.finish([g.tolist() for g in np.split(np.array(free), cuts)])


def random_amp_circuit(rng):
    """Random plus/times/const_float circuit with shared operands (a wire may
    feed both legs of a gate), func tables on variables fanned out by
    var_copy, and outputs drawn from every amp wire, so some nodes are
    unreached. A func row's leading entry is 1, 0, -0.0 or 1e200, so that
    both terms of a (+) value count and some outputs are not encoded reals
    or overflow."""
    b = CircuitBuilder()
    amps = [b.input_amp() for _ in range(rng.integers(1, 4))]
    free_vars = [b.input_var(int(rng.integers(1, 5))) for _ in range(rng.integers(0, 3))]
    for _ in range(rng.integers(1, 30)):
        op = rng.choice(["plus", "times", "const_float", "func", "var_copy"])
        if op in ("plus", "times"):
            amps.append(getattr(b, op)(amps[rng.integers(len(amps))], amps[rng.integers(len(amps))]))
        elif op == "const_float" or not free_vars:
            amps.append(b.const_float(rng.uniform(-1.5, 1.5)))
        elif op == "func":
            v = free_vars.pop(rng.integers(len(free_vars)))
            table = function_table(np.sin, rng.uniform(-3, 3, b.var_grids[v]))
            table[:, 0] = rng.choice([1.0, 0.0, -0.0, 1e200], size=len(table))
            amps.append(b.func(table, v))
        else:
            free_vars += b.var_copy(free_vars.pop(rng.integers(len(free_vars))))
    return b.finish([[amps[i]] for i in rng.integers(len(amps), size=rng.integers(1, 4))])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compiled_binary_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_logic_circuit(rng)
    loaded = CircuitGraph.from_json(g.to_json())
    for _ in range(8):
        xs = [BitVec(tuple(int(b) for b in rng.integers(2, size=len(grp)))) for grp in g.input_groups]
        want = oracle_eval_binary(g, xs)
        assert eval_binary(g, xs) == want
        assert eval_binary(loaded, xs) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compiled_amp_matches_oracle(seed):
    """Values bit for bit and contraction counts, with and without memo, or
    the oracle's exception. Where einsum reads NaN only because a product
    its tensor zeroes overflowed, the rules, which never form that product,
    are not compared (see ``test_a_product_the_tensor_zeroes_is_never_formed``)."""
    rng = np.random.default_rng(seed)
    g = random_amp_circuit(rng)
    loaded = CircuitGraph.from_json(g.to_json())
    for _ in range(4):
        xs = [float(rng.uniform(-1.5, 1.5)) if g.wire_types[w] == "amp" else int(rng.integers(g.var_grids[w]))
              for (w,) in g.input_groups]
        for memo in (True, False):
            try:
                want, want_stats = oracle_eval_amp_circuit(g, xs, memo)
            except ZeroedProductOverflow:
                continue
            except (NumericalAbortError, RepresentationError) as exc:
                for graph in (g, loaded):
                    with pytest.raises(type(exc)):
                        eval_amp_circuit(graph, xs, memo)
                continue
            for graph in (g, loaded):
                got, stats = eval_amp_circuit(graph, xs, memo)
                assert [v.hex() for v in got] == [v.hex() for v in want]
                assert stats == want_stats


_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
    st.builds(math.ldexp, st.floats(-1, 1), st.integers(-1074, 1023)),
)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(["plus", "times"]), st.tuples(_ENTRIES, _ENTRIES), st.tuples(_ENTRIES, _ENTRIES))
def test_gate_rules_match_the_tensor_contraction(kind, a, b):
    """A (+) or (x) node's pair has the bits of ``np.einsum`` on its tensor
    wherever einsum's pair is finite. Where it is not, the evaluator aborts,
    or the product that overflowed is one the tensor zeroes."""
    g = build_amp_function((kind, ("func", [a], "x"), ("func", [b], "y")), {"x": 1, "y": 1})
    tensor = gate_tensor(GateKind(kind))
    with np.errstate(all="ignore"):
        want = np.einsum("i,j,ijk->k", a, b, tensor)
        products = np.multiply.outer(a, b)
    with mock.patch.object(circuit, "float_decode", tuple):  # read the output pair raw
        try:
            (got,), _ = eval_amp_circuit(g, [0, 0])
        except NumericalAbortError:
            got = None
    if np.isfinite(want).all():
        assert got is not None and [v.hex() for v in got] == [float(v).hex() for v in want]
    elif got is not None:
        hot = tensor.any(axis=2)
        assert np.isfinite(products[hot]).all() and not np.isfinite(products).all()


def test_programs_compiled_once_on_first_evaluation(monkeypatch):
    """Making a graph compiles nothing; the first evaluation compiles its
    program and later ones reuse it."""
    adder = build_adder(3)
    net = TestMemoization()._net()
    assert "_binary_program" not in vars(adder) and "_amp_program" not in vars(net)
    (z,) = eval_binary(adder, [BitVec.from_int(5, 3), BitVec.from_int(6, 3)])
    (v,), _ = eval_amp_circuit(net, [0.5, 0.25])
    programs = vars(adder)["_binary_program"], vars(net)["_amp_program"]
    monkeypatch.setattr(circuit, "_truth_table", None)
    assert eval_binary(adder, [BitVec.from_int(5, 3), BitVec.from_int(6, 3)]) == [z]
    assert eval_amp_circuit(net, [0.5, 0.25])[0] == [v]
    assert (vars(adder)["_binary_program"], vars(net)["_amp_program"]) == programs

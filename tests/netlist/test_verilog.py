"""Tests for the structural Verilog writer/parser."""

import io

import pytest

from repro.netlist import generate_preset
from repro.netlist.stats import compute_stats
from repro.netlist.verilog import parse_verilog, write_verilog

from tests.conftest import make_toy_netlist


def roundtrip(nl):
    buf = io.StringIO()
    write_verilog(nl, buf)
    return parse_verilog(buf.getvalue()), buf.getvalue()


def test_toy_roundtrip_preserves_structure():
    nl = make_toy_netlist()
    back, text = roundtrip(nl)
    assert compute_stats(back).n_pins == compute_stats(nl).n_pins
    assert set(back.ports) == set(nl.ports)
    assert "module toy" in text
    assert "endmodule" in text


def test_roundtrip_preserves_connectivity_signature():
    nl = generate_preset("xgate", scale=0.2)
    back, _ = roundtrip(nl)
    s1, s2 = compute_stats(nl), compute_stats(back)
    assert (s1.n_pins, s1.n_net_edges, s1.n_cell_edges) == \
           (s2.n_pins, s2.n_net_edges, s2.n_cell_edges)
    assert (s1.n_endpoints, s1.max_fanout) == (s2.n_endpoints, s2.max_fanout)


def test_cell_types_preserved():
    nl = make_toy_netlist()
    back, _ = roundtrip(nl)
    types = sorted(c.type_name for c in nl.cells.values())
    back_types = sorted(c.type_name for c in back.cells.values())
    assert types == back_types


def test_multi_po_net_uses_assign():
    nl = make_toy_netlist()  # g1 drives both reg D and po0
    _, text = roundtrip(nl)
    assert "assign po0" in text


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_verilog("module m ( endmodule")


def test_parser_rejects_bad_pin():
    text = """
    module m (a, y);
    input a;
    output y;
    INV_X1 u0 (.Z(a), .Y(y));
    endmodule
    """
    with pytest.raises((ValueError, KeyError)):
        parse_verilog(text)


def test_parser_handles_comments():
    text = """
    // header comment
    module m (a, y);
    input a;  // the input
    output y;
    INV_X1 u0 (.A(a), .Y(y));
    endmodule
    """
    nl = parse_verilog(text)
    assert len(nl.cells) == 1

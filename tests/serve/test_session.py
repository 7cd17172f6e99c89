"""Differential tests: incremental serving == cold rebuild, bit for bit."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.masking import build_endpoint_masks
from repro.ml.features import node_features
from repro.placement import compute_layout_maps
from repro.serve import DesignSession, Edit, RequestDispatcher, SessionFactory
from repro.timing import (
    CELL_OUT,
    PreRouteEstimator,
    build_timing_graph,
    run_sta,
)

from .conftest import FLOW_CONFIG, MAP_BINS

SAMPLE_ARRAYS = ("x_cell", "x_net", "masks", "layout_stack")


def snapshot(session):
    return {k: getattr(session.sample, k).copy() for k in SAMPLE_ARRAYS}


def assert_sample_equal(session, ref, context):
    for k, v in ref.items():
        got = getattr(session.sample, k)
        assert np.array_equal(got, v), (
            f"{k} diverged ({context}): "
            f"{int((got != v).sum())} differing entries")


def make_edits(session):
    """A mixed edit batch: move + resize on a register and a comb cell."""
    nl = session.netlist
    g = session.graph

    def alt_type(cid):
        inst = nl.cells[cid]
        kind = inst.type_name.rsplit("_X", 1)[0]
        alts = [t.name for t in nl.library.sizes_of(kind)
                if t.name != inst.type_name]
        return alts[0]

    seq = next(c for c in nl.cells
               if g.kind[g.node_of[nl.cells[c].output_pin]] != CELL_OUT)
    comb = next(c for c in nl.cells
                if g.kind[g.node_of[nl.cells[c].output_pin]] == CELL_OUT)
    die = session.placement.die
    return [
        Edit(op="move", cell=seq, x=die.width * 0.1, y=die.height * 0.2),
        Edit(op="resize", cell=seq, type_name=alt_type(seq)),
        Edit(op="resize", cell=comb, type_name=alt_type(comb)),
        Edit(op="move", cell=comb, x=die.width * 0.8, y=die.height * 0.7),
    ]


def cold_rebuild(session):
    """Re-featurize the session's *current* netlist/placement from scratch."""
    nl, pl = session.netlist, session.placement
    g = build_timing_graph(nl)
    x_cell, x_net = node_features(nl, pl, g)
    masks = build_endpoint_masks(nl, pl, g, map_bins=MAP_BINS,
                                 seed=session.seed)
    maps = compute_layout_maps(nl, pl, m=MAP_BINS, n=MAP_BINS)
    return {"x_cell": x_cell, "x_net": x_net, "masks": masks,
            "layout_stack": maps.stacked()}


class TestWhatif:
    def test_uncommitted_whatif_restores_state_bitforbit(
            self, fresh_flow, served_predictor):
        session = DesignSession(fresh_flow, served_predictor)
        before = snapshot(session)
        preds_before = session.predict()

        result = session.whatif(make_edits(session), commit=False)
        assert result["committed"] is False
        assert result["shift"]["endpoints_changed"] > 0

        assert_sample_equal(session, before, "after uncommitted whatif")
        assert session.predict() == preds_before
        assert session.revision == 0

    def test_committed_whatif_matches_cold_rebuild_bitforbit(
            self, fresh_flow, served_predictor):
        session = DesignSession(fresh_flow, served_predictor)
        edits = make_edits(session)

        result = session.whatif(edits, commit=True)
        assert result["committed"] is True
        assert session.revision == 1

        ref = cold_rebuild(session)
        assert_sample_equal(session, ref, "after committed whatif")
        # The model sees identical inputs, so predictions are identical
        # to a from-scratch pass over the mutated design.
        cold = served_predictor.predict(session.sample)
        assert session.predict() == cold

    def test_whatif_predictions_cover_all_endpoints(
            self, fresh_flow, served_predictor):
        session = DesignSession(fresh_flow, served_predictor)
        result = session.whatif(make_edits(session)[:1])
        assert len(result["predictions"]) == session.sample.n_endpoints
        assert set(result["pre_route"]) == {"wns", "tns"}

    def test_edit_batches_stack_across_commits(
            self, fresh_flow, served_predictor):
        session = DesignSession(fresh_flow, served_predictor)
        edits = make_edits(session)
        session.whatif(edits[:2], commit=True)
        session.whatif(edits[2:], commit=True)
        assert session.revision == 2
        assert_sample_equal(session, cold_rebuild(session),
                            "after two committed batches")

    def test_wire_dict_edits_accepted(self, fresh_flow, served_predictor):
        session = DesignSession(fresh_flow, served_predictor)
        e = make_edits(session)[0]
        result = session.whatif(
            [{"op": "move", "cell": e.cell, "x": e.x, "y": e.y}])
        assert result["design"] == session.name


    def test_flip_flop_resize_pre_route_equals_a_fresh_sta(
            self, served_predictor):
        """``/whatif`` on the flip-flop that launches the worst path:
        its ``pre_route`` WNS/TNS equal a fresh ``run_sta`` of the
        edited design at the session's clock (the resize changes the
        flip-flop's clock-to-Q launch)."""
        session = SessionFactory(lambda: served_predictor,
                                 flow_config=FLOW_CONFIG).open("xgate")
        nl, sta = session.netlist, session.sta.result
        worst = min(sta.endpoint_slack, key=sta.endpoint_slack.get)
        cid = nl.pins[sta.critical_path(worst)[0]].cell
        ctype = nl.cell_type(cid)
        assert ctype.is_sequential
        target = nl.library.upsize(ctype) or nl.library.downsize(ctype)
        edited, placement = pickle.loads(pickle.dumps(
            (nl, session.placement)))
        edited.change_cell_type(cid, target.name)
        want = run_sta(build_timing_graph(edited),
                       PreRouteEstimator(edited, placement),
                       session.clock_period)
        assert want.wns != sta.wns
        got = RequestDispatcher({"xgate": session}).handle(
            "POST", "/whatif",
            {"design": "xgate",
             "edits": [{"op": "resize", "cell": cid,
                        "type": target.name}]})
        assert got["pre_route"] == {"wns": want.wns, "tns": want.tns}
        session.close()

class TestPredict:
    def test_endpoint_subset(self, fresh_flow, served_predictor):
        session = DesignSession(fresh_flow, served_predictor)
        full = session.predict()
        some = list(full)[:3]
        sub = session.predict(endpoints=some)
        assert sub == {p: full[p] for p in some}

    def test_unknown_endpoint_rejected(self, fresh_flow, served_predictor):
        session = DesignSession(fresh_flow, served_predictor)
        with pytest.raises(ValueError, match="unknown endpoint"):
            session.predict(endpoints=[-1])

    def test_unfitted_predictor_rejected(self, fresh_flow):
        from repro.core import ModelConfig, TimingPredictor

        with pytest.raises(ValueError, match="fitted"):
            DesignSession(fresh_flow,
                          TimingPredictor(ModelConfig(map_bins=MAP_BINS)))


class TestEditValidation:
    def test_bad_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            Edit.from_dict({"op": "delete", "cell": 0})

    def test_resize_needs_type(self):
        with pytest.raises(ValueError, match="type"):
            Edit.from_dict({"op": "resize", "cell": 0})

    def test_move_needs_coordinates(self):
        with pytest.raises(ValueError, match="'x' and 'y'"):
            Edit.from_dict({"op": "move", "cell": 0, "x": 1.0})

    def test_unknown_cell_rejected(self, fresh_flow, served_predictor):
        session = DesignSession(fresh_flow, served_predictor)
        with pytest.raises(ValueError, match="no cell"):
            session.whatif([Edit(op="move", cell=10 ** 9, x=0.0, y=0.0)])

import itertools

from streams import DesignMenu, check_set, client_stream, open_schedule

MENUS = [
    DesignMenu("a", cells=tuple(range(50)), resizes=((1, "INV_X2"),
                                                      (2, "NAND2_X1")),
               width=40.0, height=30.0),
    DesignMenu("b", cells=tuple(range(80)), resizes=((3, "BUF_X4"),),
               width=60.0, height=60.0),
]


def _bodies(requests):
    return [(r.kind, r.path, r.body) for r in requests]


def _take(stream, n):
    return list(itertools.islice(stream, n))


def test_client_streams_repeat_for_a_seed_and_differ_across_seeds():
    first = _take(client_stream("w", 7, "client0", MENUS, "move"), 40)
    again = _take(client_stream("w", 7, "client0", MENUS, "move"), 40)
    other = _take(client_stream("w", 8, "client0", MENUS, "move"), 40)
    assert _bodies(first) == _bodies(again)
    assert _bodies(first) != _bodies(other)


def test_every_round_visits_each_design_once():
    designs = [r.design for r in
               _take(client_stream("w", 1, "c0", MENUS, "resize"), 40)]
    for k in range(0, 40, 2):
        assert sorted(designs[k:k + 2]) == ["a", "b"]
    assert designs[0::2] != ["a"] * 20       # the order within rounds varies


def test_edits_stay_on_the_menu():
    for r in _take(client_stream("w", 3, "c", MENUS, "resize"), 50):
        menu = next(m for m in MENUS if m.name == r.design)
        edit = r.body["edits"][0]
        assert (edit["cell"], edit["type"]) in menu.resizes
    for r in _take(client_stream("w", 3, "c", MENUS, "move"), 50):
        menu = next(m for m in MENUS if m.name == r.design)
        edit = r.body["edits"][0]
        assert edit["cell"] in menu.cells
        assert 0.0 <= edit["x"] <= menu.width
        assert 0.0 <= edit["y"] <= menu.height


def test_open_schedule_fixes_load_and_mix_but_not_timing():
    a = open_schedule("w", 5, MENUS, 100.0, 0.05, 4.0, "move")
    b = open_schedule("w", 5, MENUS, 100.0, 0.05, 4.0, "move")
    c = open_schedule("w", 6, MENUS, 100.0, 0.05, 4.0, "move")
    assert [(t, r.body) for t, r in a] == [(t, r.body) for t, r in b]
    assert [t for t, _ in a] != [t for t, _ in c]
    for sched in (a, c):
        assert len(sched) == 400
        assert sum(r.kind == "commit" for _, r in sched) == 20
        assert all(0.0 <= t < 4.0 for t, _ in sched)
        assert [t for t, _ in sched] == sorted(t for t, _ in sched)


def test_check_set_shape():
    reqs = check_set("w", 2, MENUS, "move", per_design=3)
    assert [r.kind for r in reqs] == (["commit"] * 2 + ["whatif"] * 6
                                      + ["read"] * 2)
    assert _bodies(reqs) == _bodies(check_set("w", 2, MENUS, "move", 3))

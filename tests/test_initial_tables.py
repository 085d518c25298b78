"""The one- and two-element tables that maps into and out of a table
algebra start or end at are built once, not per call."""

from mvtk import from_initial, make_chain, product, to_finite, to_terminal
from mvtk import morphisms


def test_initial_and_terminal_tables_are_built_once(monkeypatch):
    table = to_finite(product([make_chain(1), make_chain(2)]))
    first = from_initial(table), to_terminal(table)
    calls = []
    monkeypatch.setattr(morphisms, "to_finite",
                        lambda a: calls.append(a) or to_finite(a))
    for _ in range(3):
        assert from_initial(table).body == first[0].body
        assert to_terminal(table).body == first[1].body
        assert from_initial(table).dom is first[0].dom
        assert to_terminal(table).cod is first[1].cod
    assert calls == []

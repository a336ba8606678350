"""The hash-consing table each parse keeps (`_syntax.Parser.table`).

Within one parse, equal subtrees are one object, so the complement of a
guard holds the guard itself and `dl_syntax.detect_complement` compares by
identity, with no flattening. The expression loop takes a leaf it has met
from the table, so `atom` sees each operand lexeme at most once. The table
goes with its parser, and keeps nothing a constructor refused.
"""

import weakref

import pytest

from test_parser_oracle import controller, texts
from plchp import dl_syntax, st_syntax
from plchp.dl_syntax import parse_dl, parse_dl_model
from plchp.errors import ParseError
from plchp.ir import Formula, Node, Not, Term, walk
from plchp.st_syntax import parse_st, parse_st_expression, parse_st_statements


def assert_shared(tree):
    """Every term or formula in `tree` is the one object of its value."""
    seen = {}
    for n in walk(tree):
        if isinstance(n, (Term, Formula)):
            assert seen.setdefault(n, n) is n, n


def test_equal_subtrees_of_one_parse_are_one_object():
    st, model = controller(900)
    assert_shared(parse_st(st).body)
    assert_shared(parse_dl_model(model).body)
    for seed in range(200):
        for dialect, text in texts(seed):
            if dialect == "dl":
                assert_shared(parse_dl(text))
                continue
            try:
                assert_shared(parse_st_statements(text))
            except ParseError:
                assert_shared(parse_st_expression(text))


def test_each_complement_holds_its_guard(monkeypatch):
    calls = []

    def detect(left, right):
        calls.append((left, right))
        return detect_complement(left, right)

    detect_complement = dl_syntax.detect_complement
    monkeypatch.setattr(dl_syntax, "detect_complement", detect)
    parse_dl_model(controller(900)[1])
    assert len(calls) == 641
    assert all(right.__class__ is Not and right.operand is left for left, right in calls)


def test_a_model_parse_flattens_no_tree(monkeypatch):
    model = controller(900)[1]
    flat, calls = Node._flat, []

    def counted(self):
        calls.append(self)
        return flat(self)

    monkeypatch.setattr(Node, "_flat", counted)
    parse_dl_model(model)
    assert calls == []


@pytest.mark.parametrize("module, parse", [(st_syntax, parse_st), (dl_syntax, parse_dl_model)])
def test_the_operand_loop_reads_known_leaves_from_the_table(monkeypatch, module, parse):
    lexemes = []
    atom = module._Parser.atom

    def counted(self, i):
        lexemes.append(self.values[i])
        return atom(self, i)

    monkeypatch.setattr(module._Parser, "atom", counted)
    st, model = controller(900)
    parse(st if module is st_syntax else model)
    assert lexemes and len(lexemes) == len(set(lexemes))


@pytest.mark.parametrize("module, parse", [(st_syntax, parse_st), (dl_syntax, parse_dl_model)])
def test_the_table_goes_with_its_parser(monkeypatch, module, parse):
    parsers = []
    init = module._Parser.__init__

    def remember(self, text):
        init(self, text)
        parsers.append(weakref.ref(self))

    monkeypatch.setattr(module._Parser, "__init__", remember)
    st, model = controller(900)
    parse(st if module is st_syntax else model)
    assert len(parsers) == 1 and parsers[0]() is None


@pytest.mark.parametrize("module, text, refused", [
    (dl_syntax, "x + 1e400 > 0", "1e400"),
    (dl_syntax, "x + IF > 0", "IF"),
    (st_syntax, "x + 1e400 > 0", "1e400"),
])
def test_a_refused_leaf_is_not_stored(module, text, refused):
    parser = module._Parser(text)
    with pytest.raises(ParseError):
        parser.whole(module._Parser.formula)
    assert refused not in parser.table
    assert "x" in parser.table

"""The generators and difftest draw what they drew before their tables.

tests/oracle.py keeps the generators, `difftest` and `_run_trial` as they
were when each literal was formatted at its draw, each pick rebuilt its
weights, and each trial copied its configuration with `dataclasses.replace`.
The generators here must give the same trees, node for node and leaf for
leaf, and the same states, bit for bit; difftest must write the same report.
"""

import random
import struct

import pytest

import oracle
from plchp import semantics
from plchp.ir import HP, ST, Ident, Node, State
from plchp.semantics import GenConfig, ReachSet

DEPTHS = range(1, 9)
POOLS = tuple(tuple(Ident(chr(ord("a") + i)) for i in range(n)) for n in (1, 6, 26))


def configs():
    """Seeds 0 to 1999, each at one depth and one pool; as 8 and 3 are
    coprime, every pairing of depth and pool comes up once in 24 seeds."""
    for seed in range(2000):
        yield GenConfig(DEPTHS[seed % len(DEPTHS)], POOLS[seed % len(POOLS)], seed)


def leaves(node) -> list:
    """The interned leaves under `node`, identifiers included, in field order."""
    found, stack = [], [node]
    while stack:
        n = stack.pop()
        if n.__class__ is tuple:
            stack += reversed(n)
        elif isinstance(n, Node):
            if n.interned is not None:
                found.append(n)
            else:
                stack += [getattr(n, name) for name in reversed(n.FIELDS)]
    return found


def bits(state) -> list:
    return [(name, struct.pack("<d", value)) for name, value in state.items()]


@pytest.mark.parametrize("name, args", [
    ("gen_term", ()),
    ("gen_formula", (ST,)),
    ("gen_formula", (HP,)),
    ("gen_st", ()),
    ("gen_hp", ()),
])
def test_each_tree_is_the_one_drawn_before(name, args):
    generate, reference = getattr(semantics, name), getattr(oracle, name)
    for cfg in configs():
        tree, expected = generate(cfg, *args), reference(cfg, *args)
        assert tree == expected, cfg
        drawn, before = leaves(tree), leaves(expected)
        assert len(drawn) == len(before)
        assert all(a is b for a, b in zip(drawn, before)), cfg


def test_each_state_is_the_one_drawn_before():
    for cfg in configs():
        state, expected = semantics.gen_state(cfg), oracle.gen_state(cfg)
        assert bits(state) == bits(expected), cfg
        assert state == expected


def test_a_literal_is_the_node_drawn_before():
    rng, before = random.Random(5), random.Random(5)
    for _ in range(600):
        assert semantics._literal(rng) is oracle._literal(before)


@pytest.mark.parametrize("depth", DEPTHS)
def test_difftest_writes_the_report_it_wrote_before(depth):
    for i, pool in enumerate(POOLS):
        cfg = GenConfig(depth, pool, seed=10 * depth + i)
        report, expected = semantics.difftest(cfg, 25), oracle.difftest(cfg, 25)
        assert report.serialize() == expected.serialize(), cfg
        assert report.regenerated == expected.regenerated, cfg


def test_a_failing_report_is_the_one_written_before(monkeypatch):
    # Both trial loops see one reachable state too many, so every trial whose
    # source program is deterministic fails in leg (d), and the reports carry
    # each such program and its state.
    reachable = semantics.hp_reachable
    extra = State({Ident("zz"): 0.0})
    for module in (semantics, oracle):
        monkeypatch.setattr(module, "hp_reachable",
                            lambda p, s: ReachSet(reachable(p, s).states | {extra}))
    cfg = GenConfig(4, POOLS[1], seed=2)
    report, expected = semantics.difftest(cfg, 30), oracle.difftest(cfg, 30)
    assert report.failed
    assert report.serialize() == expected.serialize()
    assert report.regenerated == expected.regenerated

import math
import re

import numpy as np
import pytest

import ttcstress as ts
from ttcstress.errors import InputError, PrimitivityError
from ttcstress.ttc import _primitivity_defect

from oracles import pattern_power, primitive_by_powers
from conftest import counterexample_matrix
from test_cli import run


def cyclic_pattern(rng, m: int, p: int) -> np.ndarray:
    """Irreducible pattern whose edges all step from class c to c + 1 mod p:
    a Hamiltonian cycle through grades of alternating class plus extra edges
    of the same kind, so every cycle length is a multiple of p."""
    order = rng.permutation(m)
    cls = np.empty(m, dtype=int)
    cls[order] = np.arange(m) % p
    adj = (rng.random((m, m)) < 0.5) & (cls[None, :] == (cls[:, None] + 1) % p)
    adj[order, np.roll(order, -1)] = True
    return adj


def reducible_pattern(rng, m: int) -> np.ndarray:
    """Random pattern with no edge from the last k grades to the first m - k."""
    adj = rng.random((m, m)) < rng.uniform(0.2, 0.9)
    k = int(rng.integers(1, m))
    adj[m - k:, :m - k] = False
    return adj[np.ix_(*[rng.permutation(m)] * 2)]


def seeded_patterns(count: int):
    rng = np.random.default_rng(20240601)
    yield np.zeros((1, 1), dtype=bool)
    yield np.ones((1, 1), dtype=bool)
    for i in range(count):
        m = int(rng.integers(2, 9))
        kind = i % 5
        if kind == 0:
            yield rng.random((m, m)) < rng.uniform(0.05, 0.5)
        elif kind == 4:
            yield rng.random((m, m)) < rng.uniform(0.5, 0.95)
        elif kind == 1:
            yield cyclic_pattern(rng, m - m % 2, 2)
        elif kind == 2:
            yield cyclic_pattern(rng, max(m - m % 3, 3), 3)
        else:
            yield reducible_pattern(rng, m)


def chain(m: int, loops=()) -> np.ndarray:
    """One-notch chain on m grades: every move one grade up and one grade
    down, and a self-loop at each grade of ``loops``."""
    adj = np.eye(m, k=1, dtype=bool) | np.eye(m, k=-1, dtype=bool)
    adj[list(loops), list(loops)] = True
    return adj


def chain_patterns():
    """(kind, adjacency) of seeded graphs of every size from 1 to 30:
    random sparse graphs, one-notch chains with self-loops and extra edges,
    bare chains, chains with one notch missing, and permutations."""
    rng = np.random.default_rng(20241024)
    for m in range(1, 31):
        for _ in range(4):
            yield "sparse", rng.random((m, m)) < rng.uniform(0.02, 0.3)
            loops = rng.choice(m, int(rng.integers(1, m + 1)), replace=False)
            adj = chain(m, loops)
            yield "chain", adj | (rng.random((m, m)) < rng.uniform(0.0, 0.2))
            yield "chain", chain(m, loops[:1])
            if m > 1:
                k = int(rng.integers(0, m - 1))
                gap = adj.copy()
                gap[(k, k + 1) if rng.random() < 0.5 else (k + 1, k)] = False
                yield "one notch missing", gap
            yield "permutation", np.eye(m, dtype=bool)[rng.permutation(m)]
        yield "bare chain", chain(m)


def closure(adj: np.ndarray) -> np.ndarray:
    """reach[i, j]: j can be reached from i in zero or more steps."""
    m = adj.shape[0]
    return pattern_power(adj | np.eye(m, dtype=bool), max(m - 1, 1))


def cycle_gcd(adj: np.ndarray) -> int:
    """gcd of the lengths k <= m of closed walks: the period of an
    irreducible pattern, since every closed walk is made of simple cycles."""
    m = adj.shape[0]
    lengths = [k for k in range(1, m + 1)
               if np.diag(pattern_power(adj, k)).any()]
    return math.gcd(*lengths)


def pattern_system(adj: np.ndarray):
    """Transition matrix whose performing block has the pattern ``adj``."""
    m = adj.shape[0]
    weights = np.where(adj, np.linspace(1.0, 2.0, m * m).reshape(m, m), 0.0)
    probs = np.zeros((m + 1, m + 1))
    sums = weights.sum(axis=1, keepdims=True)
    probs[:m, :m] = 0.9 * weights / np.where(sums > 0.0, sums, 1.0)
    probs[:m, m] = 1.0 - probs[:m, :m].sum(axis=1)
    probs[m, m] = 1.0
    orig = np.append(np.full(m, 1.0 / m), 0.0)
    return ts.validate_transition_matrix(probs), ts.OriginationVector(orig)


class TestGraphPrimitivity:
    def test_agrees_with_wielandt_on_seeded_patterns(self):
        counts = {True: 0, False: 0}
        for adj in seeded_patterns(3200):
            weighted = adj * np.random.default_rng(adj.size).uniform(0.1, 1.0,
                                                                     adj.shape)
            expected = primitive_by_powers(adj)
            assert ts.is_primitive(weighted) == expected, adj.astype(int)
            counts[expected] += 1
        assert counts[True] >= 500 and counts[False] >= 2000

    def test_reason_names_the_period_or_an_unreachable_pair(self):
        periods = set()
        for adj in seeded_patterns(3200):
            reason = _primitivity_defect(adj)
            if primitive_by_powers(adj):
                assert reason is None
                continue
            reach = closure(adj)
            pair = re.fullmatch(r"grade (\d+) is unreachable from grade (\d+)",
                                reason)
            if pair:
                j, i = (int(g) - 1 for g in pair.groups())
                assert not reach[i, j] and 0 in (i, j)
                # the first grade unreachable from grade 1 is named first
                if i == 0:
                    assert j == int(np.argmin(reach[0]))
                else:
                    assert reach[0].all() and i == int(np.argmin(reach[:, 0]))
                continue
            assert reach.all(), reason
            if adj.shape[0] == 1:
                assert reason == "grade 1 has no transition to itself"
                continue
            period = int(re.fullmatch(r"the grades cycle with period (\d+)",
                                      reason).group(1))
            assert period > 1 and period == cycle_gcd(adj)
            periods.add(period)
        assert {2, 3} <= periods

    def test_chain_shortcut_agrees_with_wielandt(self):
        """The one-notch chain settles primitivity before the search; every
        verdict, and the defect of every graph it does not settle, still
        agrees with the power oracle."""
        counts = dict.fromkeys((True, False), 0)
        for kind, adj in chain_patterns():
            expected = primitive_by_powers(adj)
            reason = _primitivity_defect(adj)
            assert (reason is None) == expected, (kind, adj.astype(int))
            if kind == "chain":
                assert expected
            elif kind == "bare chain":
                assert reason == ("grade 1 has no transition to itself"
                                  if adj.shape[0] == 1 else
                                  "the grades cycle with period 2")
            elif kind == "one notch missing":
                assert "unreachable" in reason
            counts[expected] += 1
        assert counts[True] >= 200 and counts[False] >= 200

    @pytest.mark.parametrize("bad, at", [(np.nan, (0, 0)), (np.inf, (1, 0)),
                                         (-np.inf, (1, 1))])
    def test_non_finite_entry_is_an_input_error(self, bad, at):
        block = np.array([[0.5, 1.0], [1.0, 0.5]])
        block[at] = bad
        with pytest.raises(InputError) as err:
            ts.is_primitive(block)
        assert err.value.code == "invalid-argument"
        assert str(err.value) == (f"non-finite entry at row {at[0] + 1}, "
                                  f"column {at[1] + 1}")

    def test_one_by_one_blocks(self):
        assert ts.is_primitive([[0.5]])
        assert not ts.is_primitive([[0.0]])
        assert _primitivity_defect(np.array([[True]])) is None

    def test_counterexample_error_carries_the_period(self):
        with pytest.raises(PrimitivityError) as err:
            ts.solve_ttc_direct(counterexample_matrix(),
                                ts.OriginationVector([0.5, 0.5, 0.0]))
        assert err.value.reason == "the grades cycle with period 2"
        assert str(err.value) == ("performing-grade block is not primitive: "
                                  "the grades cycle with period 2")

    def test_reducible_error_names_the_pair(self):
        adj = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=bool)
        tm, orig = pattern_system(adj)
        with pytest.raises(PrimitivityError) as err:
            ts.solve_ttc_iterative(tm, orig)
        assert err.value.reason == "grade 1 is unreachable from grade 2"

    def test_cli_prints_the_reason(self, tmp_path, capsys):
        adj = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=bool)
        tm, _ = pattern_system(adj)
        matrix = tmp_path / "cyclic.csv"
        matrix.write_text(ts.emit_matrix_csv(tm))
        origination = tmp_path / "orig.csv"
        origination.write_text("0.5,0.5,0,0\n")
        code, _, err = run("ttc", "--matrix", str(matrix), "--origination",
                           str(origination), capsys=capsys)
        assert code == 2
        assert err == ("ttcstress: model condition failed: performing-grade "
                       "block is not primitive: the grades cycle with "
                       "period 3\n")

    def test_bundled_block_is_primitive(self, matrix8):
        assert _primitivity_defect(matrix8.performing_block > 0.0) is None

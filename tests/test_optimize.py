import numpy as np

from vbe import optimize, symmetry
from vbe.encode import subnormalize
from vbe.pauli import to_dense
from vbe.tables import GQSP_TABLE


class TestGreedyGeneratorSearch:
    def test_sn2_reaches_table_depth(self):
        gens = symmetry.heisenberg_generator_set("Sn", 2)
        target = subnormalize(to_dense(symmetry.symmetric_heisenberg_terms("Sn", 2, 0)))
        opts = optimize.OptimizeOptions(seed=0)
        res = optimize.greedy_generator_search(target, gens, opts, max_depth=8)
        assert res.report.converged
        assert all(b < a for a, b in zip(res.history, res.history[1:]))
        assert len(res.sequence) == GQSP_TABLE[("Sn", 2)][1]
        again = optimize.greedy_generator_search(target, gens, opts, max_depth=8)
        assert again.sequence == res.sequence
        assert np.array_equal(again.report.theta, res.report.theta)

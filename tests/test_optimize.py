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


class TestBfgsStoppingRule:
    def test_scaled_gradient_rule_on_squared_error(self):
        # f = C^2 with C^2 >= 1: the f floor never fires, so the run must end
        # on ||grad f|| <= 2 sqrt(f) tol, i.e. ||grad C|| <= tol
        def fg(x):
            r = np.array([x[0] - 1.0, 2.0 * (x[1] + 2.0), 1.0])
            jac = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
            return float(r @ r), 2.0 * jac.T @ r

        opts = optimize.OptimizeOptions(grad_norm_tol=1e-6)
        res = optimize.bfgs_minimize(fg, np.array([3.0, 1.0]), opts)
        assert (res.status, res.converged) == ("grad_tol", True)
        assert res.grad_norm <= 2.0 * np.sqrt(res.f) * opts.grad_norm_tol
        assert np.allclose(res.x, [1.0, -2.0], atol=1e-6)

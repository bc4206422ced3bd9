from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize, rosen, rosen_der

from vbe import optimize, symmetry
from vbe.circuit import AnsatzSpec
from vbe.encode import TargetSpec, subnormalize
from vbe.pauli import to_dense
from vbe.tables import GQSP_TABLE
from vbe.targets import random_matrix


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


class TestMultistartEncode:
    def test_deterministic_for_seed(self):
        target = subnormalize(random_matrix(1, seed=5))
        spec = AnsatzSpec(family="block", system_qubits=1, layers=1, block_id=2)
        opts = optimize.OptimizeOptions(restarts=3, max_iterations=40, seed=7)
        a = optimize.multistart_encode(target, spec, opts)
        b = optimize.multistart_encode(target, spec, opts)
        assert np.array_equal(a.theta, b.theta)
        assert (a.epsilon, a.restart_index, a.total_iterations) == (
            b.epsilon,
            b.restart_index,
            b.total_iterations,
        )
        other = optimize.multistart_encode(target, spec, replace(opts, seed=8))
        assert not np.array_equal(other.theta, a.theta)


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


def converges_from(k):
    """A stand-in for ``multistart_encode`` that is exact iff layers >= k."""

    def encode(target, spec, opts):
        ok = k is not None and spec.layers >= k
        return optimize.EncodeReport(
            epsilon=0.0 if ok else 1.0,
            theta=np.zeros(0),
            iterations=0,
            converged=ok,
            param_count=0,
            nonlocal_gates=0,
            layers=spec.layers,
        )

    return encode


class TestLayerThresholdSearch:
    @pytest.mark.parametrize(
        "k,m_thres,complete,tried",
        [(3, 3, True, [2, 3, 4]), (6, 6, True, [4, 5, 6]), (None, None, False, range(4, 17))],
        ids=["downward", "upward", "give_up"],
    )
    def test_control_flow(self, monkeypatch, k, m_thres, complete, tried):
        monkeypatch.setattr(optimize, "multistart_encode", converges_from(k))
        target = TargetSpec(np.eye(4), 1.0)
        spec = AnsatzSpec(family="block", system_qubits=2, layers=1, block_id=2)
        res = optimize.layer_threshold_search(target, spec, optimize.OptimizeOptions(), start=4)
        assert (res.m_thres, res.complete, res.start) == (m_thres, complete, 4)
        assert sorted(res.reports) == list(tried)
        assert all(r.layers == m for m, r in res.reports.items())


class TestBfgsAgainstScipy:
    def test_rosenbrock(self):
        def fg(x):
            return float(rosen(x)), rosen_der(x)

        x0 = np.array([-1.2, 1.0])
        res = optimize.bfgs_minimize(fg, x0, optimize.OptimizeOptions())
        ref = minimize(rosen, x0, jac=rosen_der, method="BFGS")
        assert ref.success
        assert (res.status, res.converged) == ("f_floor", True)
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-9)
        assert np.allclose(ref.x, [1.0, 1.0], atol=1e-4)
        assert res.iterations <= 2 * ref.nit

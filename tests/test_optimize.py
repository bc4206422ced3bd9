from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize, rosen, rosen_der

from vbe import optimize, symmetry
from vbe.circuit import AnsatzSpec, build_ansatz
from vbe.encode import TargetSpec, cost, subnormalize
from vbe.pauli import to_dense
from vbe.resources import free_parameter_bound
from vbe.tables import BDIM_TABLE, GQSP_TABLE
from vbe.targets import make_rng, random_matrix


def symmetric_target(kind, n, seed):
    return subnormalize(to_dense(symmetry.symmetric_heisenberg_terms(kind, n, seed)))


class TestGreedyGeneratorSearch:
    def test_sn2_reaches_table_depth(self):
        # on target seeds 1 and 2 too, where the random-layering threshold
        # search lands one layer above the anchor
        gens = symmetry.heisenberg_generator_set("Sn", 2)
        for seed in (0, 1, 2):
            target = symmetric_target("Sn", 2, seed)
            opts = optimize.OptimizeOptions(seed=seed)
            res = optimize.greedy_generator_search(target, gens, opts)
            assert res.report.converged, seed
            assert all(b < a for a, b in zip(res.history, res.history[1:])), seed
            assert len(res.sequence) == GQSP_TABLE[("Sn", 2)][1], seed
            again = optimize.greedy_generator_search(target, gens, opts)
            assert again.sequence == res.sequence, seed
            assert np.array_equal(again.report.theta, res.report.theta), seed


    def test_reports_every_evaluation(self, monkeypatch):
        calls = count_evaluations(monkeypatch)
        gens = symmetry.heisenberg_generator_set("Sn", 2)
        opts = optimize.OptimizeOptions(seed=0)
        res = optimize.greedy_generator_search(symmetric_target("Sn", 2, 0), gens, opts)
        # the root, then one child per generator at every depth
        assert res.report.evaluations == len(calls) > res.report.total_iterations
        assert res.report.to_dict()["evaluations"] == len(calls)

    def test_reports_every_iteration(self, monkeypatch):
        runs = record_bfgs(monkeypatch)
        gens = symmetry.heisenberg_generator_set("Sn", 2)
        opts = optimize.OptimizeOptions(seed=0)
        res = optimize.greedy_generator_search(symmetric_target("Sn", 2, 0), gens, opts)
        assert len(runs) == 1 + len(gens) * len(res.sequence)
        assert res.report.iterations == res.report.total_iterations == sum(r.iterations for r in runs)


def record_bfgs(monkeypatch) -> list:
    """Record the result of every ``bfgs_minimize`` run."""
    runs = []
    original = optimize.bfgs_minimize

    def recording(fg, x0, opts):
        runs.append(original(fg, x0, opts))
        return runs[-1]

    monkeypatch.setattr(optimize, "bfgs_minimize", recording)
    return runs


def record_multistarts(monkeypatch) -> list:
    """Record every ``multistart_encode`` call as (options, report, its BFGS runs)."""
    runs = record_bfgs(monkeypatch)
    calls = []
    original = optimize.multistart_encode

    def recording(target, spec, opts):
        first = len(runs)
        report = original(target, spec, opts)
        calls.append((opts, report, runs[first:]))
        return report

    monkeypatch.setattr(optimize, "multistart_encode", recording)
    return calls


def record_screens(monkeypatch) -> list:
    """Record every rank screen as (spec, options, report or None)."""
    screens = []
    original = optimize._rank_screen

    def recording(target, spec, opts, class_dim):
        screens.append((spec, opts, original(target, spec, opts, class_dim)))
        return screens[-1][2]

    monkeypatch.setattr(optimize, "_rank_screen", recording)
    return screens


def assert_screened_report(target, spec, opts, report):
    """A screened candidate's report: its first start, C there, and no work."""
    circuit = build_ansatz(spec)
    theta0 = make_rng(opts.seed, 0).uniform(-np.pi, np.pi, size=circuit.param_count)
    assert report.status == "rank_deficient"
    assert np.array_equal(report.theta, theta0)
    assert report.epsilon == pytest.approx(cost(target, circuit, theta0), rel=1e-12)
    assert (report.iterations, report.total_iterations, report.evaluations) == (0, 0, 0)
    assert (report.skipped, report.converged, report.layers) == (1, False, spec.layers)
    assert report.sequence_labels == spec.sequence_labels


def assert_exact_iff_f_floor(reports):
    """Each report is exact exactly when its best run ended on the f floor."""
    for r in reports:
        assert r.converged == (r.status == "f_floor"), r.status


def count_evaluations(monkeypatch) -> list:
    """Record every objective evaluation made through ``EncodeObjective``."""
    calls = []
    original = optimize.EncodeObjective.value_and_gradient

    def counting(self, theta):
        calls.append(self.circuit.param_count)
        return original(self, theta)

    monkeypatch.setattr(optimize.EncodeObjective, "value_and_gradient", counting)
    return calls


def same_generators(a, b):
    return len(a) == len(b) and all((g - h).is_zero() for g, h in zip(a.generators, b.generators))


class TestGqspTable:
    """The random-layering threshold search against the GQSP_TABLE anchors."""

    @pytest.mark.parametrize(
        "kind,n,seed",
        [
            ("Sn", 2, 0),
            ("Sn", 3, 0),
            ("Z2xz", 3, 0),
            # about 19 s on one core
            pytest.param("Cn", 4, 0, marks=pytest.mark.heavy),
            # these targets land at M=3 against the anchor 2 (ROADMAP, every
            # GQSP_TABLE cell)
            pytest.param("Sn", 2, 1, marks=pytest.mark.xfail(raises=AssertionError, strict=True)),
            pytest.param("Sn", 2, 2, marks=pytest.mark.xfail(raises=AssertionError, strict=True)),
        ],
    )
    def test_threshold_search_reaches_anchor(self, kind, n, seed):
        family = optimize.GqspFamily(symmetry.heisenberg_generator_set(kind, n))
        res = optimize.layer_threshold_search(
            symmetric_target(kind, n, seed), family, optimize.OptimizeOptions(seed=seed)
        )
        assert res.complete
        assert res.m_thres == GQSP_TABLE[(kind, n)][1]
        assert res.reports[res.m_thres].param_count == 3 * res.m_thres + 3

    @pytest.mark.parametrize("kind,n", [("Cn", 2), ("Z2xz", 2), ("Cn", 3)])
    def test_cells_equal_to_the_sn_cell(self, kind, n):
        # equal generator sets draw equal targets, so the Sn search covers the cell
        gens = symmetry.heisenberg_generator_set(kind, n)
        assert same_generators(gens, symmetry.heisenberg_generator_set("Sn", n))
        h = symmetry.symmetric_heisenberg_terms(kind, n, 0)
        assert (h - symmetry.symmetric_heisenberg_terms("Sn", n, 0)).is_zero()
        assert GQSP_TABLE[(kind, n)] == GQSP_TABLE[("Sn", n)]

    def test_non_hermitian_span_target(self):
        # a random complex element of span(B) for Sn 2 needs the non-hermitian
        # gadgets; the start estimate takes q = 2 real degrees of freedom per
        # basis element: the smallest M with 3M + 3 >= 2 * 6, plus 5%, is 4
        gs = symmetry.heisenberg_generator_set("Sn", 2)
        basis = symmetry.closure_basis(gs).full_basis
        rng = np.random.default_rng(0)
        c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        m = sum(ci * to_dense(b) for ci, b in zip(c, basis))
        assert not np.allclose(m, m.conj().T)
        family = optimize.GqspFamily(gs, hermitian=False)
        res = optimize.layer_threshold_search(subnormalize(m), family, optimize.OptimizeOptions(seed=0))
        assert (res.start, res.m_thres, res.complete) == (4, 4, True)
        assert sorted(res.reports) == [3, 4]
        assert res.reports[4].epsilon < 1e-10
        assert not res.reports[3].converged

    def test_reports_every_evaluation(self, monkeypatch):
        # each per-M report sums the work of every sequence tried at that M,
        # not only the best sequence's, and counts the sequences screened out
        calls = count_evaluations(monkeypatch)
        screens = record_screens(monkeypatch)
        family = optimize.GqspFamily(symmetry.heisenberg_generator_set("Sn", 2))
        res = optimize.layer_threshold_search(
            symmetric_target("Sn", 2, 0), family, optimize.OptimizeOptions(seed=0)
        )
        assert sum(r.evaluations for r in res.reports.values()) == len(calls)
        for m, r in res.reports.items():
            at_m = [rep for spec, _, rep in screens if spec.layers == m]
            assert r.skipped == sum(rep is not None for rep in at_m), m
            assert r.to_dict()["skipped"] == r.skipped, m
            if r.skipped < len(at_m):
                assert r.evaluations > r.total_iterations > 0, m
            else:
                assert r.evaluations == r.total_iterations == 0, m
        # no sequence of one layer reaches rank dim B = 6
        assert res.reports[1].skipped == optimize.GQSP_SEQUENCES

    def test_rows_dim_b_and_params(self):
        for cell, (dim_b, m, params) in GQSP_TABLE.items():
            assert dim_b == BDIM_TABLE[cell], cell
            assert params == 3 * m + 3, cell


def block_rank(spec, rng):
    """Numerical rank of the block Jacobian of ``spec``'s circuit at a random theta."""
    c = build_ansatz(spec)
    theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
    _, jac = optimize._block_jacobian(c, theta, 1 << spec.system_qubits)
    sv = np.linalg.svd(jac, compute_uv=False)
    return int(np.sum(sv > optimize._RANK_RTOL * sv.max()))


class TestBlockJacobianRank:
    """The generic rank of theta -> U(theta)[:sub, :sub], which the search screens on."""

    @pytest.mark.parametrize(
        "field,structure,ranks,class_dim",
        [
            ("complex", "arbitrary", {2: 23, 3: 32}, 32),
            ("complex", "hermitian", {1: 13, 2: 16}, 16),
            ("real", "hermitian", {1: 7, 2: 10}, 10),
        ],
    )
    def test_block2_n2(self, rng, field, structure, ranks, class_dim):
        spec = AnsatzSpec(
            family="block",
            system_qubits=2,
            layers=1,
            block_id=2,
            restriction=field,
            hermitian=structure == "hermitian",
        )
        assert free_parameter_bound(2, field, structure) == class_dim
        for m, rank in ranks.items():
            assert block_rank(replace(spec, layers=m), rng) == rank, m
        # the first full-rank M is the m_thres of the generic_encode search
        # of this cell (block 2, n=2, target seed 0, 4 restarts)
        res = optimize.layer_threshold_search(
            subnormalize(random_matrix(2, field, structure, seed=0)),
            spec,
            optimize.OptimizeOptions(restarts=4, seed=0),
        )
        assert res.m_thres == max(ranks)

    @pytest.mark.parametrize(
        "n,sequence,rank",
        [
            (2, ("YY-pairs", "X-all"), 6),
            (2, ("X-all", "X-all"), 3),
            (2, ("ZZ-pairs", "ZZ-pairs"), 2),
            (3, ("X-all", "YY-pairs", "ZZ-pairs"), 10),
            (3, ("XX-pairs", "YY-pairs", "YY-pairs"), 5),
        ],
    )
    def test_gqsp_sn(self, rng, n, sequence, rank):
        gens = symmetry.heisenberg_generator_set("Sn", n)
        assert BDIM_TABLE[("Sn", n)] == {2: 6, 3: 10}[n]
        family = optimize.GqspFamily(gens)
        spec = family.spec_for_sequence(tuple(gens.labels.index(g) for g in sequence))
        assert block_rank(spec, rng) == rank


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

    def test_reports_every_evaluation(self, monkeypatch):
        # no restart reaches an exact encoding in 40 iterations, so all 3 run
        calls = count_evaluations(monkeypatch)
        target = subnormalize(random_matrix(1, seed=5))
        spec = AnsatzSpec(family="block", system_qubits=1, layers=1, block_id=2)
        opts = optimize.OptimizeOptions(restarts=3, max_iterations=40, seed=7)
        report = optimize.multistart_encode(target, spec, opts)
        assert not report.converged
        assert report.evaluations == len(calls) > report.total_iterations
        assert report.to_dict()["evaluations"] == len(calls)


class TestBfgsStoppingRule:
    def test_scaled_gradient_rule_on_squared_error(self):
        # f = C^2 with C^2 >= 1: the f floor never fires, so the run must end
        # on ||grad f|| <= 2 sqrt(f) tol, i.e. ||grad C|| <= tol
        def fg(x):
            r = np.array([x[0] - 1.0, 2.0 * (x[1] + 2.0), 1.0])
            jac = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
            return float(r @ r), 2.0 * jac.T @ r

        opts = optimize.OptimizeOptions()
        res = optimize.bfgs_minimize(fg, np.array([3.0, 1.0]), opts)
        assert res.status == "grad_tol"
        f, grad = fg(res.x)
        assert f == res.f
        assert np.linalg.norm(grad) <= 2.0 * np.sqrt(res.f) * opts.grad_norm_tol
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


class TestEarlyStopping:
    """The encode loop ends at the first exact run, a threshold search at the
    first exact candidate."""

    def test_multistart_stops_at_first_exact_restart(self, monkeypatch):
        calls = record_multistarts(monkeypatch)
        spec = AnsatzSpec(family="block", system_qubits=2, layers=3, block_id=2)
        opts = optimize.OptimizeOptions(restarts=4, seed=3)
        report = optimize.multistart_encode(subnormalize(random_matrix(2, seed=0)), spec, opts)
        ((_, _, runs),) = calls
        assert (report.converged, report.restart_index) == (True, 2)
        assert len(runs) == report.restart_index + 1 < opts.restarts
        assert report.total_iterations == sum(r.iterations for r in runs)
        assert_exact_iff_f_floor([report])

    @pytest.mark.parametrize(
        "seed,candidates_at_threshold", [(0, optimize.GQSP_SEQUENCES), (1, 1)]
    )
    def test_gqsp_search_stops_at_first_exact_candidate(
        self, monkeypatch, seed, candidates_at_threshold
    ):
        # every candidate is screened in the order _candidates draws it; the
        # ones that pass run multistart_encode, the others make no call
        run_at_threshold = {0: 2, 1: 1}[seed]
        calls = record_multistarts(monkeypatch)
        screens = record_screens(monkeypatch)
        family = optimize.GqspFamily(symmetry.heisenberg_generator_set("Sn", 2))
        target = symmetric_target("Sn", 2, seed)
        opts = optimize.OptimizeOptions(seed=seed)
        res = optimize.layer_threshold_search(target, family, opts)
        assert res.complete
        for m, report in res.reports.items():
            tried = [c for c in screens if c[0].layers == m]
            drawn = list(optimize._candidates(family, m, opts))[: len(tried)]
            assert [(s.sequence_labels, o) for s, o, _ in tried] == [
                (s.sequence_labels, o) for s, o in drawn
            ], m
            at_m = [c for c in calls if c[1].layers == m]
            assert [o for o, _, _ in at_m] == [o for _, o, rep in tried if rep is None], m
            outcomes = iter(r for _, r, _ in at_m)
            reports = [rep if rep is not None else next(outcomes) for _, _, rep in tried]
            assert not any(r.converged for r in reports[:-1]), m
            assert reports[-1].converged == report.converged, m
            if not report.converged:
                assert len(tried) == optimize.GQSP_SEQUENCES, m
            for o, r, runs in at_m:
                assert len(runs) == (r.restart_index + 1 if r.converged else o.restarts), m
            for spec, o, rep in tried:
                if rep is not None:
                    assert_screened_report(target, spec, o, rep)
            assert report.skipped == len(tried) - len(at_m), m
        at_threshold = [c for c in screens if c[0].layers == res.m_thres]
        assert len(at_threshold) == candidates_at_threshold
        assert len([c for c in calls if c[1].layers == res.m_thres]) == run_at_threshold
        screened = [rep for _, _, rep in screens if rep is not None]
        assert_exact_iff_f_floor([r for _, r, _ in calls] + screened + list(res.reports.values()))

    def test_generic_search_skips_restarts_after_exact(self, monkeypatch):
        calls = record_multistarts(monkeypatch)
        target = subnormalize(random_matrix(2, "complex", "hermitian", seed=0))
        spec = AnsatzSpec(family="block", system_qubits=2, layers=1, block_id=2, hermitian=True)
        opts = optimize.OptimizeOptions(restarts=4, seed=0)
        screens = record_screens(monkeypatch)
        res = optimize.layer_threshold_search(target, spec, opts)
        assert [c[0].layers for c in screens] == sorted(res.reports, reverse=True)
        assert [c[1].layers for c in calls] == [s.layers for s, _, rep in screens if rep is None]
        for _, r, runs in calls:
            assert len(runs) == (r.restart_index + 1 if r.converged else opts.restarts)
        assert any(len(runs) < opts.restarts for _, _, runs in calls)
        # one layer reaches rank 13 of the class dimension 16, so M=1 runs no BFGS
        ((spec1, opts1, screened),) = [c for c in screens if c[2] is not None]
        assert (spec1.layers, opts1) == (1, opts)
        assert_screened_report(target, spec1, opts1, screened)
        assert res.reports[1] == screened and res.reports[1].skipped == 1
        assert_exact_iff_f_floor([r for _, r, _ in calls] + [screened, *res.reports.values()])


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

    def test_class_dimension_is_the_targets(self):
        # a 2 x 2 target on block 2 with n=2 is a two-ancilla encoding: the
        # screen ranks its 2 x 2 block against the n=1 class, not the n=2 one
        target = subnormalize(random_matrix(1, seed=0))
        spec = AnsatzSpec(family="block", system_qubits=2, layers=1, block_id=2)
        opts = optimize.OptimizeOptions(restarts=1, seed=0)
        assert optimize.multistart_encode(target, spec, opts).converged
        res = optimize.layer_threshold_search(target, spec, opts)
        assert (res.m_thres, res.complete) == (1, True)

    def test_target_larger_than_register_is_refused(self):
        target = subnormalize(random_matrix(3, seed=0))
        spec = AnsatzSpec(family="block", system_qubits=1, layers=1, block_id=2)
        with pytest.raises(ValueError, match="incompatible"):
            optimize.multistart_encode(target, spec, optimize.OptimizeOptions(restarts=1))
        with pytest.raises(ValueError, match="incompatible"):
            optimize.layer_threshold_search(target, spec, optimize.OptimizeOptions())

    def test_gqsp_target_on_other_qubits_is_refused(self):
        family = optimize.GqspFamily(symmetry.heisenberg_generator_set("Sn", 3))
        target = symmetric_target("Sn", 2, 0)
        with pytest.raises(ValueError, match="target on 2 qubits, generators on 3"):
            optimize.layer_threshold_search(target, family, optimize.OptimizeOptions())

    @pytest.mark.parametrize("start", [0, -1])
    @pytest.mark.parametrize("kind", ["generic", "gqsp"])
    def test_start_below_one_is_refused(self, kind, start):
        if kind == "generic":
            family = AnsatzSpec(family="block", system_qubits=2, layers=1, block_id=2)
            target = TargetSpec(np.eye(4), 1.0)
        else:
            family = optimize.GqspFamily(symmetry.heisenberg_generator_set("Sn", 2))
            target = symmetric_target("Sn", 2, 0)
        opts = optimize.OptimizeOptions()
        with pytest.raises(ValueError, match="start"):
            optimize.layer_threshold_search(target, family, opts, start=start)


class TestBfgsAgainstScipy:
    def test_rosenbrock(self):
        def fg(x):
            return float(rosen(x)), rosen_der(x)

        x0 = np.array([-1.2, 1.0])
        res = optimize.bfgs_minimize(fg, x0, optimize.OptimizeOptions())
        ref = minimize(rosen, x0, jac=rosen_der, method="BFGS")
        assert ref.success
        assert res.status == "f_floor"
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-9)
        assert np.allclose(ref.x, [1.0, 1.0], atol=1e-4)
        assert res.iterations <= 2 * ref.nit

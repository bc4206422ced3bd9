import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize, rosen, rosen_der

from vbe import optimize, symmetry
from vbe.circuit import AnsatzSpec, build_ansatz, evaluate_with_gradients
from vbe.encode import EncodeObjective, TargetSpec, cost, subnormalize
from vbe.pauli import PauliSum, to_dense
from vbe.resources import free_parameter_bound
from vbe.tables import BDIM_TABLE, GQSP_TABLE
from vbe.targets import make_rng, random_matrix


def symmetric_target(kind, n, seed):
    return subnormalize(to_dense(symmetry.symmetric_heisenberg_terms(kind, n, seed)))


def record_bfgs(monkeypatch) -> list:
    """Record the result of every BFGS run an encode loop keeps: its first
    start's ``bfgs_minimize`` run, then the runs ``_lockstep`` returns."""
    runs = []
    original, lockstep = optimize.bfgs_minimize, optimize._lockstep

    def recording(fg, x0, opts):
        runs.append(original(fg, x0, opts))
        return runs[-1]

    def recording_lockstep(fg, starts, opts):
        kept = lockstep(fg, starts, opts)
        runs.extend(kept)
        return kept

    monkeypatch.setattr(optimize, "bfgs_minimize", recording)
    monkeypatch.setattr(optimize, "_lockstep", recording_lockstep)
    return runs


def record_multistarts(monkeypatch) -> list:
    """Record every ``multistart_encode`` call as (options, report, its BFGS runs)."""
    runs = record_bfgs(monkeypatch)
    calls = []
    original = optimize.multistart_encode

    def recording(target, spec, opts, **kwargs):
        first = len(runs)
        report = original(target, spec, opts, **kwargs)
        calls.append((opts, report, runs[first:]))
        return report

    monkeypatch.setattr(optimize, "multistart_encode", recording)
    return calls


def record_screens(monkeypatch) -> list:
    """Record every rank screen as (spec, options, report or None)."""
    screens = []
    original = optimize._rank_screen

    def recording(target, spec, circuit, opts, class_dim):
        screens.append((spec, opts, original(target, spec, circuit, opts, class_dim)))
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
    """Record every parameter vector evaluated through ``EncodeObjective``,
    one entry per row of a batched call."""
    calls = []
    original = optimize.EncodeObjective.value_and_gradient

    def counting(self, theta):
        calls.extend([self.circuit.param_count] * (len(theta) if np.ndim(theta) == 2 else 1))
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
            # the first ten draws at M=2 repeat sequences on these targets
            ("Sn", 2, 1),
            ("Sn", 2, 2),
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
        # no sequence of one layer reaches rank dim B = 6, and M=1 tries
        # each of the four once
        assert res.reports[1].skipped == len(family.generator_set)

    def test_rows_dim_b_and_params(self):
        for cell, (dim_b, m, params) in GQSP_TABLE.items():
            assert dim_b == BDIM_TABLE[cell], cell
            assert params == 3 * m + 3, cell


class TestCandidates:
    """The draw rule of a threshold search: distinct sequences per layer count."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gqsp_draws_distinct_sequences(self, m, seed):
        gens = symmetry.heisenberg_generator_set("Sn", 2)
        opts = optimize.OptimizeOptions(seed=seed)
        got = [
            (spec.sequence_labels, o)
            for spec, o in optimize._candidates(optimize.GqspFamily(gens), m, opts)
        ]
        assert len(got) == min(optimize.GQSP_SEQUENCES, len(gens) ** m)
        assert len({labels for labels, _ in got}) == len(got)
        if m == 1:
            assert sorted(labels for labels, _ in got) == sorted((g,) for g in gens.labels)
        # each candidate is the draw of its own stream s, sequence and then
        # restart seed, and the streams between two candidates repeat a
        # sequence drawn before
        drawn = set()
        s = 0
        for labels, o in got:
            while True:
                rng = make_rng(seed, m, s)
                s += 1
                draw = tuple(gens.labels[int(i)] for i in rng.integers(0, len(gens), size=m))
                if draw not in drawn:
                    break
            drawn.add(draw)
            init_seed = int(rng.integers(0, 2**62))
            assert labels == draw
            assert o == replace(opts, restarts=optimize.GQSP_INITS, seed=init_seed)

    def test_generic_family_has_one_candidate(self):
        spec = AnsatzSpec(family="block", system_qubits=2, layers=1, block_id=2)
        opts = optimize.OptimizeOptions(restarts=4, seed=3)
        assert list(optimize._candidates(spec, 3, opts)) == [(replace(spec, layers=3), opts)]


def block_rank(spec, rng):
    """Numerical rank of the block Jacobian of ``spec``'s circuit at a random theta."""
    c = build_ansatz(spec)
    theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
    _, pullback = evaluate_with_gradients(c, theta)
    jac = optimize._block_jacobian(pullback, 1 << spec.system_qubits)
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

    @pytest.mark.parametrize(
        "seed", [np.random.default_rng(7), 7.0, -1], ids=["generator", "float", "negative"]
    )
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # a Generator would give a fresh start on every draw of restart 0, so
        # the screen would rank one start and BFGS begin from another
        with pytest.raises(ValueError, match="seed"):
            optimize.OptimizeOptions(seed=seed)
        assert optimize.OptimizeOptions(seed=np.int64(7)).seed == 7

    @pytest.mark.parametrize("field", ["restarts", "max_iterations"])
    @pytest.mark.parametrize("value", [2.5, 10.0, 0], ids=["fraction", "float", "zero"])
    def test_counts_must_be_positive_integers(self, field, value):
        # a float count would reach range() in multistart_encode as a TypeError
        with pytest.raises(ValueError, match=f"{field} must be a positive integer, got {value}"):
            optimize.OptimizeOptions(**{field: value})
        assert getattr(optimize.OptimizeOptions(**{field: np.int64(3)}), field) == 3

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

    def test_wrong_sign_gradient_ends_in_a_failed_line_search(self):
        # the gradient points downhill, so f rises along every step the line
        # search tries: the zoom's interval collapses, and with no sufficient
        # decrease left the run ends at its start instead of raising
        def fg(x):
            return float(x @ x + 1.0), -2.0 * x

        x0 = np.array([0.5, -1.0])
        res = optimize.bfgs_minimize(fg, x0, optimize.OptimizeOptions())
        assert (res.status, res.iterations, res.f) == ("line_search_failed", 0, fg(x0)[0])
        assert np.array_equal(res.x, x0)


def converges_from(k):
    """A stand-in for ``multistart_encode`` that is exact iff layers >= k."""

    def encode(target, spec, opts, **_):
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

    @pytest.mark.parametrize("seed,candidates_at_threshold", [(0, 7), (1, 9)])
    def test_gqsp_search_stops_at_first_exact_candidate(
        self, monkeypatch, seed, candidates_at_threshold
    ):
        # every candidate is screened in the order _candidates draws it; the
        # ones that pass run multistart_encode, the others make no call.  At
        # the threshold M=2 two candidates pass on either seed, and the
        # second is exact
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
                n_sequences = len(family.generator_set) ** m
                assert len(tried) == min(optimize.GQSP_SEQUENCES, n_sequences), m
            for o, r, runs in at_m:
                assert len(runs) == (r.restart_index + 1 if r.converged else o.restarts), m
            for spec, o, rep in tried:
                if rep is not None:
                    assert_screened_report(target, spec, o, rep)
            assert report.skipped == len(tried) - len(at_m), m
        at_threshold = [c for c in screens if c[0].layers == res.m_thres]
        assert len(at_threshold) == candidates_at_threshold
        assert len([c for c in calls if c[1].layers == res.m_thres]) == 2
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

    def test_builds_each_candidate_once(self, monkeypatch):
        # the screen and the encode loop of a candidate share one circuit
        built, screened, encoded = [], [], []
        build, screen, encode = (
            optimize.build_ansatz,
            optimize._rank_screen,
            optimize.multistart_encode,
        )

        def recording_build(spec):
            built.append(build(spec))
            return built[-1]

        def recording_screen(target, spec, circuit, opts, class_dim):
            screened.append(circuit)
            return screen(target, spec, circuit, opts, class_dim)

        def recording_encode(target, spec, opts, *, circuit):
            encoded.append(circuit)
            return encode(target, spec, opts, circuit=circuit)

        monkeypatch.setattr(optimize, "build_ansatz", recording_build)
        monkeypatch.setattr(optimize, "_rank_screen", recording_screen)
        monkeypatch.setattr(optimize, "multistart_encode", recording_encode)
        family = optimize.GqspFamily(symmetry.heisenberg_generator_set("Sn", 2))
        res = optimize.layer_threshold_search(
            symmetric_target("Sn", 2, 0), family, optimize.OptimizeOptions(seed=0)
        )
        assert res.complete and encoded
        # the first build is the one-layer circuit the start estimate reads
        assert built[0].layer_slot_count == 3 and not any(built[0] is c for c in screened)
        assert [id(c) for c in built[1:]] == [id(c) for c in screened]
        assert all(any(c is s for s in screened) for c in encoded)

    def test_class_dimension_is_the_targets(self):
        # a 2 x 2 target on block 2 with n=2 is a two-ancilla encoding: the
        # screen ranks its 2 x 2 block against the n=1 class, not the n=2 one
        target = subnormalize(random_matrix(1, seed=0))
        spec = AnsatzSpec(family="block", system_qubits=2, layers=1, block_id=2)
        opts = optimize.OptimizeOptions(restarts=1, seed=0)
        assert optimize.multistart_encode(target, spec, opts).converged
        res = optimize.layer_threshold_search(target, spec, opts)
        assert (res.m_thres, res.complete) == (1, True)

    def test_start_estimate_is_the_targets(self):
        # the n=1 class of the 2 x 2 target has 8 parameters, fewer than the
        # 9 of the appended single-qubit layer, so the estimate is 0 layers:
        # the search starts at M=2 (5% above max(0, 1)), not at M=4 from
        # the n=2 class, and takes one step down
        target = subnormalize(random_matrix(1, seed=0))
        spec = AnsatzSpec(family="block", system_qubits=2, layers=1, block_id=2)
        opts = optimize.OptimizeOptions(restarts=1, seed=0)
        res = optimize.layer_threshold_search(target, spec, opts)
        assert (res.start, res.m_thres, sorted(res.reports)) == (2, 1, [1, 2])

    def test_target_larger_than_register_is_refused(self):
        target = subnormalize(random_matrix(3, seed=0))
        spec = AnsatzSpec(family="block", system_qubits=1, layers=1, block_id=2)
        with pytest.raises(ValueError, match="incompatible"):
            optimize.multistart_encode(target, spec, optimize.OptimizeOptions(restarts=1))
        with pytest.raises(ValueError, match="incompatible"):
            optimize.layer_threshold_search(target, spec, optimize.OptimizeOptions())

    def test_fit_check_comes_before_any_rank(self, monkeypatch):
        ranked = []
        monkeypatch.setattr(optimize, "_block_jacobian", lambda *a: ranked.append(a))
        target = subnormalize(random_matrix(3, seed=0))
        spec = AnsatzSpec(family="block", system_qubits=1, layers=1, block_id=2)
        with pytest.raises(ValueError, match="incompatible"):
            optimize.layer_threshold_search(target, spec, optimize.OptimizeOptions())
        assert ranked == []

    @pytest.mark.parametrize("kind", ["generic", "gqsp"])
    def test_every_reported_epsilon_is_the_cost(self, kind):
        # on the circuit rebuilt from the report, bit for bit, for the
        # screened candidates' reports too
        if kind == "generic":
            target = subnormalize(random_matrix(2, "complex", "hermitian", seed=0))
            family = AnsatzSpec(
                family="block", system_qubits=2, layers=1, block_id=2, hermitian=True
            )
            opts = optimize.OptimizeOptions(restarts=2, seed=0)

            def spec_for(r):
                return replace(family, layers=r.layers)

        else:
            gens = symmetry.heisenberg_generator_set("Sn", 2)
            family = optimize.GqspFamily(gens)
            target = symmetric_target("Sn", 2, 0)
            opts = optimize.OptimizeOptions(seed=0)

            def spec_for(r):
                return family.spec_for_sequence(
                    tuple(gens.labels.index(label) for label in r.sequence_labels)
                )

        res = optimize.layer_threshold_search(target, family, opts)
        assert res.complete
        assert any(r.status == "rank_deficient" for r in res.reports.values())
        for r in res.reports.values():
            assert r.epsilon == cost(target, build_ansatz(spec_for(r)), r.theta), r.layers

    def test_gqsp_target_on_other_qubits_is_refused(self):
        family = optimize.GqspFamily(symmetry.heisenberg_generator_set("Sn", 3))
        target = symmetric_target("Sn", 2, 0)
        with pytest.raises(ValueError, match="target on 2 qubits, generators on 3"):
            optimize.layer_threshold_search(target, family, optimize.OptimizeOptions())

    @pytest.mark.parametrize("gens", [(), (PauliSum.zero(2),)], ids=["none", "zero"])
    def test_gqsp_generators_with_empty_closure_are_refused(self, monkeypatch, gens):
        screened = []
        monkeypatch.setattr(optimize, "_rank_screen", lambda *a: screened.append(a))
        labels = tuple(f"g{i}" for i in range(len(gens)))
        family = optimize.GqspFamily(symmetry.GeneratorSet("Sn", 2, gens, labels))
        with pytest.raises(ValueError, match="empty span"):
            optimize.layer_threshold_search(
                symmetric_target("Sn", 2, 0), family, optimize.OptimizeOptions()
            )
        assert screened == []

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

    @pytest.mark.parametrize(
        "kind,match",
        [
            ("hermitian", "hermitian family .* not hermitian"),
            ("real", "real family .* imaginary part"),
            ("gqsp", "hermitian family .* not hermitian"),
        ],
        ids=["hermitian", "real", "gqsp"],
    )
    def test_target_outside_the_class_is_refused(self, monkeypatch, kind, match):
        # a hermitized circuit's block is hermitian and a real circuit's block
        # is real, so the search refuses before it screens any candidate
        screened = []
        monkeypatch.setattr(optimize, "_rank_screen", lambda *a: screened.append(a))
        if kind == "gqsp":
            n, family = 2, optimize.GqspFamily(symmetry.heisenberg_generator_set("Sn", 2))
        else:
            n = 1
            family = AnsatzSpec(
                family="block",
                system_qubits=n,
                layers=1,
                block_id=2,
                restriction="real" if kind == "real" else "complex",
                hermitian=kind == "hermitian",
            )
        target = subnormalize(random_matrix(n, "complex", "arbitrary", seed=0))
        with pytest.raises(ValueError, match=match):
            optimize.layer_threshold_search(target, family, optimize.OptimizeOptions())
        assert screened == []

    def test_target_inside_the_class_within_tolerance_is_searched(self):
        # a 1e-14 asymmetry at (0, 1) and a 1e-14 imaginary part at (0, 0)
        # stay within 1e-12 of A's Frobenius norm, so the hermitian spec and
        # the real spec both search the target
        a = random_matrix(1, "real", "hermitian", seed=0).astype(complex)
        a[0, 1] += 1e-14
        a[0, 0] += 1e-14j
        target = subnormalize(a)
        opts = optimize.OptimizeOptions(restarts=1, seed=0)
        for restriction in ("complex", "real"):
            spec = AnsatzSpec(
                family="block",
                system_qubits=1,
                layers=1,
                block_id=2,
                restriction=restriction,
                hermitian=restriction == "complex",
            )
            res = optimize.layer_threshold_search(target, spec, opts, start=1)
            assert (res.m_thres, res.complete) == (1, True), restriction

    def test_start_is_checked_before_the_closure(self, monkeypatch):
        def no_closure(*_):
            raise AssertionError("closure computed before the start check")

        monkeypatch.setattr(optimize, "closure_basis", no_closure)
        family = optimize.GqspFamily(symmetry.heisenberg_generator_set("Sn", 2))
        target, opts = symmetric_target("Sn", 2, 0), optimize.OptimizeOptions()
        with pytest.raises(ValueError, match="start must be an integer"):
            optimize.layer_threshold_search(target, family, opts, start=0)

    @pytest.mark.parametrize("k", [3, None], ids=["complete", "give_up"])
    def test_result_to_dict(self, monkeypatch, k):
        # the downward walk records M = 4, 3, 2 in that order, and the
        # upward one 4 to 16
        monkeypatch.setattr(optimize, "multistart_encode", converges_from(k))
        target = TargetSpec(np.eye(4), 1.0)
        spec = AnsatzSpec(family="block", system_qubits=2, layers=1, block_id=2)
        res = optimize.layer_threshold_search(target, spec, optimize.OptimizeOptions(), start=4)
        out = json.loads(json.dumps(res.to_dict()))
        assert (out["m_thres"], out["complete"], out["start"]) == (res.m_thres, res.complete, 4)
        assert [int(m) for m in out["per_m"]] == sorted(res.reports)
        assert all(out["per_m"][str(m)]["layers"] == m for m in res.reports)

    @pytest.mark.parametrize("start", [2.5, 2.0])
    def test_non_integer_start_is_refused(self, start):
        family = AnsatzSpec(family="block", system_qubits=2, layers=1, block_id=2)
        target, opts = TargetSpec(np.eye(4), 1.0), optimize.OptimizeOptions()
        with pytest.raises(ValueError, match=f"start must be an integer .*, got {start}"):
            optimize.layer_threshold_search(target, family, opts, start=start)


class TestInverseHessianUpdate:
    """The BFGS inverse-Hessian update as one symmetric rank-2 term."""

    @staticmethod
    def curvature_pair(rng, p):
        # y = B s for a well-conditioned positive definite B, plus a small
        # perturbation, so that s^T y > 0 as after a Wolfe step
        a = rng.normal(size=(p, p))
        s = rng.normal(size=p)
        return s, (np.eye(p) + a @ a.T / p) @ s + 0.1 * rng.normal(size=p)

    @pytest.mark.parametrize("p", [3, 33, 144])
    def test_matches_textbook_form(self, rng, p):
        a = rng.normal(size=(p, p))
        h = np.eye(p) + a @ a.T / p
        s, y = self.curvature_pair(rng, p)
        rho = 1.0 / (s @ y)
        v = np.eye(p) - rho * np.outer(s, y)
        want = v @ h @ v.T + rho * np.outer(s, s)
        optimize._inverse_hessian_update(h, s, y)
        assert np.linalg.norm(h - want) <= 1e-13 * np.linalg.norm(want)

    def test_stays_exactly_symmetric(self, rng):
        h = np.eye(33)
        for _ in range(50):
            optimize._inverse_hessian_update(h, *self.curvature_pair(rng, 33))
        assert np.array_equal(h, h.T)


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


def sequential_report(target, spec, opts):
    """The encode loop of ``multistart_encode`` run one start at a time, each
    BFGS run on an objective of its own: the report lockstep restarts must
    give, with the evaluations the starts needed."""
    circuit = build_ansatz(spec)
    runs, evaluations = [], 0
    for r in range(opts.restarts):
        obj = EncodeObjective(target, circuit)
        theta0 = make_rng(opts.seed, r).uniform(-np.pi, np.pi, size=circuit.param_count)
        runs.append(optimize.bfgs_minimize(obj.value_and_gradient, theta0, opts))
        evaluations += obj.evaluations
        if r == 0 or runs[-1].f < runs[best].f:
            best = r
        if runs[-1].status == "f_floor":
            break
    total = sum(run.iterations for run in runs)
    return optimize._report(spec, circuit, runs[best], best, total, evaluations, 0, 0.0)


def record_lockstep(monkeypatch) -> list:
    """Record the starts of every ``_lockstep`` call."""
    calls = []
    original = optimize._lockstep

    def recording(fg, starts, opts):
        calls.append(starts)
        return original(fg, starts, opts)

    monkeypatch.setattr(optimize, "_lockstep", recording)
    return calls


class TestLockstepRestarts:
    """After an inexact first start the encode loop runs the other starts in
    lockstep, and reports what the loop run one start at a time reports."""

    def assert_sequential(self, target, spec, opts, extra_evaluations):
        report = optimize.multistart_encode(target, spec, opts)
        want = sequential_report(target, spec, opts)
        assert np.array_equal(report.theta, want.theta)
        assert report == replace(want, evaluations=want.evaluations + extra_evaluations)
        return report, want

    def test_exact_first_start_runs_alone(self, monkeypatch):
        calls = record_lockstep(monkeypatch)
        target = subnormalize(random_matrix(2, "complex", "hermitian", seed=0))
        spec = AnsatzSpec(family="block", system_qubits=2, layers=2, block_id=2, hermitian=True)
        report, _ = self.assert_sequential(target, spec, optimize.OptimizeOptions(restarts=4), 0)
        assert (report.converged, report.restart_index, calls) == (True, 0, [])

    def test_later_exact_start_stops_the_rest(self, monkeypatch):
        # GQSP Sn 3, target seed 0, the first sequence drawn at M=4: restart 0
        # ends inexact after 305 evaluations and restart 1 exact after 70.
        # Restarts 2-4 took a step beside restart 1 at each of its 70
        calls = record_lockstep(monkeypatch)
        family = optimize.GqspFamily(symmetry.heisenberg_generator_set("Sn", 3))
        spec, opts = next(optimize._candidates(family, 4, optimize.OptimizeOptions(seed=0)))
        assert spec.sequence_labels == ("YY-pairs", "X-all", "ZZ-pairs", "YY-pairs")
        target = symmetric_target("Sn", 3, 0)
        report, want = self.assert_sequential(target, spec, opts, 3 * 70)
        assert (report.converged, report.restart_index, want.evaluations) == (True, 1, 305 + 70)
        assert [len(starts) for starts in calls] == [optimize.GQSP_INITS - 1]

    def test_no_exact_start_runs_every_start(self, monkeypatch):
        calls = record_lockstep(monkeypatch)
        target = subnormalize(random_matrix(1, seed=5))
        spec = AnsatzSpec(family="block", system_qubits=1, layers=1, block_id=2)
        opts = optimize.OptimizeOptions(restarts=3, max_iterations=40, seed=7)
        report, _ = self.assert_sequential(target, spec, opts, 0)
        assert not report.converged
        assert [len(starts) for starts in calls] == [2]


def batched_rosen(widths):
    """The 2-D Rosenbrock function on a (T, 2) batch, recording each T."""

    def fg(x):
        widths.append(len(x))
        return rosen(x.T), rosen_der(x.T).T

    return fg


class TestLockstepDriver:
    """``_lockstep`` on the Rosenbrock function: each run is the run
    ``bfgs_minimize`` makes from its start, up to the first exact one."""

    def solo(self, starts, opts):
        def fg(x):
            return rosen(x), rosen_der(x)

        return [optimize.bfgs_minimize(fg, x0, opts) for x0 in starts]

    def assert_runs_equal(self, got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a.x, b.x)
            assert (a.f, a.iterations, a.status) == (b.f, b.iterations, b.status)

    def test_inexact_runs_all_end(self):
        opts = optimize.OptimizeOptions(max_iterations=8)
        starts = [np.array(x) for x in ([-1.2, 1.0], [2.0, -1.0], [0.0, 0.0])]
        widths = []
        runs = optimize._lockstep(batched_rosen(widths), starts, opts)
        assert [r.status for r in runs] == ["max_iterations"] * 3
        self.assert_runs_equal(runs, self.solo(starts, opts))
        assert widths[0] == 3 and widths == sorted(widths, reverse=True)

    def test_exact_run_stops_the_later_ones(self):
        # the minimum itself is exact at its first point; the start before it
        # runs on alone, the one after it stops
        opts = optimize.OptimizeOptions(max_iterations=8)
        starts = [np.array(x) for x in ([-1.2, 1.0], [1.0, 1.0], [2.0, -1.0])]
        widths = []
        runs = optimize._lockstep(batched_rosen(widths), starts, opts)
        assert [r.status for r in runs] == ["max_iterations", "f_floor"]
        self.assert_runs_equal(runs, self.solo(starts[:2], opts))
        assert widths[0] == 3 and set(widths[1:]) == {1}

    def test_earlier_exact_run_wins(self):
        # the later start is exact first, but the earlier one ends exact too
        opts = optimize.OptimizeOptions()
        starts = [np.array(x) for x in ([1.1, 1.2], [1.0, 1.0])]
        runs = optimize._lockstep(batched_rosen([]), starts, opts)
        self.assert_runs_equal(runs, self.solo(starts[:1], opts))
        assert runs[0].status == "f_floor" and runs[0].iterations > 0

    def test_no_starts(self):
        assert optimize._lockstep(batched_rosen([]), [], optimize.OptimizeOptions()) == []

import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from strategies import (adversarial_instances, adversarial_model_coefficients, adversarial_models,
                        build_model, coefficient_mass, random_instance)
from permqubo import (
    PermutationMatrix,
    QapInstance,
    QuboModel,
    brute_force_qap,
    build_constraints,
    build_formulation,
    coupling_report,
    decode,
    decode_states,
    enumerate_states,
    exhaustive_minimum,
    export_sparse,
    penalty_bounds,
    qap_energy,
    to_spin,
    vectorize,
)
from permqubo.qubo import SpinModel, normalize_couplings


ALL_FORMULATIONS = ("baseline", "row_wise", "inserted")


class TestConstraints:
    def test_n2_known_matrix(self):
        A = build_constraints(2)
        expected = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
        assert A.astype(int).tolist() == expected

    def test_n1_degenerate(self):
        A = build_constraints(1)
        assert A.tolist() == [[1.0], [1.0]]

    def test_structure_counts(self):
        for n in (2, 3, 4):
            A = build_constraints(n)
            assert np.all(A.sum(axis=0) == 2)  # each variable in two constraints
            assert np.all(A.sum(axis=1) == n)  # each constraint covers n variables

    def test_feasible_set_is_exactly_the_permutations(self):
        n = 3
        A = build_constraints(n)
        feasible = set()
        for bits in itertools.product((0, 1), repeat=9):
            if np.array_equal(A @ np.array(bits), np.ones(2 * n)):
                feasible.add(bits)
        perms = {
            tuple(vectorize(PermutationMatrix(n, list(a))))
            for a in itertools.permutations(range(n))
        }
        assert feasible == perms

    def test_permutations_satisfy_constraints(self):
        for n in (2, 3, 4):
            A = build_constraints(n)
            for a in itertools.permutations(range(n)):
                x = vectorize(PermutationMatrix(n, list(a)))
                assert np.array_equal(A @ x, np.ones(2 * n))


class TestPenaltyBounds:
    def test_zero_instance_all_zero(self):
        inst = QapInstance(2, np.zeros((4, 4)), np.zeros(4))
        b = penalty_bounds(inst)
        assert b.lambda_baseline == 0.0
        assert np.all(b.lambda_rows == 0.0)
        assert np.all(b.lambda1 == 0.0)
        assert b.lambda2 == 0.0

    def test_uniform_linear_hand_values(self):
        inst = QapInstance(2, np.zeros((4, 4)), np.ones(4))
        b = penalty_bounds(inst)
        assert b.lambda_baseline == 2.0
        assert b.lambda_rows.tolist() == [1.5, 1.5, 1.5, 1.5]

    def test_positive_for_random_instances(self):
        b = penalty_bounds(random_instance(3, 0))
        assert b.lambda_baseline > 0
        assert np.all(b.lambda_rows > 0)
        assert np.all(b.lambda1 > 0)
        assert b.lambda2 > 0

    def test_bounds_make_enumeration_exact(self):
        # the central equivalence property at the (inflated) bound
        for seed in range(20):
            inst = random_instance(3, 300 + seed)
            _, f_opt = brute_force_qap(inst)
            tol = 1e-9 * max(1.0, abs(f_opt))
            for form in ALL_FORMULATIONS:
                model = build_formulation(inst, form)
                bits, emin = exhaustive_minimum(model)
                assert abs(emin - f_opt) <= tol, (form, seed)
                perm = decode(model, bits)
                assert perm is not None
                assert qap_energy(inst, vectorize(perm)) <= f_opt + tol


def _reduced_bits_loops(n, assignment):
    """Interior bits X[1:,1:] column-major, with X[assignment[j], j] = 1."""
    y = [0] * ((n - 1) ** 2)
    for j in range(1, n):
        if assignment[j] >= 1:
            y[(j - 1) * (n - 1) + assignment[j] - 1] = 1
    return y


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(inst=adversarial_instances(), scale=st.floats(1.0, 20.0))
def test_penalty_bound_theorems(inst, scale):
    # at every scale >= 1 each formulation's hypercube minimum is the
    # constrained optimum, and every permutation pays zero penalty
    n = inst.n
    _, f_opt = oracles.brute_force_loops(inst.W, inst.c, n)
    for form in ALL_FORMULATIONS:
        model = build_formulation(inst, form, scale)
        tol = 1e-9 * (np.abs(model.Q).sum() + np.abs(model.q).sum() + abs(model.offset) + 1.0)
        e_min = min(e for _, e in oracles.enumerate_qubo_loops(model))
        assert abs(e_min - f_opt) <= tol, form
        for a in itertools.permutations(range(n)):
            x = oracles.vec_assignment(n, a)
            bits = _reduced_bits_loops(n, a) if form == "inserted" else x
            model_energy = oracles.energy_loops(model.Q, model.q, bits) + model.offset
            assert abs(model_energy - oracles.energy_loops(inst.W, inst.c, x)) <= tol, (form, a)


class TestBuilders:
    def test_baseline_zero_instance(self):
        inst = QapInstance(2, np.zeros((4, 4)), np.zeros(4))
        model = build_formulation(inst, "baseline", 1.0)
        assert np.all(model.Q == 0) and np.all(model.q == 0) and model.offset == 0
        states = enumerate_states(4)
        assert np.all(model.energies(states) == 0)

    def test_baseline_linear_minimizer(self):
        inst = QapInstance(2, np.zeros((4, 4)), np.array([0.0, 1.0, 1.0, 0.0]))
        model = build_formulation(inst, "baseline", 1.0)
        bits, energy = exhaustive_minimum(model)
        assert bits.tolist() == [1, 0, 0, 1]
        assert energy == pytest.approx(0.0, abs=1e-12)

    def test_baseline_matches_penalized_objective(self):
        # energy must equal f(x) + lam * ||A x - b||^2 for all binary x
        inst = random_instance(2, 42)
        model = build_formulation(inst, "baseline", 1.0)
        A = build_constraints(2)
        lam = penalty_bounds(inst).lambda_baseline * (1 + 1e-6)
        sym = (inst.W + inst.W.T) / 2
        for bits in itertools.product((0, 1), repeat=4):
            x = np.array(bits, dtype=float)
            expected = x @ sym @ x + inst.c @ x + lam * np.sum((A @ x - np.ones(4)) ** 2)
            assert model.energies([x])[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_row_wise_penalty_only_minimum_on_permutations(self):
        inst = QapInstance(3, np.zeros((9, 9)), np.zeros(9))
        # zero costs give zero bounds; use explicit unit penalties instead
        A, b = build_constraints(3), np.ones(6)
        Q = A.T @ A
        q = -2.0 * A.T @ b
        model = QuboModel(dim=9, Q=Q, q=q, offset=float(b @ b),
                          formulation="row_wise", n=3)
        states = enumerate_states(9)
        energies = model.energies(states)
        zero = np.isclose(energies, 0.0, atol=1e-12)
        assert zero.sum() == 6
        for s in states[zero]:
            assert decode(model, s) is not None
        assert np.all(energies >= -1e-12)

    def test_row_wise_uniform_costs_same_argmin_as_baseline(self):
        inst = QapInstance(2, np.zeros((4, 4)), np.ones(4))
        base = build_formulation(inst, "baseline", 1.0)
        rows = build_formulation(inst, "row_wise", 1.0)
        states = enumerate_states(4)
        eb = base.energies(states)
        er = rows.energies(states)
        argmin_b = set(map(tuple, states[np.isclose(eb, eb.min(), atol=1e-12)].tolist()))
        argmin_r = set(map(tuple, states[np.isclose(er, er.min(), atol=1e-12)].tolist()))
        assert argmin_b == argmin_r

    def test_row_wise_matches_penalized_objective(self):
        inst = random_instance(2, 43)
        model = build_formulation(inst, "row_wise", 1.0)
        A = build_constraints(2)
        lams = penalty_bounds(inst).lambda_rows * (1 + 1e-6)
        sym = (inst.W + inst.W.T) / 2
        for bits in itertools.product((0, 1), repeat=4):
            x = np.array(bits, dtype=float)
            expected = x @ sym @ x + inst.c @ x + lams @ (A @ x - np.ones(4)) ** 2
            assert model.energies([x])[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_inserted_n2_single_variable(self):
        inst = random_instance(2, 44)
        model = build_formulation(inst, "inserted", 1.0)
        assert model.dim == 1
        for y in (0, 1):
            perm = decode(model, np.array([y]))
            assert perm is not None
            # energy of the reduced model equals the permutation energy
            assert model.energies([[y]])[0] == pytest.approx(
                qap_energy(inst, vectorize(perm)), rel=1e-9, abs=1e-9
            )

    def test_inserted_exclusion_support_n3(self):
        inst = random_instance(3, 45)
        model = build_formulation(inst, "inserted", 1.0)
        assert model.dim == 4
        from permqubo.qubo import _data_part

        W_red, _, _ = _data_part("inserted", inst)
        penalty = model.Q - W_red
        bounds = penalty_bounds(inst)
        lam2 = bounds.lambda2 * (1 + 1e-6)
        # pairs sharing a reduced row or column carry exclusion weight on
        # top of the cardinality term; the others only the cardinality term
        marked = {(0, 1), (2, 3), (0, 2), (1, 3)}
        for j in range(4):
            for k in range(j + 1, 4):
                if (j, k) in marked:
                    assert penalty[j, k] > lam2 + 1e-12
                else:
                    assert penalty[j, k] == pytest.approx(lam2, rel=1e-12)

    def test_inserted_requires_n_at_least_2(self):
        inst = QapInstance(1, np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(ValueError, match="inserted formulation requires n >= 2"):
            build_formulation(inst, "inserted", 1.0)
        data = {"dim": 0, "formulation": "inserted", "n": 1, "Q": [], "q": [], "offset": 0.0}
        with pytest.raises(ValueError, match="inserted formulation requires n >= 2"):
            QuboModel.from_dict(data)

    def test_scale_must_be_positive(self):
        inst = random_instance(2, 46)
        with pytest.raises(ValueError):
            build_formulation(inst, "baseline", 0.0)

    def test_scale_below_one_warns(self):
        inst = random_instance(2, 47)
        with pytest.warns(UserWarning):
            build_formulation(inst, "baseline", 0.5)

    def test_feasible_states_pay_no_penalty(self):
        for seed in range(5):
            inst = random_instance(3, 500 + seed)
            for form in ALL_FORMULATIONS:
                model = build_formulation(inst, form)
                for a in itertools.permutations(range(3)):
                    perm = PermutationMatrix(3, list(a))
                    bits = vectorize(perm) if form != "inserted" else _reduced_bits_loops(3, a)
                    f = qap_energy(inst, vectorize(perm))
                    assert model.energies([bits])[0] == pytest.approx(f, rel=1e-9, abs=1e-9)

    def test_infeasibility_pricing_exhaustive(self):
        for seed in range(5):
            inst = random_instance(2, 600 + seed)
            _, f_opt = brute_force_qap(inst)
            for form in ALL_FORMULATIONS:
                model = build_formulation(inst, form)
                states = enumerate_states(model.dim)
                energies = model.energies(states)
                for s, e in zip(states, energies):
                    if decode(model, s) is None:
                        assert e > f_opt

    def test_monotone_safety_across_scales(self):
        inst = random_instance(3, 700)
        _, f_opt = brute_force_qap(inst)
        tol = 1e-9 * max(1.0, abs(f_opt))
        for form in ALL_FORMULATIONS:
            for scale in (1.0, 2.0, 10.0):
                model = build_formulation(inst, form, scale)
                bits, emin = exhaustive_minimum(model)
                assert abs(emin - f_opt) <= tol
                assert decode(model, bits) is not None


class TestDecode:
    def test_baseline_identity(self):
        inst = random_instance(2, 48)
        model = build_formulation(inst, "baseline")
        perm = decode(model, np.array([1, 0, 0, 1]))
        assert perm.assignment.tolist() == [0, 1]

    def test_inserted_all_zero_invalid(self):
        inst = random_instance(3, 49)
        model = build_formulation(inst, "inserted")
        # reconstructed top-left entry is 2 - 3 + 0 = -1
        assert decode(model, np.zeros(4, dtype=int)) is None

    def test_inserted_exactly_six_valid_states(self):
        inst = random_instance(3, 50)
        model = build_formulation(inst, "inserted")
        states = enumerate_states(4)
        valid = [s for s in states if decode(model, s) is not None]
        assert len(valid) == 6

    def test_decode_vectorize_roundtrip(self):
        for n in (2, 3, 4):
            inst = QapInstance(n, np.zeros((n * n, n * n)), np.zeros(n * n))
            base = build_formulation(inst, "baseline")
            rows = build_formulation(inst, "row_wise")
            ins = build_formulation(inst, "inserted")
            for a in itertools.permutations(range(n)):
                perm = PermutationMatrix(n, list(a))
                assert decode(base, vectorize(perm)).assignment.tolist() == list(a)
                assert decode(rows, vectorize(perm)).assignment.tolist() == list(a)
                assert decode(ins, _reduced_bits_loops(n, a)).assignment.tolist() == list(a)

    def test_length_mismatch(self):
        inst = random_instance(2, 51)
        model = build_formulation(inst, "baseline")
        with pytest.raises(ValueError):
            decode(model, np.array([1, 0, 0]))


@st.composite
def decode_batches(draw):
    """A formulation, n and a (k, dim) batch of states to decode.

    Each state is random bits, a vectorized permutation, or a vectorized
    permutation with one bit flipped.
    """
    formulation = draw(st.sampled_from(ALL_FORMULATIONS))
    n = draw(st.integers(2, 5))
    r = n - 1
    dim = r * r if formulation == "inserted" else n * n
    states = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("bits", "permutation", "flipped")))
        if kind == "bits":
            states.append(draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)))
            continue
        x = oracles.vec_assignment(n, draw(st.permutations(range(n))))
        if formulation == "inserted":
            x = [x[(j + 1) * n + i + 1] for j in range(r) for i in range(r)]
        if kind == "flipped":
            x[draw(st.integers(0, dim - 1))] ^= 1
        states.append(x)
    return formulation, n, np.array(states, dtype=np.int8)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(decode_batches())
def test_decode_states_matches_loop_decoder(batch):
    formulation, n, states = batch
    dim = states.shape[1]
    model = QuboModel(dim=dim, Q=np.zeros((dim, dim)), q=np.zeros(dim), offset=0.0,
                      formulation=formulation, n=n)
    valid, assignments = decode_states(model, states)
    assert valid.shape == (len(states),) and assignments.shape == (len(states), n)
    for s, bits in enumerate(states.tolist()):
        expected = oracles.decode_loops(formulation, n, bits)
        assert bool(valid[s]) == (expected is not None)
        assert tuple(assignments[s]) == (expected if expected is not None else (-1,) * n)
        perm = decode(model, states[s])
        assert (None if perm is None else tuple(perm.assignment)) == expected


def test_decode_states_rejects_wrong_shapes():
    model = build_formulation(random_instance(2, 52), "baseline")
    for states in (np.zeros(4), np.zeros((3, 5)), np.zeros((3, 3)), np.zeros((2, 2, 4))):
        with pytest.raises(ValueError, match="states must have shape"):
            decode_states(model, states)


class TestSpin:
    def test_zero_model(self):
        model = QuboModel(dim=4, Q=np.zeros((4, 4)), q=np.zeros(4), offset=0.0,
                          formulation="baseline", n=2)
        spin = to_spin(model)
        assert np.all(spin.Q_s == 0) and np.all(spin.q_s == 0) and spin.offset_s == 0

    def test_one_dim_hand_values(self):
        model = QuboModel(dim=1, Q=[[0.0]], q=[2.0], offset=0.0, formulation="inserted", n=2)
        spin = to_spin(model)
        assert spin.q_s.tolist() == [1.0]
        assert spin.offset_s == 1.0
        assert spin.energies([[-1.0], [1.0]]).tolist() == [0.0, 2.0]

    def test_exhaustive_correspondence_row_wise_n3(self):
        inst = random_instance(3, 52)
        model = build_formulation(inst, "row_wise")
        spin = to_spin(model)
        states = enumerate_states(9)
        eb = model.energies(states)
        es = spin.energies(2.0 * states - 1.0)
        assert np.allclose(eb, es, rtol=1e-12, atol=1e-10)

    def test_normalize_couplings_ranges(self):
        inst = random_instance(3, 53)
        spin = to_spin(build_formulation(inst, "baseline"))
        normed, factor = normalize_couplings(spin)
        assert factor > 0
        assert np.abs(normed.Q_s).max() <= 1.0 + 1e-12
        assert np.abs(normed.q_s).max() <= 2.0 + 1e-12
        # energies scale uniformly
        s = (2.0 * enumerate_states(9) - 1.0)[:32]
        assert np.allclose(spin.energies(s) / factor, normed.energies(s), rtol=1e-12)

    def test_normalize_zero_model(self):
        spin = SpinModel(Q_s=np.zeros((2, 2)), q_s=np.zeros(2), offset_s=0.0)
        normed, factor = normalize_couplings(spin)
        assert factor == 1.0 and np.all(normed.Q_s == 0)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(drawn=adversarial_model_coefficients(symmetric=False))
def test_stored_symmetric_q_keeps_every_energy(drawn):
    # the model stores (Q + Q^T) / 2; its energies are those of the Q it was given
    formulation, n, Q, q, offset, integer = drawn
    model = build_model(formulation, n, Q, q, offset)
    assert np.array_equal(model.Q, model.Q.T)
    states = enumerate_states(model.dim)
    tol = 0.0 if integer else 1e-12 * coefficient_mass(Q, q, offset)
    for x, e in zip(states.tolist(), model.energies(states).tolist()):
        assert abs(e - (oracles.energy_loops(Q, q, x) + offset)) <= tol, x


@pytest.mark.parametrize("Q, q, offset", [
    ([[8e307]], [1.5e308], 0.0),  # each coefficient finite, their mass not
    ([[1.5e308]], [0.0], 0.0),  # Q + Q^T overflows
    ([[0.0]], [1e308], 1e308),  # only the offset takes the mass past the float limit
    ([[np.nan]], [0.0], 0.0),
    ([[0.0]], [-np.inf], 0.0),
], ids=["mass", "symmetrised", "offset", "nan", "inf"])
def test_non_finite_coefficient_mass_refused_without_a_warning(Q, q, offset):
    # 2 sum|Q| + sum|q| + |offset| bounds every energy and SA field; a model whose
    # mass overflows is refused with one ValueError, not after a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            QuboModel(dim=1, Q=Q, q=q, offset=offset, formulation="baseline", n=1)
        model = QuboModel(dim=1, Q=[[4e307]], q=[8e307], offset=0.0, formulation="baseline", n=1)
    assert model.energies(np.ones((1, 1))).tolist() == [1.2e308]


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(drawn=st.one_of(adversarial_models(), adversarial_models(symmetric=False)))
def test_binary_spin_energy_identity(drawn):
    # s = 2x - 1 carries every binary energy over, offset included, for a
    # symmetric or asymmetric Q; exactly so when all coefficients are small integers
    model, integer = drawn
    pairs = oracles.enumerate_qubo_loops(model)
    bits = np.array([b for b, _ in pairs], dtype=float)
    spin_energies = to_spin(model).energies(2.0 * bits - 1.0)
    tol = 0.0 if integer else 1e-12 * coefficient_mass(model.Q, model.q, model.offset)
    for e_spin, (b, e_loop) in zip(spin_energies, pairs):
        assert abs(e_spin - e_loop) <= tol, b


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(drawn=adversarial_models(symmetric=False), offset=st.floats(-1e12, 1e12))
def test_sparse_export_import_round_trip(drawn, offset, tmp_path_factory):
    # the text export keeps every binary energy and the exact offset
    model, integer = drawn
    model.offset = offset
    path = tmp_path_factory.getbasetemp() / "round_trip.qubo"
    export_sparse(model, path)
    back = oracles.read_sparse_loops(path, model.dim)
    assert back.offset == model.offset
    tol = 0.0 if integer else 1e-12 * coefficient_mass(model.Q, model.q, model.offset)
    for (b, e), (_, e_back) in zip(oracles.enumerate_qubo_loops(model),
                                   oracles.enumerate_qubo_loops(back)):
        assert abs(e_back - e) <= tol, b


class TestCouplingReport:
    def test_zero_instance_not_applicable(self):
        inst = QapInstance(2, np.zeros((4, 4)), np.zeros(4))
        report = coupling_report(build_formulation(inst, "baseline"), inst)
        assert report.ratio_quadratic is None
        assert report.ratio_linear is None
        assert report.quadratic_problem == (0.0, 0.0)

    def test_baseline_linear_ratio_is_large_n4(self):
        inst = random_instance(4, 54)
        report = coupling_report(build_formulation(inst, "baseline"), inst)
        assert report.ratio_linear is not None and report.ratio_linear > 100

    def test_row_wise_ratio_below_baseline(self):
        inst = random_instance(3, 55)
        rb = coupling_report(build_formulation(inst, "baseline"), inst)
        rr = coupling_report(build_formulation(inst, "row_wise"), inst)
        assert rr.ratio_linear < rb.ratio_linear
        assert rr.ratio_quadratic < rb.ratio_quadratic

    def test_scaled_ranges_within_hardware_window(self):
        inst = random_instance(3, 56)
        report = coupling_report(build_formulation(inst, "row_wise"), inst)
        total_q = max(abs(report.quadratic_problem[0] + report.quadratic_penalty[0]),
                      abs(report.quadratic_problem[1] + report.quadratic_penalty[1]))
        assert report.scale_factor > 0
        assert total_q <= 2.0 + 1e-9  # parts may individually exceed the window


class TestEnumerationAndExports:
    def test_enumerate_states_bit_order(self):
        states = enumerate_states(3)
        assert states[0].tolist() == [0, 0, 0]
        assert states[1].tolist() == [1, 0, 0]  # bit 0 is the least significant
        assert states[6].tolist() == [0, 1, 1]

    def test_exhaustive_matches_loop_oracle(self):
        inst = random_instance(2, 57)
        model = build_formulation(inst, "baseline")
        bits, emin = exhaustive_minimum(model)
        pairs = oracles.enumerate_qubo_loops(model)
        oracle_min = min(e for _, e in pairs)
        assert emin == pytest.approx(oracle_min, rel=1e-12)

    def test_model_json_roundtrip_exact(self, tmp_path):
        inst = random_instance(3, 58)
        model = build_formulation(inst, "row_wise")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_dict()))
        back = QuboModel.load(path)
        assert np.array_equal(back.Q, model.Q)
        assert np.array_equal(back.q, model.q)
        assert back.offset == model.offset
        assert back.formulation == model.formulation

    def test_sparse_export_energy_equivalent(self, tmp_path):
        inst = random_instance(2, 59)
        model = build_formulation(inst, "inserted")
        path = tmp_path / "model.qubo"
        export_sparse(model, path)
        text = path.read_text()
        assert text.startswith("offset ")
        back = oracles.read_sparse_loops(path, model.dim)
        for bits, e_back in oracles.enumerate_qubo_loops(back):
            assert model.energies([bits])[0] == pytest.approx(e_back, rel=1e-12, abs=1e-12)

    def test_model_hash_stable(self):
        inst = random_instance(2, 60)
        m1 = build_formulation(inst, "baseline")
        m2 = build_formulation(inst, "baseline")
        assert m1.content_hash() == m2.content_hash()

    @staticmethod
    def _hash_model(**changes):
        fields = {"dim": 4, "Q": np.arange(16.0).reshape(4, 4) / 8 - 1,
                  "q": [0.5, -0.25, 3.0, 1e-3], "offset": -2.5, "formulation": "baseline", "n": 2}
        return QuboModel(**{**fields, **changes})

    def test_model_hash_pinned(self):
        # SHA-256 of the sorted scalar JSON, then the <f8 bytes of the stored Q and of q
        assert self._hash_model().content_hash() == (
            "c8e4693f90458c064971016291a3aef8e554abc8ef5b7b89f9dbd04671397237")

    def test_model_hash_covers_every_field(self):
        base = self._hash_model()
        asym = base.Q.copy()
        asym[0, 1], asym[1, 0] = asym[0, 1] + 1.0, asym[1, 0] - 1.0
        assert self._hash_model(Q=asym).content_hash() == base.content_hash()
        Q = base.Q.copy()
        Q[2, 3] += 1e-9
        q = base.q.copy()
        q[3] = -q[3]
        changed = [self._hash_model(Q=Q), self._hash_model(q=q), self._hash_model(offset=-2.0),
                   self._hash_model(formulation="row_wise"),
                   self._hash_model(dim=4, n=3, formulation="inserted")]
        for key, value in (("n", 3), ("dim", 5)):  # no valid model differs in one of these alone
            changed.append(self._hash_model())
            setattr(changed[-1], key, value)
        hashes = {m.content_hash() for m in changed}
        assert len(hashes) == len(changed) and base.content_hash() not in hashes

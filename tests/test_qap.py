import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from strategies import adversarial_instances, random_instance
from permqubo import (
    DistanceData,
    PermutationMatrix,
    QapInstance,
    SizeCapError,
    brute_force_qap,
    isometric_cost,
    permutation_extremes,
    qap_energy,
    vectorize,
    worst_permutation,
)


class TestVectorize:
    def test_n1_identity(self):
        assert vectorize(PermutationMatrix.identity(1)).tolist() == [1]

    def test_n2_identity_column_major(self):
        assert vectorize(PermutationMatrix.identity(2)).tolist() == [1, 0, 0, 1]

    def test_n2_swap(self):
        assert vectorize(PermutationMatrix(2, [1, 0])).tolist() == [0, 1, 1, 0]

    def test_matches_matrix_flatten(self):
        for assignment in itertools.permutations(range(4)):
            perm = PermutationMatrix(4, list(assignment))
            assert np.array_equal(vectorize(perm), perm.matrix().flatten(order="F"))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            PermutationMatrix(3, [0, 0, 2])


class TestQapEnergy:
    def test_zero_quadratic_identity(self):
        inst = QapInstance(2, np.zeros((4, 4)), [0, 1, 1, 0])
        assert qap_energy(inst, [1, 0, 0, 1]) == 0.0

    def test_zero_quadratic_swap(self):
        inst = QapInstance(2, np.zeros((4, 4)), [0, 1, 1, 0])
        assert qap_energy(inst, [0, 1, 1, 0]) == 2.0

    def test_all_ones_equals_total_mass(self):
        for seed in range(5):
            inst = random_instance(3, seed)
            expected = inst.W.sum() + inst.c.sum()
            assert qap_energy(inst, np.ones(9)) == pytest.approx(expected, rel=1e-12)

    def test_matches_loop_oracle(self):
        inst = random_instance(2, 11)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.integers(0, 2, 4)
            assert qap_energy(inst, x) == pytest.approx(
                oracles.energy_loops(inst.W, inst.c, x), rel=1e-12
            )

    def test_dimension_mismatch(self):
        inst = random_instance(2, 0)
        with pytest.raises(ValueError):
            qap_energy(inst, [1, 0, 0])

    def test_no_implicit_symmetrization(self):
        W = np.zeros((4, 4))
        W[0, 3] = 2.0  # only one triangle populated
        inst = QapInstance(2, W, np.zeros(4))
        assert qap_energy(inst, [1, 0, 0, 1]) == 2.0


class TestBruteForce:
    def test_trivial_linear(self):
        inst = QapInstance(2, np.zeros((4, 4)), [0, 1, 1, 0])
        perm, f_opt = brute_force_qap(inst)
        assert perm.assignment.tolist() == [0, 1]
        assert f_opt == 0.0

    def test_total_degeneracy_tie_rule(self):
        for n in (2, 3, 4):
            inst = QapInstance(n, np.zeros((n * n, n * n)), np.zeros(n * n))
            perm, f_opt = brute_force_qap(inst)
            assert perm.assignment.tolist() == list(range(n))
            assert f_opt == 0.0

    def test_matches_independent_enumerator(self):
        for seed in range(10):
            inst = random_instance(3, 100 + seed)
            perm, f_opt = brute_force_qap(inst)
            oracle_assignment, oracle_best = oracles.brute_force_loops(inst.W, inst.c, 3)
            assert tuple(perm.assignment) == oracle_assignment
            assert f_opt == pytest.approx(oracle_best, rel=1e-12)

    def test_is_lower_bound_over_all_permutations(self):
        inst = random_instance(4, 7)
        _, f_opt = brute_force_qap(inst)
        for assignment in itertools.permutations(range(4)):
            perm = PermutationMatrix(4, list(assignment))
            assert f_opt <= qap_energy(inst, vectorize(perm)) + 1e-12

    def test_worst_permutation_is_upper_bound(self):
        inst = random_instance(3, 17)
        _, f_worst = worst_permutation(inst)
        for assignment in itertools.permutations(range(3)):
            perm = PermutationMatrix(3, list(assignment))
            assert f_worst >= qap_energy(inst, vectorize(perm)) - 1e-12

    def test_size_guard(self):
        inst = QapInstance(9, np.zeros((81, 81)), np.zeros(81))
        with pytest.raises(SizeCapError):
            brute_force_qap(inst)
        with pytest.raises(SizeCapError):
            permutation_extremes(inst)


_DEGENERATE = st.integers(1, 5).map(lambda n: QapInstance(n, np.zeros((n * n, n * n)), np.zeros(n * n)))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(inst=st.one_of(adversarial_instances(sizes=(1, 2, 3, 4, 5)), _DEGENERATE))
def test_permutation_extremes_match_loop_oracles(inst):
    # both extremes of one pass against the loop enumerators; on integer
    # data every sum is exact, so the lexicographic tie order must match too
    n = inst.n
    best, f_opt, worst, f_worst = permutation_extremes(inst)
    best_loops, f_opt_loops = oracles.brute_force_loops(inst.W, inst.c, n)
    worst_loops, f_worst_loops = oracles.worst_loops(inst.W, inst.c, n)
    tol = 1e-12 * (np.abs(inst.W).sum() + np.abs(inst.c).sum())
    assert abs(f_opt - f_opt_loops) <= tol
    assert abs(f_worst - f_worst_loops) <= tol
    if np.all(inst.W % 1 == 0) and np.all(inst.c % 1 == 0):
        assert tuple(best.assignment) == best_loops
        assert tuple(worst.assignment) == worst_loops
        assert (f_opt, f_worst) == (f_opt_loops, f_worst_loops)


def random_metric(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, (n, 3))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    return (d + d.T) / 2


class TestIsometricCost:
    def test_equal_metrics_identity_optimal(self):
        d = random_metric(3, 3)
        inst = isometric_cost(DistanceData(d1=d, d2=d))
        perm, f_opt = brute_force_qap(inst)
        assert f_opt == pytest.approx(0.0, abs=1e-12)
        assert perm.assignment.tolist() == [0, 1, 2]

    def test_n2_hand_value(self):
        d1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        d2 = np.array([[0.0, 3.0], [3.0, 0.0]])
        inst = isometric_cost(DistanceData(d1=d1, d2=d2))
        # both permutations mismatch the off-diagonal distance twice
        for assignment in ([0, 1], [1, 0]):
            e = qap_energy(inst, vectorize(PermutationMatrix(2, assignment)))
            assert e == pytest.approx(4.0, rel=1e-12)

    def test_matches_four_index_oracle(self):
        for seed in range(5):
            d1 = random_metric(3, seed)
            d2 = random_metric(3, 50 + seed)
            inst = isometric_cost(DistanceData(d1=d1, d2=d2))
            _, f_opt = brute_force_qap(inst)
            oracle_best = min(
                oracles.isometric_energy_loops(d1, d2, a)
                for a in itertools.permutations(range(3))
            )
            assert f_opt == pytest.approx(oracle_best, rel=1e-12)

    def test_no_linear_term(self):
        d = random_metric(2, 2)
        assert isometric_cost(DistanceData(d1=d, d2=d)).c.tolist() == [0.0] * 4

    def test_rejects_asymmetric(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            DistanceData(d1=d, d2=d)

    def test_rejects_negative(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            DistanceData(d1=d, d2=d)


class TestValidationAndIo:
    def test_rejects_nonfinite(self):
        W = np.zeros((4, 4))
        W[0, 0] = np.inf
        with pytest.raises(ValueError):
            QapInstance(2, W, np.zeros(4))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            QapInstance(2, np.zeros((3, 3)), np.zeros(4))

    def test_instance_json_roundtrip(self, tmp_path):
        inst = random_instance(3, 9)
        path = tmp_path / "inst.json"
        inst.save(path)
        back = QapInstance.load(path)
        assert back.n == 3
        assert np.array_equal(back.W, inst.W)
        assert np.array_equal(back.c, inst.c)

    def test_instance_json_missing_field(self):
        with pytest.raises(ValueError):
            QapInstance.from_dict({"n": 2, "W": [[0]]})

    @pytest.mark.parametrize("data", [
        {"n": 1, "W": [["2.5"]], "c": ["1"]},
        {"n": 1, "W": [[True]], "c": [1.0]},
        {"n": 1, "W": [[1.0]], "c": [None]},
        {"n": 1.0, "W": [[1.0]], "c": [1.0]},
        {"n": 1, "W": [1.0], "c": [1.0]},
        [1, [[1.0]], [1.0]],
    ])
    def test_instance_json_wrong_types_rejected(self, data):
        with pytest.raises(ValueError, match="instance JSON"):
            QapInstance.from_dict(data)

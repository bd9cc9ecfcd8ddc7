import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

import oracles
from strategies import random_instance
from permqubo import (
    HamiltonianPair,
    QapInstance,
    QuboModel,
    SizeCapError,
    SolverError,
    SpinModel,
    build_formulation,
    build_hamiltonians,
    gap_profile,
    to_spin,
    two_lowest_eigenvalues,
)
from permqubo import spectral
from permqubo.qubo import enumerate_states


def random_spin_model(m, seed):
    rng = np.random.default_rng(seed)
    Q = rng.normal(size=(m, m))
    Q = (Q + Q.T) / 2
    np.fill_diagonal(Q, 0.0)
    return SpinModel(Q_s=Q, q_s=rng.normal(size=m), offset_s=float(rng.normal()))


class TestProblemHamiltonian:
    def test_single_qubit_bias(self):
        pair = build_hamiltonians(SpinModel(Q_s=np.zeros((1, 1)), q_s=[1.0], offset_s=0.0))
        assert pair.problem_diagonal.tolist() == [-1.0, 1.0]

    def test_two_qubit_parity(self):
        pair = build_hamiltonians(
            SpinModel(Q_s=[[0.0, 0.5], [0.5, 0.0]], q_s=[0.0, 0.0], offset_s=0.0)
        )
        assert pair.problem_diagonal.tolist() == [1.0, -1.0, -1.0, 1.0]

    def test_diagonal_matches_spin_enumeration(self):
        inst = random_instance(3, 61)
        spin = to_spin(build_formulation(inst, "row_wise"))
        pair = build_hamiltonians(spin)
        spins = 2.0 * enumerate_states(9) - 1.0
        energies = np.array([s @ spin.Q_s @ s + spin.q_s @ s + spin.offset_s for s in spins])
        assert np.allclose(pair.problem_diagonal, energies, rtol=1e-12, atol=1e-12)
        assert pair.problem_diagonal.min() == pytest.approx(energies.min(), rel=1e-12)

    def test_qubit_cap(self):
        with pytest.raises(SizeCapError):
            build_hamiltonians(SpinModel(Q_s=np.zeros((17, 17)), q_s=np.zeros(17), offset_s=0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_diagonal_refused(self, bad):
        # refused when the pair is made, not by LAPACK after a full Lanczos run
        with pytest.raises(ValueError, match="finite"):
            HamiltonianPair(2, np.array([0.0, 1.0, bad, 2.0]))

    @pytest.mark.parametrize("diagonal", [[-1e308, 1e308], [1e308, -1.5e308, 0.0, 0.0]])
    def test_overflowing_range_refused(self, diagonal):
        # refused when the pair is made: half_width would be inf, and the eigensolver
        # would warn of an overflow and evolve fail on a NaN substep count
        m = len(diagonal).bit_length() - 1
        with pytest.raises(ValueError, match=r"^problem diagonal must be finite, and so must "
                                             r"its range max - min$"):
            HamiltonianPair(m, diagonal)

    @pytest.mark.parametrize("diagonal", [[1e308, 1.5e308], [-1.4e154, 1.4e154]])
    def test_overflowing_half_range_square_refused(self, diagonal):
        # a finite range whose half overflows when squared is refused when the pair is
        # made, where the eigensolver warned of an overflow in a dot product and failed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^problem diagonal's half range \(max - min\) "
                                                 r"/ 2 must have a finite square$"):
                HamiltonianPair(1, diagonal)

    def test_half_range_just_inside_the_bound_solves(self):
        # (1.3e154)^2 = 1.69e308 is finite: the pair is made and solves without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e0, e1 = two_lowest_eigenvalues(HamiltonianPair(1, [-1.3e154, 1.3e154]), 0.5)
        # H(0.5) is [[-6.5e153, -0.5], [-0.5, 6.5e153]]
        assert (e0, e1) == pytest.approx((-6.5e153, 6.5e153), rel=1e-15)


class TestInterpolatedOperator:
    def test_mixer_ground_state(self):
        pair = build_hamiltonians(SpinModel(Q_s=np.zeros((3, 3)), q_s=np.zeros(3), offset_s=0.0))
        v = np.full(8, 1 / np.sqrt(8))
        assert np.allclose(pair.apply(0.0, v), -3.0 * v)

    def test_u0_is_pure_mixer(self):
        pair = build_hamiltonians(random_spin_model(3, 1))
        v = np.full(8, 1 / np.sqrt(8))
        assert np.allclose(pair.apply(0.0, v), -3.0 * v)

    def test_u1_scales_basis_states(self):
        pair = build_hamiltonians(random_spin_model(2, 2))
        for z in range(4):
            e = np.zeros(4)
            e[z] = 1.0
            assert np.allclose(pair.apply(1.0, e), pair.problem_diagonal[z] * e)

    def test_u_out_of_range(self):
        pair = build_hamiltonians(random_spin_model(2, 3))
        with pytest.raises(ValueError):
            two_lowest_eigenvalues(pair, 1.5)
        with pytest.raises(ValueError):
            two_lowest_eigenvalues(pair, -0.1)

    def test_hermiticity(self):
        pair = build_hamiltonians(random_spin_model(5, 4))
        rng = np.random.default_rng(5)
        for u in (0.0, 0.3, 0.8, 1.0):
            v = rng.normal(size=32)
            w = rng.normal(size=32)
            lhs = np.dot(v, pair.apply(u, w))
            rhs = np.dot(pair.apply(u, v), w)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_matches_loop_oracle_entrywise(self):
        for m in range(1, 7):
            pair = build_hamiltonians(random_spin_model(m, 200 + m))
            for u in (0.0, 0.3, 1.0):
                H = np.column_stack([pair.apply(u, e) for e in np.eye(pair.dim)])
                expected = oracles.dense_hamiltonian(pair, u)
                np.testing.assert_array_equal(H, expected, err_msg=f"m={m}, u={u}")

    def test_diagonal_is_a_read_only_copy(self):
        # the pair caches the diagonal's range, its centred twin and the terms of the
        # last u, so neither a later write by the caller nor one through the pair may
        # change the diagonal under them
        diag = np.array([0.0, 1.0, 2.0, 3.0])
        pair = HamiltonianPair(2, diag)
        before = two_lowest_eigenvalues(pair, 0.5)
        diag[:] = [10.0, 11.0, 12.0, 40.0]
        assert two_lowest_eigenvalues(pair, 0.5) == before
        assert two_lowest_eigenvalues(HamiltonianPair(2, diag), 0.5) != before
        with pytest.raises(ValueError, match="read-only"):
            pair.problem_diagonal[0] = 10.0
        assert pair.problem_diagonal.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_half_sigma_x_spectrum(self):
        pair = HamiltonianPair(1, np.zeros(2))
        e0, e1 = two_lowest_eigenvalues(pair, 0.5)
        assert e0 == pytest.approx(-0.5, abs=1e-10)
        assert e1 == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("m", range(1, 17))
@settings(derandomize=True, max_examples=6, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), complex_v=st.booleans(), u1=st.floats(0.0, 1.0),
       u2=st.floats(0.0, 1.0))
def test_apply_matches_references(m, seed, complex_v, u1, u2):
    # Every size from one group (m <= 6) through two to three (m >= 13):
    # the dense H(u) up to 10 qubits and one gather per bit above.  u1, u2,
    # u1 in turn replace the pair's cached terms twice, and each product
    # must equal a fresh pair's bit for bit.
    rng = np.random.default_rng(seed)
    diag = rng.normal(size=2**m) * 10.0 ** rng.uniform(-2, 2)
    pair = HamiltonianPair(m, diag)
    v = rng.normal(size=pair.dim)
    if complex_v:
        v = v + 1j * rng.normal(size=pair.dim)
    before = v.copy()
    for u in (u1, u2, u1):
        got = pair.apply(u, v)
        if m <= 10:
            expected = oracles.dense_hamiltonian(pair, u) @ v
        else:
            expected = oracles.gathered_hamiltonian_product(pair, u, v)
        atol = 1e-13 * (u * np.abs(diag).max() + (1.0 - u) * m) * np.abs(v).max()
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=atol, err_msg=f"u={u}")
        assert np.array_equal(got, HamiltonianPair(m, diag).apply(u, v))
    assert np.array_equal(v, before)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(size=st.integers(1, 100), k=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["normal", "split", "repeated"]))
def test_lowest_ritz_matches_eigh_tridiagonal(size, k, seed, kind):
    # "split" zeroes off-diagonal entries, as a breakdown restart leaves
    # them in eigsh's T; "repeated" draws the diagonal from {-2, ..., 2} and
    # splits it too, so that separate blocks share eigenvalues exactly.
    k = min(k, size)
    rng = np.random.default_rng(seed)
    alphas = rng.normal(size=size)
    betas = np.abs(rng.normal(size=size - 1))
    if kind == "repeated":
        alphas = rng.integers(-2, 3, size).astype(float)
    if kind != "normal":
        betas[rng.random(size - 1) < 0.2] = 0.0
    theta, S = spectral._lowest_ritz(alphas, betas, k)
    ref_theta, ref_S = eigh_tridiagonal(alphas, betas, select="i", select_range=(0, k - 1))
    assert np.array_equal(theta, ref_theta)
    assert np.array_equal(S, ref_S)


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_lowest_ritz_refuses_lapack_failure(monkeypatch, routine):
    real = getattr(scipy.linalg.lapack, routine)

    def failing(*args):
        *results, _ = real(*args)
        return (*results, 3)

    monkeypatch.setattr(scipy.linalg.lapack, routine, failing)
    with pytest.raises(SolverError, match="LAPACK info 3"):
        spectral._lowest_ritz(np.arange(4.0), np.ones(3), 2)


class TestTwoLowest:
    def test_matches_dense_diagonalization(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            m = int(rng.integers(5, 9))
            pair = build_hamiltonians(random_spin_model(m, 100 + trial))
            u = float(rng.uniform(0, 1))
            e0, e1 = two_lowest_eigenvalues(pair, u)
            dense = np.linalg.eigvalsh(oracles.dense_hamiltonian(pair, u))
            assert e0 == pytest.approx(dense[0], abs=1e-8)
            assert e1 == pytest.approx(dense[1], abs=1e-8)

    def test_reruns_are_bit_identical(self):
        model = build_formulation(random_instance(3, 66), "baseline")
        assert model.dim == 9
        first = gap_profile(model, num_samples=9)
        second = gap_profile(model, num_samples=9)
        assert np.array_equal(first.e0, second.e0)
        assert np.array_equal(first.e1, second.e1)

    def test_tied_minimum_near_u1_after_breakdown(self):
        # At 1 - u = 1e-14 the Krylov space breaks down after one vector per
        # distinct diagonal value; the second copy of -2 appears only in a
        # later block, which must converge before the solver stops.
        diag = np.array([0, -2, 2, -1, 0, -1, 1, 2, 1, -1, 1, 1, -2, -1, 1, 1], dtype=float)
        pair = HamiltonianPair(4, diag)
        u = 1.0 - 1e-14
        dense = np.linalg.eigvalsh(oracles.dense_hamiltonian(pair, u))
        e0, e1 = two_lowest_eigenvalues(pair, u)
        assert e0 == pytest.approx(dense[0], abs=1e-8)
        assert e1 == pytest.approx(dense[1], abs=1e-8)

    def test_degenerate_diagonal_at_u1(self):
        pair = HamiltonianPair(2, np.array([0.5, 0.5, 1.0, 2.0]))
        e0, e1 = two_lowest_eigenvalues(pair, 1.0)
        assert e0 == e1 == 0.5


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["normal", "integer ties", "wide range", "offset ties"]),
       u=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                   st.integers(1, 15).map(lambda k: 1.0 - 10.0**-k)))
def test_two_lowest_matches_dense(m, seed, kind, u):
    # Integer diagonals tie exactly, so levels are near-degenerate as u -> 1;
    # the wide range spans twelve decades; at u = 0 the mixer's levels are
    # degenerate whatever the diagonal.  Offset ties shift integer ties by an
    # offset that dwarfs their spread: the solver must then be off by a few of
    # the offset's float spacings, as the dense reference is (at most 21 in
    # 800 random draws), not by the thousands an uncentred Lanczos gave.
    rng = np.random.default_rng(seed)
    dim = 2**m
    offset = 0.0
    if kind == "normal":
        diag = rng.normal(size=dim)
    elif kind == "integer ties":
        diag = rng.integers(-2, 3, dim).astype(float)
    elif kind == "wide range":
        diag = rng.normal(size=dim) * 10.0 ** rng.uniform(-6, 6, dim)
    else:
        offset = rng.choice([1e12, -1e12, 6e15])
        diag = rng.integers(-2, 3, dim) + offset
    pair = HamiltonianPair(m, diag)
    e0, e1 = two_lowest_eigenvalues(pair, u)
    dense = np.linalg.eigvalsh(oracles.dense_hamiltonian(pair, u))
    # spacing(offset) is spacing(max |H_P|) for offset ties, and 0 for the rest
    tol = 1e-8 + 64 * np.spacing(abs(offset))
    assert e0 == pytest.approx(dense[0], abs=tol)
    assert e1 == pytest.approx(dense[1], abs=tol)


@pytest.mark.parametrize("offset", [0.0, 6e9, -6e12, 6e15])
def test_offset_dwarfing_the_spread_keeps_eigenvalues_in_scale(offset):
    # A Lanczos vector's rounding error scales with the norm of the operator it runs
    # on.  Run on H(u) itself, with its breakdown threshold by the offset-free
    # half_width, this constant diagonal (the pair of a uniform n = 3 instance with
    # entries 1e15, inserted) gave eigenvalues off by 1e17, and with a threshold by
    # ||H(u)|| off by up to 1837 float spacings at -6e12.  On the centred pair the
    # error is that of the dense reference: at most 8 spacings of the offset here,
    # within the 64 that test_two_lowest_matches_dense allows its offset ties.
    pair = HamiltonianPair(4, np.full(16, offset))
    for u in np.linspace(0.0, 1.0, 17)[:-1]:
        dense = np.linalg.eigvalsh(oracles.dense_hamiltonian(pair, u))
        tol = 1e-8 + 64 * np.spacing(abs(offset))
        np.testing.assert_allclose(two_lowest_eigenvalues(pair, u), dense[:2], rtol=0, atol=tol)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), u=st.floats(-1.0, 2.0),
       offset=st.sampled_from([0.0, 40.0, -1e3]))
def test_half_width_bounds_spectrum(m, seed, u, offset):
    # the propagator's substep bound: every eigenvalue of H(u) lies within
    # half_width(u) of u (max H_P + min H_P) / 2, whatever the diagonal's offset,
    # and on [0, 1] it is affine in u, as the CF4 substep charge assumes
    rng = np.random.default_rng(seed)
    diag = offset + rng.normal(size=2**m) * 10.0 ** rng.uniform(-2, 2)
    pair = HamiltonianPair(m, diag)
    center = u * (diag.max() + diag.min()) / 2.0
    evals = np.linalg.eigvalsh(oracles.dense_hamiltonian(pair, u))
    slack = 1e-12 * (abs(u) * np.abs(diag).max() + abs(1.0 - u) * m + 1.0)
    assert np.abs(evals - center).max() <= pair.half_width(u) + slack
    if 0.0 <= u <= 1.0:
        assert pair.half_width(u) == u * float(diag.max() - diag.min()) / 2.0 + (1.0 - u) * m


class TestGapProfile:
    def test_endpoint_gap_at_u0(self):
        pair = build_hamiltonians(random_spin_model(4, 7))
        e0, e1 = two_lowest_eigenvalues(pair, 0.0)
        assert e1 - e0 == pytest.approx(2.0, abs=1e-8)

    def test_degenerate_optimum_reports_zero_gap(self):
        inst = QapInstance(2, np.zeros((4, 4)), np.zeros(4))
        with pytest.warns(UserWarning, match="degenerate levels") as caught:
            profile = gap_profile(build_formulation(inst, "baseline"), num_samples=5)
        assert profile.gaps()[-1] == 0.0  # both permutations share the ground energy
        assert [w.filename for w in caught] == [__file__]  # the warning names the caller

    def test_profile_invariants(self):
        inst = random_instance(3, 62)
        profile = gap_profile(build_formulation(inst, "inserted"), num_samples=17)
        assert np.all(profile.e1 >= profile.e0)
        assert profile.min_gap >= 0
        assert 0.0 <= profile.argmin_t <= 1.0
        assert profile.min_gap == pytest.approx(profile.gaps().min())

    def test_refinement_stability(self):
        inst = random_instance(3, 63)
        model = build_formulation(inst, "inserted")
        coarse = gap_profile(model, num_samples=33)
        fine = gap_profile(model, num_samples=65)
        assert abs(fine.min_gap - coarse.min_gap) < 0.05 * coarse.min_gap

    def test_gap_shrinks_with_penalty_scale(self):
        inst = random_instance(3, 64)
        for form in ("baseline", "row_wise", "inserted"):
            g1 = gap_profile(build_formulation(inst, form, 1.0), num_samples=17).min_gap
            g3 = gap_profile(build_formulation(inst, form, 3.0), num_samples=17).min_gap
            assert g3 < g1, form

    def test_num_samples_validation(self):
        model = QuboModel(dim=1, Q=np.zeros((1, 1)), q=np.zeros(1), offset=0.0,
                          formulation="baseline", n=1)
        with pytest.raises(ValueError):
            gap_profile(model, num_samples=1)

    @pytest.mark.parametrize("n, num_samples, expected, refusal", [
        # 16 qubits: 17 points are over the work cap
        (4, 17, SizeCapError, "eigensolve-amplitude cap"),
        (5, 2, SizeCapError, "16-qubit cap"),  # 25 qubits are over the qubit cap
        (5, 10**6, SizeCapError, "16-qubit cap"),  # the qubit cap comes before the work cap
        # the count comes before both caps
        (5, 1, ValueError, "num_samples must be an integer >= 2"),
        (4, 10**6 + 0.5, ValueError, "num_samples must be an integer >= 2"),
    ], ids=["4-17", "5-2", "5-1000000", "5-1", "4-noninteger"])
    def test_caps_checked_before_the_hamiltonian_is_built(self, monkeypatch, n, num_samples,
                                                          expected, refusal):
        zero = QapInstance(n, np.zeros((n * n, n * n)), np.zeros(n * n))
        model = build_formulation(zero, "baseline")
        monkeypatch.setattr(spectral, "annealing_hamiltonian", lambda *args: pytest.fail("built"))
        with pytest.raises(expected, match=refusal):
            gap_profile(model, num_samples=num_samples)

    def test_csv_and_summary_outputs(self, tmp_path):
        inst = random_instance(2, 65)
        profile = gap_profile(build_formulation(inst, "baseline"), num_samples=9)
        csv_path = tmp_path / "profile.csv"
        profile.to_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "u,e0,e1,gap"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(2.0, abs=1e-8)
        summary = profile.summary(formulation="baseline", scale=1.0)
        assert summary["min_gap"] == profile.min_gap
        assert summary["formulation"] == "baseline"
        assert summary["scale"] == 1.0

import itertools

import numpy as np
import pytest

from optiq.errors import (DimensionOverflowError, InvalidOrderingError,
                          UnknownStateError)
from optiq.fock import FockBasis, dimension, enumerate_basis
from optiq.homomorphism import evolution_matrix


def brute_force_states(m, n):
    """Oracle: all occupation vectors by exhaustive enumeration."""
    return {occ for occ in itertools.product(range(n + 1), repeat=m)
            if sum(occ) == n}


def test_dimension_examples():
    assert dimension(2, 2) == 3
    assert dimension(1, 7) == 1
    assert dimension(3, 3) == 10  # == len(brute_force_states(3, 3))
    assert dimension(3, 3) == len(brute_force_states(3, 3))


def test_dimension_validates_input():
    with pytest.raises(ValueError):
        dimension(0, 2)
    with pytest.raises(ValueError):
        dimension(2, -1)
    assert dimension(2, 0) == 1  # vacuum only
    with pytest.raises(ValueError):
        enumerate_basis(0, 2)
    with pytest.raises(ValueError):
        enumerate_basis(2, 0)  # a basis needs a photon


def test_dimension_large_values_are_exact():
    # exact integer arithmetic, no wraparound however large
    assert dimension(30, 30) == 59132290782430712
    assert dimension(100, 50) > 2 ** 63


def test_enumerate_default_order():
    assert enumerate_basis(2, 1).states == ((1, 0), (0, 1))
    assert enumerate_basis(3, 2).states == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def test_enumerate_explicit_order():
    order = [(2, 0), (0, 2), (1, 1)]
    basis = enumerate_basis(2, 2, ordering=order)
    assert basis.states == ((2, 0), (0, 2), (1, 1))
    assert basis.ordering == "explicit"
    assert enumerate_basis(2, 2, ordering=np.array(order)).states == basis.states


def test_enumerate_rejects_bad_orderings():
    with pytest.raises(InvalidOrderingError):
        enumerate_basis(2, 2, ordering=[(2, 0), (0, 2)])  # incomplete
    with pytest.raises(InvalidOrderingError):
        enumerate_basis(2, 2, ordering=[(2, 0), (0, 2), (2, 0)])  # duplicate
    with pytest.raises(InvalidOrderingError):
        enumerate_basis(2, 2, ordering=[(2, 0), (0, 2), (1, 2)])  # wrong sum
    with pytest.raises(InvalidOrderingError):
        enumerate_basis(2, 2, ordering="alphabetical")
    with pytest.raises(InvalidOrderingError):
        enumerate_basis(2, 2, ordering=5)  # not a state list
    with pytest.raises(InvalidOrderingError):
        enumerate_basis(2, 2, ordering=[(2, 0), (0, 2), (1, "x")])  # not ints
    with pytest.raises(InvalidOrderingError):
        enumerate_basis(2, 2, ordering=[(2.7, 0), (0, 2), (1, 1)])  # float
    with pytest.raises(InvalidOrderingError):
        enumerate_basis(2, 2, ordering=[(2, 0), (0, 2), (True, True)])  # bool


def test_state_entries_are_checked_by_type():
    # numpy integers become ints; bool, float and str entries are rejected
    basis = enumerate_basis(2, 2, ordering=[(np.int64(2), 0), (0, np.int8(2)), (1, 1)])
    assert basis.states == ((2, 0), (0, 2), (1, 1))
    assert {type(x) for s in basis.states for x in s} == {int}
    for state in [(True, True), (1.0, 1), ("1", 1)]:
        with pytest.raises(InvalidOrderingError):
            enumerate_basis(2, 2, ordering=[(2, 0), (0, 2), state])
    # so are the mode and photon counts
    for m, n, states in [(2.9, 2, [(2, 0), (1, 1), (0, 2)]), (True, 1, [(1,)])]:
        with pytest.raises(TypeError):
            FockBasis(m, n, states)
    with pytest.raises(TypeError):
        enumerate_basis(True, 2)
    basis = FockBasis(np.int64(2), np.int8(2), [(2, 0), (1, 1), (0, 2)])
    assert (basis.m, basis.n) == (2, 2) and {type(basis.m), type(basis.n)} == {int}
    assert enumerate_basis(np.int64(3), np.int64(2)) == enumerate_basis(3, 2)


def test_enumerate_dimension_cap():
    with pytest.raises(DimensionOverflowError):
        enumerate_basis(30, 30)
    with pytest.raises(DimensionOverflowError):
        enumerate_basis(3, 2, max_dim=5)
    assert len(enumerate_basis(3, 2, max_dim=6)) == 6


def test_enumerate_many_modes():
    # one photon in 1500 modes: state k holds it in mode k, so the lift of a
    # phased permutation is that matrix itself
    basis = enumerate_basis(1500, 1)
    assert len(basis) == 1500
    rng = np.random.default_rng(8)
    S = np.eye(1500)[rng.permutation(1500)] * np.exp(1j * rng.uniform(-np.pi, np.pi, 1500))
    assert np.array_equal(evolution_matrix(S, basis), S)


def test_index_of():
    basis = enumerate_basis(2, 2, ordering=[(2, 0), (0, 2), (1, 1)])
    assert basis.index_of((0, 2)) == 1
    assert basis.index_of(basis.states[0]) == 0
    assert enumerate_basis(3, 2).index_of((0, 1, 1)) == 4
    with pytest.raises(UnknownStateError):
        basis.index_of((3, 0))
    assert basis.index_of(np.array([0, 2])) == 1


@pytest.mark.parametrize("state", [(2.7, 0), (2.0, 0), (True, True), ("2", 0), 5],
                         ids=["float", "integral-float", "bool", "str", "scalar"])
def test_index_of_rejects_non_integer_entries(state):
    with pytest.raises(UnknownStateError):
        enumerate_basis(2, 2).index_of(state)


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_matches_brute_force(m, n):
    basis = enumerate_basis(m, n)
    assert len(basis) == dimension(m, n)
    assert basis.states == tuple(sorted(brute_force_states(m, n), reverse=True))
    # index_of composed with states is the identity
    assert all(basis.index_of(s) == k for k, s in enumerate(basis.states))


def test_enumeration_is_deterministic():
    assert enumerate_basis(4, 3).states == enumerate_basis(4, 3).states


def test_basis_equality():
    assert enumerate_basis(2, 2) == enumerate_basis(2, 2)
    assert enumerate_basis(2, 2) != enumerate_basis(2, 2, ordering=[(2, 0), (0, 2), (1, 1)])
    assert enumerate_basis(2, 2) != ((2, 0), (1, 1), (0, 2))  # not a basis
    assert repr(enumerate_basis(2, 2)) == "FockBasis(m=2, n=2, M=3, ordering='lex_desc')"

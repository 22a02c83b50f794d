"""Fock-state bookkeeping for n photons in m optical modes.

Every dense operator in this package is written in the coordinate system
fixed by a :class:`FockBasis`: row and column k of an evolution matrix refer
to ``basis.states[k]``. The default enumeration is lexicographic-descending
on occupation vectors; an explicit state list can be supplied when a
specific order is required (reference data sets often fix their own).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .errors import DimensionOverflowError, InvalidOrderingError, UnknownStateError
from .validate import require_int

DEFAULT_ORDERING = "lex_desc"

#: Dense M x M storage becomes impractical past this point; pass a larger
#: ``max_dim`` explicitly to override.
MAX_DIMENSION = 20_000


def dimension(m: int, n: int) -> int:
    """Hilbert-space dimension C(m + n - 1, n) for n photons in m modes.

    Args:
        m: number of modes, at least 1.
        n: number of photons, at least 0.

    Returns:
        The exact binomial coefficient, computed in arbitrary-precision
        integer arithmetic (it cannot silently wrap).
    """
    if m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    return math.comb(m + n - 1, n)


def _occupations(state) -> tuple[int, ...]:
    """``state`` as a tuple of ints; unless all are plain ints, each entry
    goes through :func:`require_int`, so bool, float and str raise TypeError."""
    state = tuple(state)
    return state if set(map(type, state)) <= {int} else tuple(map(require_int, state))


def _compositions(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """All weak compositions of n into m parts, lexicographically descending:
    the occupation vectors of the multisets of n modes, taken in
    lexicographic order."""
    for modes in itertools.combinations_with_replacement(range(m), n):
        counts = [0] * m
        for j in modes:
            counts[j] += 1
        yield tuple(counts)


class FockBasis:
    """Ordered enumeration of every n-photon occupation vector on m modes.

    Immutable after construction and therefore safe to share between
    concurrent workers; the lift tables it carries are built on first use,
    the same by whichever worker builds them. Use :func:`enumerate_basis`
    to build one.
    """

    __slots__ = ("m", "n", "states", "ordering", "_index", "_lift_tables")

    def __init__(self, m: int, n: int, states: Sequence[Sequence[int]],
                 ordering: str = "explicit"):
        self.m, self.n = require_int(m), require_int(n)
        try:
            self.states = tuple(map(_occupations, states))
        except TypeError as exc:
            raise InvalidOrderingError(f"malformed state list: {exc}") from None
        self.ordering = ordering
        self._lift_tables = {}  # filled on first use by the homomorphism module
        expected = dimension(self.m, self.n)
        for s in self.states:
            if len(s) != self.m or min(s, default=0) < 0 or sum(s) != self.n:
                raise InvalidOrderingError(
                    f"{s} is not an {self.n}-photon occupation vector on {self.m} modes")
        self._index = {s: k for k, s in enumerate(self.states)}
        # distinct + valid + complete count is equivalent to being a permutation
        if len(self._index) != len(self.states) or len(self.states) != expected:
            raise InvalidOrderingError(
                f"state list must be a permutation of all {expected} occupation vectors, "
                f"got {len(self.states)} states")

    def __len__(self) -> int:
        return len(self.states)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockBasis):
            return NotImplemented
        return (self.m, self.n, self.states) == (other.m, other.n, other.states)

    def __repr__(self) -> str:
        return (f"FockBasis(m={self.m}, n={self.n}, M={len(self)}, "
                f"ordering={self.ordering!r})")

    def index_of(self, state: Sequence[int]) -> int:
        """Position of ``state`` in the enumeration (dictionary lookup)."""
        try:
            key = _occupations(state)
            return self._index[key]
        except TypeError:
            raise UnknownStateError(f"{state!r} is not a vector of integer "
                                    "occupations") from None
        except KeyError:
            raise UnknownStateError(f"{key} is not in this basis") from None


def enumerate_basis(m: int, n: int,
                    ordering: str | Sequence[Sequence[int]] = DEFAULT_ORDERING,
                    max_dim: int | None = MAX_DIMENSION) -> FockBasis:
    """Enumerate the full n-photon basis on m modes in the requested order.

    Args:
        m: number of modes, at least 1.
        n: number of photons, at least 1.
        ordering: the tag ``"lex_desc"`` for the canonical order, or an
            explicit sequence of occupation vectors that must be a
            permutation of the complete state set.
        max_dim: dense-storage cap; ``None`` disables the check.
    """
    if m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"photon number must be >= 1, got {n}")
    M = dimension(m, n)
    if max_dim is not None and M > max_dim:
        raise DimensionOverflowError(
            f"basis dimension {M} exceeds the dense-storage cap {max_dim}")
    if isinstance(ordering, str):
        if ordering.replace("-", "_") != DEFAULT_ORDERING:
            raise InvalidOrderingError(f"unknown ordering tag {ordering!r}")
        return FockBasis(m, n, list(_compositions(m, n)), DEFAULT_ORDERING)
    return FockBasis(m, n, ordering, "explicit")

"""Tests for permutations, shuffle enumeration, and the odd-slot sign."""

from __future__ import annotations

import itertools
import random
from math import comb

from conftest import is_shuffle
from hypothesis import given, settings
from hypothesis import strategies as st

from superharrison.shuffles import (
    Permutation,
    _inversion_sign,
    enumerate_shuffles,
    odd_subpermutation,
    sigma_o_sign,
)


def composed(outer: Permutation, inner: Permutation) -> Permutation:
    """(outer * inner)(i) = outer(inner(i))."""
    return Permutation(tuple(outer(inner(i)) for i in range(1, inner.n + 1)))


def all_permutations(n):
    return [Permutation(images) for images in itertools.permutations(range(1, n + 1))]


def independent_odd_sign(perm: Permutation, parities: tuple[int, ...]) -> int:
    """Sign oracle built a different way.

    Reading the one-line word sigma(1), ..., sigma(n) left to right and
    keeping only the odd-parity values yields exactly the odd
    subpermutation's values in domain order, so its sign is the inversion
    parity of that subsequence.
    """
    odd_values = [v for v in perm.images if parities[v - 1] == 1]
    inversions = sum(
        1
        for a in range(len(odd_values))
        for b in range(a + 1, len(odd_values))
        if odd_values[a] > odd_values[b]
    )
    return -1 if inversions % 2 else 1


permutation_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(
        lambda images: Permutation(tuple(images))
    )
)


class TestPermutation:
    def test_identity_maps_every_point_to_itself(self):
        perm = Permutation((1, 2, 3, 4))
        assert all(perm(i) == i for i in range(1, 5))
        assert perm.sign() == 1

    def test_call_uses_one_based_positions(self):
        perm = Permutation((3, 1, 2))
        assert (perm(1), perm(2), perm(3)) == (3, 1, 2)

    def test_rejects_non_bijective_words(self):
        for bad in [(1, 1), (0, 1), (2, 3)]:
            try:
                Permutation(bad)
            except ValueError:
                continue
            raise AssertionError(f"{bad} accepted")

    @given(permutation_strategy)
    def test_inverse_composes_to_identity(self, perm):
        n = len(perm.images)
        inv = perm.inverse()
        assert composed(perm, inv).images == tuple(range(1, n + 1))
        assert composed(inv, perm).images == tuple(range(1, n + 1))

    @given(permutation_strategy, st.data())
    def test_sign_is_multiplicative(self, perm, data):
        n = len(perm.images)
        other = data.draw(
            st.permutations(tuple(range(1, n + 1))).map(
                lambda images: Permutation(tuple(images))
            )
        )
        assert composed(perm, other).sign() == perm.sign() * other.sign()

    def test_sign_of_a_transposition_is_minus_one(self):
        assert Permutation((2, 1)).sign() == -1
        assert Permutation((1, 3, 2, 4)).sign() == -1
        assert Permutation((2, 3, 1)).sign() == 1

    def test_inversion_sign_matches_a_pairwise_count(self):
        # The sign of every shuffle in the Harrison tables comes from _inversion_sign.
        rng = random.Random(23)
        for _ in range(3000):
            values = tuple(rng.sample(range(20), rng.randint(0, 9)))
            pairs = sum(1 for i, j in itertools.combinations(range(len(values)), 2) if values[i] > values[j])
            assert _inversion_sign(values) == (-1 if pairs % 2 else 1), values


class TestShuffleEnumeration:
    def test_counts_match_binomials(self):
        for n in range(2, 8):
            for p in range(1, n):
                shuffles = enumerate_shuffles(n, p)
                assert len(shuffles) == comb(n, p)
                assert len({s.images for s in shuffles}) == len(shuffles)

    def test_every_enumerated_element_is_a_shuffle(self):
        for n in range(2, 7):
            for p in range(1, n):
                for s in enumerate_shuffles(n, p):
                    assert type(s) is Permutation
                    assert is_shuffle(s, p)

    def test_enumeration_is_ordered_by_first_run(self):
        for n in range(2, 7):
            for p in range(1, n):
                runs = [
                    tuple(s(i) for i in range(1, p + 1))
                    for s in enumerate_shuffles(n, p)
                ]
                assert runs == sorted(runs)
                # The first run determines the rest, and matches the
                # combinations of {1..n} taken p at a time.
                assert runs == [
                    tuple(c) for c in itertools.combinations(range(1, n + 1), p)
                ]

    def test_shuffle_runs_increase(self):
        for s in enumerate_shuffles(6, 2):
            images = s.images
            first, second = images[:2], images[2:]
            assert list(first) == sorted(first)
            assert list(second) == sorted(second)

    def test_specific_membership(self):
        # (2,4,5,1,3) splits into increasing runs 2,4,5 and 1,3.
        member = Permutation((2, 4, 5, 1, 3))
        assert is_shuffle(member, 3)
        assert member.images in {s.images for s in enumerate_shuffles(5, 3)}
        # Its inverse (4,1,5,2,3) is not a shuffle for any split point.
        inverse = member.inverse()
        assert inverse.images == (4, 1, 5, 2, 3)
        assert not any(is_shuffle(inverse, p) for p in range(1, 5))


class TestOddSubpermutation:
    def test_worked_example(self):
        # Odd slots are 2 and 3; sigma sends 3 -> 2 and 2 -> 1 (even), so
        # the positions mapping to odd slots are 1 and 3.
        perm = Permutation((3, 1, 2))
        parities = (0, 1, 1)
        assert odd_subpermutation(perm, parities) == {2: 3, 3: 2}
        assert sigma_o_sign(perm, parities) == -1

    def test_no_odd_slots_gives_trivial_sign(self):
        for perm in all_permutations(4):
            assert odd_subpermutation(perm, (0, 0, 0, 0)) == {}
            assert sigma_o_sign(perm, (0, 0, 0, 0)) == 1

    def test_all_odd_slots_recovers_the_permutation(self):
        for perm in all_permutations(4):
            parities = (1, 1, 1, 1)
            mapping = odd_subpermutation(perm, parities)
            assert mapping == {i: perm(i) for i in range(1, 5)}
            assert sigma_o_sign(perm, parities) == perm.sign()

    def test_matches_independent_oracle_exhaustively(self):
        for n in range(1, 6):
            for perm in all_permutations(n):
                for parities in itertools.product((0, 1), repeat=n):
                    assert sigma_o_sign(perm, parities) == independent_odd_sign(
                        perm, parities
                    ), (perm.images, parities)

    def test_mapping_is_a_bijection_on_odd_slots(self):
        for perm in all_permutations(5):
            for parities in [(1, 0, 1, 0, 1), (0, 1, 1, 0, 0)]:
                mapping = odd_subpermutation(perm, parities)
                odd_slots = {i + 1 for i, e in enumerate(parities) if e}
                assert set(mapping) == odd_slots
                assert set(mapping.values()) == odd_slots

    def test_parity_length_mismatch_rejected(self):
        try:
            sigma_o_sign(Permutation((1, 2)), (0, 1, 1))
        except ValueError:
            pass
        else:
            raise AssertionError("length mismatch accepted")


class TestRotationSigns:
    """Closed forms for the two rotation cycles, checked over all parities."""

    def test_pull_last_to_front(self):
        # sigma(1) = n+1, sigma(m) = m-1 otherwise: moving the last slot
        # past all the others costs the product of its parity with the rest.
        for n in range(2, 6):
            images = (n + 1,) + tuple(range(1, n + 1))
            perm = Permutation(images)
            for parities in itertools.product((0, 1), repeat=n + 1):
                expected = (
                    -1 if (sum(parities[:n]) % 2) and parities[n] else 1
                )
                assert sigma_o_sign(perm, parities) == expected

    def test_push_first_to_back(self):
        # tau(m) = m+1, tau(n+1) = 1: the first slot hops over the rest.
        for n in range(2, 6):
            images = tuple(range(2, n + 2)) + (1,)
            perm = Permutation(images)
            for parities in itertools.product((0, 1), repeat=n + 1):
                expected = (
                    -1 if (sum(parities[1:]) % 2) and parities[0] else 1
                )
                assert sigma_o_sign(perm, parities) == expected

    def test_rotations_invert_each_other(self):
        for n in range(2, 6):
            pull = Permutation((n + 1,) + tuple(range(1, n + 1)))
            push = Permutation(tuple(range(2, n + 2)) + (1,))
            assert pull.inverse().images == push.images

    def test_odd_sign_is_not_multiplicative(self):
        # One frozen counterexample: the two 3-cycles compose to the
        # identity, yet their odd-slot signs do not cancel.
        sigma = Permutation((3, 1, 2))
        tau = Permutation((2, 3, 1))
        parities = (0, 1, 1)
        assert composed(sigma, tau).images == (1, 2, 3)
        assert sigma_o_sign(composed(sigma, tau), parities) == 1
        assert sigma_o_sign(sigma, parities) * sigma_o_sign(tau, parities) == -1


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.permutations(tuple(range(1, n + 1))).map(tuple),
            st.tuples(*([st.integers(0, 1)] * n)),
        )
    )
)
def test_odd_sign_oracle_property(case):
    images, parities = case
    perm = Permutation(images)
    assert sigma_o_sign(perm, parities) == independent_odd_sign(perm, parities)

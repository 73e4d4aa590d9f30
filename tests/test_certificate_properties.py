"""Property tests for the row certificate and certified composition."""

from functools import cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from suzuki2.automorphisms import (
    Automorphism,
    _certificate_witness,
    _pairs_witness,
    brute_force_aut,
)
from suzuki2.constructions import build_family
from suzuki2.permgrp import compose, invert

SPECS = ("b2:1", "q:16", "hc:2:4", "a2:3:1")


@cache
def group(spec):
    return build_family(spec)


@cache
def auts(spec):
    return brute_force_aut(group(spec))


@st.composite
def group_and_perm(draw):
    """A group of SPECS and a permutation of its ids fixing 0: a random
    one, or an automorphism with the images of two ids exchanged, which
    is the automorphism itself when the ids coincide."""
    spec = draw(st.sampled_from(SPECS))
    g = group(spec)
    if draw(st.booleans()):
        return g, [0] + draw(st.permutations(range(1, g.n)))
    perm = list(draw(st.sampled_from(auts(spec))).perm)
    i, j = draw(st.integers(1, g.n - 1)), draw(st.integers(1, g.n - 1))
    perm[i], perm[j] = perm[j], perm[i]
    return g, perm


@settings(deadline=None)
@given(group_and_perm())
def test_row_certificate_names_the_pairs_witness(case):
    g, perm = case
    assert _certificate_witness(g.mul, g.mul, perm, g.gens) == _pairs_witness(g.mul, g.mul, perm)


@settings(deadline=None)
@given(st.integers(0, 95), st.integers(0, 95))
def test_compose_and_inverse_stay_certified(i, j):
    hc = auts("hc:2:4")
    assert len(hc) == 96
    a, b = hc[i], hc[j]
    # Automorphism._product wraps products and inverses of certified maps
    # unchecked, by closure; the certificate confirms it on hc's pairs
    c = Automorphism(a.group, compose(a.perm, b.perm))
    assert c in hc
    assert c.perm == tuple(b.perm[x] for x in a.perm)
    inv = Automorphism(a.group, invert(a.perm))
    assert inv in hc
    assert compose(a.perm, inv.perm) == tuple(range(a.group.n))

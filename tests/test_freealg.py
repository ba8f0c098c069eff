"""Free algebra: words, brackets, suspension, substitution."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from diskhall.freealg import (Generator, NCPolynomial, Relation, iterated_bracket,
                              q_bracket, zab, zarc, zgen)
from diskhall.presentation import s_relations
from diskhall.scalar import ONE, V, RationalFunctionV


def _gens(k=3):
    return [NCPolynomial.generator(Generator("z", i, 0)) for i in range(1, k + 1)]


gen_strategy = st.builds(Generator, st.just("z"), st.integers(1, 3), st.integers(-2, 2))
word_strategy = st.lists(gen_strategy, min_size=0, max_size=3).map(tuple)
coeff_strategy = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.sampled_from([V, V ** -1, V + ONE, ONE / (V ** 2 - ONE)]))
poly_strategy = st.lists(st.tuples(word_strategy, coeff_strategy),
                         min_size=0, max_size=3).map(
    lambda items: sum((NCPolynomial.word(w, c) for w, c in items),
                      NCPolynomial.zero()))
param_strategy = st.sampled_from(
    [ONE, V, V ** -1, V ** 2, V ** -2, 2 * V, (V + ONE) / V])


def test_word_arithmetic():
    x, y, z = _gens()
    p = x * y - y * x
    assert p + y * x == x * y
    assert (p - p).is_zero()
    assert x * (y + z) == x * y + x * z


def test_immutability():
    p = _gens()[0]
    with pytest.raises(AttributeError):
        p.terms = {}


def test_scalar_coercion():
    x = _gens()[0]
    assert 2 * x == x + x
    assert x - x == 0 * x
    assert NCPolynomial.scalar(1) == NCPolynomial.one()


def test_suspension_shifts_every_generator():
    x, y, _ = _gens()
    p = (x * y).suspend(2)
    ((g1, g2),) = p.terms.keys()
    assert (g1.shift, g2.shift) == (2, 2)
    assert p.suspend(-2) == x * y


def test_substitute_is_multiplicative():
    x, y, _ = _gens()

    def double(g):
        return NCPolynomial.generator(g).scale(2)

    assert (x * y).substitute(double) == (x * y).scale(4)


def test_q_bracket_default_parameter():
    x, y, _ = _gens()
    assert q_bracket(x, y) == x * y - (y * x).scale(V)
    assert q_bracket(x, y, ONE) == x * y - y * x


def test_iterated_bracket_nesting():
    x, y, z = _gens()
    assert iterated_bracket([x]) == x
    assert iterated_bracket([x, y, z]) == q_bracket(x, q_bracket(y, z, V), V)
    with pytest.raises(ValueError):
        iterated_bracket([])


def test_zab_expansion():
    # z_{(1,3),n} = [z_2, z_1]_v
    assert zab(1, 3, 0, 4) == q_bracket(zgen(2, 0), zgen(1, 0), V)
    assert zab(2, 3, 1, 4) == zgen(2, 1)
    with pytest.raises(ValueError):
        zab(3, 2, 0, 4)


def test_zab_is_memoised_and_rejects_bad_arguments_on_every_call():
    assert zab(1, 4, 2, 5) is zab(1, 4, 2, 5)
    assert zab(1, 4, 2, 5) == q_bracket(zgen(3, 2), zab(1, 3, 2, 5), V)
    for _ in range(3):
        for bad in [(3, 2, 0, 4), (0, 2, 0, 4), (1, 5, 0, 4), (2, 2, 1, 4)]:
            with pytest.raises(ValueError):
                zab(*bad)


def test_zarc_stays_symbolic_until_expanded():
    p = zarc(1, 3, 0) * zarc(2, 4, -1)
    for w in p.terms:
        assert all(isinstance(g.index, tuple) for g in w)
    expand = s_relations(4, (0, 0)).expand
    assert p.substitute(expand) == zab(1, 3, 0, 4) * zab(2, 4, -1, 4)


def test_relation_helpers():
    x, y, _ = _gens()
    r = Relation("demo", x * y, y * x)
    assert "demo:" in str(r)


# -- the two structural bracket identities, exactly in Q(v) ------------------

@settings(max_examples=60, deadline=None)
@given(poly_strategy, poly_strategy, param_strategy)
def test_q_antisymmetry(x, y, f):
    # [x, y]_f = -f [y, x]_{f^{-1}}
    assert q_bracket(x, y, f) == -(q_bracket(y, x, f.inverse()).scale(f))


@settings(max_examples=60, deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy,
       param_strategy, param_strategy, param_strategy)
def test_omni_jacobi(x, y, z, a, b, c):
    # [x,[y,z]_{ac}]_{ab} + a[z,[x,y]_{abc}]_{a^{-1}} + ab[y,[z,x]_c]_{b^{-1}} = 0
    total = (q_bracket(x, q_bracket(y, z, a * c), a * b)
             + q_bracket(z, q_bracket(x, y, a * b * c), a.inverse()).scale(a)
             + q_bracket(y, q_bracket(z, x, c), b.inverse()).scale(a * b))
    assert total.is_zero()


def test_str_round_readability():
    x, _, _ = _gens()
    assert str(x) == "z[1,0]"
    assert str(NCPolynomial.zero()) == "0"
    assert "v" in str(x.scale(V))

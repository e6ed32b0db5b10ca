"""Laws of the shared sparse container, on one small element of each class
built on it, and the three equality rules it keeps apart."""

from fractions import Fraction

import pytest

from starchain.cyclic import ChainContext, CyclicChain, EquivariantChain
from starchain.forms import FormalForm
from starchain.group_coh import EquivariantClassCocycle
from starchain.groups import CyclicGroup
from starchain.scalars import FieldElement, HbarLaurent, ULaurent
from starchain.torus import (CrossedElement, TorusElement, TorusForm,
                             TranslationAction, WeylSection)
from starchain.weyl import WeylElement

ACT = TranslationAction(1, CyclicGroup(), (Fraction(1, 3), Fraction(1, 5)))
CTX = ChainContext.torus(1, h_trunc=3, u_trunc=6)


def fe(q):
    return FieldElement.rational(q)


def h(q, trunc, power=0):
    return HbarLaurent.from_rational(q, trunc, power)


def u(q, trunc, power=0):
    return ULaurent.from_hbar(h(q, 3), trunc, power)


def torus(w, k):
    return TorusElement(1, {(0, k): h(1, w), (1, -1): h(-2, w + 1, 1)})


# class -> build(w, k): an element with window w; k = 0, 1 gives two
# elements that share some keys and differ in others
BUILD = {
    HbarLaurent: lambda w, k: HbarLaurent(w, {k: fe(1), k + 1: fe(Fraction(-2, 3))}),
    ULaurent: lambda w, k: ULaurent(w, {k: h(1, 3), k - 1: h(Fraction(1, 2), 2, 1)}),
    WeylElement: lambda w, k: WeylElement(
        1, w, {((1,), (0,), 0): fe(1), ((k,), (1,), 1): fe(-3)}),
    TorusElement: torus,
    CrossedElement: lambda w, k: CrossedElement(
        ACT, {0: torus(w, k), 1 + k: torus(w + 1, 0)}),
    TorusForm: lambda w, k: TorusForm(
        1, {(): torus(w, k), (0, 1) if k else (0,): torus(w + 2, 1)}),
    WeylSection: lambda w, k: WeylSection(
        1, w, {(0, 0): torus(5, k), (1, k): torus(5, 0)}),
    FormalForm: lambda w, k: FormalForm(
        1, {(((0,), (0,)), ()): u(1, w), (((1,), (k,)), (0,)): u(2, w + 1, k)},
        order=4),
    CyclicChain: lambda w, k: CyclicChain(
        CTX, {((0, 0),): u(1, w), ((1, 0), (-1, k)): u(-1, w + 1, 1)}),
    EquivariantChain: lambda w, k: EquivariantChain(
        CTX, ACT, True, {(((0, 0),), (0,)): u(1, w),
                         (((1, 0), (-1, 0)), (k, 1)): u(3, w + 1)}),
    EquivariantClassCocycle: lambda w, k: EquivariantClassCocycle(
        ACT, {(): TorusForm(1, {(): torus(w, k)}),
              (1 + k,): TorusForm(1, {(0,): torus(w + 1, 0)})}),
}

CLASSES = pytest.mark.parametrize("cls", list(BUILD), ids=lambda c: c.__name__)


@CLASSES
def test_additive_inverse(cls):
    x = BUILD[cls](4, 0)
    assert not x.is_zero()
    assert (x + (-x)).is_zero()


@CLASSES
def test_difference_is_sum_with_negative(cls):
    x, y = BUILD[cls](4, 0), BUILD[cls](6, 1)
    assert x - y == x + (-y)
    assert y - x == y + (-x)


@CLASSES
def test_sum_window_is_the_minimum(cls):
    x, y = BUILD[cls](4, 0), BUILD[cls](6, 1)
    assert (x.global_window(), y.global_window()) == (4, 6)
    assert (x + y).global_window() == 4
    assert (y + x).global_window() == 4


@CLASSES
def test_unit_scalar(cls):
    x = BUILD[cls](4, 0)
    assert x * 1 == x
    assert 1 * x == x


@CLASSES
def test_non_scalar_product_raises_type_error(cls):
    x = BUILD[cls](4, 0)
    for bad in (1.5, "x"):
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x


@CLASSES
def test_unhashable(cls):
    with pytest.raises(TypeError):
        hash(BUILD[cls](4, 0))


# -- the three equality rules ------------------------------------------------

def test_coefficient_window_rule():
    # the (1, 0) wave is read through the smallest coefficient window (3),
    # where hbar^4 vanishes
    x = TorusElement.plane_wave(1, (0, 0), 3)
    y = x + TorusElement.plane_wave(1, (1, 0), 5, h(1, 5, 4))
    assert x == y and y == x
    wide = TorusElement.plane_wave(1, (0, 0), 5)
    assert wide != wide + TorusElement.plane_wave(1, (1, 0), 5, h(1, 5, 4))


def test_filtered_rule():
    one = FieldElement.rational(1)
    assert HbarLaurent(2, {0: one}) == HbarLaurent(5, {0: one, 4: one})
    assert HbarLaurent(5, {0: one}) != HbarLaurent(5, {0: one, 4: one})


def test_difference_rule():
    # a word on one side only makes two chains unequal, whatever its window
    ctx = ChainContext.torus(1, h_trunc=3, u_trunc=1)
    c = h(1, 3)
    x = CyclicChain(ctx, {((0, 0),): ULaurent(0, {0: c})})
    y = x + CyclicChain(ctx, {((1, 0),): ULaurent(1, {1: c})})
    assert x != y and y != x

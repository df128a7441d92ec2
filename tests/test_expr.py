import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framelab.domain import Domain, make_grid
from framelab.errors import ExprError
from framelab.expr import (
    BinOp,
    Call,
    Name,
    Neg,
    Num,
    Piece,
    Piecewise,
    parse_expr,
    parse_multiplier,
    print_expr,
)

E = Domain([(-0.5, 0.5)])


# --- evaluation ----------------------------------------------------------------


def test_constant_and_identity():
    one = parse_multiplier("1")
    assert one(np.array([0.3, -0.2])) == pytest.approx([1.0, 1.0])
    ident = parse_multiplier("t")
    assert ident(0.25) == pytest.approx(0.25)
    assert ident(np.array(0.25)).shape == ()


def test_sine_profile_extrema():
    phi = parse_multiplier("2 + sin(2 * pi * t)")
    t = np.linspace(-0.5, 0.5, 10001)
    vals = phi(t).real
    assert vals.min() == pytest.approx(1.0, abs=1e-6)
    assert vals.max() == pytest.approx(3.0, abs=1e-6)


def test_constants_and_functions():
    assert parse_multiplier("pi")(0.0) == pytest.approx(np.pi)
    assert parse_multiplier("i * i")(0.0) == pytest.approx(-1.0)
    assert parse_multiplier("exp(i * pi)")(0.0) == pytest.approx(-1.0)
    assert parse_multiplier("abs(-3)")(0.0) == pytest.approx(3.0)
    assert parse_multiplier("cos(0)")(0.0) == pytest.approx(1.0)


def test_operator_precedence_and_unary():
    assert parse_multiplier("2 + 3 * 4")(0.0) == pytest.approx(14.0)
    assert parse_multiplier("(2 + 3) * 4")(0.0) == pytest.approx(20.0)
    assert parse_multiplier("2 - 3 - 4")(0.0) == pytest.approx(-5.0)
    assert parse_multiplier("12 / 3 / 2")(0.0) == pytest.approx(2.0)
    assert parse_multiplier("-t * t")(2.0) == pytest.approx(-4.0)
    assert parse_multiplier("--2")(0.0) == pytest.approx(2.0)


def test_piecewise_first_match_wins_and_zero_outside():
    phi = parse_multiplier("piecewise([0,0.5]: 1; [0.25,1]: 2)")
    t = np.array([-0.1, 0.0, 0.3, 0.5, 0.75, 1.0, 1.5])
    assert phi(t).real == pytest.approx([0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 0.0])


def test_piecewise_masks_keep_division_local():
    # 1/t is only evaluated on [0.5, 1], so the t=0 sample cannot trip the guard
    phi = parse_multiplier("piecewise([0.5,1]: 1 / t)")
    assert phi(np.array([0.0, 0.5])).real == pytest.approx([0.0, 2.0])


def test_division_guard():
    with pytest.raises(ExprError, match="division"):
        parse_multiplier("1 / t")(np.array([0.0, 1.0]))
    with pytest.raises(ExprError, match="division"):
        parse_multiplier("1 / 0")(0.0)


def test_sample_on_grid():
    g = make_grid(E, 16)
    sf = parse_multiplier("t * t").sample(g)
    assert sf.grid is g
    assert sf.values == pytest.approx(g.nodes**2)


# --- syntax errors --------------------------------------------------------------


def test_error_offsets():
    with pytest.raises(ExprError, match="unexpected character '@'") as ei:
        parse_expr("1 + @")
    assert ei.value.offset == 4
    with pytest.raises(ExprError, match="unknown identifier 'x'"):
        parse_expr("2 * x")
    with pytest.raises(ExprError, match="trailing"):
        parse_expr("1 + 2 )")
    with pytest.raises(ExprError, match="empty expression"):
        parse_expr("   ")
    with pytest.raises(ExprError, match="expected ','"):
        parse_expr("piecewise([0 1]: t)")
    with pytest.raises(ExprError, match="reversed"):
        parse_expr("piecewise([1,0]: t)")
    with pytest.raises(ExprError, match="expected a number"):
        parse_expr("piecewise([t,1]: 2)")
    with pytest.raises(ExprError):
        parse_expr("sin(")
    with pytest.raises(ExprError):
        parse_expr("2 +")


def test_unicode_minus_is_accepted():
    assert parse_multiplier("1 − t")(0.25) == pytest.approx(0.75)


# --- canonical printing ----------------------------------------------------------


def test_print_inserts_needed_parens_only():
    assert print_expr(parse_expr("(2+3)*4")) == "(2.0 + 3.0) * 4.0"
    assert print_expr(parse_expr("2+3*4")) == "2.0 + 3.0 * 4.0"
    assert print_expr(parse_expr("2-(3-4)")) == "2.0 - (3.0 - 4.0)"
    assert print_expr(parse_expr("-(1+t)")) == "-(1.0 + t)"
    assert print_expr(parse_expr("sin( 2*pi*t )")) == "sin(2.0 * pi * t)"


def _leaf():
    return st.one_of(
        st.builds(Num, st.floats(min_value=-9, max_value=9, allow_nan=False).map(float)),
        st.sampled_from([Name("t"), Name("pi"), Name("i")]),
    )


def _node(children):
    interval = st.tuples(
        st.floats(min_value=-4, max_value=4, allow_nan=False),
        st.floats(min_value=-4, max_value=4, allow_nan=False),
    ).map(lambda ab: (min(ab), max(ab)))
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "abs"]), children),
        st.lists(st.tuples(interval, children), min_size=1, max_size=3).map(
            lambda ps: Piecewise(tuple(Piece(lo, hi, b) for (lo, hi), b in ps))
        ),
    )


@given(st.recursive(_leaf(), _node, max_leaves=12))
def test_print_parse_round_trip(ast):
    # negative literals print through a unary minus, so hand-built trees are
    # canonicalized by one parse; from then on printing is a fixed point
    src = print_expr(ast)
    parsed = parse_expr(src)
    assert print_expr(parsed) == src
    assert parse_expr(print_expr(parsed)) == parsed


def test_multiplier_source_is_canonical():
    phi = parse_multiplier("2+sin( 2*pi*t )")
    assert phi.source == "2.0 + sin(2.0 * pi * t)"
    again = parse_multiplier(phi.source)
    assert again.ast == phi.ast and again.source == phi.source


@pytest.mark.parametrize("src", ["exp(1000 * t)", "1e308 * 1e308"])
def test_values_that_overflow_are_expr_errors(src):
    phi = parse_multiplier(src)
    with pytest.raises(ExprError, match=r"is not finite at t = 1\.0\b"):
        phi(np.array([1.0, 0.5]))

"""The one envelope rule: every bracket of the multiplication estimate goes
through ``within_envelope``.

A spy stands in for the rule in ``multiplication`` and ``translates``,
records each call, and can force its answer; every verdict that rests on a
bracket must then follow the spy.
"""

import numpy as np
import pytest

import framelab.multiplication as multiplication
import framelab.translates as translates
from framelab.domain import Domain, SampledFunction, make_grid
from framelab.pointset import PointSet
from framelab.translates import (
    BumpSpec,
    Generator,
    build_bump_generator,
    classify_translates,
    convolution_closure_check,
    matched_lattice,
    oversampled_expansion,
)
from support import dft_base

UNIT = Domain([(0.0, 1.0)])
E = Domain([(-0.5, 0.5)])


class Spy:
    def __init__(self, rule):
        self.rule = rule
        self.force = None
        self.calls = []

    def __call__(self, envelope, bounds):
        result = self.rule(envelope, bounds)
        self.calls.append((tuple(envelope), tuple(bounds), result))
        return result if self.force is None else self.force


@pytest.fixture
def spy(monkeypatch):
    rule = Spy(multiplication.within_envelope)
    monkeypatch.setattr(multiplication, "within_envelope", rule)
    monkeypatch.setattr(translates, "within_envelope", rule)
    return rule


def single_check(kind, expr):
    g = make_grid(UNIT, 32)
    phi = SampledFunction.from_callable(g, expr)
    base = dft_base(g)
    if kind == "converse":
        return multiplication.check_converse(multiplication.multiply_system(base, phi), phi)
    return multiplication._CHECKS[kind](base, phi)


def translates_check(expr):
    g = make_grid(E, 32)
    return classify_translates(Generator(SampledFunction.from_callable(g, expr)),
                               matched_lattice(g))


# case -> (report builder, the predicted key that turns the bracket check on)
CHECKS = {
    "frame": (lambda: single_check("frame", lambda t: 2 + np.sin(2 * np.pi * t)), "frame"),
    "frame-vanishing": (lambda: single_check("frame", lambda t: t * (t > 0.5)), "frame"),
    "tight": (lambda: single_check("tight", lambda t: np.exp(6j * np.pi * t)), None),
    "riesz": (lambda: single_check("riesz", lambda t: 2 + np.sin(2 * np.pi * t)), "riesz"),
    "bessel": (lambda: single_check("bessel", lambda t: t - 0.5), None),
    "frame_sequence": (lambda: single_check("frame_sequence",
                                            lambda t: (1 + t) * (t <= 0.5)), "frame_sequence"),
    "converse": (lambda: single_check("converse", lambda t: 2 + np.sin(2 * np.pi * t)), None),
    "translates": (lambda: translates_check(lambda w: 1.5 + np.cos(2 * np.pi * w)), "frame"),
    "translates-vanishing": (lambda: translates_check(lambda w: np.maximum(w, 0.0)), "frame"),
}


@pytest.mark.parametrize("force", [None, True, False])
@pytest.mark.parametrize("case", sorted(CHECKS))
def test_every_check_brackets_once(spy, case, force):
    build, gate = CHECKS[case]
    spy.force = force
    rep = build()
    assert len(spy.calls) == 1
    envelope, _, result = spy.calls[0]
    assert rep.envelope == envelope
    answer = result if force is None else force
    gated_off = gate is not None and not rep.predicted[gate]
    assert rep.envelope_holds is (answer or gated_off)
    if not rep.envelope_holds:
        assert rep.consistent is False


def test_a_vanishing_prediction_turns_the_bracket_off(spy):
    spy.force = False
    for case in ("frame-vanishing", "translates-vanishing"):
        rep = CHECKS[case][0]()
        assert rep.predicted["frame"] is False
        assert rep.envelope_holds is True


def factors():
    g = make_grid(E, 64)
    f = Generator(SampledFunction(g, 2.0 + np.sin(2 * np.pi * g.nodes)))
    h = Generator(SampledFunction(g, 1.5 + 0.5 * np.cos(2 * np.pi * g.nodes)))
    return f, h, matched_lattice(g)


@pytest.mark.parametrize("force", [None, True, False])
@pytest.mark.parametrize("mode", ["bessel", "frame", "frame_sequence", "quotient",
                                  "bessel_quotient"])
def test_convolution_verdicts_follow_the_rule(spy, mode, force):
    spy.force = force
    rep = convolution_closure_check(*factors(), mode)
    answers = [result if force is None else force for _, _, result in spy.calls]
    # one bracket of the measured system; the quotient modes also bracket
    # the second factor's magnitude range
    system_calls = [c for c in spy.calls if c[1] == rep.measured]
    assert len(system_calls) == (0 if mode == "quotient" else 1)
    assert len(spy.calls) == (2 if mode == "bessel_quotient" else 1)
    if mode != "quotient":
        assert system_calls[0][0] == rep.envelope
    assert rep.within is all(answers)
    if not rep.within:
        assert rep.consistent is False
    elif mode == "frame":
        assert rep.consistent is rep.product_report.flags.frame_for_whole_space
    elif mode == "frame_sequence":
        assert rep.consistent is rep.details["rank_matches_support"]
    else:
        assert rep.consistent is True


@pytest.mark.parametrize("force", [None, True, False])
def test_expansion_coefficient_budget_follows_the_rule(spy, force, recwarn):
    spec = BumpSpec(Domain([(-0.4, 0.4)]), 0.05)
    grid = make_grid(spec.dilated, 320)
    gen = build_bump_generator(spec, grid)
    m = grid.domain.measure
    lam = (np.arange(2 * grid.size) - grid.size) / (2.0 * m)
    ps = PointSet.from_1d(lam, box=(lam[0] - 0.25 / m, lam[-1] + 0.25 / m))
    f_hat = SampledFunction(grid, np.sin(3 * np.pi * grid.nodes)
                            * spec.base_domain.contains(grid.nodes))
    spy.force = force
    res = oversampled_expansion(f_hat, gen, ps, spec.base_domain)
    assert spy.calls == [((0.0, res.coeff_bound), (0.0, res.coeff_norm_sq), True)]
    assert res.coeff_bound_ok is (force is not False)
    budget_warnings = [w for w in recwarn if "frame-bound budget" in str(w.message)]
    assert len(budget_warnings) == (1 if force is False else 0)

import math

import numpy as np
import pytest

from condwalk import DomainError, TargetFunction, eval_target, parse_target


def test_eval_examples():
    assert eval_target(TargetFunction.indicator(0, 1), 0.5) == 1.0
    assert eval_target(TargetFunction.exponential(2.0), 1.0) == pytest.approx(
        math.exp(-2), rel=1e-15)
    shifted = TargetFunction.shifted(TargetFunction.indicator(0, 1), 3.0)
    assert eval_target(shifted, 2.0) == 0.0
    assert eval_target(shifted, 3.5) == 1.0


def test_eval_vectorized_nonnegative():
    f = TargetFunction.piecewise([0.0, 1.0, 2.5], [1.0, 0.25, 0.0])
    vals = eval_target(f, np.linspace(-1, 4, 101))
    assert (vals >= 0).all()
    assert eval_target(f, 1.7) == 0.25
    assert eval_target(f, 3.0) == 0.0


# -- grammar ------------------------------------------------------------------


def test_target_grammar():
    f = parse_target("ind:0,1@shift:3")
    assert eval_target(f, 3.5) == 1.0 and eval_target(f, 2.5) == 0.0
    assert parse_target("exp:2").rate == 2.0
    pc = parse_target("pc:0,1;1,2;2,0")
    assert eval_target(pc, 1.5) == 2.0
    with pytest.raises(DomainError):
        parse_target("spline:1,2")
    for spec in ("exp:nan", "exp:inf", "pc:0,nan;1,0", "pc:0,1;inf,0",
                 "ind:0,1@shift:nan", "ind:0,1@shift:inf",
                 "exp:1@shift:-inf"):
        with pytest.raises(DomainError, match="finite"):
            parse_target(spec)

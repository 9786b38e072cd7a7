"""The shared tolerances: their values, and that they cannot be changed."""

import pytest

from mesoparity.tolerances import TOL

PINNED = {
    "norm": 1e-10,
    "hermiticity": 1e-8,
    "positivity": -1e-9,
    "povm": 1e-10,
    "prob_floor": 1e-14,
    "param_agreement": 1e-9,
    "bound_forms": 1e-10,
    "branch_weight": 1e-12,
    "cross_block": 1e-9,
    "bound_range": 1e-12,
    "program_mass": 1e-9,
    "violation": 1e-9,
    "exact": 0.0,
    "negative_prob": 1e-14,
    "roundoff": 1e-12,
    "accumulated": 1e-10,
    "eigen_readout": 1e-9,
}


def test_values_are_pinned():
    names = {name for name in dir(TOL) if not name.startswith("_")}
    assert names == set(PINNED)
    for name, value in PINNED.items():
        assert type(getattr(TOL, name)) is float
        assert getattr(TOL, name) == value


@pytest.mark.parametrize("name", ["norm", "prob_floor", "not_a_tolerance"])
def test_read_only(name):
    with pytest.raises(AttributeError):
        setattr(TOL, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(TOL, name)
    assert TOL.norm == 1e-10

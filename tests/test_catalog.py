"""A catalog family's full model and its closed-form averaged model take and
check one parameter list."""

import pytest

from homfilt import catalog
from homfilt.errors import UsageError

BAD_VALUE = {"ou_benchmark": {"relax": 0.0}, "sinusoidal": {"relax": 0.0}}


@pytest.mark.parametrize("family", sorted(catalog._FAMILIES))
@pytest.mark.parametrize("view", [catalog.make_model, catalog.make_views])
def test_both_views_take_the_same_parameters(view, family):
    view(family, 1.0)
    # Every family has a drift coefficient a, which must be a finite number.
    for params in ({"bogus": 1.0}, BAD_VALUE[family], {"a": float("nan")},
                   {"a": float("inf")}, {"a": "-1.0"}):
        with pytest.raises(UsageError):
            view(family, 1.0, **params)


@pytest.mark.parametrize("family", sorted(catalog._FAMILIES))
@pytest.mark.parametrize("view", [catalog.make_model, catalog.make_views])
def test_bool_parameter_is_refused(view, family):
    # A bool is a numbers.Real, but True is no value of a drift coefficient.
    with pytest.raises(UsageError, match="a must be a finite number, got True"):
        view(family, 1.0, a=True)

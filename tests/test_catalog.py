"""A catalog family's full model and its closed-form averaged model take and
check one parameter list."""

import pytest

from homfilt import catalog
from homfilt.errors import UsageError

BAD_VALUE = {"linear": {"q": 0.0}, "ou_benchmark": {"relax": 0.0},
             "sinusoidal": {"relax": 0.0}}


@pytest.mark.parametrize("family", sorted(catalog._FAMILIES))
@pytest.mark.parametrize("view", [catalog.make_model, catalog.make_analytic_homogenized])
def test_both_views_take_the_same_parameters(view, family):
    view(family)
    for params in ({"bogus": 1.0}, BAD_VALUE[family]):
        with pytest.raises(UsageError):
            view(family, **params)

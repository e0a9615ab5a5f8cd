import pickle

import pytest

from homfilt import errors
from homfilt.errors import (BlowUpError, HomfiltError, ModelShapeError, NotPSDError,
                            NotSymmetricError, StudyAbortError, UsageError,
                            WeightCollapseError)


@pytest.mark.parametrize("error, attributes", [
    (HomfiltError("package error"), {}),
    (ModelShapeError("drift_fast returned (2,), not (1,)"), {}),
    (BlowUpError(3), {"step": 3}),
    (BlowUpError(4, "node 1 at x=[0.5]: numerical blow-up at step 4"), {"step": 4}),
    (NotSymmetricError("asymmetry 0.1 exceeds 1e-10"), {}),
    (NotPSDError("eigenvalue -1 below -1e-10"), {}),
    (WeightCollapseError(float("-inf")), {"max_log_weight": float("-inf")}),
    (UsageError("--config is required"), {}),
    (StudyAbortError("3/4 replications failed at epsilon=0.5 (limit 20%)"), {}),
])
def test_error_survives_pickling(error, attributes):
    # Forked workers hand their errors back pickled.
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy) == vars(error) == attributes


def test_every_error_class_is_covered():
    covered = {BlowUpError, HomfiltError, ModelShapeError, NotPSDError, NotSymmetricError,
               StudyAbortError, UsageError, WeightCollapseError}
    assert covered == {cls for cls in vars(errors).values()
                       if isinstance(cls, type) and issubclass(cls, HomfiltError)}

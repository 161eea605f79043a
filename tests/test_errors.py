import inspect
import pickle

import pytest

from mrplab import errors

ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, Exception) and cls.__module__ == errors.__name__
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_round_trips_pickling(cls):
    # a fork-pool worker hands its errors back to the parent pickled
    extra = (1.0, 2.0) if cls is errors.AccuracyError else ()
    exc = cls("message", *extra)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls and str(back) == "message"
    assert vars(back) == vars(exc)

import pytest

from mrplab import exact


@pytest.fixture
def integral_columns(monkeypatch):
    """The column count of each mixing integral `mrplab.exact` takes during the test, in order."""
    columns, batch = [], exact._batch

    def recording(res, *args):
        columns.append(len(res.value))
        return batch(res, *args)

    monkeypatch.setattr(exact, "_batch", recording)
    return columns

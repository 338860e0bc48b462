import pytest

from streamuniq import DomainError
from streamuniq.svgplot import line_plot


@pytest.mark.parametrize("series, message", [
    ([], "need at least one series"),
    ([("dev", [1.0, 2.0], [0.5])], "series 'dev' needs matching nonempty x/y"),
])
def test_line_plot_rejects_malformed_series(series, message):
    with pytest.raises(DomainError) as err:
        line_plot(series, "title", "x", "y")
    assert str(err.value) == message

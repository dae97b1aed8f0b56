import pytest
from hypothesis import settings

from mixdetect import montecarlo

# property tests must be deterministic across runs
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def payload_counts(monkeypatch):
    """The number of chunk payloads each ``run_trials`` call makes, in call order."""
    counts = []
    real = montecarlo._chunk_payloads

    def recording(*args):
        payloads = list(real(*args))
        counts.append(len(payloads))
        return payloads

    monkeypatch.setattr(montecarlo, "_chunk_payloads", recording)
    return counts

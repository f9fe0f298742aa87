import pytest

from jsqa import simulator

# mark gaps that coupled domination may read per slot before `gap_budget`
# fails the test: a slot walks about 1 + gamma * (queue length) of them
GAPS_PER_SLOT = 50


@pytest.fixture
def gap_budget(monkeypatch):
    """Call with a slot count: from then on the gap stream of
    `simulate_coupled_domination` raises once GAPS_PER_SLOT gaps per slot
    have been read, so a walk whose length grows with c_tilde fails at once
    instead of running for hours."""

    def limit(slots):
        real = simulator._mark_gaps

        def budgeted(gen, gamma, chunk):
            for read, gap in enumerate(real(gen, gamma, chunk)):
                if read == GAPS_PER_SLOT * slots:
                    raise AssertionError(f"{read} mark gaps read in {slots} slots")
                yield gap

        monkeypatch.setattr(simulator, "_mark_gaps", budgeted)

    return limit

"""Same seed: identical exact-count metrics.  Another seed: another run."""

import pytest

import wl_mixed_ingest
import wl_static_query
from context import RunArgs

EXACT = ("read_blocks_per_query", "write_amp", "space_amp")


def metrics(module, seed, tmp_path):
    outcome = module.run(RunArgs(seed=seed, scale=0.15, trace=False,
                                 out_dir=str(tmp_path)))
    assert outcome.tally.failed == 0, outcome.tally.reasons
    return outcome


@pytest.mark.parametrize("module", [wl_static_query, wl_mixed_ingest])
def test_exact_counts_repeat_for_a_seed_and_move_with_it(module, tmp_path):
    first = metrics(module, 11, tmp_path)
    again = metrics(module, 11, tmp_path)
    other = metrics(module, 12, tmp_path)
    assert first.tally.attempted == again.tally.attempted
    for name in EXACT:
        assert first.metrics[name] == again.metrics[name], name
    assert any(first.metrics[name] != other.metrics[name] for name in EXACT)

from pathlib import Path

import numpy as np
import pytest

from conftest import synth_truth
from simulate_demo import demo_panels

REPO = Path(__file__).resolve().parent.parent


def test_demo_panels_match_the_committed_csvs():
    # the demo's inputs are committed; a change to the shared draw or the
    # CSV format would silently change every number under demo/out
    panels = demo_panels()
    assert sorted(panels) == ["crowded.csv", "small.csv"]
    for name, text in panels.items():
        assert (REPO / "demo" / name).read_text() == text, name


@pytest.mark.parametrize("unequal_idio", [False, True], ids=["equal-idio", "unequal-idio"])
def test_truth_is_the_generating_covariance(unequal_idio):
    # 50 000 draws put the sample covariance within about 1% of Sigma
    # (0.6-1.2% over seeds 0-3); 3% leaves room without hiding a wrong formula
    p = 5
    gen = np.random.default_rng(0)
    idio_scale = np.exp(gen.uniform(np.log(0.5), np.log(2.0), p)) if unequal_idio else None
    returns, sigma = synth_truth(50_000, p, gen, idio_scale=idio_scale)
    assert returns.shape == (50_000, p)
    error = np.abs(np.cov(returns, rowvar=False) - sigma).max() / np.abs(sigma).max()
    assert error <= 0.03, error

"""The random numbers behind every nested run, pinned.

Which random numbers each dataset's inner sample gets is decided by the
engine's block length (``BLOCK_ELEMENTS``), the chunk length
(``CHUNK_SIZE``), the order in which the prior refill draws its fields and
each chunk's seed.  A change to any of them moves every estimate by its
noise, which the acceptance windows show only now and then.  These pins
show it in seconds: the nested and both moment-matching calibrations'
summaries of every study kind at tiny settings, where every batch spans
several blocks and the nested one two chunks, checked to 1e-9 relative.

After a deliberate stream change, write new pins with
``PYTHONPATH=src python tests/test_streams.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from voi.config import RunConfig
from voi.model import sample_prior
from voi.moment_matching import mm_by_n_pipeline, mm_pipeline
from voi.nmc import nmc_summaries

from conftest import SHIPPED

PINS = Path(__file__).with_name("stream_pins.json")
SEED = 2026
N_OUTER = 40      # one full chunk of 32 and one short one
N_INNER = 2100    # more than one block for batches of 8 datasets or more
N_SETS = 8
N_GRID = (10, 200)


def current_summaries(case: RunConfig) -> dict:
    """Every pinned batch's summaries, as ``{name: {"inb": [...], "p": [...]}}``."""
    psa = sample_prior(case.priors, case.fixed, 500, SEED)
    runs = {}
    for k, design in enumerate(case.studies, start=1):
        runs[f"nmc/{k}"] = nmc_summaries(design, case.priors, case.fixed, N_OUTER, N_INNER,
                                         SEED + k)
        mm = mm_pipeline(psa, case.priors, case.fixed, design, case.market,
                         case.current_shares, N_SETS, N_INNER, SEED + k)
        runs[f"mm/{k}"] = mm.summaries
        runs[f"mm-by-n/{k}"] = mm_by_n_pipeline(
            psa, case.priors, case.fixed, design, case.market, case.current_shares, N_SETS,
            N_INNER, N_GRID, SEED + k, cond=mm.cond).summaries
    return {name: {"inb": s.inb.tolist(), "p": s.p.tolist()} for name, s in runs.items()}


@pytest.fixture(scope="module")
def summaries(case):
    return current_summaries(case)


@pytest.mark.parametrize("name", [f"{run}/{k}" for run in ("nmc", "mm", "mm-by-n")
                                  for k in (1, 2, 3)])
def test_summaries_match_their_pins(summaries, name):
    pinned = json.loads(PINS.read_text())[name]
    for field in ("inb", "p"):
        np.testing.assert_allclose(summaries[name][field], pinned[field], rtol=1e-9,
                                   atol=0.0, err_msg=f"{name} {field}")


if __name__ == "__main__":
    PINS.write_text(json.dumps(current_summaries(RunConfig.from_file(SHIPPED)), indent=1)
                    + "\n")

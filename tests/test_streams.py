"""The random numbers behind every nested run, pinned.

Which random numbers each dataset's inner sample gets is decided by the
engine's block length (``BLOCK_ELEMENTS``), the chunk length
(``CHUNK_SIZE``), the order in which the prior refill draws its fields and
each chunk's seed.  A change to any of them moves every estimate by its
noise, which the acceptance windows show only now and then.  These pins
show it in seconds: the nested and both moment-matching calibrations'
summaries of every study kind at tiny settings, where every batch spans
several blocks and the nested one two chunks, checked to 1e-9 relative.
The values made from them are pinned too, to the same tolerance: the
nested ``evsi`` and ``evsi_im`` (with its SE), the single-size moment-
matching estimates and the by-n scan's value and SE at every grid size, so
a change to the fits or the valuation after the engine shows here as well.

After a deliberate stream change, write new pins with
``PYTHONPATH=src python tests/test_streams.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from voi.config import RunConfig
from voi.market import assemble_evsi, assemble_evsi_im
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


def current_pins(case: RunConfig) -> dict:
    """Every pinned batch's summaries, as ``{name: {"inb": [...], "p": [...]}}``,
    and every pinned value, as ``{name: [...]}``."""
    psa = sample_prior(case.priors, case.fixed, 500, SEED)
    runs, values = {}, {}
    for k, design in enumerate(case.studies, start=1):
        nested = nmc_summaries(design, case.priors, case.fixed, N_OUTER, N_INNER, SEED + k)
        evsi_im = assemble_evsi_im(*nested.toward(case.market.target), case.market,
                                   case.current_shares)
        runs[f"nmc/{k}"] = nested
        values[f"nmc-value/{k}"] = [assemble_evsi(nested.inb).value, evsi_im.value,
                                    evsi_im.std_error]
        mm = mm_pipeline(psa, case.priors, case.fixed, design, case.market,
                         case.current_shares, N_SETS, N_INNER, SEED + k, scan=(N_GRID, SEED + k))
        scan = mm_by_n_pipeline(psa, case.market, case.current_shares, mm)
        runs[f"mm/{k}"] = mm.summaries
        runs[f"mm-by-n/{k}"] = scan.summaries
        values[f"mm-value/{k}"] = [mm.evsi.value, mm.evsi_im.value, mm.evsi_im.std_error]
        values[f"mm-by-n-value/{k}"] = [[est.value, est.std_error] for est in scan.estimates]
    return {**{name: {"inb": s.inb.tolist(), "p": s.p.tolist()} for name, s in runs.items()},
            **values}


@pytest.fixture(scope="module")
def pins(case):
    return current_pins(case)


@pytest.mark.parametrize("name", [f"{run}/{k}" for run in ("nmc", "mm", "mm-by-n")
                                  for k in (1, 2, 3)])
def test_summaries_match_their_pins(pins, name):
    pinned = json.loads(PINS.read_text())[name]
    for field in ("inb", "p"):
        np.testing.assert_allclose(pins[name][field], pinned[field], rtol=1e-9,
                                   atol=0.0, err_msg=f"{name} {field}")


@pytest.mark.parametrize("name", [f"{run}-value/{k}" for run in ("nmc", "mm", "mm-by-n")
                                  for k in (1, 2, 3)])
def test_values_match_their_pins(pins, name):
    np.testing.assert_allclose(pins[name], json.loads(PINS.read_text())[name], rtol=1e-9,
                               atol=0.0, err_msg=name)


if __name__ == "__main__":
    PINS.write_text(json.dumps(current_pins(RunConfig.from_file(SHIPPED)), indent=1)
                    + "\n")

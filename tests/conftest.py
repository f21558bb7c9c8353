import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: OpenBLAS otherwise starts one per
# core, and beside another numpy process the threads contend for the cores,
# so gate 5's wall-clock budget would measure the host rather than the code.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from slat.corpus import generate_corpus
from slat.model import SlatConfig
from slat.simulator import MODE_BASE_RATE
from slat.windowing import FaultMode


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Two trajectories per mode, fast drift so trajectories stay short."""
    root = tmp_path_factory.mktemp("corpus")
    from slat.simulator import SimConfig
    cfgs = [SimConfig(mode=m, n_trajectories=2,
                      drift_rate_bounds=(1.8 * MODE_BASE_RATE[m],
                                         2.0 * MODE_BASE_RATE[m]))
            for m in FaultMode]
    return generate_corpus(root, master_seed=11, sim_configs=cfgs,
                           n_stw=30, stride=1)


@pytest.fixture(scope="session")
def small_model_cfg():
    return SlatConfig(d_model=16, time_blocks=1, sensor_blocks=1,
                      decoder_blocks=1, heads=2, rank=2, dropout=0.1)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)

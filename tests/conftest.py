import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: OpenBLAS otherwise starts one per
# core, and beside another numpy process the threads contend for the cores,
# so gate 5's wall-clock budget would measure the host rather than the code.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from slat.corpus import generate_corpus


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Two trajectories per mode, fast drift so trajectories stay short."""
    root = tmp_path_factory.mktemp("corpus")
    return generate_corpus(root, master_seed=11, n_per_mode=2, rate_scale=(1.8, 2.0),
                           n_stw=30, stride=1)


"""Sparse low-rank attention forecaster for amplifier remaining lifetime.

Import from the modules: ``slat.corpus`` (generate and load a corpus),
``slat.windowing`` (cut it into windows), ``slat.model`` and ``slat.training``
(the network and its training loop), ``slat.evaluation`` (scores and traces),
``slat.checkpoint`` and ``slat.cli`` (the ``slat`` command).
"""

__version__ = "0.1.0"

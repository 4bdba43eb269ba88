"""Adaptive frequency-domain visual prompting with a learnable prompt memory.

Modules:
  numerics   micro autodiff engine over frozen arrays, MLPs, SGD
  spectral   2-D Fourier analysis and amplitude-domain prompting
  prompting  domain encoder, prompt memory, decoder, projection head
  losses     segmentation (Dice + CE) and low-frequency contrastive losses
  synthdata  synthetic multi-domain benchmark and frozen toy backbone
  harness    training loop, evaluation, ablations, slot sweep
  tensorio   binary tensor files, their digests, PGM dumps
  config     flat key = value config files
  cli        the ``apex`` command
  errors     the package's exception types
"""

__version__ = "0.1.0"

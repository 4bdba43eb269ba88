"""Adaptive frequency-domain visual prompting with a learnable prompt memory.

Subpackages:
  numerics   dense tensors, micro autodiff engine, MLPs, SGD
  spectral   2-D Fourier analysis and amplitude-domain prompting
  prompting  domain encoder, prompt memory, decoder, projection head
  losses     segmentation (Dice + CE) and low-frequency contrastive losses
  synthdata  synthetic multi-domain benchmark and frozen toy backbone
  harness    training loop, evaluation, ablations, slot sweep
"""

__version__ = "0.1.0"

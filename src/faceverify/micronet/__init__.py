"""A small from-scratch convolutional network engine.

Dense NHWC tensors, hand-derived backward passes, and an SGD-with-
momentum trainer.  Big enough to instantiate the stock 100x100 face
architecture; small enough to gradient-check every layer against
finite differences.
"""

from faceverify.micronet import layers, network, training
from faceverify.micronet.layers import *
from faceverify.micronet.network import *
from faceverify.micronet.training import *

__all__ = layers.__all__ + network.__all__ + training.__all__

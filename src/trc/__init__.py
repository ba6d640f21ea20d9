"""Lossless byte-stream compression driven by an online-trained transformer.

The package couples a 32-bit range coder with a single-layer transformer
whose weights are updated while the stream is being coded, so encoder and
decoder stay in lockstep without ever transmitting the model.
"""

__version__ = "0.1.0"

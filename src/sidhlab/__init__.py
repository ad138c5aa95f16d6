"""SIDH over Montgomery curves plus a simulated fault-injection laboratory.

The lab reproduces an adaptive key-recovery attack in which zeroing the
imaginary parts of a projective curve coefficient mid-way through the
3-isogeny chain of a static-key responder leaks the private key one base-3
digit at a time.

Everything here is a research simulator: arithmetic is NOT constant-time and
must never be used to protect real traffic.
"""

from .field import FieldParams, Fp2, Fp2Field, SidhlabInputError

__all__ = ["FieldParams", "Fp2", "Fp2Field", "SidhlabInputError"]

__version__ = "0.1.0"

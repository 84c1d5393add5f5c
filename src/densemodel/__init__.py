"""Bounded approximants of sparse weighted sets, with certified counting.

The package turns an unbounded weight f dominated by a pseudorandom majorant
nu into a bounded function g whose Fourier transform is uniformly close to
that of f, then counts solutions of translation-invariant linear equations
under f, g, and threshold level sets, certifying every inequality on the
instance at hand.
"""

__version__ = "0.1.0"

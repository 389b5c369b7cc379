"""gcd-pairs in Z_n, their counting formulas, and their graphs.

An unordered pair {a, b} of residues mod n is a gcd-pair when gcd(a, b)
divides n. This package enumerates and counts these pairs, builds the graph
whose edge family they form, computes its invariants exactly at small scale,
and re-derives every documented claim by independent brute force
(`gcdpairs verify`). Import the submodules: the package root re-exports none
of them, so `import gcdpairs` loads nothing.
"""

__version__ = "0.1.0"


class _Numpy:
    """numpy, imported on first use: each module does `from . import np`, so
    a command that needs no array (`check`, `--help`) never pays for the import."""

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)  # an unknown name raises AttributeError
        setattr(self, name, value)
        return value


np = _Numpy()

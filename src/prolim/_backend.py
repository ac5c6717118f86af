"""The integer-matrix kernel the package runs on, and its label."""

from prolim import _intkernel as kernel

BACKEND = "pure"

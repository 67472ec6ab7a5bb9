"""Differential oracles: simple reference implementations of product parts.

Each oracle is the original, structurally simple version of an optimised
product component, kept so property tests can drive both through identical
scripts and demand identical observables.  They are test-only: nothing
under ``src/`` imports them (``tests/unit/test_src_imports.py`` enforces
this).
"""

"""Reference implementations that equivalence tests compare the shipped code against.

Each oracle keeps the straightforward form of a computation whose shipped
version was rewritten for speed, so the rewrite stays pinned to the
original semantics after the original leaves ``src/``.
"""

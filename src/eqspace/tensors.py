"""Multi-index bookkeeping for tensor powers.

Global flattening convention, used everywhere in the package: a word
(r_1, ..., r_n) of digits 0 <= r_k < d flattens to the mixed-radix code
sum r_k * d^(n-1-k), leftmost digit major.  Kronecker products follow the
same rule (left factor major), so index code = flattened tensor word.

Permutations are index tables (``table[src] = dst``, meaning the map
sends basis vector e_src to e_dst), used to relabel the columns of sparse
rows; no permutation matrix is ever built.  The materialized matrices that
the tables are tested against, and the application of a table or its
inverse to coordinate rows, live with the test oracles.
"""

from __future__ import annotations

from collections.abc import Sequence


def decode_index(code: int, radix: int, length: int) -> tuple[int, ...]:
    digits = [0] * length
    for k in range(length - 1, -1, -1):
        code, digits[k] = divmod(code, radix)
    if code:
        raise ValueError("index out of range for the given radix and length")
    return tuple(digits)


def invert_table(table: Sequence[int]) -> list[int]:
    inv = [0] * len(table)
    for src, dst in enumerate(table):
        inv[dst] = src
    return inv


def phi_table(dV: int, dW: int, n: int) -> list[int]:
    """Index table of the shuffle (V⊗W)^{⊗n} -> V^{⊗n} ⊗ W^{⊗n}.

    A pair-digit word ((a_1,b_1),...,(a_n,b_n)) goes to the concatenation
    (a_1,...,a_n,b_1,...,b_n).
    """
    if dV < 1 or dW < 1 or n < 0:
        raise ValueError("dimensions must be positive and n nonnegative")
    size = (dV * dW) ** n
    wn = dW**n
    table = [0] * size
    for src in range(size):
        a_code = 0
        b_code = 0
        for g in decode_index(src, dV * dW, n):
            a, b = divmod(g, dW)
            a_code = a_code * dV + a
            b_code = b_code * dW + b
        table[src] = a_code * wn + b_code
    return table


def tau23_table(dA: int, dB: int) -> list[int]:
    """Middle-two swap A⊗A⊗B⊗B -> A⊗B⊗A⊗B as an index table."""
    size = dA * dA * dB * dB
    table = [0] * size
    for src in range(size):
        rest, b2 = divmod(src, dB)
        rest, b1 = divmod(rest, dB)
        a1, a2 = divmod(rest, dA)
        table[src] = ((a1 * dB + b1) * dA + a2) * dB + b2
    return table


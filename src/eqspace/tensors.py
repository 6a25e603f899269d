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
from functools import cache


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
    (a_1,...,a_n,b_1,...,b_n).  The table is built digit by digit:
    appending the pair digit (a, b) to a word appends a to the code of its
    V-part and b to the code of its W-part.
    """
    if dV < 1 or dW < 1 or n < 0:
        raise ValueError("dimensions must be positive and n nonnegative")
    a_codes, b_codes = [0], [0]
    for _ in range(n):
        a_codes = [x * dV + a for x in a_codes for a in range(dV) for _ in range(dW)]
        b_codes = [y * dW + b for y in b_codes for _ in range(dV) for b in range(dW)]
    wn = dW**n
    return [x * wn + y for x, y in zip(a_codes, b_codes)]


@cache
def phi_inverse(dV: int, dW: int, n: int) -> tuple[int, ...]:
    """Inverse of phi_table(dV, dW, n), built once per process."""
    return tuple(invert_table(phi_table(dV, dW, n)))


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


"""The ring-size bound shared by every layer."""

from __future__ import annotations

# The n = 16 ring's class table comes from its 7,655 count keys, not its
# 65,536 levels, and a thermal point weighs its 4,029 level classes; the cap
# bounds the count keys a ring builds and the classes `spectrum` prints.
N_MAX = 16


def _check_ring_size(n: int) -> None:
    if not 1 <= n <= N_MAX:
        raise ValueError(f"ring size must be in [1, {N_MAX}], got {n}")

"""The scalar splitmix64 that derived every seed and lattice offset, one
seed at a time, before subreglab.geometry mixed a uint64 column.

derive_seed(seed, *tags) and r2_offsets(seed, dim) give, for one Python int
seed (any int: it is taken modulo 2**64), the seed and the lattice offsets
that geometry.derive_seed and geometry._r2_lattices must give for that seed,
bit for bit (Steele, Lea and Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014).
"""

_MASK = (1 << 64) - 1


def splitmix64(state: int):
    """The generator seeded with state: each call returns the next output."""
    x = state & _MASK

    def nxt() -> int:
        nonlocal x
        x = (x + 0x9E3779B97F4A7C15) & _MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    return nxt


def derive_seed(seed: int, *tags: int) -> int:
    """Fold integer tags into a seed, giving independent deterministic streams."""
    acc = splitmix64(seed)()
    for t in tags:
        acc = splitmix64(acc ^ (t & _MASK))()
    return acc & ((1 << 63) - 1)


def r2_offsets(seed: int, dim: int) -> list[float]:
    """The dim offsets of the R2 lattice drawn with seed."""
    nxt = splitmix64(derive_seed(seed))
    return [nxt() / 2.0**64 for _ in range(dim)]

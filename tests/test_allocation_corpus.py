"""Golden corpus for allocation sides.

Each family draws its problems from one seeded generator, solves them, and
hashes what each solve gives: the repr of its sides, or the type and the
message of the error it raises. No float area is hashed, since libm may
differ by an ulp across interpreters. A digest that changes means that some
problem of the family solves differently; run this file as a script to print
the digests of the tree it runs in. The lengths are drawn by float
arithmetic alone, no libm call, so every interpreter draws the same ones.
"""

import hashlib
import math
import random

import pytest

from wirecut import AllocationProblem, optimize_allocation
from wirecut.allocation import SIDE_LIMIT

# Groups of lengths whose gains nearly tie: an ulp or two apart, or at
# ratios whose gains tie to a few ulps at some counts, with wires that lie
# far from the cutoff beside them.
NEAR_TIE_GROUPS = (
    (1.0, 1.3),
    (2.0, 2.0000000000000004, 50.0),
    (3.6338891343852056, 3.633889134385206, 3.633889134385205),
    (2.5169430940636435, 2.516943094063644, 1e-300),
    (2.7617399612805915, 2.761739961280592, 6.589560752288529),
    (0.03966255784091284, 0.039662557840912833),
)
NEAR_TIES = sum(NEAR_TIE_GROUPS, ())


def ulps(base, size):
    """base and the size - 1 floats above it."""
    chain = [base]
    while len(chain) < size:
        chain.append(math.nextafter(chain[-1], math.inf))
    return chain


def budget_near_floor(rng, wires, extra):
    return 3 * wires + rng.randint(0, extra)


def ulp_chains(rng):
    """Two to twelve wires drawn, with repeats, from a chain of up to six
    lengths an ulp apart."""
    chain = ulps(rng.choice((rng.uniform(0.25, 4.0), *NEAR_TIES[:6])), rng.randint(2, 6))
    wires = rng.randint(2, 12)
    return [rng.choice(chain) for _ in range(wires)], budget_near_floor(rng, wires, 3 * wires)


def equal_groups(rng):
    """A group of two to six bit-equal wires beside one to four others, some
    of them an ulp or two from the group's length, in any order."""
    length = rng.uniform(0.25, 4.0)
    near = (*ulps(math.nextafter(math.nextafter(length, 0.0), 0.0), 5), rng.uniform(0.25, 4.0), *NEAR_TIES)
    lengths = [length] * rng.randint(2, 6) + [rng.choice(near) for _ in range(rng.randint(1, 4))]
    rng.shuffle(lengths)
    return lengths, budget_near_floor(rng, len(lengths), 40)


def scales(rng):
    """Two to six wires of lengths near 1e-150, 1 or 1e150, some of them
    bit-equal or an ulp apart, so that weights underflow beside the longest."""
    pool = []
    for _ in range(rng.randint(1, 3)):
        base = rng.choice((1e-150, 1.0, 1e150)) * rng.uniform(0.5, 2.0)
        pool += ulps(base, rng.randint(1, 2))
    wires = rng.randint(2, 6)
    return [rng.choice(pool) for _ in range(wires)], budget_near_floor(rng, wires, rng.choice((12, 2000)))


def near_tie_pools(rng):
    """Two to six wires drawn from one or two groups of near-tie lengths."""
    pool = sum(rng.sample(NEAR_TIE_GROUPS, rng.randint(1, 2)), ())
    wires = rng.randint(2, 6)
    return [rng.choice(pool) for _ in range(wires)], budget_near_floor(rng, wires, rng.choice((30, 100, 3000)))


def random_lengths(rng):
    """Two to eight wires of random lengths over six decades."""
    wires = rng.randint(2, 8)
    decades = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)
    return [rng.uniform(1.0, 10.0) * rng.choice(decades) for _ in range(wires)], budget_near_floor(rng, wires, 200)


def budgets(rng):
    """Two to eight wires from the other families' lengths at budgets from
    below 3k through the side guard and a little past it."""
    wires = rng.randint(2, 8)
    pool = (*NEAR_TIES, *ulps(rng.uniform(0.25, 4.0), 3), rng.uniform(0.25, 4.0))
    lengths = [rng.choice(pool) for _ in range(wires)]
    guard = SIDE_LIMIT + 3 * (wires - 1)
    budget = rng.choice((
        3 * wires - rng.randint(1, 3),
        budget_near_floor(rng, wires, rng.choice((10, 100, 1000, guard - 3 * wires))),
        guard - rng.randint(0, 3),
        guard + rng.randint(1, 2),
    ))
    return lengths, budget


# family: (generator, seed, number of problems, digest of their outcomes)
FAMILIES = {
    "ulp_chains": (ulp_chains, 1, 700, "e27265bfd02156500e64d7670546ae0d2dc8130d16164db0b4a5ed6497655904"),
    "equal_groups": (equal_groups, 2, 700, "b032c882bd5a0701ed00833f0805b6e9d9f98eeedfee99e86c937150947cc51a"),
    "scales": (scales, 3, 600, "a23a33d874c8dd58272167bb4b698873e69e19edc8348cac1e3666d4ab7a779d"),
    "near_tie_pools": (near_tie_pools, 4, 700, "2b998f8745b3e9c5f11b2efe5afb9b01151c58cfaaa13454a4595b0387760116"),
    "random_lengths": (random_lengths, 5, 700, "58b29801e89eddd522be67c299d49676b3fa22baed7a05320e8ad9943f1ed1fe"),
    "budgets": (budgets, 6, 600, "b47e72de3329833ab2bc3505ade1bb5047abaf86385c419f663f930cc30d2bf1"),
}


def digest(family):
    generate, seed, count, _ = FAMILIES[family]
    rng = random.Random(seed)
    sha = hashlib.sha256()
    for _ in range(count):
        lengths, budget = generate(rng)
        try:
            line = repr(optimize_allocation(AllocationProblem(lengths, budget)).sides)
        except Exception as e:
            line = f"{type(e).__name__}: {e}"
        sha.update(line.encode() + b"\n")
    return sha.hexdigest()


@pytest.mark.parametrize("family", FAMILIES)
def test_corpus_family_solves_as_recorded(family):
    _, seed, count, expected = FAMILIES[family]
    assert digest(family) == expected, f"family {family} (seed {seed}, {count} problems) solves differently"


if __name__ == "__main__":
    for family in FAMILIES:
        print(family, digest(family))

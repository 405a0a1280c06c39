import random
from fractions import Fraction
from itertools import permutations

from gencluster.matrices import det


def det_by_permutations(a):
    """Signed permutation expansion: the reference for ``det``."""
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = Fraction(-1 if inv % 2 else 1)
        for i in range(n):
            prod *= Fraction(a[i][perm[i]])
        total += prod
    return total


def test_det_matches_permutation_expansion():
    rng = random.Random(1968)
    for _ in range(400):
        n = rng.randint(0, 5)
        if rng.random() < 0.5:
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        else:
            # sparse, often singular or needing a row swap
            a = [[rng.choice((0, 0, 0, 1, -2)) for _ in range(n)]
                 for _ in range(n)]
        if n and rng.random() < 0.2:
            a[rng.randrange(n)] = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                   for _ in range(n)]
        got = det(tuple(tuple(row) for row in a))
        assert isinstance(got, Fraction)
        assert got == det_by_permutations(a)


def test_det_edge_cases():
    assert det(()) == 1
    assert det(((0, 1), (1, 0))) == -1
    assert det(((1, 2), (2, 4))) == 0
    # a zero pivot that appears only after the first elimination step
    assert det(((1, 1, 1), (1, 1, 2), (1, 2, 3))) == -1
    assert det(((0, 2, 1), (3, 0, 0), (0, 1, 1))) == -3
    assert det(((1, 2, 3), (2, 4, 6), (1, 0, 1))) == 0
    assert det(((Fraction(1, 2), 0), (0, Fraction(-2, 3)))) == Fraction(-1, 3)
    for a in ((), ((5,),), ((0, 0), (0, 0)), ((1, 2), (3, 4)),
              ((Fraction(1, 2), 1), (1, 2))):
        got = det(a)
        assert type(got) is Fraction and got == det_by_permutations(a)

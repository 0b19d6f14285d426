import random
import time

from skewcube.subsets import labels_of, mask_of


def test_labels_of_round_trips_mask_of():
    rng = random.Random(0)
    assert labels_of(0) == ()
    for n in range(1, 201):
        for density in (0.05, 0.5, 0.95):
            labels = tuple(j for j in range(1, n + 1) if rng.random() < density)
            mask = mask_of(labels)
            assert labels_of(mask) == labels, (n, density)
            assert mask_of(labels_of(mask)) == mask
        mask = rng.getrandbits(n)
        assert mask_of(labels_of(mask)) == mask


def test_labels_of_is_linear_in_the_mask_length():
    # one pass over the mask: a loop that shifts it one bit per step copies
    # its 10^6 bits 10^6 times
    mask = mask_of([1, 500_000, 10**6])
    start = time.perf_counter()
    labels = labels_of(mask)
    assert time.perf_counter() - start < 1
    assert labels == (1, 500_000, 10**6)

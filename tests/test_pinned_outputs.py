"""Pinned outputs: every matcher's result on fixed seeded instances.

Each entry fixes a result's size, votes, and a digest of its matched pairs,
base pair and motion bytes, so a refactor of candidate discovery or voting
that changes any output bit shows here. The instances are shaped like the
benchmark's: exact instances with m = n in {10, 12}, and tolerant ones with
m = 16, n = 24, eps = 0.3.
"""

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from lcpmatch import (
    Expander,
    GenSpec,
    MatchParams,
    Pigeonhole,
    alignment,
    da_exact,
    da_match,
    expander_da,
    generate_instance,
    geometric_hashing,
    ght,
    ght_pair_based,
    pose_clustering,
)
from lcpmatch.da import _numeric_fuzz

EPS = 0.3

EXACT_CALLS = {
    "pose": pose_clustering,
    "align": alignment,
    "ght": ght,
    "ghash": geometric_hashing,
    "ght_pair": ght_pair_based,
    "ght_pair[pigeonhole]": lambda P, Q: ght_pair_based(P, Q, pairs=Pigeonhole(4)),
    "da_exact": da_exact,
}

TOLERANT_CALLS = {
    "da[all]": lambda P, Q, seed: da_match(P, Q, MatchParams(EPS)),
    "da[pigeonhole]": lambda P, Q, seed: da_match(
        P, Q, MatchParams(EPS, pair_source=Pigeonhole(4))
    ),
    "da[expander]": lambda P, Q, seed: da_match(
        P, Q, MatchParams(EPS, pair_source=Expander(8, seed))
    ),
    "expander_da": lambda P, Q, seed: expander_da(P, Q, EPS, degree=8, alpha=0.05, seed=seed),
}

# (m = n, k, seed)
EXACT_INSTANCES = [(m, k, seed) for m, k in ((10, 6), (12, 7)) for seed in range(1, 5)]
TOLERANT_SEEDS = range(1, 7)


@lru_cache(maxsize=None)
def exact_instance(m, k, seed):
    return generate_instance(GenSpec(m=m, n=m, k=k, eps=0.0, exact=True), seed=seed)


@lru_cache(maxsize=None)
def tolerant_instance(seed):
    return generate_instance(GenSpec(m=16, n=24, k=8, eps=EPS, noise=EPS), seed=seed)


def fingerprint(result) -> tuple[int, int, str]:
    """(size, votes, digest of matched, base pair and motion bytes)."""
    h = hashlib.sha256()
    h.update(repr((result.matched, result.base_pair)).encode())
    h.update(np.ascontiguousarray(result.motion.rotation, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(result.motion.translation, dtype=np.float64).tobytes())
    return result.size, result.votes, h.hexdigest()[:16]


# Recorded from the matchers as they stood before candidate search moved to
# one sorted-key join; every later change must reproduce them bit for bit.
# The da and da_exact entries were re-recorded, with the same votes, when
# arcs moved to cylinder coordinates and the certificate to the middle of
# the peak interval. The expander_da entries were recorded before its radius
# factor stopped being a parameter.
PINNED = {
    'pose/m10/s1': (6, 120, 'f560ddfa8c586f67'),
    'align/m10/s1': (6, 3, 'f560ddfa8c586f67'),
    'ght/m10/s1': (6, 120, 'f560ddfa8c586f67'),
    'ghash/m10/s1': (6, 3, 'f560ddfa8c586f67'),
    'ght_pair/m10/s1': (6, 4, '429db241edb7eb44'),
    'ght_pair[pigeonhole]/m10/s1': (6, 4, '429db241edb7eb44'),
    'da_exact/m10/s1': (6, 6, '15ccc5dc592e9dc5'),
    'pose/m10/s2': (6, 120, '722ad7299ba0cfba'),
    'align/m10/s2': (6, 3, '722ad7299ba0cfba'),
    'ght/m10/s2': (6, 120, '722ad7299ba0cfba'),
    'ghash/m10/s2': (6, 3, '722ad7299ba0cfba'),
    'ght_pair/m10/s2': (6, 4, '37fc8d8fdf4e1d01'),
    'ght_pair[pigeonhole]/m10/s2': (6, 4, '37fc8d8fdf4e1d01'),
    'da_exact/m10/s2': (6, 6, '4b39cc7355b8dc59'),
    'pose/m10/s3': (6, 120, 'f20eefb3eb447dee'),
    'align/m10/s3': (6, 3, 'f20eefb3eb447dee'),
    'ght/m10/s3': (6, 120, 'f20eefb3eb447dee'),
    'ghash/m10/s3': (6, 3, 'f20eefb3eb447dee'),
    'ght_pair/m10/s3': (6, 4, '366d5edb10237eb5'),
    'ght_pair[pigeonhole]/m10/s3': (6, 4, '366d5edb10237eb5'),
    'da_exact/m10/s3': (6, 6, '0c0c734ab71d13d7'),
    'pose/m10/s4': (6, 120, 'b7ecfe7a24af5757'),
    'align/m10/s4': (6, 3, 'b7ecfe7a24af5757'),
    'ght/m10/s4': (6, 120, 'b7ecfe7a24af5757'),
    'ghash/m10/s4': (6, 3, 'b7ecfe7a24af5757'),
    'ght_pair/m10/s4': (6, 4, '243475a68bab5b94'),
    'ght_pair[pigeonhole]/m10/s4': (6, 4, '243475a68bab5b94'),
    'da_exact/m10/s4': (6, 6, 'ed929d62bd9c31ef'),
    'pose/m12/s1': (7, 210, 'a9915ce720041b6e'),
    'align/m12/s1': (7, 4, 'a9915ce720041b6e'),
    'ght/m12/s1': (7, 210, 'a9915ce720041b6e'),
    'ghash/m12/s1': (7, 4, 'a9915ce720041b6e'),
    'ght_pair/m12/s1': (7, 5, '436eb0d6eb3d8fa0'),
    'ght_pair[pigeonhole]/m12/s1': (7, 5, '436eb0d6eb3d8fa0'),
    'da_exact/m12/s1': (7, 7, 'a5d54dcabae638e2'),
    'pose/m12/s2': (7, 210, 'e046b8b5f9da199c'),
    'align/m12/s2': (7, 4, 'e046b8b5f9da199c'),
    'ght/m12/s2': (7, 210, 'e046b8b5f9da199c'),
    'ghash/m12/s2': (7, 4, 'e046b8b5f9da199c'),
    'ght_pair/m12/s2': (7, 5, 'd802729e381e94e1'),
    'ght_pair[pigeonhole]/m12/s2': (7, 5, 'd802729e381e94e1'),
    'da_exact/m12/s2': (7, 7, '04208cb0259ca6bb'),
    'pose/m12/s3': (7, 210, '00b59306231236c9'),
    'align/m12/s3': (7, 4, '00b59306231236c9'),
    'ght/m12/s3': (7, 210, '00b59306231236c9'),
    'ghash/m12/s3': (7, 4, '00b59306231236c9'),
    'ght_pair/m12/s3': (7, 5, 'e7d5124bff0506ee'),
    'ght_pair[pigeonhole]/m12/s3': (7, 5, 'c0b345b8419cb287'),
    'da_exact/m12/s3': (7, 7, '631b7fd48609a8f7'),
    'pose/m12/s4': (7, 210, 'd00affc41db772e5'),
    'align/m12/s4': (7, 4, 'd00affc41db772e5'),
    'ght/m12/s4': (7, 210, 'd00affc41db772e5'),
    'ghash/m12/s4': (7, 4, 'd00affc41db772e5'),
    'ght_pair/m12/s4': (7, 5, 'b4e1b1663b324fb2'),
    'ght_pair[pigeonhole]/m12/s4': (7, 5, 'b4e1b1663b324fb2'),
    'da_exact/m12/s4': (7, 7, '6113234b10bf758a'),
    'da[all]/s1': (12, 10, '8992e0ba2f0b9fc4'),
    'da[pigeonhole]/s1': (11, 10, 'a31c9a2bd4c5e421'),
    'da[expander]/s1': (12, 9, '3354573e41944fe3'),
    'da[all]/s2': (9, 9, '3cc051d213129f17'),
    'da[pigeonhole]/s2': (8, 8, 'a3b9695803868a34'),
    'da[expander]/s2': (9, 9, '3cc051d213129f17'),
    'da[all]/s3': (10, 10, 'fb8d12731d104f22'),
    'da[pigeonhole]/s3': (10, 10, 'fb8d12731d104f22'),
    'da[expander]/s3': (10, 9, '8e2b587f740e2ff5'),
    'da[all]/s4': (10, 10, '92377a1b82589b2f'),
    'da[pigeonhole]/s4': (10, 10, '53f429a0f8ad8234'),
    'da[expander]/s4': (10, 10, '92377a1b82589b2f'),
    'da[all]/s5': (10, 9, 'ef90977d0804fd1e'),
    'da[pigeonhole]/s5': (9, 9, '36818d7c49f303b3'),
    'da[expander]/s5': (10, 9, 'ef90977d0804fd1e'),
    'da[all]/s6': (10, 9, '5cacc8191c4dcb3e'),
    'da[pigeonhole]/s6': (9, 9, '6fe5c1b34b6db119'),
    'da[expander]/s6': (10, 9, '5cacc8191c4dcb3e'),
    'expander_da/s1': (14, 11, '2bea5fc9e0eaedaa'),
    'expander_da/s2': (10, 9, '440bd3cfb3d682b9'),
    'expander_da/s3': (14, 11, '2969891cb216d800'),
    'expander_da/s4': (12, 10, 'a49cb9d5c9ec3896'),
    'expander_da/s5': (11, 10, '91accba21ee99c3c'),
    'expander_da/s6': (11, 9, 'aa1b4e43e30629a0'),
}


@pytest.mark.parametrize("m, k, seed", EXACT_INSTANCES)
@pytest.mark.parametrize("name", list(EXACT_CALLS))
def test_exact_outputs_pinned(name, m, k, seed):
    inst = exact_instance(m, k, seed)
    got = fingerprint(EXACT_CALLS[name](inst.P, inst.Q))
    assert got == PINNED[f"{name}/m{m}/s{seed}"]


@pytest.mark.parametrize("seed", TOLERANT_SEEDS)
@pytest.mark.parametrize("name", list(TOLERANT_CALLS))
def test_tolerant_outputs_pinned(name, seed):
    inst = tolerant_instance(seed)
    result = TOLERANT_CALLS[name](inst.P, inst.Q, seed)
    assert fingerprint(result) == PINNED[f"{name}/s{seed}"]
    # Each entry point fixes its radius: 4*eps for da_match, 6*eps for
    # expander_da, either at least the data's numeric fuzz.
    factor = 6.0 if name == "expander_da" else 4.0
    assert result.radius == max(factor * EPS, _numeric_fuzz(inst.P, inst.Q))

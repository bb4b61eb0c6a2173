"""Search the default modulus of every legal (p, n >= 2) and time each search.

There are 242 such pairs under the order cap 2^20.  For each, the library's
search (field._default_modpoly, the packed order test) runs once under
time.process_time, and the same ascending scan runs again through the
digit-list order test of tests/oracles.py, the route the library took
before residues were packed into ints.  Every modulus must agree:

    python3 tests/scan_default_moduli.py

prints the total and the maximum CPU time of the library's searches, with
the slowest pair, then the oracle scan's total, and exits 1 naming each pair
whose modulus differs.  The oracle scan takes several seconds, so pytest does
not collect this file; tests/test_field.py holds the order test to the
oracle on sampled and exhaustive candidates instead.
"""

import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from oracles import is_primitive_by_digits  # noqa: E402
from skewmatroid.field import MAX_ORDER, _default_modpoly, _is_prime, _prime_factors  # noqa: E402


def oracle_default(p: int, n: int) -> int:
    primes = list(_prime_factors(p**n - 1))
    return next(
        c for c in range(p**n + 1, 2 * p**n)
        if c % p and is_primitive_by_digits(p, n, c, primes)
    )


def main() -> int:
    pairs = [
        (p, n)
        for p in range(2, math.isqrt(MAX_ORDER) + 1)
        if _is_prime(p)
        for n in range(2, MAX_ORDER.bit_length())
        if p**n <= MAX_ORDER
    ]
    assert len(pairs) == 242
    found, times = {}, {}
    for p, n in pairs:
        start = time.process_time()
        found[p, n] = _default_modpoly(p, n)
        times[p, n] = time.process_time() - start
    slowest = max(times, key=times.get)
    print(f"{len(pairs)} pairs: total {sum(times.values()):.3f} s, "
          f"max {times[slowest] * 1e3:.1f} ms on {slowest[0]},{slowest[1]}")
    start = time.process_time()
    differ = [(p, n) for p, n in pairs if oracle_default(p, n) != found[p, n]]
    print(f"digit-list oracle scan: total {time.process_time() - start:.3f} s")
    for p, n in differ:
        print(f"modulus differs on {p},{n}: {found[p, n]}")
    print("every modulus matches" if not differ else f"{len(differ)} moduli differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())

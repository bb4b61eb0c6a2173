"""Check the Zech lookup by discrete logarithm against the table, and time it.

field._ZechLogs answers zech[i] = log(g^i + 1) before a context builds its
Zech table (field._zech_table).  This script holds the two to each other
under the default modulus of each field:

- every i of every (p, n) with p^n <= 2^12, n = 1 included, and of the two
  fields of tests/test_log_loops.py's SPECS above that order (2,16 and 3,10);
- 200 sampled i of every legal (p, n >= 2) above 2^12, up to the cap 2^20.

    python3 tests/scan_zech_lookups.py

prints, for each field, the set-up time (the constructor: factorisation and
baby steps), the CPU time per lookup and K, the reads after which a context
builds its table; then the slowest field per lookup and by set-up, and exits 1
naming each field where a lookup differs from the table or K is not below the
field's order.  It takes a few minutes, so pytest does not collect this file;
tests/test_field.py holds the lookup to the table on the small fields and on
sampled entries of five large ones.
"""

import math
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

from skewmatroid.field import MAX_ORDER, _ZechLogs, _default_modpoly, _is_prime, _zech_table  # noqa: E402

SAMPLES = 200


def fields() -> list[tuple[int, int, bool]]:
    """(p, n, every i) in ascending order."""
    out = [(p, 1, True) for p in range(2, 4097) if _is_prime(p)]
    for p in range(2, math.isqrt(MAX_ORDER) + 1):
        if _is_prime(p):
            out += [(p, n, p**n <= 4096) for n in range(2, MAX_ORDER.bit_length()) if p**n <= MAX_ORDER]
    return sorted(out)


def main() -> int:
    bad, lookup_us, setup_ms = [], {}, {}
    for p, n, every in fields():
        modpoly = _default_modpoly(p, n)
        start = time.process_time()
        logs = _ZechLogs(p, n, modpoly)
        setup_ms[p, n] = (time.process_time() - start) * 1e3
        table = _zech_table(p, n, modpoly)
        N = p**n - 1
        every = every or (p, n) in ((2, 16), (3, 10))
        points = range(N) if every else random.Random(f"{p},{n}").sample(range(N), SAMPLES)
        start = time.process_time()
        got = [logs[i] for i in points]
        lookup_us[p, n] = (time.process_time() - start) / len(points) * 1e6
        differ = [i for i, z in zip(points, got) if z != table[i]]
        K = logs.break_even
        print(f"{p},{n}: {len(points)} {'(every i)' if every else 'sampled'}, "
              f"set-up {setup_ms[p, n]:.2f} ms, {lookup_us[p, n]:.1f} us a lookup, K {K}"
              + (f", {len(differ)} differ (first i = {differ[0]})" if differ else ""))
        if differ or K >= p**n:
            bad.append((p, n))
    worst = max(lookup_us, key=lookup_us.get)
    slow_setup = max(setup_ms, key=setup_ms.get)
    print(f"{len(lookup_us)} fields; slowest lookup {lookup_us[worst]:.1f} us on {worst[0]},{worst[1]}; "
          f"slowest set-up {setup_ms[slow_setup]:.2f} ms on {slow_setup[0]},{slow_setup[1]}")
    for p, n in bad:
        print(f"lookup differs from the table, or K is not below the order, on {p},{n}")
    print("every lookup matches" if not bad else f"{len(bad)} fields fail")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())

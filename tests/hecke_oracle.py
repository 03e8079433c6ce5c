"""lambda_f(n) by trial division, from the prime coefficients alone.

The oracle for lmoment.hecke.coefficients_upto.  It imports nothing from
lmoment and keeps no cache: each call factors n and applies the Hecke
relations, lambda(p^(k+1)) = lambda(p) lambda(p^k) - lambda(p^(k-1)) and
multiplicativity over coprime factors.
"""


def coefficient(prime_coeffs: dict, n: int) -> float:
    """lambda(n) for n >= 1; a KeyError names a prime factor past the data."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    val, p = 1.0, 2
    while n > 1:
        if p * p > n:
            p = n
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            prev, cur = 1.0, prime_coeffs[p]
            for _ in range(k - 1):
                prev, cur = cur, prime_coeffs[p] * cur - prev
            val *= cur
        p += 1
    return val

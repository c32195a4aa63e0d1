"""Gaussian binomial coefficients as exact coefficient vectors.

The coefficient of q^w in the Gaussian binomial for an m x n box counts the
partitions of w with at most n parts, each at most m.  Sums of coefficients
over an index class mod r are therefore partition counts by weight class.
`gaussian_coefficients` builds the vector, a tuple indexed by weight, by the
product formula.  Every partial product is itself a palindromic Gaussian
binomial (the complement in its box maps weight w to the top degree minus
w), so each step computes only its low half, extended from the previous low
half by its mirror, and the last is mirrored into the whole vector;
`coefficient_work`, the full formula's m*n*min(m, n) additions, stays the
cap's upper bound on it, so `qfiber coeffs 216 216` is still refused.
`residue_sums` gets the class sums by the q-Lucas theorem without it.  This
module also provides the closed-form values those sums take in the
equal-class cases, the work estimates the command line checks against its
cap, and the package's one trial-division loop and divisor table (mu, phi).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, gcd
from operator import add, mul, sub
from types import MappingProxyType
from typing import Iterator, Mapping

__all__ = [
    "coprime_class_sum", "gaussian_coefficients", "is_prime", "prime_adjacent_class_sum",
    "prime_multiple_class_sum", "residue_sums",
]


def _check_integers(**arguments: int) -> None:
    """Reject a non-integer argument with a ValueError that names it."""
    for name, value in arguments.items():
        if not isinstance(value, int):
            raise ValueError(f"{name} must be an integer: {value!r}")


def _prime_powers(n: int) -> Iterator[tuple[int, int]]:
    """(p, p^a) for each prime power p^a exactly dividing n, by increasing p:
    trial division, lazy, so a caller may stop at the smallest factor."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            power = 1
            while n % p == 0:
                n //= p
                power *= p
            yield p, power
        p += 1 if p == 2 else 2
    if n > 1:
        yield n, n


def is_prime(n: int) -> bool:
    """Deterministic trial division, stopped at the smallest prime factor;
    meant for small inputs (fast up to ~10**12, exact for any n)."""
    _check_integers(n=n)
    return n > 1 and next(_prime_powers(n)) == (n, n)


@lru_cache(maxsize=1)  # a command reads one table in its gate and again in its route
def _divisor_table(n: int) -> Mapping[int, tuple[int, int]]:
    """{d: (mu(d), phi(d))} for each divisor d of n >= 1, by increasing d,
    built from one walk of its prime powers: the package's one source of
    divisor lists, Moebius mu and Euler phi.  The last table built is
    returned again for the same n, so it is read-only."""
    rows = [(1, 1, 1)]
    for p, power in _prime_powers(n):
        for d, mu, phi in rows[:]:
            q, mu_q, phi_q = p, -mu, phi * (p - 1)
            while q <= power:
                rows.append((d * q, mu_q, phi_q))
                q, mu_q, phi_q = q * p, 0, phi_q * p
    rows.sort()
    return MappingProxyType({d: (mu, phi) for d, mu, phi in rows})


def gaussian_coefficients(m: int, n: int) -> tuple[int, ...]:
    """Coefficients of the Gaussian binomial [m+n choose n]_q, index = weight:
    a tuple of m*n + 1 entries.

    Built from the product formula prod_{i=1..narrow} (1 - q^(wide+i)) / (1 - q^i)
    over the smaller side.  The product of the first i factors is the
    Gaussian binomial [wide+i choose i]_q, palindromic of degree wide*i, as
    the complement in its box maps weight w to wide*i - w (Andrews, The
    Theory of Partitions, ch. 3); so step i keeps only its low wide*i//2 + 1
    coefficients.  It extends the previous low half by its own mirror (a
    reversed copy, no additions) and by zeros past degree wide*(i-1), then
    multiplies by 1 - q^(wide+i) as one slice subtraction and divides by
    1 - q^i as i prefix sums of stride i, all in builtins.  Both steps are
    causal (coefficient w reads only coefficients <= w), so the truncated
    coefficients are exact; after the last step the top ones mirror the low
    half.  That is at most half of the additions of the full product
    formula, `coefficient_work`.  No box is kept between calls: `check_main1`,
    which folds one box for each divisor of l, keeps its last box itself.
    """
    _check_integers(m=m, n=n)
    if m < 0 or n < 0:
        raise ValueError("box dimensions must be nonnegative")
    wide, narrow = max(m, n), min(m, n)
    coeffs = [1]
    for i in range(1, narrow + 1):
        # coeffs holds the low half of the first i-1 factors' product, of
        # degree top; extend it by its mirror up to top, then by zeros
        top, size = wide * (i - 1), wide * i // 2 + 1
        shift = wide + i
        coeffs += reversed(coeffs[max(top + 1 - size, 0) : top + 1 - len(coeffs)])
        coeffs += [0] * (size - len(coeffs))
        if shift < size:
            coeffs[shift:] = map(sub, coeffs[shift:], coeffs[: size - shift])
        for j in range(i):
            coeffs[j::i] = accumulate(coeffs[j::i])
    coeffs += reversed(coeffs[: m * n + 1 - len(coeffs)])
    return tuple(coeffs)


def coefficient_work(m: int, n: int) -> int:
    """About m*n*min(m, n): the big-int additions of the full product formula,
    kept as the cap's upper bound on `gaussian_coefficients(m, n)`, which
    does at most half of them (`coeffs 216 216` is still refused)."""
    return m * n * min(m, n)


def _lucas_terms(m: int, n: int, table: dict) -> Iterator[tuple]:
    """The q-Lucas terms of the m x n box mod r, `table` = `_divisor_table(r)`.

    At a primitive d-th root of unity [m+n choose n]_q equals
    C((m+n)//d, n//d) times [a choose b]_q, a = (m+n) mod d, b = n mod d:
    the small (a-b) x b box, zero when b > a.  For each divisor d of r
    whose small box is not zero, this yields (d, box, [(e, mu(d/e))]) over
    the divisors e of d with d/e squarefree, the classes mod e the box is
    folded into."""
    squarefree = [(s, mu) for s, (mu, _) in table.items() if mu]
    for d in table:
        a, b = (m + n) % d, n % d
        if b <= a:
            yield d, (a - b, b), [(d // s, mu) for s, mu in squarefree if d % s == 0]


def residue_sums_work(m: int, n: int, r: int) -> int:
    """Work estimate of `residue_sums(m, n, r)` apart from its binomials:
    (omega(r) + 1) * sigma(r) for the class vectors and their combine, plus,
    for each box (a, b) of `_lucas_terms`, its product formula and one fold
    of its a*b + 1 coefficients per term, 2^omega(d) of them.  omega counts
    distinct prime factors and sigma sums divisors, so the estimate is at
    least 2r."""
    table = _divisor_table(r)
    work = (sum(phi == p - 1 for p, (_, phi) in table.items()) + 1) * sum(table)
    for _, (a, b), terms in _lucas_terms(m, n, table):
        work += coefficient_work(a, b) + len(terms) * (a * b + 1)
    return work


def residue_sums(m: int, n: int, r: int) -> list[int]:
    """Sums of the m x n Gaussian coefficients over each index class mod r.

    A roots-of-unity filter over the r-th roots, grouped by their order d.
    At a primitive d-th root the Gaussian binomial is C((m+n)//d, n//d)
    times a small Gaussian binomial (q-Lucas; Sagan, Adv. Math. 95, 1992),
    and by Moebius inversion the primitive d-th roots sum zeta^k to
    the sum over squarefree s | d of mu(s) * e * [e | k], e = d/s.  So each
    term of `_lucas_terms` adds mu(s) * e * C((m+n)//d, n//d) times the
    small box folded mod e into a vector V_e of e classes, and
    Sum_j = (1/r) sum_{e | r} V_e[j mod e].  The cost is `residue_sums_work`
    plus the binomials, whatever the size of the m x n box.  The division
    by r is checked, and a remainder raises ArithmeticError.
    """
    _check_integers(m=m, n=n, r=r)
    if r < 1:
        raise ValueError("modulus must be positive")
    if m < 0 or n < 0:
        raise ValueError("box dimensions must be nonnegative")
    table = _divisor_table(r)
    sums = {e: [0] * e for e in table}
    for d, box, terms in _lucas_terms(m, n, table):
        coeffs = gaussian_coefficients(*box)
        big = comb((m + n) // d, n // d)
        for e, mu in terms:
            folded = list(coeffs) if e >= len(coeffs) else [sum(coeffs[j::e]) for j in range(e)]
            sums[e][: len(folded)] = map(add, sums[e], map(mul, folded, repeat(mu * e * big)))
    # Sum the V_e, each repeated to length r, by prefix sums along each
    # prime p of the divisor lattice (the divisors with phi(p) = p - 1):
    # about omega(r) * sigma(r) additions.
    for p in [p for p, (_, phi) in table.items() if phi == p - 1]:
        for e in table:
            if e * p in table:
                sums[e * p] = list(map(add, sums[e * p], sums[e] * p))
    return [_exact_div(total, r) for total in sums[r]]


def _exact_div(numerator: int, divisor: int) -> int:
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise ArithmeticError(
            f"{numerator} is not divisible by {divisor}; this breaks an identity "
            "that holds under the documented hypotheses"
        )
    return quotient


def _validate_odd_prime(p: int) -> None:
    _check_integers(p=p)
    if p == 2 or not is_prime(p):
        raise ValueError(f"p={p} must be an odd prime")


def coprime_class_sum(k: int, l: int, r: int) -> int:
    """Common value of residue_sums(k, l-1, r) when gcd(k, l) = 1 and r | l.

    Every class then holds C(k+l-1, l-1) / r partitions; the division is
    checked and a nonzero remainder raises ArithmeticError.  This is the
    d = 1 term of `residue_sums` (every other term vanishes, as d | l
    cannot divide k), so `verify` checks it against the folded coefficient
    vector instead.
    """
    _check_integers(k=k, l=l, r=r)
    if k < 1 or l < 1:
        raise ValueError("k and l must be positive")
    if gcd(k, l) != 1:
        raise ValueError(f"k={k} and l={l} must be coprime")
    if r < 1 or l % r:
        raise ValueError(f"r={r} must be a positive divisor of l={l}")
    return _exact_div(comb(k + l - 1, l - 1), r)


def prime_multiple_class_sum(p: int, multiplier: int, height: int, residue: int) -> int:
    """Class sum for the (multiplier*p) x height box mod an odd prime p.

    Classes other than 0 hold (C(multiplier*p + height, height) - 1) / p
    partitions each; class 0 holds one more (the zero partition).
    Requires 1 <= height <= p-1.  These are the d = 1 and d = p terms of
    `residue_sums`, so `verify` checks them against the folded coefficient
    vector instead.
    """
    _validate_odd_prime(p)
    _check_integers(multiplier=multiplier, height=height, residue=residue)
    if multiplier < 1:
        raise ValueError("multiplier must be positive")
    if not 1 <= height <= p - 1:
        raise ValueError(f"height must lie in [1, {p - 1}]")
    if not 0 <= residue <= p - 1:
        raise ValueError(f"residue must lie in [0, {p - 1}]")
    base = _exact_div(comb(multiplier * p + height, height) - 1, p)
    return base + 1 if residue == 0 else base


def prime_adjacent_class_sum(p: int, height: int) -> int:
    """Common class sum for the (p-1) x height box mod an odd prime p,
    equal to C(p-1+height, height) / p.  Requires 1 <= height <= p-1.

    This is the d = 1 term of `residue_sums` (the d = p term vanishes), so
    `verify` checks it against the folded coefficient vector instead.
    """
    _validate_odd_prime(p)
    _check_integers(height=height)
    if not 1 <= height <= p - 1:
        raise ValueError(f"height must lie in [1, {p - 1}]")
    return _exact_div(comb(p - 1 + height, height), p)

"""Gaussian binomial coefficients as exact coefficient vectors.

The coefficient of q^w in the Gaussian binomial for an m x n box counts the
partitions of w with at most n parts, each at most m.  Sums of coefficients
over an index class mod r are therefore partition counts by weight class;
this module also provides the closed-form values those sums take in the
equal-class cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd


def is_prime(n: int) -> bool:
    """Deterministic trial division, O(sqrt(n)); meant for small inputs
    (fast up to ~10**12, exact for any n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class CoefficientVector:
    """Coefficients of the Gaussian binomial for an m x n box, index = weight.

    Immutable; length is always m*n + 1.
    """

    m: int
    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("box dimensions must be nonnegative")
        coeffs = tuple(self.coeffs)
        if len(coeffs) != self.m * self.n + 1:
            raise ValueError(
                f"expected {self.m * self.n + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def __getitem__(self, index: int) -> int:
        return self.coeffs[index]

    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def total(self) -> int:
        return sum(self.coeffs)


@lru_cache(maxsize=None)
def gaussian_coefficients(m: int, n: int) -> CoefficientVector:
    """Coefficient vector of the Gaussian binomial [m+n choose n]_q.

    Built from the product formula prod_{i=1..narrow} (1 - q^(wide+i)) / (1 - q^i)
    over the smaller side, about m*n*min(m, n) big-int additions.  Each factor
    multiplies in place, then divides by a running prefix sum; the division is
    exact, so the top i coefficients it leaves are zero and are dropped.
    """
    if m < 0 or n < 0:
        raise ValueError("box dimensions must be nonnegative")
    wide, narrow = max(m, n), min(m, n)
    coeffs = [1]
    for i in range(1, narrow + 1):
        shift = wide + i
        coeffs += [0] * shift
        for w in range(len(coeffs) - 1, shift - 1, -1):
            coeffs[w] -= coeffs[w - shift]
        for w in range(i, len(coeffs)):
            coeffs[w] += coeffs[w - i]
        del coeffs[-i:]
    return CoefficientVector(m, n, tuple(coeffs))


def residue_sums(m: int, n: int, r: int) -> list[int]:
    """Sums of the m x n Gaussian coefficients over each index class mod r."""
    if r < 1:
        raise ValueError("modulus must be positive")
    table = [0] * r
    for w, c in enumerate(gaussian_coefficients(m, n).coeffs):
        table[w % r] += c
    return table


def _exact_div(numerator: int, divisor: int) -> int:
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise ArithmeticError(
            f"{numerator} is not divisible by {divisor}; this breaks an identity "
            "that holds under the documented hypotheses"
        )
    return quotient


def _validate_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"p={p} must be an odd prime")


def coprime_class_sum(k: int, l: int, r: int) -> int:
    """Common value of residue_sums(k, l-1, r) when gcd(k, l) = 1 and r | l.

    Every class then holds C(k+l-1, l-1) / r partitions; the division is
    checked and a nonzero remainder raises ArithmeticError.
    """
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
    Requires 1 <= height <= p-1.
    """
    _validate_odd_prime(p)
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
    equal to C(p-1+height, height) / p.  Requires 1 <= height <= p-1."""
    _validate_odd_prime(p)
    if not 1 <= height <= p - 1:
        raise ValueError(f"height must lie in [1, {p - 1}]")
    return _exact_div(comb(p - 1 + height, height), p)

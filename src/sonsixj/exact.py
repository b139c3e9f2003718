"""Exact arithmetic kernel: gamma values, surds, factored products.

Every quantity in this package is exact.  The value domain is built from two layers:

* ``Fraction`` for plain rationals (half-integers are Fractions with denominator <= 2),
* ``SurdValue`` for rationals times the square root of a squarefree integer.  A value
  renders its exact string, and its decimal string at ``DEFAULT_DIGITS``, once per
  instance: the value cache hands out the same instance on every hit, so a sweep
  renders each symmetry orbit once.

Gamma values at half-integer points carry a power of sqrt(pi), which must cancel
before a value joins either layer.  Two APIs form products of them, and each serves
one side:

* ``FactoredProduct`` is the production ledger.  The prefactors of the core
  coefficient, the scalar 3j symbol, the assembly of the 6j symbol and the Sp(2n)
  coefficient (with its dimensions and normalization) each fill one with factorials
  and Gamma values (arguments passed doubled, as positive integers), kept as the prime
  exponents of factorials packed into one integer, and expand it once, as a Fraction
  or as an exact square root.  It never factors an integer.
* ``gamma_ratio_doubled`` serves only the check paths: every Gamma and factorial
  product of ``T3``, the factorial forms, the KdF prefactors and the SU(2) pair
  route is one call, with a factorial v! passed as Gamma(v + 1), doubled 2v + 2.  It
  multiplies integers from ``gamma_doubled``, a bounded cache of Gamma(t/2) for
  integer t as an integer numerator, denominator and sqrt(pi) parity, so a check
  series makes one Fraction per term.  It is the check paths' one pole rule: Gamma
  at a nonpositive integer is resolved by a common epsilon shift of every argument.
"""
from __future__ import annotations

import decimal
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress

DEFAULT_DIGITS = 16  # significant digits of a decimal rendering unless asked otherwise


class PoleError(ArithmeticError):
    """A gamma factor is evaluated at a nonpositive integer with no cancelling partner."""


class ResidualSqrtPiError(ArithmeticError):
    """A value that must be rational retained a nonzero power of sqrt(pi)."""


class RadicandMismatchError(ArithmeticError):
    """Surd addition was attempted across different radicands."""


# ---------------------------------------------------------------------------
# gamma at half-integer arguments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def gamma_doubled(two_x: int) -> tuple[int, int, int]:
    """Gamma(two_x / 2) for an integer two_x, as (num, den, pi_half).

    The value is num / den * sqrt(pi)**pi_half, with num / den in lowest terms,
    den > 0 and pi_half = two_x % 2.  Even two_x <= 0 is a pole and raises PoleError.
    This is the check paths' Gamma table; the production ledger never reads it.
    """
    m = two_x // 2
    if two_x % 2 == 0:
        if m <= 0:
            raise PoleError(f"gamma pole at {m}")
        return math.factorial(m - 1), 1, 0
    if m >= 0:
        # Gamma(m + 1/2) = (2m)! / (4**m m!) sqrt(pi) = (2m - 1)!! / 2**m sqrt(pi)
        return math.factorial(2 * m) // (math.factorial(m) << m), 1 << m, 1
    # Gamma(1/2 - k) = (-4)**k k! / (2k)! sqrt(pi) = (-2)**k / (2k - 1)!! sqrt(pi), k = -m
    k = -m
    return (-2) ** k, math.factorial(2 * k) // (math.factorial(k) << k), 1


def gamma_ratio_doubled(numerators, denominators) -> tuple[int, int, int]:
    """prod Gamma(t/2) over numerators / prod Gamma(t/2) over denominators, t integers.

    The value is num / den * sqrt(pi)**pi_half with den > 0, from ``gamma_doubled``.
    Every argument is read as t/2 + eps for one common eps -> 0.  Even t <= 0 is a
    pole: a surplus of poles among the denominators makes the ratio an exact zero,
    (0, 1, 0), and a surplus among the numerators raises PoleError.  Equal counts
    pair off, each pair contributing (-1)**(x - y) * y! / x! for numerator argument
    -x against denominator argument -y; the result does not depend on the pairing.
    """
    num = den = 1
    pi_half = 0
    num_poles: list[int] = []
    den_poles: list[int] = []
    for t in numerators:
        if t <= 0 and t % 2 == 0:
            num_poles.append(-t // 2)
        else:
            a, b, p = gamma_doubled(t)
            num *= a
            den *= b
            pi_half += p
    for t in denominators:
        if t <= 0 and t % 2 == 0:
            den_poles.append(-t // 2)
        else:
            a, b, p = gamma_doubled(t)
            num *= b
            den *= a
            pi_half -= p
    if len(num_poles) > len(den_poles):
        raise PoleError(
            f"unpaired gamma poles in numerator: {sorted(-x for x in num_poles)}"
        )
    if len(num_poles) < len(den_poles):
        return 0, 1, 0
    for x, y in zip(sorted(num_poles), sorted(den_poles)):
        num *= -math.factorial(y) if (x - y) % 2 else math.factorial(y)
        den *= math.factorial(x)
    return (-num, -den, pi_half) if den < 0 else (num, den, pi_half)


# ---------------------------------------------------------------------------
# squarefree surds
# ---------------------------------------------------------------------------

_TRIAL_BOUND = 100000


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division up to 10**5.

    A cofactor left below 10**10 is prime, and so is a cofactor's k-th root when it
    is an integer below 10**10.  Any other cofactor may not be prime, and raises
    ValueError rather than search for its factors.
    """
    if n < 1:
        raise ValueError("factor_int needs n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < _TRIAL_BOUND:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += inc[i]
        i = (i + 1) % 8
    if f * f <= n:
        # a prime p**k here has 2**16 < 10**5 < p < f*f < 2**34, which bounds k; the
        # float root is within 10**-4 of p, so rounding it gives p exactly
        bits = n.bit_length()
        for k in range(max(2, bits // 34), bits // 16 + 1):
            p = round(2 ** (math.log2(n) / k))
            if p < f * f and n % p == 0 and p**k == n:
                out[p] = k  # p has no factor below f and is below f*f, so it is prime
                return out
        raise ValueError(
            f"a {n.bit_length()}-bit cofactor has no factor below {_TRIAL_BOUND}; too large to factor"
        )
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_decompose(n: int) -> tuple[int, int]:
    """n = s**2 * r with r squarefree; returns (s, r) for n >= 1."""
    s, r = 1, 1
    for p, e in factor_int(n).items():
        s *= p ** (e // 2)
        if e % 2:
            r *= p
    return s, r


@dataclass(frozen=True)
class SurdValue:
    """coeff * sqrt(radicand) in normal form.

    radicand is a squarefree positive integer (as Fraction); coeff = 0 forces radicand 1.
    Equality of normal forms is equality of values.
    """

    coeff: Fraction
    radicand: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.coeff == 0 and self.radicand != 1:
            object.__setattr__(self, "radicand", Fraction(1))

    @staticmethod
    def zero() -> "SurdValue":
        return SurdValue(Fraction(0))

    @staticmethod
    def of_rational(q: Fraction | int) -> "SurdValue":
        return SurdValue(Fraction(q))

    def is_zero(self) -> bool:
        return self.coeff == 0

    def is_rational(self) -> bool:
        return self.radicand == 1

    def to_rational(self) -> Fraction:
        if self.coeff != 0 and self.radicand != 1:
            raise ValueError(f"not rational: {self}")
        return self.coeff

    def __neg__(self) -> "SurdValue":
        return SurdValue(-self.coeff, self.radicand)

    def __add__(self, other: "SurdValue") -> "SurdValue":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.radicand != other.radicand:
            raise RadicandMismatchError(
                f"cannot add sqrt({self.radicand}) to sqrt({other.radicand})"
            )
        return SurdValue(self.coeff + other.coeff, self.radicand)

    def __sub__(self, other: "SurdValue") -> "SurdValue":
        return self + (-other)

    def __mul__(self, other: "SurdValue | Fraction | int") -> "SurdValue":
        if not isinstance(other, SurdValue):
            return SurdValue(self.coeff * other, self.radicand) if other != 0 else SurdValue.zero()
        if self.is_zero() or other.is_zero():
            return SurdValue.zero()
        r1, r2 = int(self.radicand), int(other.radicand)
        g = math.gcd(r1, r2)
        # both squarefree, so r1 r2 = g**2 * (r1/g)(r2/g) with squarefree cofactor
        return SurdValue(self.coeff * other.coeff * g, Fraction((r1 // g) * (r2 // g)))

    __rmul__ = __mul__

    def __truediv__(self, other: "SurdValue | Fraction | int") -> "SurdValue":
        if not isinstance(other, SurdValue):
            return SurdValue(self.coeff / other, self.radicand)
        if other.is_zero():
            raise ZeroDivisionError("division by exact zero surd")
        # 1 / (c sqrt(r)) = (1 / (c r)) sqrt(r)
        inv = SurdValue(1 / (other.coeff * other.radicand), other.radicand)
        return self * inv

    def __abs__(self) -> "SurdValue":
        return SurdValue(abs(self.coeff), self.radicand)

    def sign(self) -> int:
        c = self.coeff
        return 0 if c == 0 else (1 if c > 0 else -1)

    def square(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __float__(self) -> float:
        return float(self.coeff) * math.sqrt(float(self.radicand))

    def __str__(self) -> str:
        return self._exact_text

    @cached_property
    def _exact_text(self) -> str:
        if self.radicand == 1:
            return str(self.coeff)
        return f"{self.coeff}*sqrt({self.radicand})"

    def decimal_text(self, digits: int = DEFAULT_DIGITS) -> str:
        """The value to ``digits`` significant digits; the default rendering is made once."""
        return self._default_decimal_text if digits == DEFAULT_DIGITS else self._decimal_text(digits)

    @cached_property
    def _default_decimal_text(self) -> str:
        return self._decimal_text(DEFAULT_DIGITS)

    def _decimal_text(self, digits: int) -> str:
        if self.is_zero():
            return "0"
        with decimal.localcontext() as ctx:
            ctx.prec = digits + 10
            d = decimal.Decimal(self.coeff.numerator) / decimal.Decimal(self.coeff.denominator)
            if self.radicand != 1:
                d *= decimal.Decimal(self.radicand.numerator).sqrt()
            ctx.prec = digits
            return str(+d)


def surd_normalize(coeff: Fraction | int, radicand: Fraction | int) -> SurdValue:
    """Normal form of coeff * sqrt(radicand) for rational radicand >= 0.

    The radicand is reduced to a squarefree positive integer; square factors and the
    radicand's denominator move into the coefficient.
    """
    coeff = Fraction(coeff)
    radicand = Fraction(radicand)
    if radicand < 0:
        raise ValueError("negative radicand")
    if coeff == 0 or radicand == 0:
        return SurdValue.zero()
    # sqrt(p/q) = sqrt(pq) / q
    p, q = radicand.numerator, radicand.denominator
    s, r = squarefree_decompose(p * q)
    return SurdValue(coeff * Fraction(s, q), Fraction(r))


# ---------------------------------------------------------------------------
# factored products: exact products of gammas kept in prime-exponent form
# ---------------------------------------------------------------------------

_SIEVE: tuple[int, tuple[int, ...]] = (1, ())  # (bound, every prime up to it)


def primes_up_to(limit: int) -> tuple[int, ...]:
    """The primes <= limit, from a sieve that is rebuilt at least twice as large when short.

    The sieve is replaced in one assignment, so a concurrent caller sees the old or
    the new one, never a partial list.
    """
    global _SIEVE
    bound, primes = _SIEVE
    if limit > bound:
        bound = max(limit, 2 * bound, 1024)
        flags = bytearray([1]) * (bound + 1)
        flags[0] = flags[1] = 0
        for p in range(2, math.isqrt(bound) + 1):
            if flags[p]:
                flags[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
        primes = tuple(compress(range(bound + 1), flags))
        _SIEVE = (bound, primes)
    return primes[:bisect_right(primes, limit)]


_SLOT_LIMIT = 1 << 63  # a slot is 8 bytes and holds a signed exponent below this in size
_SLOT_BIAS = _SLOT_LIMIT.to_bytes(8, "little")  # 2**63 in one slot


@lru_cache(maxsize=4096)
def _factorial_packed(m: int) -> int:
    """The exponents of m! by Legendre's formula, packed: the i-th prime's in slot i.

    Each slot is 8 bytes, lowest first, and the primes are those of
    ``primes_up_to(m)``, so the prime 2 has slot 0.
    """
    out = bytearray()
    for p in primes_up_to(m):
        e, q = 0, m
        while q:
            q //= p
            e += q
        out += e.to_bytes(8, "little")
    return int.from_bytes(out, "little")


class FactoredProduct:
    """The production ledger: a positive exact product as prime exponents times sqrt(pi)**pi_half.

    Factorials and Gamma at half-integer points multiply in with any integer
    exponent, and only exponents change; nothing is expanded until ``to_fraction`` or
    ``sqrt_surd``.  A Gamma argument is passed doubled, as the positive integer two_x
    of Gamma(two_x / 2).  A factor that is not positive raises: ``ValueError`` for a
    factorial, ``PoleError`` for a Gamma argument.  An integer joins as a ratio of
    factorials, v = v! / (v - 1)!.

    The exponents live in one integer, ``packed``, the sum of e_i * 2**(64 i) over the
    primes with signed e_i: multiplying by m!**e adds e times the cached packed
    Legendre vector of m!, one big-integer operation, and carries and borrows between
    slots cancel in the sum.  Gamma(m + 1/2)**e is (2m)!**e / m!**e with 2m e taken
    off slot 0, the prime 2, in the same operation, and ``*=`` adds a whole ledger.
    Expanding unpacks every slot once, which is exact while every |e_i| < 2**63.  The
    exponent of any prime in m! is below m, so ``bound``, the sum of |e| * m over the
    factorials joined (5 m |e| for Gamma(m + 1/2)**e), bounds every slot; expanding a
    ledger whose bound reaches 2**63 raises OverflowError instead of reading a slot
    that may have wrapped.
    """

    __slots__ = ("packed", "bound", "top", "pi_half")

    def __init__(self) -> None:
        self.packed = 0
        self.bound = 0  # bounds |e_i| in every slot
        self.top = 1  # the largest m joined: its primes cover every nonzero slot
        self.pi_half = 0

    def mul_factorial(self, m: int, e: int = 1) -> "FactoredProduct":
        if m < 0:
            raise ValueError(f"factorial of negative {m}")
        self.packed += _factorial_packed(m) * e
        self.bound += abs(e) * m
        if m > self.top:
            self.top = m
        return self

    def mul_gamma(self, two_x: int, e: int = 1) -> "FactoredProduct":
        """Multiply by Gamma(two_x / 2)**e for an integer two_x >= 1."""
        if two_x < 1:
            raise PoleError(f"gamma at {two_x}/2 is not a positive half-integer point")
        if two_x % 2 == 0:
            return self.mul_factorial(two_x // 2 - 1, e)
        # Gamma(m + 1/2) = (2m)! / (4**m m!) sqrt(pi); 4**m is 2m in slot 0, the prime 2
        m = two_x // 2
        self.packed += (_factorial_packed(2 * m) - _factorial_packed(m) - 2 * m) * e
        self.bound += 5 * m * abs(e)
        if 2 * m > self.top:
            self.top = 2 * m
        self.pi_half += e
        return self

    def _exponents(self) -> zip:
        """(prime, exponent) for every prime up to ``top``."""
        if self.bound >= _SLOT_LIMIT:
            raise OverflowError(f"a prime exponent may exceed the packed slot ({self.bound} >= 2**63)")
        primes = primes_up_to(self.top)
        bias = int.from_bytes(_SLOT_BIAS * len(primes), "little")
        # each biased slot lies in [0, 2**64); flipping its top bit back leaves the
        # exponent in two's complement, which a signed 64-bit view reads
        slots = ((self.packed + bias) ^ bias).to_bytes(8 * len(primes), sys.byteorder)
        return zip(primes, memoryview(slots).cast("q"))

    def __imul__(self, other: "FactoredProduct") -> "FactoredProduct":
        """Multiply by the product another ledger holds; ``other`` is unchanged."""
        self.packed += other.packed
        self.bound += other.bound
        if other.top > self.top:
            self.top = other.top
        self.pi_half += other.pi_half
        return self

    def to_fraction(self) -> Fraction:
        if self.pi_half != 0:
            raise ResidualSqrtPiError(f"residual sqrt(pi)**{self.pi_half}")
        num = den = 1
        for p, e in self._exponents():
            if e > 0:
                num *= p**e
            elif e < 0:
                den *= p**-e
        return Fraction(num, den)

    def sqrt_surd(self) -> SurdValue:
        """Exact square root as a SurdValue; requires a pi-free value."""
        if self.pi_half != 0:
            raise ResidualSqrtPiError(f"residual sqrt(pi)**{self.pi_half} under sqrt")
        cnum = cden = 1
        rad = 1
        for p, e in self._exponents():
            if e % 2:
                # p**e = p**(e-1) * p, the stray p joins the radicand
                rad *= p
                e -= 1
            half = e // 2
            if half > 0:
                cnum *= p**half
            elif half < 0:
                cden *= p**-half
        return SurdValue(Fraction(cnum, cden), Fraction(rad))

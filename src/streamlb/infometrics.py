"""Exact information-theoretic computations on finite distributions.

Entropy and mutual information are in bits. KL divergence is offered in both
bases; the Pinsker comparison tvd <= sqrt(kl/2) needs nats, so callers pick
the base explicitly. Distributions whose probabilities are `Fraction`s are
processed in exact rational arithmetic wherever no logarithm is involved
(total variation, top-half mass); everything else is float with 1e-12
tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_TOL = 1e-12


def _is_exact(probs) -> bool:
    return all(isinstance(p, Fraction) for p in probs)


@dataclass(frozen=True)
class DiscreteDistribution:
    support: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise ValueError("support and probability lengths differ")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support labels must be distinct")
        if any(p < 0 for p in self.probs):
            raise ValueError("negative probability")
        total = sum(self.probs)
        if _is_exact(self.probs):
            if total != 1:
                raise ValueError(f"probabilities sum to {total}, not 1")
        elif abs(float(total) - 1.0) > _TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def __len__(self) -> int:
        return len(self.support)

    @property
    def exact(self) -> bool:
        return _is_exact(self.probs)


def uniform(support) -> DiscreteDistribution:
    support = tuple(support)
    p = Fraction(1, len(support))
    return DiscreteDistribution(support, (p,) * len(support))


def from_weights(support, weights) -> DiscreteDistribution:
    """Normalize nonnegative weights (Fractions stay exact)."""
    support = tuple(support)
    weights = tuple(weights)
    total = sum(weights)
    if total == 0:
        raise ValueError("all weights are zero")
    if _is_exact(weights) or all(isinstance(w, (int, Fraction)) for w in weights):
        return DiscreteDistribution(support, tuple(Fraction(w) / total for w in weights))
    return DiscreteDistribution(support, tuple(float(w) / float(total) for w in weights))


def _check_same_support(mu: DiscreteDistribution, nu: DiscreteDistribution):
    if mu.support != nu.support:
        raise ValueError("distributions are on different supports")


def _subset_sums(values) -> list:
    """The sum over every subset of values, the empty one included.

    Each subset's sum is its largest member added to the sum of the rest, so
    it costs one addition, and the members are added in index order from 0.
    """
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def tvd(mu: DiscreteDistribution, nu: DiscreteDistribution):
    """Total variation distance, (1/2) * sum |mu - nu|.

    On supports of size <= 12 the max-over-subsets form is evaluated too and
    both must agree; this keeps the fast formula honest. `Fraction`
    differences are put over their least common denominator first, so both
    forms are summed in integer numerators and each becomes one `Fraction`:
    the same rationals as summing the `Fraction`s.
    """
    _check_same_support(mu, nu)
    diffs = [p - q for p, q in zip(mu.probs, nu.probs)]
    exact = _is_exact(diffs)
    if exact:  # integer numerators over the least common denominator
        denom = math.lcm(*(d.denominator for d in diffs))
        diffs = [d.numerator * (denom // d.denominator) for d in diffs]
    l1 = sum(abs(d) for d in diffs)
    value = Fraction(l1, 2 * denom) if exact else 0.5 * l1
    if len(mu) <= 12:
        best = max(_subset_sums(diffs))
        if exact:
            best = Fraction(best, denom)
        if abs(float(best) - float(value)) > 1e-9:
            raise AssertionError(f"subset form {best} disagrees with half-L1 form {value}")
    return value


def uniform_shift_l1(weights):
    """The L1 numerator of a weight row's distance from uniform: sum_e |k*w_e - W|.

    For k nonnegative weights of mass W > 0, W * tvd(from_weights(.., weights),
    uniform(..)) equals this divided by 2k, so rows of one size can be summed
    in integers (or exact rationals) and divided once. As in `tvd`, rows of
    size <= 12 also evaluate the subset form on the same differences, which
    sum to zero, so twice the largest subset sum must equal the L1 sum exactly.
    """
    weights = tuple(weights)
    k, mass = len(weights), sum(weights)
    if mass == 0:
        raise ValueError("all weights are zero")
    diffs = [k * w - mass for w in weights]
    l1 = sum(map(abs, diffs))
    if k <= 12:
        best = max(_subset_sums(diffs))
        if 2 * best != l1:
            raise AssertionError(f"subset form {best} disagrees with L1 form {l1}/2")
    return l1


def kl(mu: DiscreteDistribution, nu: DiscreteDistribution, base: str = "2") -> float:
    """KL divergence sum mu(x) log(mu(x)/nu(x)); inf on absolute-continuity failure."""
    _check_same_support(mu, nu)
    if base not in ("2", "e"):
        raise ValueError("base must be '2' or 'e'")
    log = math.log2 if base == "2" else math.log
    total = 0.0
    for p, q in zip(mu.probs, nu.probs):
        p, q = float(p), float(q)
        if p == 0.0:
            continue
        if q == 0.0:
            return math.inf
        total += p * log(p / q)
    return max(total, 0.0)


def entropy(mu: DiscreteDistribution) -> float:
    """Shannon entropy in bits; 0 <= H <= log2 |support| is asserted."""
    h = -sum(float(p) * math.log2(float(p)) for p in mu.probs if float(p) > 0.0)
    upper = math.log2(len(mu)) if len(mu) else 0.0
    if not (-_TOL <= h <= upper + 1e-9):
        raise AssertionError(f"entropy {h} outside [0, log2 {len(mu)}]")
    return max(h, 0.0)


@dataclass(frozen=True)
class JointDistribution:
    """Finite joint over (X, Y): rows index X, columns Y."""

    row_labels: tuple
    col_labels: tuple
    probs: tuple  # tuple of rows, each a tuple

    def __post_init__(self):
        if len(self.probs) != len(self.row_labels):
            raise ValueError("row count mismatch")
        if any(len(row) != len(self.col_labels) for row in self.probs):
            raise ValueError("column count mismatch")
        flat = [p for row in self.probs for p in row]
        if any(p < 0 for p in flat):
            raise ValueError("negative probability")
        if abs(float(sum(flat)) - 1.0) > _TOL:
            raise ValueError("joint mass does not sum to 1")

    def marginal_x(self) -> DiscreteDistribution:
        return from_weights(self.row_labels, tuple(sum(row) for row in self.probs))


def mutual_information(j: JointDistribution) -> float:
    """I(X;Y) = H(X) - H(X|Y), in bits."""
    hx = entropy(j.marginal_x())
    h_cond = 0.0
    for col in range(len(j.col_labels)):
        py = float(sum(row[col] for row in j.probs))
        if py == 0.0:
            continue
        cond = [float(row[col]) / py for row in j.probs]
        h_cond -= py * sum(p * math.log2(p) for p in cond if p > 0.0)
    return max(hx - h_cond, 0.0)


# --- tensor form, used by the chain-rule / data-processing checks -----------

def tensor_entropy(p: np.ndarray) -> float:
    flat = p.reshape(-1)
    nz = flat[flat > 0]
    return float(-(nz * np.log2(nz)).sum())


def conditional_mutual_information(p: np.ndarray, x_axes, y_axes, given=()) -> float:
    """I(X;Y|Z) = H(XZ) + H(YZ) - H(XYZ) - H(Z) over a joint probability tensor."""
    x_axes, y_axes, given = tuple(x_axes), tuple(y_axes), tuple(given)
    if set(x_axes) & set(y_axes) or set(x_axes) & set(given) or set(y_axes) & set(given):
        raise ValueError("axis groups must be disjoint")

    def marg(keep):
        drop = tuple(ax for ax in range(p.ndim) if ax not in keep)
        return p.sum(axis=drop) if drop else p

    return (
        tensor_entropy(marg(x_axes + given))
        + tensor_entropy(marg(y_axes + given))
        - tensor_entropy(marg(x_axes + y_axes + given))
        - (tensor_entropy(marg(given)) if given else 0.0)
    )


@dataclass(frozen=True)
class TopHalfReport:
    chosen: tuple
    mass: object
    delta: object
    bound_holds: bool


def top_half_check(mu: DiscreteDistribution) -> TopHalfReport:
    """Mass of the top half of an even-size support vs the 1/2 + delta/2 floor.

    delta is the distance to uniform; the floor must hold for every input.
    Ties are broken toward the smaller support index.
    """
    n = len(mu)
    if n % 2 != 0:
        raise ValueError(f"support size must be even, got {n}")
    delta = tvd(mu, uniform(mu.support))
    order = sorted(range(n), key=lambda i: (-mu.probs[i], i))
    chosen = order[: n // 2]
    mass = sum(mu.probs[i] for i in chosen)
    floor = (Fraction(1, 2) + delta / 2) if mu.exact else (0.5 + float(delta) / 2)
    holds = mass >= floor if mu.exact else float(mass) >= floor - _TOL
    return TopHalfReport(
        chosen=tuple(mu.support[i] for i in sorted(chosen)),
        mass=mass,
        delta=delta,
        bound_holds=bool(holds),
    )


def expectation_transfer_bound(mu: DiscreteDistribution, nu: DiscreteDistribution, f) -> bool:
    """E_mu[f] <= E_nu[f] + tvd(mu,nu) * max|f|, checked exactly when possible.

    Holds for nonnegative f (the shift of mass toward larger values is capped
    by the distance); sign-indefinite f can pick up a second distance term and
    is rejected here.
    """
    _check_same_support(mu, nu)
    values = [f[x] if isinstance(f, dict) else f(x) for x in mu.support]
    if any(v < 0 for v in values):
        raise ValueError("the transfer bound needs a nonnegative variable")
    e_mu = sum(p * v for p, v in zip(mu.probs, values))
    e_nu = sum(p * v for p, v in zip(nu.probs, values))
    bound = e_nu + tvd(mu, nu) * max(abs(v) for v in values)
    if mu.exact and nu.exact and all(isinstance(v, (int, Fraction)) for v in values):
        return e_mu <= bound
    return float(e_mu) <= float(bound) + 1e-9

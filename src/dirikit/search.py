"""Enumeration of intertwining order isomorphisms between two forms.

An intertwining order isomorphism U = h tau is unitary up to a constant
beta, h^2 m2 = beta m1(tau), so with D_i = M_i^{1/2} it is D2 U D1^{-1} =
sqrt(beta) P for the permutation matrix P of tau, and the symmetrized
generators S_i = D_i L_i D_i^{-1} (``GraphForm.symmetric``) satisfy
P S1 = S2 P.  The search runs over the bijections on S, where neither h
nor units appear; h(y) = sqrt(m1(tau(y)) / m2(y)) and beta are computed
from the measures afterwards.  tau passes when each entry of
|S1[tau y, tau z] - S2[y, z]| is within rel sqrt(s(y) s(z)), s = diag S2
(``residual_bound``, the bound of certify's guard too), which no scaling
of b and c, of m, or Doob transform changes.

Enumeration is a depth-first assignment of target vertices in
lexicographic order, each to a source vertex of its domain in
lexicographic order, with these pruning rules:

* the eigenvalue multisets of the two generators must match (similar
  matrices have equal spectra), read from ``GraphForm.spectrum``;
* every layer A of the search is a pair of symmetric matrices that any
  solution carries onto each other, P A1 P^T = A2, each with a bound on
  the entries of P A1 P^T - A2: the generators S_i, within the bound
  above, and the resolvents R_i = (lambda + S_i)^-1 within their bound
  (``_resolvents``), whose dense entries see every distance in the graph;
* a source enters a target's domain only when the diagonal entry of
  P A1 P^T - A2 is within its bound, for every layer;
* forward checking: assigning a target removes from every later target's
  domain the assigned source and each source whose entry of
  P A1 P^T - A2 against the assigned pair exceeds its bound; a branch
  ends as soon as some later domain is empty (violations never disappear
  when a partial assignment is extended, so no solution is lost);
* small tails: at the root or after a forward check, when the product of
  the remaining targets' domains, P assignments of k targets, fills at
  most max(n^2, 4096) entries of a layer, P k^2, and the first of those
  targets has two sources or more, the search completes them in one
  step: it enumerates the product in lexicographic order, drops the
  assignments that use a source twice, and keeps those whose off-diagonal
  entries among the k targets are all within their bounds, in one
  vectorized test, the one that forward checking would make one depth at
  a time.  A forced tail, one source left per target, is the case P = 1
  and is always completed.  With one solution left to find, only a forced
  tail is, as the depth-first search stops at its first solution.  So the
  diagonal of each layer is checked at the root, and every other pair
  (y, z), (z, y) once along a branch: by a forward check, or by a tail
  step for each candidate assignment that uses distinct sources (the
  layers and bounds are bitwise symmetric);
* the search stops once ``max_solutions`` solutions are found.  The
  verdict searches for one more, so that it knows whether the list was
  cut, and keeps ``max_solutions`` of them.

The domains live in one target x source matrix stamped with the depth
that removed each entry, and a tail step holds at most max(n^2, 4096)
entries per layer, so the search state is O(n^2) at any depth.
Results are returned in lexicographic order of tau as a vertex-id
sequence, the order in which the depth-first search meets them, and are
bit-identical across repeated runs at a fixed BLAS build and thread
count, which the spectra and resolvents depend on in their last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import GraphForm, _string_order
from .errors import InvalidSize, NonPositive, NotIrreducible
from .orderiso import OrderIso, _operator_constants
from .tolerances import Tolerance


_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SearchOptions:
    tol: Tolerance = Tolerance(rel=1e-8)
    max_solutions: int = 1000

    def __post_init__(self):
        # an int >= 1: a float or NaN cap is never reached, and the search
        # slices its solutions by the cap
        cap = self.max_solutions
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
            raise InvalidSize("search options must be positive")


@dataclass(frozen=True)
class EquivalenceVerdict:
    solutions: tuple[OrderIso, ...] = ()
    reason: str | None = None  # size | spectrum | exhausted; None if equivalent
    capped: bool = False  # more than max_solutions solutions exist

    @property
    def equivalent(self) -> bool:
        return bool(self.solutions)


def spectra_match(form1: GraphForm, form2: GraphForm, spectral_tol: float) -> bool:
    """Compare the ascending generator spectra ``GraphForm.spectrum``,
    relatively per eigenvalue.

    Each eigenvalue may also differ by 8 n eps max|w|, the rounding of the
    two spectra: eigvalsh (LAPACK's dsyevd without eigenvectors, a
    tridiagonal reduction and dsterf) is backward stable like the full
    decomposition, so by Weyl's inequality a computed eigenvalue is off by
    a few n eps ||A|| at most, which dominates the small eigenvalues of a
    spectrum spanning many orders of magnitude.  A bound beyond the float
    range raises NumericOverflow.
    """
    w1 = form1.spectrum
    w2 = form2.spectrum
    if len(w1) != len(w2):
        return False
    rounding = 8.0 * len(w1) * _EPS * max(float(np.max(np.abs(w1))), float(np.max(np.abs(w2))))
    bound = Tolerance(rel=spectral_tol).bound(np.abs(w1)) + rounding
    return bool(np.all(np.abs(w1 - w2) <= bound))


# stamp of a (target, source) pair still in the target's domain; a removed
# pair holds the depth whose assignment removed it, -1 if never admitted
_ALIVE = np.iinfo(np.int32).max


# the empty list of tails, shared read-only
_NO_TAILS = np.empty((0, 0), dtype=np.intp)
_NO_TAILS.flags.writeable = False

# a tail whose P candidate assignments of k targets fill at most
# max(n^2, _TAIL_FLOOR) entries of each layer, P k^2, may be completed in
# one step; the floor admits 4 targets with 4 sources each on small forms
_TAIL_FLOOR = 4096


def _forward_check(s1, s2, stamp, assignment, d, bounds, room) -> np.ndarray | None:
    """Assign target d to source x = assignment[d]: remove from the domain
    of every later target y the sources x' whose entry A1[x', x] - A2[y, d]
    of P A1 P^T - A2 exceeds its bound, for each layer A of the stacks (the
    generators, then the resolvents if any), and x itself.  The layers
    and bounds are bitwise symmetric, so this also tests the entry (d, y).
    A NaN entry is removed, as it fails ``<=``.

    Returns no tail when some later domain is empty, else what ``_tails``
    returns for the later domains and ``room``.  When that is None, stamps
    the removed pairs with d, for the search to go deeper; otherwise
    stamps nothing."""
    x = assignment[d]
    gap = np.abs(s1[:, None, x] - s2[:, d, d + 1:, None])
    ok = (gap <= bounds[:, d, d + 1:, None]).all(axis=0)
    ok[:, x] = False
    later = stamp[d + 1:]
    live = later == _ALIVE
    ok &= live
    if not ok.any(axis=1).all():
        return _NO_TAILS
    tails = _tails(s1, s2, ok, d + 1, bounds, room)
    if tails is None:
        later[live ^ ok] = d
    return tails


def _tails(s1, s2, domains, first, bounds, room) -> np.ndarray | None:
    """The assignments of the targets first, first + 1, ... to sources of
    their domains (the boolean rows ``domains``) that complete a solution,
    as rows in lexicographic order; or None, for the search to go deeper,
    when the product of the domains, P assignments of k targets, has
    P > 1 and either fills more than ``room`` entries of a layer, P k^2,
    or leaves the first of these targets one source, whose forward check
    prunes the other domains at the cost of one check.

    The product is enumerated in lexicographic order, the assignments that
    use a source twice are dropped, and those left pass when every
    off-diagonal entry A1[tau y, tau y'] - A2[y, y'] among the k targets is
    within its bound, for every layer.  These are the entries that forward
    checking would test one depth at a time, in the same floating-point
    expression; the diagonal passed at the root, and the entries against
    the targets before ``first`` in their forward checks.  A forced tail,
    one source per target, is the case P = 1, completed whatever ``room``.
    No domain may be empty."""
    k = len(domains)
    total = np.count_nonzero(domains)
    if total == k:
        if np.count_nonzero(domains.any(axis=0)) < k:  # a source taken twice
            return _NO_TAILS
        tails = domains.argmax(axis=1)[None]
    else:
        # P >= total - k + 1, as no domain is empty
        if (total - k + 1) * k * k > room or np.count_nonzero(domains[0]) == 1:
            return None
        counts = domains.sum(axis=1)
        size = math.prod(counts.tolist())
        if size * k * k > room:
            return None
        # assignment t takes the (t // stride) % count-th source of each target
        stride = size // np.cumprod(counts)
        index = np.arange(size)[:, None] // stride % counts + (np.cumsum(counts) - counts)
        tails = domains.nonzero()[1][index]
        ordered = np.sort(tails, axis=1)
        tails = tails[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]
    if k > 1:
        gap = np.abs(s1[:, tails[:, :, None], tails[:, None, :]] - s2[:, None, first:, first:])
        gap.reshape(len(gap), len(tails), k * k)[..., ::k + 1] = 0.0  # the diagonal
        tails = tails[(gap <= bounds[:, None, first:, first:]).all(axis=(0, 2, 3))]
    return tails


def _search(s1, s2, domain, bounds, cap) -> np.ndarray:
    """Depth-first assignment of targets in index order to the sources of
    their domains in index order, stopping at ``cap`` solutions, the rows
    of the array returned; the verdict, searching one past its own cap,
    passes at least 2.  At the root and after each forward check, ``_tails``
    may complete the remaining targets in one step.  Once one solution is
    left to find, only a forced tail is: the depth-first search stops at
    its first solution, while a tail step enumerates the whole product.

    One int32 stamp matrix is the whole domain state: a branch removes
    pairs by stamping them with its depth and restores them when it is
    left, so memory stays O(n^2) at any depth; so does a tail's product,
    within max(n^2, ``_TAIL_FLOOR``) entries per layer.
    """
    if not domain.any(axis=1).all():
        return _NO_TAILS
    n = len(domain)
    room = max(n * n, _TAIL_FLOOR)
    tails = _tails(s1, s2, domain, 0, bounds, room)
    if tails is not None:
        return tails[:cap]
    stamp = np.where(domain, _ALIVE, -1).astype(np.int32)
    assignment = np.empty(n, dtype=np.intp)
    options = [iter(())] * n
    options[0] = iter(np.nonzero(domain[0])[0].tolist())
    solutions = [np.empty((0, n), dtype=np.intp)]
    found = 0
    d = 0
    while d >= 0:
        x = next(options[d], None)
        if x is None:
            d -= 1
            if d >= 0:  # leave the branch taken at depth d
                later = stamp[d + 1:]
                later[later == d] = _ALIVE
            continue
        assignment[d] = x
        tails = _forward_check(s1, s2, stamp, assignment, d, bounds, room)
        if tails is None:
            d += 1
            options[d] = iter(np.nonzero(stamp[d] == _ALIVE)[0].tolist())
        elif len(tails):
            block = np.empty((min(len(tails), cap - found), n), dtype=np.intp)
            block[:, :d + 1] = assignment[:d + 1]
            block[:, d + 1:] = tails[:len(block)]
            solutions.append(block)
            found += len(block)
            if found == cap:
                break
            if found == cap - 1:
                room = 0
    return np.concatenate(solutions)


def residual_bound(form: GraphForm, opts: SearchOptions) -> np.ndarray:
    """Entrywise acceptance bound for P S1 P^T - S2, S2 the symmetrized
    generator of the target ``form``: ``opts.tol`` of sqrt(s(y) s(z)) at
    (y, z), s = diag S2 = diag L2, in storage order; inf past the float
    range."""
    root = np.sqrt(form.generator_diagonal)
    with np.errstate(over="ignore"):
        return opts.tol.bound(np.outer(root, root))


# lambda / max s: on a unit path an entry of (lambda + S)^-1 falls by e every
# 7 hops (one of e^{-S / max s} like 2^-k / k! at hop k), while the bound of
# ``_resolvents`` grows like max s / lambda = 100 times rel of the entries
_SHIFT = 0.01
_INVERSE_ERROR = 16.0  # an inverse's entrywise error, in n eps kappa / lambda


def _resolvents(
    form1: GraphForm, form2: GraphForm, rel: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The resolvents R_i = (lambda + S_i)^-1, lambda = _SHIFT max s, s =
    diag S2, from one ``inv`` call and averaged with their transposes, and
    the entrywise bound of P R1 P^T - R2 for a solution; None when ``inv``
    fails or an R or the bound is not finite (at max s < 5.5e-309, or a
    measure ratio past the float range).

    lambda + S_i is a symmetric Z-matrix with eigenvalues >= lambda, so R_i
    >= 0, ||R_i||_2 <= 1/lambda, and R_i = M_i^{1/2} (lambda + L_i)^-1
    M_i^{-1/2} has row sums <= sqrt(rho_i) / lambda, rho_i = max m_i / min
    m_i, as L_i 1 >= 0.  By the resolvent identity P R1 P^T - R2 = -R2 E
    P R1 P^T, E = P S1 P^T - S2, and |E| <= rel u u^T, u = sqrt(s), for a
    solution, so entry (y, z) is at most rel (R2 u)(y) max u sqrt(rho1) /
    lambda, and the same with z.  The bound is c min(v(y), v(z)) + a, v
    the computed R2 u, c = (1 + 4 delta) (rel + eps) max u sqrt(rho1) /
    lambda, a = 2 c e sum(u) + 2 (1 + delta) e + 2 eps / lambda, delta =
    (n + 2) kappa eps, e = _INVERSE_ERROR n eps kappa / lambda, and kappa =
    1 + 2 max diag S_i / lambda, over both i, bounds the condition number
    of lambda + S_i (Gershgorin).  The terms past rel cover the rounding:

    * of lambda + S_i on the diagonal, by eps/2 (lambda + s_i(x)), which
      belongs in E: as s1(tau y) <= (1 + rel) s(y) and the check of S
      rounds too, |E| <= (1 + 4 eps) (rel + eps) u u^T + eps lambda I, and
      the last term adds eps / lambda at most.  The rounded S_i is
      semidefinite, its M-scaled row sums >= 0, up to n eps max s, so the
      1/lambda bounds hold up to 1 + 2 delta;
    * of the inverse: LU with partial pivoting solves each column of A X =
      I for an A + dA with ||dA||_2 <= 1.5 n eps g ||A||_2, g = || |L||U|
      ||_2 / ||A||_2 (Higham 2002, Thm 9.4), so a column, of norm <=
      1/lambda, and each entry are off by 1.5 g n eps kappa / lambda at
      most: e for g up to 10 (the tests see g < 4, and errors below 0.2
      n eps kappa / lambda against ``eigh``);
    * of R2 u: by e sum(u), twice that where R2 rounds below 0, and by n
      eps relative, which 1 + 4 delta covers, as it does c, a and the
      search's residuals.
    """
    s1, s2 = form1.symmetric, form2.symmetric
    n, top = len(s2), np.max(np.diag(s2))
    lam = _SHIFT * top
    shifted = np.stack((s1, s2))
    shifted[:, np.arange(n), np.arange(n)] += lam
    try:
        r1, r2 = np.linalg.inv(shifted)
    except np.linalg.LinAlgError:
        return None
    u = np.sqrt(np.diag(s2))
    with np.errstate(all="ignore"):  # a non-finite R or bound is refused below
        r1, r2 = 0.5 * (r1 + r1.T), 0.5 * (r2 + r2.T)
        v = r2 @ u  # finite only where R2 is, and so is the bound
        kappa = 1.0 + 2.0 * max(np.max(np.diag(s1)), top) / lam
        delta, e = (n + 2) * kappa * _EPS, _INVERSE_ERROR * n * _EPS * kappa / lam
        c = (1.0 + 4.0 * delta) * (rel + _EPS) * np.sqrt(top) / lam
        c *= np.sqrt(np.max(form1.space.m) / np.min(form1.space.m))
        a = 2.0 * c * (e * np.sum(u)) + 2.0 * (1.0 + delta) * e + 2.0 * _EPS / lam
        bound = c * np.minimum(v[:, None], v[None, :]) + a
    if not (np.isfinite(r1).all() and np.isfinite(bound).all()):
        return None
    return r1, r2, bound


def _diagonal_domain(a1: np.ndarray, a2: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Target x source boolean matrix: whether the entry (y, y) of
    P A1 P^T - A2, A1[x, x] - A2[y, y] with tau(y) = x, is within its
    bound.  A NaN entry fails it."""
    return np.abs(np.diag(a1)[None, :] - np.diag(a2)[:, None]) <= np.diag(bound)[:, None]


def _intertwiners(form1: GraphForm, form2: GraphForm, opts: SearchOptions) -> list[OrderIso]:
    """The search of ``find_intertwiners`` on two irreducible forms of equal
    size and matching spectra."""
    # assignment proceeds through target vertices in lexicographic order,
    # trying source vertices in lexicographic order: solutions come out in
    # lexicographic order of the tau sequence
    perm2 = np.array(_string_order(form2.space.vertices))
    perm1 = np.array(_string_order(form1.space.vertices))
    ix1, ix2 = np.ix_(perm1, perm1), np.ix_(perm2, perm2)
    layers1, layers2 = [form1.symmetric[ix1]], [form2.symmetric[ix2]]
    bounds = [residual_bound(form2, opts)[ix2]]
    domain = _diagonal_domain(layers1[0], layers2[0], bounds[0])
    # the resolvents are built only when some target keeps more than one
    # candidate source: a forced path has nothing left to prune
    if np.count_nonzero(domain, axis=1).max() > 1:
        resolvents = _resolvents(form1, form2, opts.tol.rel)
        if resolvents is not None:
            layers1.append(resolvents[0][ix1])
            layers2.append(resolvents[1][ix2])
            bounds.append(resolvents[2][ix2])
            domain &= _diagonal_domain(layers1[1], layers2[1], bounds[1])
    taus = _search(np.stack(layers1), np.stack(layers2), domain, np.stack(bounds),
                   opts.max_solutions)
    if not len(taus):
        return []

    # tau is a bijection, as the search uses each source once; its rows are
    # put in target storage order, that of OrderIso's arrays.  A measure
    # ratio beyond the float range rounds h to 0 or inf
    taus = perm1[taus[:, np.argsort(perm2)]]
    m1_tau, m2 = form1.space.m[taus], form2.space.m
    with np.errstate(over="ignore"):
        hs = np.sqrt(m1_tau / m2)
    if not np.all((hs > 0.0) & (hs < math.inf)):
        raise NonPositive("the scaling h must be strictly positive and finite")
    betas = _operator_constants(hs, m2, m1_tau).tolist()
    taus.flags.writeable = hs.flags.writeable = False
    return [OrderIso._trusted(form1.space, form2.space, tau, h, beta)
            for tau, h, beta in zip(taus, hs, betas)]


def equivalence_verdict(
    form1: GraphForm, form2: GraphForm, opts: SearchOptions = SearchOptions()
) -> EquivalenceVerdict:
    """Decide whether two forms are intertwined by some order isomorphism;
    without one, the reason names the first failed test: size, spectrum or
    the exhausted search."""
    if not (form1.irreducible and form2.irreducible):
        raise NotIrreducible("intertwiner search requires irreducible forms")
    if len(form1.space) != len(form2.space):
        return EquivalenceVerdict(reason="size")
    if not spectra_match(form1, form2, opts.tol.rel):
        return EquivalenceVerdict(reason="spectrum")
    # one solution past the cap tells whether the cap cut the list
    found = _intertwiners(form1, form2, replace(opts, max_solutions=opts.max_solutions + 1))
    if not found:
        return EquivalenceVerdict(reason="exhausted")
    cap = opts.max_solutions
    return EquivalenceVerdict(tuple(found[:cap]), capped=len(found) > cap)


def find_intertwiners(
    form1: GraphForm, form2: GraphForm, opts: SearchOptions = SearchOptions()
) -> list[OrderIso]:
    """All order isomorphisms intertwining the two forms, operator constant 1.

    Returns the bijections tau, each with the measure-induced scaling
    h(y) = sqrt(m1(tau(y)) / m2(y)), for which every entry of P S1 P^T - S2
    is within ``residual_bound``, in lexicographic order of tau as a
    vertex-id sequence, capped at ``opts.max_solutions``; none when the
    sizes differ or the spectra differ beyond ``tol.rel``.  NonPositive
    when the h of a solution is not a positive float.
    """
    return list(equivalence_verdict(form1, form2, opts).solutions)

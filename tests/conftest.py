import itertools

import numpy as np
from scipy.optimize import linprog

import dirikit as dk
from dirikit.search import SearchOptions, residual_bound


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def brute_force_intertwiners(form1, form2, opts: SearchOptions):
    """Oracle: test every bijection directly against the residual bound.

    Independent of the pruned search: plain permutation enumeration with
    the residual evaluated by matrix products.
    """
    n1, n2 = len(form1.space), len(form2.space)
    if n1 != n2:
        return []
    bound = residual_bound(form1, form2, opts)
    gen1, gen2 = dk.generator(form1), dk.generator(form2)
    accepted = []
    for perm in itertools.permutations(range(n1)):
        tau = {
            form2.space.vertices[i]: form1.space.vertices[perm[i]] for i in range(n2)
        }
        h = {
            y: float(np.sqrt(form1.space.m[perm[i]] / form2.space.m[i]))
            for i, y in enumerate(form2.space.vertices)
        }
        iso = dk.OrderIso(form1.space, form2.space, tau, h)
        if dk.intertwining_residual(iso, gen1, gen2) <= bound:
            accepted.append(iso)
    accepted.sort(key=lambda iso: tuple(iso.tau[y] for y in sorted(iso.tau)))
    return accepted


def tau_signature(iso):
    return tuple(iso.tau[y] for y in sorted(iso.tau))


def lp_nonconstant_excessive(gen, separation: float = 1e-3):
    """Oracle: a nonconstant excessive function found by linear programming.

    Independent of the closed form in ``find_nonconstant_excessive``: for
    each ordered vertex pair (x0, x1) solve L h >= 0, h >= 1, h(x0) = 1,
    h(x1) >= 1 + separation, minimizing sum(h).  Returns the first feasible
    h, or None when every pair is infeasible.
    """
    n = len(gen.space)
    for i0, i1 in itertools.permutations(range(n), 2):
        a_eq = np.zeros((1, n))
        a_eq[0, i0] = 1.0
        bounds = [(1.0, None)] * n
        bounds[i1] = (1.0 + separation, None)
        result = linprog(
            np.ones(n), A_ub=-gen.L, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0],
            bounds=bounds, method="highs",
        )
        if result.status == 0:
            return np.asarray(result.x, dtype=float)
    return None

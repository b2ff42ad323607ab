import itertools
import json
import math
from typing import Mapping

import numpy as np
from scipy.optimize import linprog

import dirikit as dk
from dirikit.errors import MalformedInput
from dirikit.search import SearchOptions, residual_bound


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def diagonal_overflow_form():
    """Edges of 6e-309 to a hub of conductance 1e300 to v3: the Green function
    is finite, its diagonal sum for v0, v1 is not."""
    return dk.build_form(
        ["v0", "v1", "v2", "v3"],
        {"v0": 1.7e308, "v1": 1e-300, "v2": 1e300, "v3": 1.7e308},
        [("v0", "v2", 6e-309), ("v1", "v2", 6e-309), ("v2", "v3", 1e300)],
    )


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


def _oracle_float(value: float) -> str:
    if not math.isfinite(value):
        raise MalformedInput(f"cannot serialize non-finite number {value}")
    return format(float(value), ".17g")


def oracle_dumps(obj, indent: int = 0) -> str:
    """Oracle: the recursive per-value serializer that ``jsonio.dumps``
    replaced; it takes lists, not arrays."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _oracle_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(item) is float for item in obj):
            items = [_oracle_float(item) for item in obj]
        else:
            items = [oracle_dumps(item, indent + 2) for item in obj]
        return "[\n" + ",\n".join(inner + item for item in items) + "\n" + pad + "]"
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(key))}: {oracle_dumps(value, indent + 2)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(inner + item for item in items) + "\n" + pad + "}"
    raise MalformedInput(f"cannot serialize {type(obj).__name__}")

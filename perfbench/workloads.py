"""The three workloads: their inputs, how one operation calls the package,
and the invariants a returned point value must satisfy.

* ``scan``   -- the paper's figure set on default grids (fig2, fig1 and a
  3721-point Wigner slice): ``bell``, ``gaussian`` and ``photon`` do the work,
  many calls share one state per strength, ``fock`` is idle.
* ``oracle`` -- the brute-force checks (default oracle-check, a B(3)
  oracle-check and errata): dense ``fock.squeeze_unitary`` dominates.
* ``point``  -- a seeded stream of independent library calls, one state per
  call, so batching or caching across calls cannot help.  Strengths run to 8
  on purpose: the package fails above about 6, and that must stay visible.

This module imports no part of the package, so the parent process can use it.
"""

import math

import numpy as np

COMMANDS = {
    "scan": (
        ("fig2", ["fig2"]),
        ("fig1", ["fig1"]),
        ("wigner_slice", ["wigner", "--lambda", "0.2", "--q1=-3:0.1:3", "--p1=-3:0.1:3"]),
    ),
    "oracle": (
        ("oracle_check", ["oracle-check"]),
        ("oracle_b3", ["oracle-check", "--quantity", "b3", "--lambda", "0.2",
                       "--b", "0.3", "--cutoffs", "6,8,10"]),
        ("errata", ["errata"]),
    ),
}
WORKLOADS = ("scan", "oracle", "point")
# the calibration kernel (calibration.py) that runs like each kind of pass
KERNEL = {"setup": "python", "scan": "python", "point": "python", "oracle": "blas"}

# Exact counts per kind, so every seed has the same mix; each kind's
# strengths are stratified over [0, MAX_STRENGTH], so every seed has the same
# share of each kind above 6 and nearly the same number of failures.
# The weights put the median latency inside the wigner cluster, not on the
# edge between two kinds, where it would jump with the seed.
POINT_MIX = (("b3", 800), ("wigner", 1600), ("moment", 800), ("pk", 800))
MAX_STRENGTH = 8.0

# orthonormal normal-mode basis of the coupling matrix: the symmetric mode
# (eigenvalue 2) and two modes of the orthogonal plane (eigenvalue -1)
_MODES = np.array([[1, 1, 1], [1, -1, 0], [1, 1, -2]], dtype=float)
_MODES = (_MODES / np.linalg.norm(_MODES, axis=1)[:, None]).T


def _amplitudes(rng, count, scale=1.0):
    return scale * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))


def _near_mean_point(rng, strength, alpha):
    """A phase-space point one standard normal draw away from the state's mean.

    Computed from the benchmark's own normal-mode form of the state, so a
    correct Wigner value lies in (0, pi^-3]: the position map has
    eigenvalues e^{-2s}, e^{s}, e^{s} and the momentum map their inverses.
    """
    q_gain = np.array([math.exp(-2 * strength), math.exp(strength), math.exp(strength)])
    p_gain = 1 / q_gain
    q_map = _MODES @ np.diag(q_gain) @ _MODES.T
    p_map = _MODES @ np.diag(p_gain) @ _MODES.T
    q = q_map @ (math.sqrt(2) * alpha.real) + _MODES @ (q_gain / math.sqrt(2) * rng.standard_normal(3))
    p = p_map @ (math.sqrt(2) * alpha.imag) + _MODES @ (p_gain / math.sqrt(2) * rng.standard_normal(3))
    return q, p


def point_queries(seed: int) -> list[dict]:
    """The point workload's queries for ``seed``, in the order they are sent."""
    rng = np.random.default_rng(seed)
    pairs = [(kind, (index + rng.random()) * MAX_STRENGTH / count)
             for kind, count in POINT_MIX for index in range(count)]
    order = rng.permutation(len(pairs))
    queries = []
    for kind, strength in (pairs[i] for i in order):
        query = {"kind": kind, "strength": float(strength), "alpha": _amplitudes(rng, 3)}
        if kind == "b3":
            query["beta"] = tuple(_amplitudes(rng, 3, 0.5))
            query["beta_prime"] = tuple(_amplitudes(rng, 3, 0.5))
        elif kind == "wigner":
            query["q"], query["p"] = _near_mean_point(rng, strength, query["alpha"])
        elif kind == "moment":
            coeffs = rng.standard_normal(6)
            query["coeffs"] = coeffs / np.linalg.norm(coeffs)
            query["order"] = int(rng.choice([2, 4, 6, 8]))
        else:
            query["k"] = int(rng.integers(2, 5))
            query["path"] = str(rng.choice(["paper", "exact"]))
        queries.append(query)
    return queries


def call(query: dict, trisqueeze) -> float:
    """Send one query to the package (looked up at call time, so tracing sees it)."""
    bell, gaussian, photon = trisqueeze.bell, trisqueeze.gaussian, trisqueeze.photon
    kind, strength, alpha = query["kind"], query["strength"], query["alpha"]
    if kind == "pk":
        return photon.pk(query["k"], alpha, strength, path=query["path"]).value
    state = gaussian.make_state(strength, alpha)
    if kind == "b3":
        setting = bell.BellSetting(beta=query["beta"], beta_prime=query["beta_prime"])
        return bell.b3(state, setting)
    if kind == "wigner":
        return gaussian.wigner(state, query["q"], query["p"])
    return gaussian.central_moment(state, gaussian.MomentQuery(query["coeffs"], query["order"]))


def valid(kind: str, value: float) -> bool:
    """The invariant every returned value of a query of ``kind`` must satisfy."""
    if not math.isfinite(value):
        return False
    if kind == "wigner":
        return 0 < value <= math.pi**-3
    if kind == "b3":
        return abs(value) < 4
    if kind == "moment":
        return value > 0
    return True  # pk: finite is all that is known in general


def top_level_calls(queries) -> dict:
    """The package functions each query calls directly, counted."""
    first = {"b3": "bell.b3", "wigner": "gaussian.wigner",
             "moment": "gaussian.central_moment", "pk": "photon.pk"}
    counts = {}
    for query in queries:
        names = [first[query["kind"]]]
        if query["kind"] != "pk":
            names.append("gaussian.make_state")
        for name in names:
            counts[name] = counts.get(name, 0) + 1
    return counts

"""Write tests/data/reference_60digit.json: Wigner exponents, B(3) values and
collective-mode photon moments evaluated with 60-digit mpmath arithmetic.

Run from the repository root (needs numpy and mpmath, not the package):

    python tests/data/make_reference.py

The inputs are double-precision numbers, stored exactly (JSON keeps every
float's repr); only the outputs are computed in 60 digits, from the closed
form pi^3 W = exp(-|p_map q - sigma|^2 - |q_map p - chi|^2) with
(sigma, chi) = sqrt(2) (Re alpha, Im alpha), p_map = exp(+s coupling) and
q_map = exp(-s coupling).  B(3) is E(b1,b2,b3') + E(b1,b2',b3) +
E(b1',b2,b3) - E(b1',b2',b3') with E = pi^3 W at the displacement and the
published setting beta = (0, 0, -b), beta' = (b, b, 0).

* ``wigner``: points within 3 standard deviations of the mean, per normal
  mode, for strengths in [-6, 6]; then, for |s| from 20 to 354, points and
  amplitudes with no component on the modes the squeeze stretches (q on the
  plane x1+x2+x3 = 0 and p along (1,1,1) for s > 0, the reverse for s < 0),
  (1800, -1800, 0) among them.  There the map entries of order e^{2|s|}
  cancel, so those are evaluated with 2|s|/ln 10 more digits;
* ``b3``: every row of tests/data/fig2_default.csv at its printed b_star,
  plus the strengths 5 and 6 at the b_star that ``fig2 --lambda 5:1:5`` and
  ``fig2 --lambda 6:1:6`` print;
* ``mean_power``: <A^dag^k A^k> of the collective mode A = (a1+a2+a3)/sqrt(3)
  for k = 1..6, strengths in [-4, 4] and |alpha_j| <= 2.  A^k evolves to
  (cA - tA^dag)^k with c = cosh 2s, t = sinh 2s; the product
  (cA^dag - tA)^k (cA - tA^dag)^k is normal-ordered symbolically, term by
  term, and its coherent expectation taken at a = sum(alpha)/sqrt(3).  This
  shares no derivation with the package's closed-form Wick sum;
* ``mean_power_grid``: the same moments, by the same symbolic normal
  ordering, on the fixed grid k = 1, 2, 3, strengths 0, 0.2, 0.25 and 0.5,
  alpha = (0, 0, 0), (0.8, 0.8, 0.8) and (1.2, -0.9, 0.5+1.5j) that
  acceptance criterion 06 and tests/test_photon.py check.  It is written
  before ``mean_power`` so that the earlier entries keep their lines.
"""

import csv
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 60
DATA = Path(__file__).parent
FIG2_ALPHA = (0.4, 0.5, 0.6)
STRENGTHS = (-6.0, -5.0, -3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0, 4.0, 5.0, 5.5, 6.0)
POINTS_PER_STRENGTH = 6
PLANE_STRENGTHS = (-350.0, -100.0, -20.0, 20.0, 100.0, 350.0, 354.0)
PLANE_POINTS_PER_STRENGTH = 4
LARGE_STRENGTH_ROWS = (("5", "0.01"), ("6", "0.01"))
POWER_CASES_PER_ORDER = 150
GRID_ORDERS = (1, 2, 3)
GRID_STRENGTHS = (0.0, 0.2, 0.25, 0.5)
GRID_ALPHAS = ((0, 0, 0), (0.8, 0.8, 0.8), (1.2, -0.9, 0.5 + 1.5j))


def _maps(strength):
    # (diagonal, off-diagonal) of p_map and of q_map, in 60 digits
    s = mp.mpf(strength)
    grow2, shrink = mp.exp(2 * s), mp.exp(-s)
    shrink2, grow = mp.exp(-2 * s), mp.exp(s)
    p_map = ((grow2 + 2 * shrink) / 3, (grow2 - shrink) / 3)
    return p_map, ((shrink2 + 2 * grow) / 3, (shrink2 - grow) / 3)


def exponent(strength, alpha, q, p):
    """|p_map q - sigma|^2 + |q_map p - chi|^2, all inputs taken as exact."""
    (pd, po), (qd, qo) = _maps(strength)
    total = mp.mpf(0)
    for j in range(3):
        k, l = (j + 1) % 3, (j + 2) % 3
        sigma = mp.sqrt(2) * mp.mpf(alpha[j].real)
        chi = mp.sqrt(2) * mp.mpf(alpha[j].imag)
        rq = pd * mp.mpf(q[j]) + po * (mp.mpf(q[k]) + mp.mpf(q[l])) - sigma
        rp = qd * mp.mpf(p[j]) + qo * (mp.mpf(p[k]) + mp.mpf(p[l])) - chi
        total += rq * rq + rp * rp
    return total


def b3(strength, b):
    """B(3) at the published setting of magnitude ``b``."""
    b = mp.mpf(b)
    alpha = [complex(a) for a in FIG2_ALPHA]
    beta, beta_prime = (0, 0, -b), (b, b, 0)
    total = mp.mpf(0)
    for primed, sign in (((0, 0, 1), 1), ((0, 1, 0), 1), ((1, 0, 0), 1), ((1, 1, 1), -1)):
        point = [beta_prime[j] if primed[j] else beta[j] for j in range(3)]
        q = [mp.sqrt(2) * x for x in point]  # real displacements: p = 0
        total += sign * mp.exp(-exponent(strength, alpha, q, [0, 0, 0]))
    return total


def _add(poly, key, value):
    poly[key] = poly.get(key, 0) + value


def normal_ordered_power(k, c, t):
    """{(m, n): coef} with B^dag^k B^k = sum coef A^dag^m A^n, B = cA - tA^dag."""
    right = {(0, 0): mp.mpf(1)}
    for _ in range(k):
        # A^dag^m A^n (cA - tA^dag) = c A^dag^m A^(n+1) - t A^dag^(m+1) A^n
        #                             - t n A^dag^m A^(n-1)
        out = {}
        for (m, n), coef in right.items():
            _add(out, (m, n + 1), c * coef)
            _add(out, (m + 1, n), -t * coef)
            if n:
                _add(out, (m, n - 1), -t * n * coef)
        right = out
    left = {(n, m): coef for (m, n), coef in right.items()}  # the adjoint; c, t are real
    product = {}
    for (m1, n1), c1 in left.items():
        for (m2, n2), c2 in right.items():
            # A^n1 A^dag^m2 = sum_j C(n1, j) C(m2, j) j! A^dag^(m2-j) A^(n1-j)
            for j in range(min(n1, m2) + 1):
                weight = math.comb(n1, j) * math.comb(m2, j) * math.factorial(j)
                _add(product, (m1 + m2 - j, n1 + n2 - j), weight * c1 * c2)
    return product


def mean_power(k, strength, alpha):
    """<A^dag^k A^k> in the squeezed coherent state, all inputs taken as exact."""
    s2 = 2 * mp.mpf(strength)
    amp = sum(mp.mpc(a.real, a.imag) for a in alpha) / mp.sqrt(3)
    terms = normal_ordered_power(k, mp.cosh(s2), mp.sinh(s2))
    return mp.re(sum(coef * mp.conj(amp) ** m * amp**n for (m, n), coef in terms.items()))


def near_mean_points(rng, strength, count):
    """Points within 3 sd of the mean on every normal mode, in double precision."""
    modes = np.array([[1, 1, 1], [1, -1, 0], [1, 1, -2]], dtype=float)
    modes = (modes / np.linalg.norm(modes, axis=1)[:, None]).T
    q_gain = np.array([np.exp(-2 * strength), np.exp(strength), np.exp(strength)])
    p_gain = 1 / q_gain
    q_map = modes @ np.diag(q_gain) @ modes.T
    p_map = modes @ np.diag(p_gain) @ modes.T
    out = []
    for _ in range(count):
        alpha = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        z_q, z_p = rng.uniform(-3, 3, (2, 3))
        q = q_map @ (np.sqrt(2) * alpha.real) + modes @ (q_gain / np.sqrt(2) * z_q)
        p = p_map @ (np.sqrt(2) * alpha.imag) + modes @ (p_gain / np.sqrt(2) * z_p)
        out.append((alpha, q, p))
    return out


def plane_points(rng, strength, count):
    """Points and amplitudes off the stretched modes, exactly in double precision.

    For s > 0 the squeeze stretches the (1,1,1) component of q and the plane
    components of p by e^{2s} and e^{s}; q = (a, b, -(a+b)) and p = (c, c, c)
    have none, and neither have Re alpha of the form of q and Im alpha of the
    form of p.  For s < 0 the roles of q and p swap.  Every input is a multiple of 2^-10, so
    a + b is exact.
    """
    dyadic = lambda bound, size: rng.integers(-bound * 2**10, bound * 2**10, size) / 2**10

    def plane_and_line(bound):
        a, b, c = dyadic(bound, 3)
        return [a, b, -(a + b)], [c, c, c]

    out = []
    for _ in range(count):
        q, p = plane_and_line(1024)
        re, im = plane_and_line(1)
        if strength < 0:
            q, p, re, im = p, q, im, re
        out.append((np.array(re) + 1j * np.array(im), q, p))
    return out


def main():
    rng = np.random.default_rng(60)
    wigner = []
    for strength in STRENGTHS:
        for alpha, q, p in near_mean_points(rng, strength, POINTS_PER_STRENGTH):
            wigner.append({
                "strength": strength,
                "alpha": [[a.real, a.imag] for a in alpha.tolist()],
                "q": q.tolist(),
                "p": p.tolist(),
                "exponent": mp.nstr(exponent(strength, alpha, q, p), 30),
            })
    rng = np.random.default_rng(62)
    for strength in PLANE_STRENGTHS:
        cases = plane_points(rng, strength, PLANE_POINTS_PER_STRENGTH)
        if strength == 354.0:
            cases.append((cases[-1][0], [1800.0, -1800.0, 0.0], [0.0, 0.0, 0.0]))
        for alpha, q, p in cases:
            with mp.workdps(mp.mp.dps + math.ceil(2 * abs(strength) / math.log(10))):
                value = mp.nstr(exponent(strength, alpha, q, p), 30)
            wigner.append({
                "strength": strength,
                "alpha": [[a.real, a.imag] for a in alpha.tolist()],
                "q": [float(x) for x in q],
                "p": [float(x) for x in p],
                "exponent": value,
            })
    with open(DATA / "fig2_default.csv", newline="") as handle:
        rows = [(row["lambda"], row["b_star"]) for row in csv.DictReader(handle)]
    bell = [{"strength": float(s), "b": float(b), "b3": mp.nstr(b3(float(s), float(b)), 30)}
            for s, b in rows + list(LARGE_STRENGTH_ROWS)]
    grid = [{"k": k, "strength": strength, "alpha": [[a.real, a.imag] for a in alpha],
             "value": mp.nstr(mean_power(k, strength, alpha), 30)}
            for k in GRID_ORDERS for strength in GRID_STRENGTHS
            for alpha in ([complex(a) for a in triple] for triple in GRID_ALPHAS)]
    rng = np.random.default_rng(61)
    powers = []
    for k in range(1, 7):
        for _ in range(POWER_CASES_PER_ORDER):
            strength = float(rng.uniform(-4, 4))
            alpha = 2 * np.sqrt(rng.uniform(0, 1, 3)) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
            powers.append({
                "k": k,
                "strength": strength,
                "alpha": [[a.real, a.imag] for a in alpha.tolist()],
                "value": mp.nstr(mean_power(k, strength, alpha), 30),
            })
    lines = lambda entries: ",\n".join("  " + json.dumps(entry) for entry in entries)
    (DATA / "reference_60digit.json").write_text(
        f'{{"mpmath": "{mp.__version__}", "dps": {mp.mp.dps},\n'
        f' "wigner": [\n{lines(wigner)}\n ],\n "b3": [\n{lines(bell)}\n ],\n'
        f' "mean_power_grid": [\n{lines(grid)}\n ],\n'
        f' "mean_power": [\n{lines(powers)}\n ]}}\n'
    )


if __name__ == "__main__":
    main()

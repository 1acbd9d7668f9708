"""Discrepancy report for the published closed forms this package implements.

Each entry records a literal formula variant, the form actually implemented,
and numeric evidence for the correction, measured against an independent
route (the Fock oracle or the exact collective-mode reduction).  The probes
are fixed, and at each of them the literal form is measurably off.
"""

import math

import numpy as np

from .fock import build_arena, coherent_ket, displaced_parity, evolve, ladder
from .gaussian import _quadratures, make_state, wigner
from .matrices import collective_factors
from .photon import gm_pair, mean_power_exact

__all__ = ["build_errata"]

_PROBE_STRENGTH = 0.2
_PROBE_ALPHA = (0.3, 0.2 + 0.1j, -0.25)
_PROBE_CUTOFF = 10


def _wigner_entry() -> dict:
    strength = _PROBE_STRENGTH
    state = make_state(strength, _PROBE_ALPHA)
    betas = np.array([0.25 + 0.1j, -0.15, 0.1 - 0.2j])
    q, p = _quadratures(betas)

    implemented = math.pi**3 * wigner(state, q, p)
    # literal matrix attachment, contracting exponential on q and expanding on p: the maps of
    # strength -s, whose gains are those of s with the q and p rows swapped
    swapped = math.pi**3 * wigner(make_state(-strength, _PROBE_ALPHA), q, p)

    arena = build_arena(_PROBE_CUTOFF)
    ket = evolve(arena, strength, coherent_ket(arena, _PROBE_ALPHA))
    oracle = displaced_parity(arena, ket, betas)

    return {
        "id": "E1",
        "target": "closed-form Wigner function",
        "literal_form": (
            "second line reuses the coordinate vector in the momentum term "
            "(integrand then has no momentum dependence and cannot normalize), "
            "and attaches exp(-s*coupling) to q / exp(+s*coupling) to p"
        ),
        "implemented_form": (
            "exp(+s*coupling) acts on q against sqrt(2)Re(alpha); "
            "exp(-s*coupling) acts on p against sqrt(2)Im(alpha)"
        ),
        "evidence": {
            "probe_strength": strength,
            "parity_oracle": oracle,
            "implemented_pi3_w": implemented,
            "literal_swapped_pi3_w": swapped,
            "implemented_vs_oracle": abs(implemented - oracle),
            "literal_vs_oracle": abs(swapped - oracle),
        },
    }


def _gm_entry() -> dict:
    strength = 1.0
    alpha = (1.0, 1.0, 1.0)
    g, m = gm_pair(alpha, strength)
    product = (g * m).real
    total = sum(alpha)
    printed_expansion = ((2 / 3) * (2 * total**2)
                         - (4 / 3) * (1 / math.tanh(-4 * strength)) * abs(total) ** 2)
    # plain principal branches of both square roots, product = -2/3
    coll_sum, coll_diff = collective_factors(strength)
    root_sd = complex(np.lib.scimath.sqrt(2 * coll_sum / (3 * coll_diff)))
    root_ds = complex(np.lib.scimath.sqrt(2 * coll_diff / (3 * coll_sum)))
    g_pp = 1j * (root_sd * np.conj(total) - root_ds * total)
    m_pp = 1j * (root_sd * total - root_ds * np.conj(total))
    principal_product = (g_pp * m_pp).real

    return {
        "id": "E2",
        "target": "collective amplitude pair (G, M)",
        "literal_form": (
            "the printed definition mixes two summation indices inside one sum "
            "and leaves the branch of the two square roots unspecified"
        ),
        "implemented_form": (
            "single summation index; the roots of (2u/3v) and (2v/3u) are "
            "branch-locked so their product is 2/3, which reproduces the "
            "printed tanh/coth expansions of G*M, G^2 and M^2"
        ),
        "evidence": {
            "probe": "alpha=(1,1,1), strength=1",
            "implemented_gm": product,
            "printed_expansion_gm": printed_expansion,
            "plain_principal_gm": principal_product,
            "implemented_vs_printed": abs(product - printed_expansion),
            "principal_vs_printed": abs(principal_product - printed_expansion),
        },
    }


def _collective_transform_entry() -> dict:
    strength = _PROBE_STRENGTH
    alpha = (0.4, -0.2 + 0.3j, 0.1)
    arena = build_arena(_PROBE_CUTOFF)
    ket = coherent_ket(arena, alpha)
    lowered = ladder(arena, evolve(arena, strength, ket), 1 / math.sqrt(3))  # A U|ket>
    moved = evolve(arena, -strength, lowered)  # U^dag = e^{-K}, same truncated K
    oracle = complex(np.vdot(ket, moved))

    amp = sum(alpha) / math.sqrt(3)
    coll_sum, coll_diff = collective_factors(strength)
    implemented = (coll_sum * amp + coll_diff * np.conj(amp)) / 2
    literal = (coll_diff * amp + coll_sum * np.conj(amp)) / math.sqrt(2)

    return {
        "id": "E3",
        "target": "collective-mode Heisenberg transform",
        "literal_form": (
            "prefactor 1/sqrt(2) with (coll_diff*A + coll_sum*A^dag): "
            "at zero strength it maps A to sqrt(2)*A^dag instead of A"
        ),
        "implemented_form": (
            "(coll_sum*A + coll_diff*A^dag)/2 = cosh(2s)A - sinh(2s)A^dag"
        ),
        "evidence": {
            "probe_strength": strength,
            "oracle_transformed_mean": [oracle.real, oracle.imag],
            "implemented_mean": [implemented.real, implemented.imag],
            "literal_mean": [literal.real, literal.imag],
            "implemented_vs_oracle": abs(implemented - oracle),
            "literal_vs_oracle": abs(literal - oracle),
            "mean_photon_vacuum_exact": mean_power_exact(1, (0, 0, 0), strength),
            "mean_photon_vacuum_literal_formula": math.sinh(2 * strength) ** 2 / 4,
        },
    }


def build_errata() -> list[dict]:
    """The three entries, each with its literal and implemented forms and the evidence."""
    return [_wigner_entry(), _gm_entry(), _collective_transform_entry()]

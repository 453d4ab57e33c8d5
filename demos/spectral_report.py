"""Spectral and rate diagnostics for a generated network.

Builds the expected update matrix, verifies the consensus spectrum (one
zero eigenvalue, the rest strictly stable), solves the Lyapunov equation
on the disagreement block, and prints the admissible scaled-disagreement
exponents for each drift variant.
"""

import numpy as np

from clocksync import analysis, sync, topology


def main():
    net = topology.generate_geometric(topology.GeometricSpec(10, 0.5, 0.1),
                                      seed=42)
    profile = topology.probability_profile(net)

    print(f"network: n={net.n}, arcs={len(net.table.arc)}, "
          f"centers={topology.centers(net)}")
    print(f"update probabilities p_i: "
          f"{np.array2string(profile.p, precision=3)}")

    report = analysis.spectral_check(analysis.build_B_bar(net, profile))
    eig = np.sort_complex(report.eigenvalues)
    print(f"\nexpected update matrix spectrum "
          f"(zero multiplicity {report.zero_multiplicity}, "
          f"hurwitz={report.hurwitz_ok}):")
    for lam in eig:
        print(f"  {lam.real:+.4f} {lam.imag:+.4f}j")

    r = analysis.lyapunov_solve(report.B_star, np.eye(net.n - 1))
    print(f"\nLyapunov solution eigenvalues (all positive): "
          f"{np.array2string(np.linalg.eigvalsh(r), precision=3)}")

    print("\nadmissible scaled-disagreement exponents (zeta' = 0.99):")
    for variant in (sync.DriftA(1), sync.DriftB(0.5), sync.DriftC(0)):
        bound = analysis.rate_bound(variant, 0.99, net)
        print(f"  {str(variant):16s} zeta*d_max = {bound.zeta_d_max:.3f} "
              f"(r={bound.r:.3g}, q={bound.q:.3g})")


if __name__ == "__main__":
    main()

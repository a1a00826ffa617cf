"""Reference nested Gauss–Jacobi kernel for the chamber quadrature.

This is the original numpy-scalar implementation of
``kzdyn.numeric._nested_gauss_jacobi``, kept verbatim so that the tests can
check the float-native kernel against it bit for bit.  It is not used by the
package.  Its rules are the package's own, ``kzdyn.numeric._jacobi_rule``,
so that the comparison is of the kernels alone.
"""

from kzdyn.numeric import ChamberIntegral, _jacobi_rule


def nested_gauss_jacobi_reference(ci: ChamberIntegral, n_nodes: int) -> float:
    m = ci.m
    pair = dict(ci.pair)
    carry = [0.0] * (m + 1)
    for i in range(1, m):
        carry[i + 1] = carry[i] + ci.pow0[i - 1] + pair.get((i, i + 1), 0.0) + 1.0
    rules = {}

    def rule(alpha: float, beta: float):
        key = (alpha, beta)
        if key not in rules:
            x, w = _jacobi_rule(n_nodes, alpha, beta)
            rules[key] = ((x + 1.0) / 2.0, w)
        return rules[key]

    def level(i: int, outer: dict[int, float]) -> float:
        # returns the smooth part only: the accumulated power of the upper
        # limit is absorbed into the next level's quadrature weight
        upper = outer[i + 1] if i < m else ci.bound
        alpha = pair.get((i, i + 1), 0.0) if i < m else ci.pow1[m - 1]
        beta = ci.pow0[i - 1] + carry[i]
        nodes, weights = rule(alpha, beta)
        total = 0.0
        for s, w in zip(nodes, weights):
            t_i = upper * s
            g = 1.0
            for k in range(i + 2, m + 1):
                e = pair.get((i, k), 0.0)
                if e:
                    g *= (outer[k] - t_i) ** e
            if i < m and ci.pow1[i - 1]:
                g *= (ci.bound - t_i) ** ci.pow1[i - 1]
            if i > 1:
                inner = dict(outer)
                inner[i] = t_i
                g *= level(i - 1, inner)
            total += w * g
        return 0.5 ** (alpha + beta + 1.0) * total

    if m == 0:
        return 1.0
    top = ci.pow1[m - 1] + ci.pow0[m - 1] + carry[m] + 1.0
    return float(ci.bound ** top * level(m, {}))

"""Gabriel quotient rings R(m) of affine domains, computed exactly.

For R = Q[x1..xn]/P (P prime) and 0 <= m < n, the m-Gabriel filter g is
the set of ideals I of R with dim(R/I) < m, and

    R(m) = { q in Frac(R) : qJ <= R for some J in g }.

The package decides membership in R(m) with certificates, computes
g-saturations, extension/contraction between R and R(m), and runs
property suites for the supporting lemmas.  The `gq` console script is
the front end.
"""

__version__ = "0.1.0"

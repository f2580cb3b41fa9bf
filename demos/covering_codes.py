"""Build covering codes of the three flavours and verify them independently.

1. Greedy hypercube code at a single radius.
2. A radius-indexed family jointly covering a power of a chain solution space.
3. The generalized family for a cube-times-chains product space.
"""

from detksat import (
    CubeFactor,
    PowerFactor,
    StructuredSpace,
    build_generalized_code,
    canonical_realization,
    cover_cube,
    ell_cover_spaces,
    lambda_for_zeta,
    solution_space,
    verify_coverage,
)

print("=== hypercube, width 10 at radius 3 ===")
fam = cover_cube(10, 3)
rep = verify_coverage(fam, StructuredSpace((CubeFactor(10),)))
print("centers:", len(fam.entries[3]), "| coverage:", "ok" if rep.ok else "FAILED",
      "(%d words checked)" % rep.checked)

print()
print("=== radius-indexed family for the squared 1-chain space ===")
one_chain = solution_space(canonical_realization("*"))
lam = lambda_for_zeta("*")
fam = ell_cover_spaces((one_chain, one_chain), 3, lam)
print("characteristic value:", lam, "| radius bound in description:", fam.description)
for r in fam.radii():
    print("  radius %d: %d centers" % (r, len(fam.entries[r])))
rep = verify_coverage(fam, StructuredSpace((PowerFactor((one_chain, one_chain)),)))
print("joint coverage of all 49 words:", "ok" if rep.ok else "FAILED")

print()
print("=== generalized family: 4 free bits x one 1-chain ===")
space = StructuredSpace((CubeFactor(4), PowerFactor((one_chain,))))
fam = build_generalized_code(space, [lam], 3)
print("space holds", space.count_words(), "words; family radii:", fam.radii())
rep = verify_coverage(fam, space)
print("coverage:", "ok" if rep.ok else "FAILED")

print()
print("=== dump format (first lines) ===")
for line in fam.dump().splitlines()[:6]:
    print(line)

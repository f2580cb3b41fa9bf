"""Reproduce the two constant tables of the toolkit.

Table one: worst-case bases c_k for k = 3..6 with the balancing fractions.
Table two: all 38 chain types with exact characteristic values and f-values,
solved from scratch by the rational LP solver, then cross-checked against the
breadth-first type generator.
"""

from detksat import balance_check, ck_recurrence, generate_chain_types, reference_diff, reproduce_table2
from detksat.bounds import round_up
from detksat.characteristic import TSV_HEADER

print("=== worst-case bases ===")
print("k\tc_k (round-up)\tnu")
for row in ck_recurrence(6):
    rep = balance_check(row.k)
    print("%d\t%.5f\t\t%.6f   (balance residual %.1e)" % (row.k, round_up(row.ck), row.nu, rep.rel_err))

print()
print("=== chain types (exact characteristic values) ===")
print(TSV_HEADER)
for rec in reproduce_table2():
    print(rec.tsv_row(exact=True))

print()
print("=== breadth-first generation vs the reference rows ===")
records = generate_chain_types()
diff = reference_diff(records)
print("generated %d type records" % len(records))
missing = [d for d in diff if "not generated" in d]
print("reference rows missing from generation: %d" % len(missing))
extras = [d for d in diff if "not in reference" in d]
print("closure is under-determined; %d extra classes beyond the reference:" % len(extras))
for d in extras:
    print("  " + d)

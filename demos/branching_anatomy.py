"""Dissect the 3-SAT branching: simplification, clause seeding, termination.

The simplification procedure commits autark assignments and replaces
3-clauses by implied 2-clauses; the seeding rule picks each next branching
clause from the 2-clauses that unit propagation derives out of 3-clauses;
condition Phi ends a search path once the accumulated chains are worth more
to the local search than to the branching.
"""

from detksat import formula, member, procedure_p_tracked, tb_set
from detksat.branching3 import Br3Stats, PhiConfig, br_3
from detksat.chains import ChainVector, zeta
from detksat.formula import Node
from detksat.branching3 import condition_phi
from detksat.generator import gen_random_kcnf

print("=== the derived-2-clause sets that drive everything ===")
f = Node.of(formula(7, [(1, 2), (-1, 3, 4), (5, 6, 7)]))
tb = tb_set(f, 1)
print("propagating x1=1 turns (-1 3 4) into", [member(f, tb, s).lits for s in tb.src])
tb = tb_set(f, 2)
print("propagating x2=1 derives nothing new:", tb.src, "-> x2=1 is autark")

print()
print("=== simplification in action ===")
g = formula(4, [(1, 2), (-1, 3, 4)])
print("before:", [c.lits for c in g.clauses])
print("after: ", [c.lits for c in procedure_p_tracked(Node.of(g))[0].formula().clauses], "(autark committed x2=1)")

print()
print("=== the termination condition's arithmetic ===")
cfg = PhiConfig()
for count in (25, 26):
    vec = ChainVector({("*", False): count})
    print("%d independent 1-chains on 100 variables -> condition Phi %s"
          % (count, "fires" if condition_phi(vec, 100, cfg) else "does not fire"))

print()
print("=== a traced run that ends in an instance ===")
f = gen_random_kcnf(3, 12, 51, seed=2)
st = Br3Stats()
lines = []
out = br_3(f, PhiConfig(c=1.05), trace=lines.append, stats=st)
for line in lines[:8]:
    print("  " + line)
print("outcome:", out.verdict, "| nodes:", st.nodes, "| leaves:", st.leaves)
if out.verdict == "INSTANCE":
    print("chains handed to local search:",
          [(zeta(ch.clauses), len(ch.clauses)) for ch in out.instance.chains])
for ev in st.phi_events:
    print("at the stop: %d leaves explored <= branch-number product %s"
          % (ev.leaves_before, ev.path_product))

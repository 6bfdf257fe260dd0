#!/usr/bin/env python3
# The dichotomy by search: permutation pairs L1(x^-1) + L2(x) exist over
# GF(2^3) and GF(2^4) but vanish from GF(2^5) on.  n=3 is brute force,
# n=4 searches one representative per left-composition orbit, n>=5 runs
# the pruned pipeline over the normalized form.

from invperm.search import full_search, identity_L1_search, normalized_search


def show(rep):
    print(f"mode={rep.mode} field={rep.field_spec} examined={rep.examined}"
          f" witnesses={rep.witness_count}")
    for name, survivors in rep.stages:
        print(f"    {name:>20}: {survivors}")


print("== every nonzero pair over GF(2^3) ==")
rep = full_search(3)
show(rep)
print("   sample witnesses:", rep.witnesses[:3])

print("\n== one representative per orbit over GF(2^4) ==")
show(full_search(4))

print("\n== single-map form x^-1 + L(x) ==")
for n in (3, 4, 5):
    show(identity_L1_search(n))

print("\n== normalized form over GF(2^5) and GF(2^6): nothing survives ==")
show(normalized_search(5))
show(normalized_search(6))

"""Generate a synthetic benchmark where each domain is the same Gaussian
mixture seen through a different rotation, and write it to disk: a
manifest.json and one `.npy` file per (domain, split), each a structured
array with one element per row (an int64 `label` on labeled splits, and
the float64 features `x`).

Eval rows are paired across domains (one shared draw, rotated per domain),
which is what makes later representation-similarity comparisons well posed.
"""

import sys
from pathlib import Path

import numpy as np

from ditto import DomainSpec, MixtureSpec, Rng, SizeSpec, generate_synthetic

MEANS = [[0.0, 1.8], [3.0, 0.0], [-3.44, -2.409]]


def main():
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output") / "ladder"
    base = MixtureSpec(means=MEANS, sigma=0.55)

    source_sizes = SizeSpec(labeled=400, unlabeled=400, fewshot=40, eval=200)
    target_sizes = SizeSpec(labeled=0, unlabeled=400, fewshot=40, eval=200)
    domains = [DomainSpec(id="src", kind="source", transform={"kind": "identity"},
                          sizes=source_sizes)]
    for angle in (15, 30, 45, 60):
        domains.append(DomainSpec(id=f"rot{angle}", kind="target",
                                  transform={"kind": "rotation", "angle": angle},
                                  sizes=target_sizes))

    dataset = generate_synthetic(base, domains, Rng(7), out_dir=out)

    print(f"wrote {out}/")
    for name in sorted(p.name for p in out.iterdir()):
        print(f"  {name}")

    print("\nper-domain split sizes")
    for dom in [dataset.source] + dataset.target_ids():
        s = dataset.domains[dom]
        print(f"  {dom:6s} labeled={s.labeled.n:4d} unlabeled={len(s.unlabeled):4d} "
              f"fewshot={s.fewshot.n:3d} eval={s.eval.n:4d}")

    sample = out / "src.labeled.npy"
    rows = np.load(sample, allow_pickle=False)
    print(f"\nfirst rows of {sample.name} ({rows.dtype.descr})")
    for row in rows[:3]:
        print(f"  label={row['label']} x={row['x'].tolist()}")


if __name__ == "__main__":
    main()
